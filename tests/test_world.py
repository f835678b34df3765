"""Whole-simulation behaviour: wiring, determinism, radio pruning, collisions,
bookkeeping."""
import copy
import gc
import inspect
import itertools
import os
import random
import subprocess
import sys
import weakref
from collections import defaultdict
from dataclasses import replace

import pytest
from conftest import Recorder
from test_acceptance import random_static_layout

from ntorrent_sim import forwarding as fw
from ntorrent_sim import mobility
from ntorrent_sim import trace as tc
from ntorrent_sim import world as world_module
from ntorrent_sim.cli import sweep
from ntorrent_sim.engine import derive_stream
from ntorrent_sim.mobility import (
    EPOCH_INTERVAL_US,
    SPEED_MAX_MS,
    GridBounds,
    RadioConfig,
    broadcast_receivers,
    in_range,
    position_at,
)
from ntorrent_sim.names import Interest, piece_name
from ntorrent_sim.scenario import (
    MobilityKind,
    NodeKind,
    NodeSpec,
    ScenarioConfig,
    StrategyParams,
    TorrentSpec,
    build_five_node,
    build_random_field,
    validate,
)
from ntorrent_sim.world import World, run_scenario


def three_node_relay(p_forward=1.0, duration_us=30_000_000):
    """Seeder, pure forwarder, leecher on a line; the forwarder is the only path."""
    return validate(ScenarioConfig(
        nodes=[
            NodeSpec("s", NodeKind.SEEDER, "movie1", (50.0, 150.0)),
            NodeSpec("p", NodeKind.PURE_FORWARDER, None, (100.0, 150.0)),
            NodeSpec("l", NodeKind.LEECHER, "movie1", (150.0, 150.0)),
        ],
        torrents=[TorrentSpec("movie1", n_pieces=8)],
        strategy=StrategyParams(p_forward=p_forward),
        duration_us=duration_us,
    ))


def test_relay_chain_delivers_the_whole_torrent():
    trace, metrics = run_scenario(three_node_relay(), master_seed=1)
    lm = metrics.per_leecher["l"]
    assert lm.completed
    assert 0 < lm.completion_time_us <= 30_000_000
    assert metrics.pieces_delivered >= 8
    assert metrics.overhead_ratio >= 1.0
    # the forwarder moved every piece at least once
    assert metrics.per_node["p"].data_tx >= 8


def test_five_node_crossing_downloads():
    trace, metrics = run_scenario(build_five_node(1.0), master_seed=1)
    assert metrics.per_leecher["n2"].completed  # movie1 across the line
    assert metrics.per_leecher["n1"].completed  # movie2 the other way
    assert trace[-1].event == tc.END
    times = [rec.time_us for rec in trace]
    assert times == sorted(times)
    # same beacon interval everywhere, yet per-node jitter desyncs the schedules
    beacons: dict[str, list[int]] = {}
    for rec in trace:
        if rec.event == tc.BEACON_TX:
            beacons.setdefault(rec.node, []).append(rec.time_us)
    assert beacons["n0"] != beacons["n4"]


def test_zero_duration_produces_no_protocol_activity():
    trace, metrics = run_scenario(three_node_relay(duration_us=0), master_seed=1)
    assert not metrics.per_leecher["l"].completed
    assert metrics.total_tx == 0
    assert metrics.pieces_delivered == 0
    events = {rec.event for rec in trace}
    assert events <= {tc.POSITION, tc.END}


def test_walkers_placed_on_a_wall_start_just_inside_it():
    # position_at moves a walker's coordinate that lies on a wall one step
    # inside the grid, from the first sample on; a static node stays as placed
    cfg = validate(ScenarioConfig(
        nodes=[
            NodeSpec("s", NodeKind.SEEDER, "movie1", (0.0, 0.0), MobilityKind.RANDOM_WALK),
            NodeSpec("f", NodeKind.PURE_FORWARDER, None, (50.0, 300.0)),
            NodeSpec("l", NodeKind.LEECHER, "movie1", (300.0, 37.5), MobilityKind.RANDOM_WALK),
        ],
        torrents=[TorrentSpec("movie1", n_pieces=8)],
        duration_us=0,
    ))
    trace, _ = run_scenario(cfg, master_seed=1)
    assert [(rec.node, rec.detail) for rec in trace if rec.event == tc.POSITION] == [
        ("s", "x=5e-324;y=5e-324"),
        ("f", "x=50.0;y=300.0"),
        ("l", "x=299.99999999999994;y=37.5"),
    ]


def test_identical_seeds_replay_identically():
    cfg = three_node_relay()
    first = run_scenario(cfg, master_seed=7)
    second = run_scenario(cfg, master_seed=7)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_different_seeds_diverge():
    cfg = build_random_field(6, seed=2)
    short = ScenarioConfig(
        nodes=cfg.nodes, torrents=cfg.torrents, grid=cfg.grid, radio=cfg.radio,
        duration_us=20_000_000, strategy=cfg.strategy, app=cfg.app,
        forwarding=cfg.forwarding,
    )
    trace_a, _ = run_scenario(short, master_seed=1)
    trace_b, _ = run_scenario(short, master_seed=2)
    assert trace_a != trace_b


@pytest.mark.parametrize("seed,fits", [(-1, False), (1 << 64, False), ((1 << 64) - 1, True)])
def test_a_master_seed_outside_64_bits_is_refused(seed, fits):
    # derive_stream masks a seed to 64 bits, so -1 would replay the run of 2**64-1
    if fits:
        World(build_five_node(), seed).run()
    else:
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            World(build_five_node(), seed)


def test_run_report_conserves_events():
    world = World(three_node_relay(), master_seed=3)
    report = world.run()
    assert world.loop.now_us == 30_000_000
    # every event not dispatched is still queued, past the horizon
    left = []
    world.loop.run_until(1 << 62, lambda kind, target, payload: left.append(
        len(target) if isinstance(target, list) else 1))
    assert sum(left) == report.events_scheduled - report.events_dispatched > 0


# Frozen from the code before events became plain tuples, and the last two
# before each transmission's deliveries became one batch: events_per_s in the
# benchmark divides by these counts, so a speed-up must leave them alone.
@pytest.mark.parametrize("cfg,seed,dispatched,scheduled,rows", [
    (build_five_node(), 1, 2_968, 2_970, 5_558),
    (build_random_field(12, 4), 4, 11_110, 11_112, 26_364),
    (build_random_field(30, 4), 4, 96_919, 96_921, 195_014),
    # 22 deliveries are left past the horizon in collision mode
    (replace(build_five_node(), collision_mode=True), 1, 6_798, 6_820, 12_935),
], ids=["five-node", "random-field-12", "random-field-30", "five-node-collision"])
def test_event_and_trace_counts_are_pinned(cfg, seed, dispatched, scheduled, rows):
    world = World(cfg, master_seed=seed)
    report = world.run()
    assert (report.events_dispatched, report.events_scheduled, len(world.trace)) == (
        dispatched, scheduled, rows)


def test_exact_position_counts_are_pinned(monkeypatch):
    # 7,212 samples and 360 epoch ends need 7,572 exact positions. Of 3,684
    # transmissions, the 1,725 with a candidate past both its due and its sure
    # time add the sender's, and the radio adds one for each of 260 candidates
    # near the range edge. With the sender's at every transmission it took
    # 11,516; with one for every candidate that may be in range, 18,258.
    calls = []
    position_of = World.position_of

    def counting(self, node_id, t_us):
        calls.append(node_id)
        return position_of(self, node_id, t_us)

    monkeypatch.setattr(World, "position_of", counting)
    world = World(build_random_field(12, 4), master_seed=4)
    world.run()
    assert len(calls) == 9_557


def test_metrics_recompute_from_own_trace():
    world = World(three_node_relay(), master_seed=5)
    world.run()
    assert world.metrics() == world.metrics()


# -- radio pruning ---------------------------------------------------------------

ROLES = [(NodeKind.SEEDER, "movie1"), (NodeKind.LEECHER, "movie1"), (NodeKind.PURE_FORWARDER, None),
         (NodeKind.SEEDER, "movie2"), (NodeKind.LEECHER, "movie2"), (NodeKind.PURE_FORWARDER, None)]


def radio_field(static, walkers, side=300.0, range_m=60.0, loss_prob=0.1,
                sample_us=1_000_000):
    """Static nodes at the given positions, then walkers placed at random."""
    places = [(pos, MobilityKind.STATIC) for pos in static]
    places += [(None, MobilityKind.RANDOM_WALK)] * walkers
    return validate(ScenarioConfig(
        nodes=[NodeSpec(f"n{i}", kind, torrent, pos, mobility)
               for i, ((pos, mobility), (kind, torrent))
               in enumerate(zip(places, itertools.cycle(ROLES)))],
        torrents=[TorrentSpec("movie1", n_pieces=8), TorrentSpec("movie2", n_pieces=8)],
        grid=GridBounds(side, 0.75 * side),
        radio=RadioConfig(range_m, 500, loss_prob),
        duration_us=120_000_000,
        position_sample_interval_us=sample_us,
    ))


_place_rng = random.Random(7)
# n0 and n1 are exactly range_m apart
STATIC_PLACES = [(10.0, 50.0), (70.0, 50.0)] + [
    (round(_place_rng.uniform(0.0, 300.0), 3), round(_place_rng.uniform(0.0, 225.0), 3))
    for _ in range(8)]

PRUNING_CASES = {
    "walking": radio_field([], 12),
    # positions are sampled only at the start and the end, so epochs and
    # transmissions alone refresh the last exact positions
    "walking-sparse-samples": radio_field([], 12, sample_us=120_000_000),
    "static": radio_field(STATIC_PLACES, 0, loss_prob=0.2),
    "mixed": radio_field(STATIC_PLACES[:5], 7),
    # static senders with walking candidates draw their loss coins after the
    # pruned scan, as every sender does; a second loss rate checks their order
    "mixed-lossy": radio_field(STATIC_PLACES[:5], 7, loss_prob=0.2),
    # a 200 m leg folds many times on a 20 x 15 m grid
    "tiny-grid": radio_field([], 8, side=20.0, range_m=6.0, loss_prob=0.2),
    # every leg walks at SPEED_MAX_MS (see top_speed_walk), so two walkers
    # heading at each other close in at the full 2 * SPEED_MAX_MS due times allow for
    "walking-top-speed": radio_field([], 12),
}


def top_speed_walk(rng):
    """walk_epoch's leg, with its draws, at the top speed."""
    return replace(mobility.walk_epoch(rng), speed_ms=SPEED_MAX_MS)


def exact_positions(world, now):
    """Every node's position at now, each walker's from position_at."""
    return {node_id: station.seen if station.leg is None else position_at(
                station.leg.anchor, station.leg.state, station.leg.t0_us, now, world.cfg.grid)
            for node_id, station in world._stations.items()}


@pytest.mark.parametrize("case", sorted(PRUNING_CASES))
def test_pruned_broadcast_matches_a_scan_of_every_exact_position(case, monkeypatch):
    cfg = PRUNING_CASES[case]
    if case == "walking-top-speed":
        monkeypatch.setattr(world_module, "walk_epoch", top_speed_walk)
    world = World(cfg, master_seed=3)
    delivered = []
    schedule_batch = world.loop.schedule_batch

    def recording_schedule_batch(time_us, kind, targets, payload=None):
        if kind == world_module.EV_DELIVERY:
            delivered.extend((time_us, target) for target in targets)
        schedule_batch(time_us, kind, targets, payload)

    world.loop.schedule_batch = recording_schedule_batch
    exact_calls = []
    position_of = world.position_of

    def recording_position_of(node_id, t_us):
        exact_calls.append(node_id)
        return position_of(node_id, t_us)

    world.position_of = recording_position_of
    pruned_broadcast = world._broadcast
    covered = {"tx": 0, "after_epoch": 0, "exact_range_pair": 0, "skipped_until_due": 0,
               "accepted_until_sure": 0, "heard_unseen": 0, "again_in_the_same_us": 0}
    last_tx = {}

    def checked_broadcast(sender, pkt):
        now = world.loop.now_us
        # the sender's medium stream; the first read derives it
        own = world._stations[sender]
        scan_rng = random.Random()
        scan_rng.setstate(own.medium.getstate())
        positions = exact_positions(world, now)
        expected = broadcast_receivers(sender, positions, cfg.radio, scan_rng)
        in_range_ids = [node_id for node_id, pos in positions.items()
                        if node_id != sender and in_range(positions[sender], pos, cfg.radio)]
        stale = {node_id for node_id, station in world._stations.items() if station.seen_us < now}
        record = world._senders.get(sender)
        skipped, certified = 0, set()
        if record is not None and record.due is not None:
            skipped = sum(now < due_us for due_us in record.due)
            # accepted on an unexpired sure time, without any arithmetic
            certified = {station.node_id for station, due_us, sure_us
                         in zip(record.candidates, record.due, record.sure)
                         if due_us <= now < sure_us}
        delivered.clear()
        exact_calls.clear()
        pruned_broadcast(sender, pkt)
        arrival = now + cfg.radio.one_hop_delay_us
        assert delivered == [(arrival, node_id) for node_id in expected], (case, now, sender)
        assert own.medium.getstate() == scan_rng.getstate(), (case, now, sender)
        assert certified <= set(in_range_ids), (case, now, sender)
        covered["tx"] += 1
        covered["after_epoch"] += now >= EPOCH_INTERVAL_US and now % EPOCH_INTERVAL_US < 50_000
        covered["exact_range_pair"] += {sender, *expected} >= {"n0", "n1"}
        covered["skipped_until_due"] += skipped
        covered["accepted_until_sure"] += len(certified)
        # in range, last seen before now, and judged without an exact position
        covered["heard_unseen"] += len(stale.intersection(in_range_ids) - set(exact_calls))
        covered["again_in_the_same_us"] += bool(in_range_ids) and last_tx.get(sender) == now
        last_tx[sender] = now

    world._broadcast = checked_broadcast
    world.run()
    assert covered["tx"] > 200
    walkers = any(spec.mobility is MobilityKind.RANDOM_WALK for spec in cfg.nodes)
    assert covered["after_epoch"] > 0 or not walkers
    if case == "static":
        assert covered["exact_range_pair"] > 0
    if case in ("walking", "walking-top-speed", "tiny-grid"):
        assert covered["accepted_until_sure"] > 0, covered
    if case == "walking":
        assert covered["skipped_until_due"] > 0, covered
        assert covered["heard_unseen"] > 0, covered
        assert covered["again_in_the_same_us"] > 0, covered


@pytest.mark.parametrize("case", ["walking", "tiny-grid", "mixed"])
def test_every_walker_position_equals_position_at_bit_for_bit(case, monkeypatch):
    cfg = PRUNING_CASES[case]
    world = World(cfg, master_seed=3)
    exact = position_at
    slow = []

    def counting_position_at(*args):
        slow.append(args)
        return exact(*args)

    monkeypatch.setattr(mobility, "position_at", counting_position_at)
    position_of = world.position_of
    queried = []

    def checked_position_of(node_id, t_us):
        leg = world._stations[node_id].leg
        got = position_of(node_id, t_us)
        if leg is not None:
            want = exact(leg.anchor, leg.state, leg.t0_us, t_us, cfg.grid)
            assert [c.hex() for c in got] == [c.hex() for c in want], (case, node_id, t_us)
            queried.append((leg, t_us))
        return got

    world.position_of = checked_position_of
    world.run()
    # some positions came from the straight-line window, some from position_at,
    # and some repeated a (leg, microsecond) pair
    assert 0 < len(slow) < len(queried)
    assert len(set(queried)) < len(queried)


def test_a_repeat_position_query_in_the_same_microsecond_reuses_the_last(monkeypatch):
    world = World(PRUNING_CASES["walking"], master_seed=3)
    leg = world._stations["n0"].leg
    computed = []
    position = mobility.Leg.position

    def counting_position(self, t_us):
        computed.append(t_us)
        return position(self, t_us)

    monkeypatch.setattr(mobility.Leg, "position", counting_position)
    first = world.position_of("n0", 7_000_001)
    assert first == position_at(leg.anchor, leg.state, leg.t0_us, 7_000_001, world.cfg.grid)
    assert world.position_of("n0", 7_000_001) is first
    assert computed == [7_000_001]
    world.position_of("n0", 7_000_002)
    assert computed == [7_000_001, 7_000_002]


@pytest.mark.parametrize("cfg", [build_five_node(), build_random_field(8, 2)],
                         ids=["five-node", "random-field-n8"])
def test_a_finished_world_is_freed_by_reference_counting(cfg):
    # a cycle through the World (say, a bound World method kept in an event
    # payload) would hold every record and the trace until a collection, and
    # one between stations (say, each holding the others that may hear it)
    # would hold every station, leg and stream
    gc.disable()
    try:
        world = World(cfg, master_seed=1)
        world.run()
        world.metrics()
        freed = weakref.ref(world)
        station = weakref.ref(next(iter(world._stations.values())))
        del world
        assert freed() is None
        assert station() is None
    finally:
        gc.enable()


def _lossy_five_node():
    five_node = build_five_node()
    return validate(replace(five_node, radio=replace(five_node.radio, loss_prob=0.1)))


def _run_world(cfg, seed):
    world = World(cfg, master_seed=seed)
    world.run()
    world.metrics()


GARBAGE_FREE_RUNS = {
    "five-node": lambda: _run_world(build_five_node(), 1),
    "five-node-collision": lambda: _run_world(
        replace(build_five_node(), collision_mode=True), 1),
    "random-field-12": lambda: _run_world(build_random_field(12, 4), 4),
    "random-field-30": lambda: _run_world(build_random_field(30, 4), 4),
    "criterion-4-layout": lambda: _run_world(random_static_layout(1), 1),
    "sweep": lambda: sweep(_lossy_five_node(), [0.25, 1.0], [1, 2]),
}


@pytest.mark.parametrize("case", sorted(GARBAGE_FREE_RUNS))
def test_a_run_leaves_nothing_for_the_collector(case):
    # World.run pauses automatic collection, which is safe only while a run
    # makes no reference cycles: every object it drops must go by reference
    # counting alone
    gc.collect()
    gc.disable()
    try:
        GARBAGE_FREE_RUNS[case]()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_restores_the_callers_collector_setting(enabled):
    world = World(build_five_node(), master_seed=1)
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(record)
    try:
        world.run()
        # read before anything allocates: where objects were already frozen,
        # run promotes nothing, and the first allocation once collection is
        # back on starts a young collection over what the run left
        collected_in_run = len(starts)
        assert gc.isenabled() is enabled
        # five-node allocates far past gen-0's threshold, yet nothing collects
        assert collected_in_run == 0
        failing = World(build_five_node(), master_seed=1)

        def raising(kind, target, payload):
            raise RuntimeError("handler failed")

        failing._dispatch = raising
        with pytest.raises(RuntimeError, match="handler failed"):
            failing.run()
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(record)
        gc.enable()


# A fresh interpreter, not the test process, so that it may release the objects
# some interpreters start with frozen (CPython 3.12 does) and so run with
# nothing frozen; it prints gen-0's size and the freeze count after a run and
# after a run whose handler raises
YOUNG_AFTER_RUN = """
import gc
from ntorrent_sim.scenario import build_random_field
from ntorrent_sim.world import World
gc.unfreeze()
assert gc.isenabled()
world = World(build_random_field(12, 4), 4)
world.run()
print(len(gc.get_objects(generation=0)), gc.get_freeze_count(), len(world.trace))
failing = World(build_random_field(12, 4), 4)
dispatch = failing._dispatch
def raising(kind, target, payload):
    if len(failing.trace) > 10_000:
        raise RuntimeError("handler failed")
    dispatch(kind, target, payload)
failing._dispatch = raising
try:
    failing.run()
except RuntimeError:
    pass
print(len(gc.get_objects(generation=0)), gc.get_freeze_count(), len(failing.trace))
"""


def test_a_run_leaves_no_young_objects_behind():
    # what a run leaves alive, a kept trace of TraceRecords among it, moves to
    # the oldest generation, so the first allocation after the run starts no
    # young collection over it (29,548 gen-0 objects after this run without the
    # promotion)
    src = os.path.dirname(os.path.dirname(world_module.__file__))
    done = subprocess.run([sys.executable, "-c", YOUNG_AFTER_RUN], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    (young, frozen, rows), (young_raised, frozen_raised, rows_raised) = (
        map(int, line.split()) for line in done.stdout.splitlines())
    assert rows > 20_000 and rows_raised > 10_000
    assert young < 100 and young_raised < 100
    assert frozen == frozen_raised == 0


def test_a_run_leaves_the_freeze_count_as_it_found_it():
    # 0 on most interpreters; CPython 3.12 starts with some objects frozen
    frozen = gc.get_freeze_count()
    World(build_five_node(), master_seed=1).run()
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("frozen, promoted", [(0, ["freeze", "unfreeze"]), (1, [])])
def test_a_run_promotes_its_survivors_only_when_nothing_is_frozen(monkeypatch, frozen,
                                                                    promoted):
    # unfreeze would release objects frozen before the run too, say by a caller
    # about to fork; the calls are recorded, and nothing is frozen for real
    calls = []
    monkeypatch.setattr(world_module.gc, "get_freeze_count", lambda: frozen)
    monkeypatch.setattr(world_module.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(world_module.gc, "unfreeze", lambda: calls.append("unfreeze"))
    World(build_five_node(), master_seed=1).run()
    assert calls == promoted


def test_a_cycle_made_before_a_run_is_freed_by_a_full_collection_after_it():
    class Cell:
        pass

    gc.disable()
    try:
        cell = Cell()
        cell.self = cell
        alive = weakref.ref(cell)
        del cell
        World(build_five_node(), master_seed=1).run()
        assert alive() is not None
        gc.collect()
        assert alive() is None
    finally:
        gc.enable()


# -- the GC tick ------------------------------------------------------------------

class SweepEveryTick(World):
    """A reference GC tick: every node's tables swept at every tick."""

    def _on_gc(self):
        now = self.loop.now_us
        for node in self.nodes.values():
            fw.pit_gc(node, now)
        nxt = now + world_module.GC_INTERVAL_US
        if nxt <= self.cfg.duration_us:
            self.loop.schedule(nxt, world_module.EV_GC)


GC_RUNS = {
    "five-node": build_five_node,
    "five-node-lossy": _lossy_five_node,
    "random-field-12": lambda: build_random_field(12, 4),
    "random-field-30": lambda: build_random_field(30, 4),
}


@pytest.mark.parametrize("case", sorted(GC_RUNS))
def test_a_sweep_is_unobservable_and_bounds_what_a_node_holds(case, monkeypatch):
    cfg = GC_RUNS[case]()
    reference = SweepEveryTick(cfg, master_seed=4)
    expected = reference.run()

    # what each node's last sweep left of its PIT and dead-nonce records
    left = {}
    real_gc = fw.pit_gc

    def recording_gc(node, now_us):
        removed = real_gc(node, now_us)
        left[node.node_id] = len(node.pit) + len(node.dead_nonces)
        return removed

    monkeypatch.setattr(fw, "pit_gc", recording_gc)
    ticks = []

    class Watched(World):
        def _on_gc(self):
            super()._on_gc()
            ticks.append(self.loop.now_us)
            for node_id, node in self.nodes.items():
                held = len(node.pit) + len(node.dead_nonces)
                assert held < 2 * left.get(node_id, 0) + world_module.GC_SLACK

    world = Watched(cfg, master_seed=4)
    assert world.run() == expected
    assert world.trace == reference.trace
    assert len(ticks) == cfg.duration_us // world_module.GC_INTERVAL_US
    assert left, "no node was ever swept"


# -- collision mode ------------------------------------------------------------

def forwarder_field(collision_mode):
    return validate(ScenarioConfig(
        nodes=[
            NodeSpec("fa", NodeKind.PURE_FORWARDER, None, (0.0, 0.0)),
            NodeSpec("fb", NodeKind.PURE_FORWARDER, None, (20.0, 0.0)),
            NodeSpec("fc", NodeKind.PURE_FORWARDER, None, (10.0, 0.0)),
        ],
        torrents=[TorrentSpec("movie1")],
        radio=RadioConfig(60.0, 500, 0.0),
        strategy=StrategyParams(p_forward=0.0),
        duration_us=1_000_000,
        collision_mode=collision_mode,
    ))


def packet(origin, piece):
    return Interest(piece_name("movie1", piece), nonce=piece + 1, origin=origin)


def test_overlapping_receptions_collide():
    world = World(forwarder_field(collision_mode=True), master_seed=1)
    world._broadcast("fa", packet("fa", 0))
    world._broadcast("fb", packet("fb", 1))
    world.run()
    fc_events = [(rec.event, rec.detail) for rec in world.trace if rec.node == "fc"]
    drops = [d for e, d in fc_events if e == tc.DROP]
    assert drops == [tc.REASON_COLLISION, tc.REASON_COLLISION]
    assert not any(e == tc.INTEREST_RX for e, _ in fc_events)
    # the outer nodes each heard one clean transmission
    assert any(rec.node == "fa" and rec.event == tc.INTEREST_RX for rec in world.trace)
    assert any(rec.node == "fb" and rec.event == tc.INTEREST_RX for rec in world.trace)


def test_single_transmission_is_clean_in_collision_mode():
    world = World(forwarder_field(collision_mode=True), master_seed=1)
    world._broadcast("fa", packet("fa", 0))
    world.run()
    fc_events = [rec.event for rec in world.trace if rec.node == "fc"]
    assert tc.INTEREST_RX in fc_events
    assert not any(rec.detail == tc.REASON_COLLISION for rec in world.trace)


def collision_field(loss_prob):
    cfg = build_random_field(12, 3)
    return replace(cfg, collision_mode=True, duration_us=60_000_000,
                   radio=replace(cfg.radio, loss_prob=loss_prob))


@pytest.mark.parametrize("cfg,seed", [
    (replace(build_five_node(), collision_mode=True), 1),
    (replace(build_five_node(), collision_mode=True), 2),
    (collision_field(0.0), 3),
    (collision_field(0.1), 3),
], ids=["five-node-1", "five-node-2", "random-field-12", "random-field-12-lossy"])
def test_a_frame_collides_iff_another_to_its_receiver_is_sent_within_one_hop_delay(cfg, seed):
    world = World(cfg, master_seed=seed)
    frames = defaultdict(list)  # receiver -> [(sent_us, arrival_us, name key)]
    schedule_batch = world.loop.schedule_batch

    def recording_schedule_batch(time_us, kind, targets, payload=None):
        if kind == world_module.EV_DELIVERY:
            for target in targets:
                frames[target].append((world.loop.now_us, time_us, payload[0].name.key))
        schedule_batch(time_us, kind, targets, payload)

    world.loop.schedule_batch = recording_schedule_batch
    world.run()
    delay = cfg.radio.one_hop_delay_us
    expected = []
    for receiver, sent in frames.items():
        sent.sort()
        for i, (sent_us, arrival_us, key) in enumerate(sent):
            if arrival_us > cfg.duration_us:
                continue
            collides = (i > 0 and sent_us - sent[i - 1][0] < delay
                        or i + 1 < len(sent) and sent[i + 1][0] - sent_us < delay)
            expected.append((arrival_us, receiver, key, "COLLISION" if collides else "RX"))
    actual = [(rec.time_us, rec.node, rec.name, "COLLISION")
              for rec in world.trace if rec.detail == tc.REASON_COLLISION]
    actual += [(rec.time_us, rec.node, rec.name, "RX") for rec in world.trace
               if rec.event in (tc.INTEREST_RX, tc.DATA_RX)]
    assert sorted(actual) == sorted(expected)
    assert any(outcome == "COLLISION" for *_, outcome in expected)


def test_collisions_ignored_when_mode_off():
    world = World(forwarder_field(collision_mode=False), master_seed=1)
    world._broadcast("fa", packet("fa", 0))
    world._broadcast("fb", packet("fb", 1))
    world.run()
    fc_rx = [rec for rec in world.trace
             if rec.node == "fc" and rec.event == tc.INTEREST_RX]
    assert len(fc_rx) == 2


# -- duplicate receptions ------------------------------------------------------

@pytest.mark.parametrize("record", ["pit", "dead_nonces"])
def test_duplicate_reception_notes_the_drop_and_leaves_the_pit_alone(record):
    world = World(forwarder_field(collision_mode=False), master_seed=1)
    pkt = packet("fa", 0)
    fc = world.nodes["fc"]
    # fc already holds the nonce, in a live PIT entry or a dead-nonce record
    getattr(fc, record)[pkt.name.key] = fw.PitEntry({pkt.nonce}, True, 2_000_000)
    before = copy.deepcopy((fc.pit, fc.dead_nonces))
    world._transmit("fa", pkt)
    world.run()
    [tx] = [rec for rec in world.trace if rec.event == tc.INTEREST_TX]
    fc_rows = [(rec.event, rec.detail) for rec in world.trace
               if rec.node == "fc" and rec.event != tc.POSITION]
    assert fc_rows == [(tc.INTEREST_RX, tx.detail), (tc.DROP, tc.REASON_PIT_DUP)]
    assert (fc.pit, fc.dead_nonces) == before
    # the transmission's detail text is built once and shared by every reception
    rx = [rec for rec in world.trace if rec.event == tc.INTEREST_RX]
    assert {rec.node for rec in rx} == {"fb", "fc"}
    assert all(rec.detail is tx.detail for rec in rx)


# -- the World only carries packets -------------------------------------------

@pytest.mark.parametrize("cfg,seed", [
    (build_five_node(), 1),
    (build_random_field(12, 4), 4),
], ids=["five-node", "random-field-12"])
def test_every_interest_reception_reaches_the_forwarding_plane(cfg, seed, monkeypatch):
    # the World notes each clean interest reception and hands it on; the plane
    # alone decides, PIT_DUP drops included
    world = World(cfg, master_seed=seed)
    handed = []
    plane = fw.on_incoming_interest

    def recording(node, pkt, now_us, out):
        handed.append((now_us, node.node_id, pkt.wire))
        plane(node, pkt, now_us, out)

    monkeypatch.setattr(fw, "on_incoming_interest", recording)
    world.run()
    rx = [(rec.time_us, rec.node, rec.detail) for rec in world.trace
          if rec.event == tc.INTEREST_RX]
    assert handed == rx
    assert any(rec.detail == tc.REASON_PIT_DUP for rec in world.trace)
    # completion is noted once per leecher that completes, right after the
    # arrival of its last piece, and never for a seeder
    done = [i for i, rec in enumerate(world.trace) if rec.event == tc.COMPLETED]
    assert done and len({world.trace[i].node for i in done}) == len(done)
    assert {world.trace[i].node for i in done} <= set(cfg.leechers())
    for i in done:
        assert (world.trace[i - 1].event, world.trace[i - 1].node) == (
            tc.PIECE_RX, world.trace[i].node)


def test_static_line_positions_are_computed_only_by_the_sampler(monkeypatch):
    # every node of the five-node line is static: each sender's hearers serve
    # every transmission, its first included, and each sample reuses the
    # node's formatted place
    calls = []
    position_of = World.position_of

    def counting(self, node_id, t_us):
        calls.append(node_id)
        return position_of(self, node_id, t_us)

    monkeypatch.setattr(World, "position_of", counting)
    world = World(build_five_node(), master_seed=1)
    world.run()
    samples = [rec for rec in world.trace if rec.event == tc.POSITION]
    assert len(samples) == len(world.nodes) * (
        world.cfg.duration_us // world.cfg.position_sample_interval_us + 1)
    assert calls == []
    assert any(rec.event == tc.INTEREST_TX for rec in world.trace)


def test_the_recorder_fake_has_the_worlds_handler_facing_api():
    # conftest.Recorder stands in for the World in handler tests; a renamed
    # method or parameter of the World must show up here, not as a silent drift
    def params(cls, method):
        return list(inspect.signature(getattr(cls, method)).parameters)

    handler_facing = ("note", "send", "emit", "timer", "originate")
    public = {name for name in vars(Recorder)
              if not name.startswith("_") and callable(vars(Recorder)[name])}
    assert public - {"take"} == set(handler_facing)
    for method in handler_facing:
        assert params(Recorder, method) == params(World, method), method
    assert params(World, "timer") == ["self", "node_id", "handler", "delay_us"]


# -- origination order ---------------------------------------------------------

APP_SENDS = (tc.BEACON_TX, tc.BITMAP_TX, tc.PIECE_REQ)


@pytest.mark.parametrize("cfg, seed, n_sends", [
    (build_five_node(1.0), 1, 314),
    (build_random_field(12, 4), 4, 1_605),
], ids=["five-node-seed1", "random-field-n12-seed4"])
def test_app_sends_leave_on_the_radio_at_once(cfg, seed, n_sends):
    # an app's own interest is recorded in the PIT and transmitted before the
    # app goes on, so its INTEREST_TX row directly follows the app row
    trace, _ = run_scenario(cfg, master_seed=seed)
    sends = [i for i, rec in enumerate(trace) if rec.event in APP_SENDS]
    assert len(sends) == n_sends
    for i in sends:
        app_row, tx = trace[i], trace[i + 1]
        assert (tx.event, tx.node, tx.time_us, tx.name) == (
            tc.INTEREST_TX, app_row.node, app_row.time_us, app_row.name)
        assert tx.detail.endswith(f"hop=0;origin={app_row.node}")


@pytest.fixture
def derived(monkeypatch):
    """(purpose, node) -> [(stream, its state when derived), ...] for every
    stream derived while the test runs; derive_stream is replaced in each
    module of the package that binds it."""
    log = defaultdict(list)

    def recording(master_seed, purpose, node):
        stream = derive_stream(master_seed, purpose, node)
        log[purpose, node].append((stream, stream.getstate()))
        return stream

    for name, module in list(sys.modules.items()):
        if (name.startswith("ntorrent_sim")
                and getattr(module, "derive_stream", None) is derive_stream):
            monkeypatch.setattr(module, "derive_stream", recording)
    return log


def test_streams_are_derived_lazily_and_once(derived):
    world = World(build_five_node(), 1)
    peers = [node_id for node_id, node in world.nodes.items() if node.app is not None]
    assert len(peers) == 4
    # placed static nodes draw no place and no leg; each app draws at its start
    assert sorted(derived) == sorted([("app", node_id) for node_id in peers])
    world.run()
    assert all(len(streams) == 1 for streams in derived.values())
    # nothing walks and the radio loses nothing, so no draw needs these streams
    assert not [key for key in derived if key[0] in ("mobility", "medium")]


def held_streams(world):
    """(purpose, node) -> stream for every stream a record of world holds, read
    from the instance dicts, where engine.stream stores them, so that reading
    them here derives nothing."""
    held = {}
    for node_id, node in world.nodes.items():
        station = vars(world._stations[node_id])
        records = [("mobility", station, "mobility"), ("medium", station, "medium"),
                   ("strategy", vars(node), "rng")]
        if node.app is not None:
            records.append(("app", vars(node.app), "rng"))
        for purpose, attrs, attr in records:
            if attr in attrs:
                held[purpose, node_id] = attrs[attr]
    return held


def test_each_record_owns_its_node_streams(derived):
    five_node = build_five_node(1.0)
    lossy = validate(replace(five_node, radio=replace(five_node.radio, loss_prob=0.1)))
    field = build_random_field(12, 3)
    for cfg in (five_node, lossy, field):
        derived.clear()
        world = World(cfg, master_seed=1)
        placed = {node_id for purpose, node_id in derived if purpose == "mobility"}
        world.run()
        owners = held_streams(world)
        by_purpose = defaultdict(set)
        for purpose, node_id in owners:
            by_purpose[purpose].add(node_id)
        senders = {rec.node for rec in world.trace if rec.event in (tc.INTEREST_TX, tc.DATA_TX)}
        assert by_purpose["strategy"] == set(world.nodes)
        assert by_purpose["app"] == {node_id for node_id, node in world.nodes.items()
                                     if node.app is not None}
        if cfg is field:
            # every node draws its place from its mobility stream at construction
            assert placed == by_purpose["mobility"] == set(world.nodes)
        else:
            assert not by_purpose["mobility"]
        if cfg is lossy:
            # derived exactly for the nodes that transmitted: all five here
            assert by_purpose["medium"] == senders == set(world.nodes)
        else:
            assert not by_purpose["medium"]
        # every stream was derived once during the run and is still held by its owner
        assert sorted(derived) == sorted(owners)
        for (purpose, node_id), owner in owners.items():
            [(stream, state)] = derived[purpose, node_id]
            assert owner is stream, (purpose, node_id)
            first = random.Random()
            first.setstate(state)
            assert first.random() == derive_stream(1, purpose, node_id).random()


def test_own_interest_is_sent_at_once_without_a_strategy_coin():
    world = World(three_node_relay(p_forward=0.5), master_seed=1)
    strategy_rng = world.nodes["l"].rng
    before = strategy_rng.getstate()
    pkt = Interest(piece_name("movie1", 2), nonce=77, origin="l")
    world.originate("l", pkt)
    assert strategy_rng.getstate() == before
    [tx] = [rec for rec in world.trace if rec.node == "l" and rec.event != tc.POSITION]
    assert (tx.event, tx.time_us, tx.detail) == (tc.INTEREST_TX, 0, pkt.wire)
    entry = world.nodes["l"].pit[pkt.name.key]
    assert entry.nonces == {77}
    assert not entry.from_radio


def test_echo_of_an_own_interest_is_a_pit_dup_and_its_data_is_not_relayed():
    trace, metrics = run_scenario(three_node_relay(), master_seed=1)
    # the forwarder relays the leecher's requests, so the leecher hears each back
    echoes = [i for i, rec in enumerate(trace)
              if rec.event == tc.INTEREST_RX and rec.detail.endswith(f"origin={rec.node}")]
    assert len(echoes) > 8
    for i in echoes:
        assert (trace[i + 1].node, trace[i + 1].event, trace[i + 1].detail) == (
            trace[i].node, tc.DROP, tc.REASON_PIT_DUP)
    # the data answering the leecher's own requests ends at its app
    assert metrics.per_leecher["l"].completed
    assert sum(rec.node == "l" and rec.event == tc.PIECE_RX for rec in trace) == 8
    assert not any(rec.node == "l" and rec.event == tc.DATA_TX for rec in trace)
