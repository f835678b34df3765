"""Whole-simulation behaviour: wiring, determinism, radio pruning, collisions,
bookkeeping."""
import copy
import inspect
import itertools
import random
import sys
from collections import defaultdict
from dataclasses import replace

import pytest
from conftest import Recorder

from ntorrent_sim import forwarding as fw
from ntorrent_sim import trace as tc
from ntorrent_sim import world as world_module
from ntorrent_sim.engine import derive_stream
from ntorrent_sim.mobility import (
    EPOCH_INTERVAL_US,
    GridBounds,
    RadioConfig,
    broadcast_receivers,
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


def test_run_report_conserves_events():
    world = World(three_node_relay(), master_seed=3)
    report = world.run()
    assert report.events_dispatched == report.events_scheduled - report.events_remaining
    assert report.final_time_us == 30_000_000


# Frozen from the code before events became plain tuples: events_per_s in the
# benchmark divides by these counts, so a speed-up must leave them alone.
@pytest.mark.parametrize("cfg,seed,dispatched,scheduled,rows", [
    (build_five_node(), 1, 2_968, 2_970, 5_558),
    (build_random_field(12, 4), 4, 11_110, 11_112, 26_364),
], ids=["five-node", "random-field-12"])
def test_event_and_trace_counts_are_pinned(cfg, seed, dispatched, scheduled, rows):
    world = World(cfg, master_seed=seed)
    report = world.run()
    assert (report.events_dispatched, report.events_scheduled, len(world.trace)) == (
        dispatched, scheduled, rows)


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
    # a 200 m leg folds many times on a 20 x 15 m grid
    "tiny-grid": radio_field([], 8, side=20.0, range_m=6.0, loss_prob=0.2),
}


@pytest.mark.parametrize("case", sorted(PRUNING_CASES))
def test_pruned_broadcast_matches_a_scan_of_every_exact_position(case, monkeypatch):
    cfg = PRUNING_CASES[case]
    world = World(cfg, master_seed=3)
    picked = []

    def recording_receivers(*args):
        picked.append(broadcast_receivers(*args))
        return picked[-1]

    monkeypatch.setattr(world_module, "broadcast_receivers", recording_receivers)
    pruned_broadcast = world._broadcast
    covered = {"tx": 0, "after_epoch": 0, "exact_range_pair": 0}

    def checked_broadcast(sender, pkt):
        now = world.loop.now_us
        positions = {
            node_id: station.anchor if station.walk is None else position_at(
                station.anchor, station.walk, station.epoch_start_us, now, cfg.grid)
            for node_id, station in world._stations.items()}
        # the sender's medium stream; the first read derives it
        own = world._stations[sender]
        scan_rng = random.Random()
        scan_rng.setstate(own.medium.getstate())
        expected = broadcast_receivers(sender, positions, cfg.radio, scan_rng)
        pruned_broadcast(sender, pkt)
        assert picked.pop() == expected, (case, now, sender)
        assert own.medium.getstate() == scan_rng.getstate(), (case, now, sender)
        covered["tx"] += 1
        covered["after_epoch"] += now >= EPOCH_INTERVAL_US and now % EPOCH_INTERVAL_US < 50_000
        covered["exact_range_pair"] += {sender, *expected} >= {"n0", "n1"}

    world._broadcast = checked_broadcast
    world.run()
    assert covered["tx"] > 200
    walkers = any(spec.mobility is MobilityKind.RANDOM_WALK for spec in cfg.nodes)
    assert covered["after_epoch"] > 0 or not walkers
    if case == "static":
        assert covered["exact_range_pair"] > 0


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
    # every node of the five-node line is static, so each sender's fixed
    # neighbourhood serves every transmission, its first included
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
    assert len(calls) == len(samples)
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
