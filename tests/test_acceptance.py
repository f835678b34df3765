"""End-to-end acceptance checks.

Each test is one acceptance property of the complete simulator and prints as
one pass/fail line under pytest -v. Expensive runs are shared through module
fixtures; every run here is seeded and deterministic.
"""
import random
import time

import pytest

from ntorrent_sim import trace as tc
from ntorrent_sim.app import AppConfig
from ntorrent_sim.cli import main
from ntorrent_sim.mobility import GridBounds
from ntorrent_sim.oracle import reachability_oracle
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
    with_p_forward,
)
from ntorrent_sim.strategies import pure_decide
from ntorrent_sim.trace import detail_fields
from ntorrent_sim.world import run_scenario

SEEDS = range(1, 11)
FIVE_NODE_DURATION_US = 120_000_000


def blocking_line(p_forward):
    """Seeder and leecher 100 m apart; the forwarder between them is the only path."""
    return validate(ScenarioConfig(
        nodes=[
            NodeSpec("s", NodeKind.SEEDER, "movie1", (50.0, 150.0)),
            NodeSpec("p", NodeKind.PURE_FORWARDER, None, (100.0, 150.0)),
            NodeSpec("l", NodeKind.LEECHER, "movie1", (150.0, 150.0)),
        ],
        torrents=[TorrentSpec("movie1")],
        strategy=StrategyParams(p_forward=p_forward),
    ))


def foreign_relay_line():
    """movie1 seeder A, movie2 leecher C between, movie1 leecher F out of A's range."""
    return validate(ScenarioConfig(
        nodes=[
            NodeSpec("A", NodeKind.SEEDER, "movie1", (50.0, 150.0)),
            NodeSpec("C", NodeKind.LEECHER, "movie2", (100.0, 150.0)),
            NodeSpec("F", NodeKind.LEECHER, "movie1", (150.0, 150.0)),
        ],
        torrents=[TorrentSpec("movie1"), TorrentSpec("movie2")],
    ))


def random_static_layout(index):
    """Mixed 10-node static field on a 200 m square; p alternates 0/1 by index.

    Peers keep beaconing after completion so the repeated-interest stream the
    reachability argument relies on persists for the whole run.
    """
    rng = random.Random(1000 + index)
    roles = [(NodeKind.SEEDER, "movie1"), (NodeKind.SEEDER, "movie2"),
             (NodeKind.LEECHER, "movie1"), (NodeKind.LEECHER, "movie1"),
             (NodeKind.LEECHER, "movie2"), (NodeKind.LEECHER, "movie2"),
             (NodeKind.PURE_FORWARDER, None), (NodeKind.PURE_FORWARDER, None),
             (NodeKind.PURE_FORWARDER, None), (NodeKind.PURE_FORWARDER, None)]
    rng.shuffle(roles)
    nodes = [
        NodeSpec(f"n{i}", kind, torrent,
                 (round(rng.uniform(0.0, 200.0), 3), round(rng.uniform(0.0, 200.0), 3)),
                 MobilityKind.STATIC)
        for i, (kind, torrent) in enumerate(roles)
    ]
    return validate(ScenarioConfig(
        nodes=nodes,
        torrents=[TorrentSpec("movie1", 32, 1024), TorrentSpec("movie2", 32, 1024)],
        grid=GridBounds(200.0, 200.0),
        duration_us=240_000_000,
        strategy=StrategyParams(p_forward=float(index % 2)),
        app=AppConfig(keep_seeding=True),
    ))


@pytest.fixture(scope="module")
def five_node_runs():
    runs = {}
    cfg = build_five_node(p_forward=1.0)
    for seed in SEEDS:
        started = time.perf_counter()
        trace, metrics = run_scenario(cfg, master_seed=seed)
        runs[seed] = (trace, metrics, time.perf_counter() - started)
    return runs


@pytest.fixture(scope="module")
def blocking_runs():
    cfg = blocking_line(p_forward=0.0)
    return {seed: run_scenario(cfg, master_seed=seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def relay_run():
    return run_scenario(foreign_relay_line(), master_seed=1)


@pytest.fixture(scope="module")
def field_run():
    cfg = build_random_field(10, seed=6)
    trace, metrics = run_scenario(cfg, master_seed=6)
    return cfg, trace, metrics


def test_criterion_1_five_node_line_completes_for_ten_seeds(five_node_runs):
    for seed, (trace, metrics, wall_s) in five_node_runs.items():
        movie1 = metrics.per_leecher["n2"]
        movie2 = metrics.per_leecher["n1"]
        assert movie1.completed and movie1.torrent == "movie1", f"seed {seed}"
        assert movie2.completed and movie2.torrent == "movie2", f"seed {seed}"
        assert movie1.completion_time_us <= FIVE_NODE_DURATION_US
        assert movie2.completion_time_us <= FIVE_NODE_DURATION_US
        assert wall_s < 2.0, f"seed {seed} took {wall_s:.2f}s wall"


def test_criterion_2_blocked_forwarder_starves_the_leecher(blocking_runs):
    for seed, (trace, metrics) in blocking_runs.items():
        assert not metrics.per_leecher["l"].completed, f"seed {seed}"
        piece_rx = [rec for rec in trace if rec.event == tc.PIECE_RX]
        assert piece_rx == [], f"seed {seed}"


def test_criterion_3_foreign_names_learn_then_forward(relay_run):
    trace, metrics = relay_run
    assert metrics.per_leecher["F"].completed
    decisions = [rec.detail for rec in trace
                 if rec.node == "C" and rec.event == tc.DECISION
                 and rec.name.startswith("/ntorrent/movie1/")]
    assert decisions, "the middle peer never saw movie1 traffic"
    assert decisions[0] == tc.REASON_FOREIGN_LEARN
    assert tc.REASON_FOREIGN_FWD in decisions[1:]


def test_criterion_4_simulation_agrees_with_reachability_oracle():
    for index in range(100):
        cfg = random_static_layout(index)
        expected = reachability_oracle(cfg)
        _, metrics = run_scenario(cfg, master_seed=index)
        got = {nid: metrics.per_leecher[nid].completed for nid in expected}
        assert got == expected, f"layout {index}"


def test_criterion_5_same_seed_yields_byte_identical_outputs(tmp_path):
    cases = [
        ["five-node", "--p", "1.0", "--seed", "3"],
        ["random-field", "--nodes", "5", "--seed", "4"],
    ]
    for i, argv in enumerate(cases):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        for name in ("trace.csv", "metrics.csv", "positions.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                f"{argv[0]}: {name} differs between identical runs"


def test_criterion_6_mobility_law_over_the_random_field(field_run):
    cfg, trace, _ = field_run
    node_ids = [n.node_id for n in cfg.nodes]
    epochs = [rec for rec in trace if rec.event == tc.WALK_EPOCH]
    for rec in epochs:
        assert rec.time_us % 20_000_000 == 0
        speed = float(detail_fields(rec.detail)["speed"])
        assert 2.0 <= speed <= 10.0
    # every node redraws its leg at every epoch from 0 s through 600 s
    expected = {(nid, t) for nid in node_ids
                for t in range(0, 600_000_001, 20_000_000)}
    assert {(rec.node, rec.time_us) for rec in epochs} == expected

    positions = [rec for rec in trace if rec.event == tc.POSITION]
    assert len(positions) == len(node_ids) * 601  # sampled once a second
    for rec in positions:
        fields = detail_fields(rec.detail)
        assert 0.0 <= float(fields["x"]) <= cfg.grid.width
        assert 0.0 <= float(fields["y"]) <= cfg.grid.height


def test_criterion_7_forwarding_invariants_hold_across_runs(
        five_node_runs, blocking_runs, relay_run, field_run):
    tagged = [(trace, {"n3"}) for trace, _, _ in five_node_runs.values()]
    tagged += [(trace, {"p"}) for trace, _ in blocking_runs.values()]
    tagged.append((relay_run[0], set()))
    field_cfg, field_trace, _ = field_run
    field_pfs = {n.node_id for n in field_cfg.nodes
                 if n.kind is NodeKind.PURE_FORWARDER}
    tagged.append((field_trace, field_pfs))

    for trace, pf_ids in tagged:
        sent = set()
        interest_rx_names = set()
        for rec in trace:
            if rec.event == tc.INTEREST_TX:
                key = (rec.node, rec.name, detail_fields(rec.detail)["nonce"])
                assert key not in sent, f"{key} transmitted twice"
                sent.add(key)
            elif rec.event == tc.INTEREST_RX:
                interest_rx_names.add((rec.node, rec.name))
            elif rec.event == tc.DATA_TX:
                if int(detail_fields(rec.detail)["hop"]) > 0:
                    assert (rec.node, rec.name) in interest_rx_names, \
                        f"{rec.node} relayed {rec.name} without a prior interest"
            assert not (rec.node in pf_ids and rec.event in tc.APP_EVENTS), \
                f"pure forwarder {rec.node} produced {rec.event}"


def test_criterion_8_forwarding_probability_statistics():
    params = StrategyParams(p_forward=0.5, jitter_min_us=2_000, jitter_max_us=10_000)
    rng = random.Random(8)
    forwarded = 0
    for _ in range(100_000):
        reason, delay = pure_decide(params, rng)
        if reason == tc.REASON_PROB_FWD:
            forwarded += 1
            assert 2_000 <= delay <= 10_000
    assert 49_000 <= forwarded <= 51_000, f"forwarded {forwarded} of 100000"


def test_criterion_9_mean_completion_time_is_monotone_in_p():
    base = build_five_node()
    means = []
    for p_forward in (0.25, 0.5, 1.0):
        cfg = with_p_forward(base, p_forward)
        samples = []
        for seed in range(1, 31):
            _, metrics = run_scenario(cfg, master_seed=seed)
            for lm in metrics.per_leecher.values():
                # censor: a run that never finished counts as the full duration
                samples.append(lm.completion_time_us if lm.completed
                               else cfg.duration_us)
        means.append(sum(samples) / len(samples))
    assert means[0] >= means[1] >= means[2], f"means not monotone: {means}"
