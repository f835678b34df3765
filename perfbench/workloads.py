"""The three benchmark workloads, built from a workload seed.

A workload is a list of units. A unit is one call into the simulator's public
entry points (a scenario run with its outputs written, or one ``cli.sweep``
call); one pass runs every unit once. Each unit reports what the timed code
produced, and its outputs are checked after the clock has stopped.

Inputs are made by the benchmark from the workload seed; the simulator sees
only the generated scenarios and master seeds.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

# Calls go through module attributes, so the tracer's wrappers (installed on
# the simulator's modules and classes) see the benchmark's own calls too.
from ntorrent_sim import cli, oracle, scenario, trace, world
from ntorrent_sim.engine import EventLoop

OUTPUT_FILES = ("trace.csv", "metrics.csv", "positions.csv")
SWEEP_HEADER = ("p", "seed", "node", "torrent", "completed", "completion_time_us")

# Per size: how much of each workload one pass runs. "tiny" is the harness
# self-check; "full" is what the benchmark measures.
SIZES = {
    "full": {"fields": 12, "field_nodes": 16, "layouts": 12,
             "sweep_p": (0.25, 0.5, 0.75, 1.0), "sweep_seeds": 24, "sweep_chunk": 8},
    "tiny": {"fields": 1, "field_nodes": 8, "layouts": 2,
             "sweep_p": (0.5, 1.0), "sweep_seeds": 4, "sweep_chunk": 2},
}


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _sub_seeds(tag: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{tag}/{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


@dataclass
class Outcome:
    """What one unit produced: scenario runs, engine events, digests per run,
    oracle agreement per checked run, and sweep table rows."""
    runs: int
    events: int = 0
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    oracle_agreed: list[bool] = field(default_factory=list)
    table_rows: list = field(default_factory=list)


class Unit:
    run_ids: list[str]

    def setup(self) -> None:
        """Build or load and validate the scenario, construct World. No run."""
        raise NotImplementedError

    def run(self):
        """The timed work. Returns a value that check() turns into an Outcome."""
        raise NotImplementedError

    def check(self, produced) -> Outcome:
        """Untimed: digests and oracle agreement of what run() produced."""
        raise NotImplementedError


def _write_outputs(out_dir: str, sim: world.World, metrics) -> None:
    # the three files `sim run` / `sim random-field` write
    trace.write_trace_csv(os.path.join(out_dir, "trace.csv"), sim.trace)
    trace.write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metrics)
    trace.write_positions_csv(os.path.join(out_dir, "positions.csv"), sim.trace)


def _file_digests(out_dir: str) -> dict[str, str]:
    return {name: sha256_file(os.path.join(out_dir, name)) for name in OUTPUT_FILES}


# ---------------------------------------------------------------------------
# mobile-field

class FieldUnit(Unit):
    """`sim random-field --nodes N --seed S`: one mobile field, all outputs."""

    def __init__(self, n_nodes: int, seed: int, out_dir: str) -> None:
        self.n_nodes = n_nodes
        self.seed = seed
        self.out_dir = out_dir
        self.run_ids = [f"field-n{n_nodes}-s{seed}"]

    def setup(self) -> None:
        world.World(scenario.build_random_field(self.n_nodes, self.seed), self.seed)

    def run(self):
        cfg = scenario.build_random_field(self.n_nodes, self.seed)
        sim = world.World(cfg, self.seed)
        report = sim.run()
        _write_outputs(self.out_dir, sim, sim.metrics())
        return report.events_dispatched

    def check(self, produced) -> Outcome:
        return Outcome(runs=1, events=produced,
                       digests={self.run_ids[0]: _file_digests(self.out_dir)})


def mobile_field(seed: int, size: dict, work_dir: str) -> list[Unit]:
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    return [FieldUnit(size["field_nodes"], s, out_dir)
            for s in _sub_seeds("mobile-field", seed, size["fields"])]


# ---------------------------------------------------------------------------
# static-mesh

def static_layout(index: int) -> dict:
    """Scenario document for layout `index` of the criterion-4 recipe.

    Ten static nodes on a 200 m square: 2 seeders, 4 leechers, 4 pure
    forwarders, keep_seeding, 240 s, p_forward alternating 0/1 by index. The
    layout stream is seeded as the acceptance test seeds it, so layout i here
    is layout i there.
    """
    rng = random.Random(1000 + index)
    roles = [("seeder", "movie1"), ("seeder", "movie2"),
             ("leecher", "movie1"), ("leecher", "movie1"),
             ("leecher", "movie2"), ("leecher", "movie2"),
             ("pure_forwarder", None), ("pure_forwarder", None),
             ("pure_forwarder", None), ("pure_forwarder", None)]
    rng.shuffle(roles)
    nodes = []
    for i, (kind, torrent) in enumerate(roles):
        x = round(rng.uniform(0.0, 200.0), 3)
        y = round(rng.uniform(0.0, 200.0), 3)
        node = {"id": f"n{i}", "kind": kind, "position": [x, y], "mobility": "static"}
        if torrent is not None:
            node["torrent"] = torrent
        nodes.append(node)
    return {
        "grid": {"width": 200.0, "height": 200.0},
        "duration_us": 240_000_000,
        "torrents": [{"id": "movie1", "n_pieces": 32, "piece_bytes": 1024},
                     {"id": "movie2", "n_pieces": 32, "piece_bytes": 1024}],
        "nodes": nodes,
        "strategy": {"p_forward": float(index % 2)},
        "app": {"keep_seeding": True},
    }


class LayoutUnit(Unit):
    """`sim run --scenario FILE --seed S` on one static layout, plus its oracle."""

    def __init__(self, path: str, seed: int, out_dir: str, run_id: str) -> None:
        self.path = path
        self.seed = seed
        self.out_dir = out_dir
        self.run_ids = [run_id]

    def setup(self) -> None:
        world.World(scenario.load_scenario(self.path), self.seed)

    def run(self):
        cfg = scenario.load_scenario(self.path)
        verdicts = oracle.reachability_oracle(cfg)
        sim = world.World(cfg, self.seed)
        report = sim.run()
        metrics = sim.metrics()
        _write_outputs(self.out_dir, sim, metrics)
        completed = {nid: metrics.per_leecher[nid].completed for nid in verdicts}
        return report.events_dispatched, verdicts == completed

    def check(self, produced) -> Outcome:
        events, agreed = produced
        return Outcome(runs=1, events=events, oracle_agreed=[agreed],
                       digests={self.run_ids[0]: _file_digests(self.out_dir)})


def static_mesh(seed: int, size: dict, work_dir: str) -> list[Unit]:
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    # The layouts are fixed; the workload seed drives every run's master seed.
    # Layout cost differs 30x between random layouts, so drawing layouts from
    # the seed would make a pass's time measure the draw, not the code.
    units = []
    for index, master in enumerate(_sub_seeds("static-mesh", seed, size["layouts"])):
        path = os.path.join(work_dir, f"layout-{index:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(static_layout(index), fh, indent=1)
        units.append(LayoutUnit(path, master, out_dir, f"layout-{index:02d}-s{master}"))
    return units


# ---------------------------------------------------------------------------
# lossy-sweep

def lossy_line() -> dict:
    """The built-in five-node line as a scenario document, with 10% loss."""
    cfg = scenario.build_five_node()
    return {
        "radio": {"range_m": cfg.radio.range_m,
                  "one_hop_delay_us": cfg.radio.one_hop_delay_us,
                  "loss_prob": 0.1},
        "duration_us": cfg.duration_us,
        "torrents": [{"id": t.torrent_id, "n_pieces": t.n_pieces,
                      "piece_bytes": t.piece_bytes} for t in cfg.torrents],
        "nodes": [{"id": n.node_id, "kind": n.kind.value, "torrent": n.torrent,
                   "position": list(n.position), "mobility": n.mobility.value}
                  for n in cfg.nodes],
    }


def render_rows(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


class EventCounter:
    """Sums events_dispatched over every EventLoop.run_until call while active.

    `cli.sweep` keeps its World objects to itself, so the untraced sweep pass
    reads engine events here: one shim call per scenario run.
    """

    def __init__(self) -> None:
        self.events = 0
        self._original = None

    def __enter__(self) -> "EventCounter":
        original = self._original = EventLoop.run_until

        @functools.wraps(original)
        def run_until(loop, *args, **kwargs):
            report = original(loop, *args, **kwargs)
            self.events += report.events_dispatched
            return report

        EventLoop.run_until = run_until
        return self

    def __exit__(self, *exc) -> None:
        EventLoop.run_until = self._original


class SweepUnit(Unit):
    """`sim sweep --scenario FILE --p P --seeds S1,S2,...` for one p value and
    a chunk of the seeds.

    cli.sweep loops p outer and seeds inner, so the blocks of all units, in
    order, are exactly the table one call over every p and seed returns.
    """

    def __init__(self, path: str, p_value: float, seeds: list[int]) -> None:
        self.path = path
        self.p_value = p_value
        self.seeds = seeds
        self.run_ids = [f"p{p_value}-s{s}" for s in seeds]

    def setup(self) -> None:
        cfg = scenario.load_scenario(self.path)
        # cli.sweep's set-up: with_p_forward, then one World per seed
        varied = scenario.with_p_forward(cfg, self.p_value)
        for seed in self.seeds:
            world.World(varied, seed)

    def run(self):
        with EventCounter() as counter:
            rows = cli.sweep(scenario.load_scenario(self.path), [self.p_value], self.seeds)
        return counter.events, rows

    def check(self, produced) -> Outcome:
        events, rows = produced
        digests = {}
        for run_id, seed in zip(self.run_ids, self.seeds):
            mine = [row for row in rows if row[1] == seed]
            digests[run_id] = {"rows": hashlib.sha256(render_rows(mine)).hexdigest()}
        return Outcome(runs=len(self.seeds), events=events, digests=digests,
                       table_rows=rows)


def lossy_sweep(seed: int, size: dict, work_dir: str) -> list[Unit]:
    path = os.path.join(work_dir, "five-node-lossy.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lossy_line(), fh, indent=1)
    seeds = _sub_seeds("lossy-sweep", seed, size["sweep_seeds"])
    chunk = size["sweep_chunk"]
    return [SweepUnit(path, p_value, seeds[i:i + chunk])
            for p_value in size["sweep_p"] for i in range(0, len(seeds), chunk)]


def sweep_table_digest(rows_in_order: list) -> str:
    """SHA-256 of sweep.csv as `sim sweep` writes it."""
    return hashlib.sha256(render_rows([SWEEP_HEADER, *rows_in_order])).hexdigest()


WORKLOADS = {
    "mobile-field": mobile_field,
    "static-mesh": static_mesh,
    "lossy-sweep": lossy_sweep,
}
