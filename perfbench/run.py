"""Benchmark for ntorrent-sim: end-to-end host time and a traced per-layer pass.

Run from the repository root:

    python3 perfbench/run.py --workload mobile-field --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

--trace 0 prints wall_s, events_per_s, peak_rss_mb and setup_s; --trace 1
spends half the time untraced and half traced and prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. "attempted" and
"failed" count scenario runs (runs and runs_failed).

Every run's outputs are hashed. On the default seed they must match the
frozen digests in golden.json; on any other seed they are printed, so two
commits can be compared on a seed no one tuned against. Static layouts must
also agree with reachability_oracle on every seed. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 1
MIN_ROUNDS = 3
SETUP_REPS_PER_UNIT = 3
WORKLOAD_NAMES = ("mobile-field", "static-mesh", "lossy-sweep")


def _import_program() -> None:
    """Put the checkout's src/ first on the path and make sure it is used."""
    package = os.path.join(SRC, "ntorrent_sim", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: {package} not found; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ntorrent_sim
    if os.path.dirname(os.path.abspath(ntorrent_sim.__file__)) != os.path.dirname(package):
        print(f"error: ntorrent_sim imported from {ntorrent_sim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


class Pass:
    """Totals of one pass over every unit of a workload."""

    def __init__(self) -> None:
        self.unit_s: list[float] = []
        self.speed: list[float] = []
        self.setup_s: list[list[float]] = []
        self.runs = 0
        self.failed = 0
        self.events = 0
        self.oracle_agreed: list[bool] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.table_rows: list = []

    @property
    def wall_s(self) -> float:
        return sum(self.unit_s)


def run_pass(units, expected: dict | None, setup_reps: int = 0) -> Pass:
    """Run every unit once; only unit.run() is on the clock. After each unit,
    off that clock, time its set-up work alone setup_reps times. A reference
    run before the first unit and after each unit's set-up samples measures
    the host's speed; a unit's speed factor is the mean of the two next to it.
    """
    from reference import speed_sample
    result = Pass()
    before = speed_sample()
    for unit in units:
        gc.collect()
        start = time.perf_counter()
        try:
            produced = unit.run()
        except Exception:  # a failing run is counted, the pass goes on
            result.unit_s.append(time.perf_counter() - start)
            result.setup_s.append([])
            traceback.print_exc(file=sys.stderr)
            after = speed_sample()
            result.speed.append((before + after) / 2)
            before = after
            result.runs += len(unit.run_ids)
            result.failed += len(unit.run_ids)
            continue
        result.unit_s.append(time.perf_counter() - start)
        samples = []
        for _ in range(setup_reps):
            start = time.perf_counter()
            unit.setup()
            samples.append(time.perf_counter() - start)
        result.setup_s.append(samples)
        after = speed_sample()
        result.speed.append((before + after) / 2)
        before = after
        outcome = unit.check(produced)
        result.runs += outcome.runs
        result.events += outcome.events
        result.table_rows.extend(outcome.table_rows)
        result.oracle_agreed.extend(outcome.oracle_agreed)
        bad = {run_id for run_id, agreed in zip(unit.run_ids, outcome.oracle_agreed)
               if not agreed}
        for run_id in bad:
            print(f"FAIL {run_id}: simulation disagrees with reachability_oracle")
        for run_id, files in outcome.digests.items():
            result.digests[run_id] = files
            want = None if expected is None else expected.get(run_id)
            if want is not None and want != files:
                print(f"FAIL {run_id}: output digest differs from golden "
                      f"({', '.join(f for f in files if files[f] != want.get(f))})")
                bad.add(run_id)
        result.failed += len(bad)
    if result.table_rows:
        from workloads import sweep_table_digest
        result.digests["table"] = {"sweep.csv": sweep_table_digest(result.table_rows)}
        want = None if expected is None else expected.get("table")
        if want is not None and want != result.digests["table"]:
            print("FAIL table: sweep.csv digest differs from golden")
            result.failed = result.runs
    return result


def reference_wall_s(passes: list[Pass], n_units: int) -> float:
    """Seconds of one pass at reference speed: per unit its host seconds over
    every pass divided by the sum of its speed factors, summed over the units.
    A ratio of sums averages out the second-scale noise that no single
    repetition escapes."""
    return sum(sum(p.unit_s[i] for p in passes) / sum(p.speed[i] for p in passes)
               for i in range(n_units))


def setup_s(passes: list[Pass], n_units: int) -> float:
    """Set-up seconds of one pass: per unit the median of its samples, each
    divided by the speed factor of its pass, summed over the units."""
    total = 0.0
    for i in range(n_units):
        samples = [s / p.speed[i] for p in passes for s in p.setup_s[i]]
        if samples:
            total += statistics.median(samples)
    return total


def traced_pass(units, expected):
    from layers import TraceCounts
    from tracer import Tracer
    counts = TraceCounts()
    tracer = Tracer(probes=counts.probes())
    with tracer:
        result = run_pass(units, expected)
    return result, tracer, counts


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from workloads import SIZES, WORKLOADS
    from tracer import originals_in_place
    expected = None
    if seed == DEFAULT_SEED:
        with open(GOLDEN, encoding="utf-8") as fh:
            expected = json.load(fh)[size][name]
    work_dir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        units = WORKLOADS[name](seed, SIZES[size], work_dir)
        runs_per_pass = sum(len(u.run_ids) for u in units)
        passes: list[Pass] = []
        traced: list[tuple] = []
        # with --trace 1 half the time goes to untraced passes (the overhead
        # baseline), half to traced ones
        budget = seconds / 2 if trace else seconds
        min_rounds = 1 if trace else MIN_ROUNDS
        start = time.perf_counter()
        while True:
            passes.append(run_pass(units, expected,
                                   0 if trace else SETUP_REPS_PER_UNIT))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.wall_s for p in passes)
            if len(passes) >= min_rounds and elapsed + typical > budget:
                break
        while trace:
            traced.append(traced_pass(units, expected))
            stale = originals_in_place()
            if stale:
                raise RuntimeError(f"tracer left wrappers installed: {stale}")
            elapsed = time.perf_counter() - start
            if elapsed + traced[-1][0].wall_s - traced[-1][1].excluded_s > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run still uses it
            pass

    every = passes + [t[0] for t in traced]
    first = every[0].digests
    for p in every[1:]:
        changed = [run_id for run_id in first if p.digests.get(run_id) != first[run_id]]
        if changed:
            print(f"FAIL outputs differ between passes of one process: {changed[:5]}")
            p.failed = max(p.failed, len(changed))
    if expected is None:
        for run_id, files in sorted(first.items()):
            for fname, digest in sorted(files.items()):
                print(f"digest {name} seed={seed} {run_id} {fname} {digest}")

    attempted = sum(p.runs for p in every)
    failed = sum(p.failed for p in every)
    # On a shared host, other tenants slow identical work by up to half, in
    # phases of seconds to minutes, so raw host seconds measure the phase a run
    # falls in. Each unit's time is divided by the host speed measured next to
    # it.
    norm = reference_wall_s(passes, len(units))
    events = passes[0].events
    print(f"{name}: seed={seed} size={size} runs/pass={runs_per_pass} "
          f"events/pass={events} untraced passes={len(passes)} "
          f"host_wall_s={[round(p.wall_s, 3) for p in passes]} "
          f"speed={statistics.median(f for p in passes for f in p.speed):.3f} "
          f"runs={attempted} runs_failed={failed}")
    if not trace:
        metrics = {
            "wall_s": (norm, "s"),
            "events_per_s": (events / norm, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (setup_s(passes, len(units)), "s"),
        }
    else:
        metrics = traced_metrics(traced, passes, norm)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_metrics(traced, passes: list[Pass], untraced_s: float) -> dict:
    from layers import layer_metrics
    per_round = []
    missing: set[str] = set()
    for result, tracer, counts in traced:
        metrics, gone = layer_metrics(tracer, counts, result.oracle_agreed)
        per_round.append(metrics)
        missing.update(gone)
        if tracer.missing:
            print(f"tracer: targets not found: {', '.join(tracer.missing)}")
    if missing:
        print(f"missing per-layer metrics: {', '.join(sorted(missing))}")
    # counts repeat exactly between traced passes; times take the median
    merged = {name: (statistics.median_low(m[name][0] for m in per_round), unit)
              for name, (_, unit) in per_round[0].items()}
    traced_s = statistics.median((r.wall_s - t.excluded_s) / statistics.mean(r.speed)
                                 for r, t, _ in traced)
    merged["bench.trace_overhead"] = (traced_s / untraced_s, "ratio")
    merged["bench.host_wall_s"] = (statistics.median(p.wall_s for p in passes), "s")
    merged["bench.host_speed"] = (statistics.median(f for p in passes for f in p.speed),
                                  "ratio")
    print(f"traced passes={len(traced)} traced_wall_s={traced_s:.3f} "
          f"untraced_wall_s={untraced_s:.3f}")
    return merged


def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is its own); one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: runs={res['attempted']} runs_failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the fast harness self-check size")
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
