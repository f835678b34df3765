"""Fast check of the benchmark harness itself, at the tiny size.

    python3 perfbench/selfcheck.py        # from the repository root

Checks that, for every workload, an untraced invocation prints every
end-to-end metric of BENCHMARK.json with its unit and a traced one every
per-layer metric; that no run fails on the default seed; that a traced pass
leaves every original function object in place, so an untraced pass after it
runs unwrapped code and still matches the golden digests; that a traced target
which no longer exists is reported missing instead of crashing; and that the
benchmark refuses to run where there is no simulator source.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def invoke(workload: str, trace: int, cwd: str = run.ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_outputs(spec: dict) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = invoke(name, trace)
            check(code == 0 and bool(lines), f"{name} --trace {trace} exits 0")
            if not lines:
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} --trace {trace}: result keys")
            check(result["failed"] == 0 and result["correct"] and result["attempted"] > 0,
                  f"{name} --trace {trace}: runs_failed 0 of {result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == want, f"{name} --trace {trace}: every {key} metric with its unit"
                  + ("" if got == want else f" (differs: {sorted(set(got) ^ set(want))})"))


def check_restored() -> None:
    from tracer import TARGETS, _bindings, _resolve, originals_in_place
    from workloads import SIZES, WORKLOADS
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["tiny"]["static-mesh"]
    before = []
    for _, module, qualname in TARGETS:
        owner, attr, fn = _resolve(module, qualname)
        before += [(holder, key, fn) for holder, key in _bindings(owner, attr, fn)]
    work_dir = os.path.join(run.WORK_DIR, "selfcheck")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        units = WORKLOADS["static-mesh"](run.DEFAULT_SEED, SIZES["tiny"], work_dir)
        traced, tracer, _ = run.traced_pass(units, golden)
        check(traced.failed == 0, "traced pass matches the golden digests")
        check(tracer.calls_of("names.classify") > 0, "traced pass saw classify calls")
        check(not originals_in_place() and all(getattr(h, k) is fn for h, k, fn in before),
              "every binding holds its original function after the traced pass")
        untraced = run.run_pass(units, golden)
        check(untraced.failed == 0, "untraced pass after it matches the golden digests")

        import tracer as tracer_module
        saved = list(tracer_module.TARGETS)
        tracer_module.TARGETS[:] = [(label, module, "no_such_function" if label ==
                                     "names.classify" else qualname)
                                    for label, module, qualname in saved]
        try:
            result, gone_tracer, counts = run.traced_pass(units, golden)
        finally:
            tracer_module.TARGETS[:] = saved
        from layers import layer_metrics
        metrics, missing = layer_metrics(gone_tracer, counts, result.oracle_agreed)
        check(result.failed == 0 and "names.classify_calls" in missing
              and "names.classify_calls" not in metrics and "names.render_calls" in metrics,
              "a target that is gone is reported missing, the rest still measured")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check_bare_directory() -> None:
    bare = os.path.join(run.WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(SPEC, bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = invoke("static-mesh", 0, cwd=bare)
        printed = bool(lines) and lines[-1].startswith("{")
        check(code != 0 and not printed,
              "without the simulator source the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run._import_program()
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    check_outputs(spec)
    check_restored()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
