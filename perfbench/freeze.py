"""Re-baseline golden.json: run every workload once per size on the default
seed and store the SHA-256 of every output.

    python3 perfbench/freeze.py

Only re-baseline together with a CHANGES.md entry that names the behaviour
change making the outputs differ. A speed-up must leave the digests as they
are.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run._import_program()
    from workloads import SIZES, WORKLOADS
    golden = {}
    for size, spec in SIZES.items():
        golden[size] = {}
        for name in WORKLOADS:
            work_dir = os.path.join(run.WORK_DIR, name)
            shutil.rmtree(work_dir, ignore_errors=True)
            os.makedirs(work_dir)
            try:
                result = run.run_pass(WORKLOADS[name](run.DEFAULT_SEED, spec, work_dir), None)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if result.failed:
                print(f"{size}/{name}: {result.failed} runs failed; not frozen",
                      file=sys.stderr)
                return 1
            golden[size][name] = result.digests
            print(f"{size}/{name}: {len(result.digests)} digests")
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
