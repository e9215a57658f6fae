"""Rewrite expected.json from one run of every workload at the default seed.

    python3 perfbench/pin.py

Run it only when a change is meant to alter the artifacts, and say in the
change which ones moved and why.  The invariant checks still apply.
"""

import json
import os
import shutil
import sys

import checks
from run import WORK_DIR, run_child, write_inputs
from workloads import DEFAULT_SEED, GENERATORS


def main() -> int:
    pinned = {}
    for name, generate in GENERATORS.items():
        w = generate(DEFAULT_SEED)
        work = os.path.join(WORK_DIR, f"pin-{name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            out, rerender = os.path.join(work, "out"), os.path.join(work, "rerender")
            run_child([*write_inputs(w, work), out, rerender, "0"], timeout=600)
            problems = checks.check_run(w, DEFAULT_SEED, out, rerender, None)
            if problems:
                print(f"{name}: " + "; ".join(problems), file=sys.stderr)
                return 1
            pinned[name] = checks.pins(DEFAULT_SEED, out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
