"""circkr benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload stepping --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; circkr is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
the four workloads one after another.  See README.md in this directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from runenv import BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stepping", "curve_fit", "dense_inverse", "cli")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per run (at least 100 ops are run regardless)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny orders, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "circkr" / "__init__.py").is_file():
        print(f"error: no circkr sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    from harness import run_workload

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        lines, result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.smoke, ROOT)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
