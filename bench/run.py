"""Benchmark of the wglab library: one workload per run.

Run from the repository root:

    python3 bench/run.py --workload {report,transference,sumset} \
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it
records the machine, the source digest, the seed and a SHA-256 digest
of the workload's outputs.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "wglab" / "__init__.py").is_file():
        print(f"error: no wglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    if args.workload not in measure.workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        workdir = measure.ROOT / ".bench_work" / f"probe-{os.getpid()}"
        try:
            measure.setup_inputs(args.workload, args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result, info = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
