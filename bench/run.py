"""Benchmark for GARL training iterations and ``repro serve`` latency.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` wraps the program's layers in spans and reports
the per-layer metrics instead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train_smoke_seq", "train_small_vec4", "serve_http_2c")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: {ROOT} holds no src/repro; run it from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload.startswith("train_"):
        from bench import train as workload
    else:
        from bench import serve as workload
    workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
