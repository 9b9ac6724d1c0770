"""Determinism analysis: the third pillar of ``repro.analysis``.

Two cooperating layers:

* :mod:`~repro.analysis.determinism.rules` — the static **DT rule
  family** (DT001 global RNG, DT002 wall-clock control flow, DT003
  unordered iteration, DT004 fork-unsafe state) on the reprolint
  framework; ``repro lint`` runs them with the RL rules.
* :mod:`~repro.analysis.determinism.bisector` — the **runtime
  divergence bisector**: two same-seed lockstep runs, per-iteration
  state fingerprints, and an op-level tape replay that names the first
  divergent op and its creation site.

``repro check-determinism`` runs the bisector.

See docs/static_analysis.md ("Determinism analysis") for the workflow.
"""

from __future__ import annotations

import argparse
import sys

from .bisector import (
    DivergenceReport,
    FingerprintTrace,
    check_determinism,
    first_tape_divergence,
)
from .fingerprint import diff_components, fingerprint_agent, record_payload
from .rules import DT_RULES

__all__ = [
    "DT_RULES", "DivergenceReport", "FingerprintTrace", "check_determinism",
    "first_tape_divergence", "fingerprint_agent", "record_payload",
    "diff_components", "main",
]


def main(argv: list[str] | None = None) -> int:
    """``repro check-determinism`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro check-determinism",
        description="two-run runtime divergence bisection "
                    "(exit 1 on findings)")
    parser.add_argument("--method", default="garl")
    parser.add_argument("--campus", default="kaist")
    parser.add_argument("--preset", default="smoke")
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--episodes", type=int, default=1)
    parser.add_argument("--num-envs", type=int, default=1,
                        help="vectorized replicas for the runtime check "
                             "(default: 1)")
    parser.add_argument("--ugvs", type=int, default=2)
    parser.add_argument("--uavs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: 2-iteration runtime checks on the "
                             "tiny coalition, num_envs=1 AND --num-envs 4")
    args = parser.parse_args(argv)

    failures = 0

    if args.quick:
        runs = [(2, 1), (2, 4)]  # (iterations, num_envs)
    else:
        runs = [(args.iterations, args.num_envs)]
    for iterations, num_envs in runs:
        report = check_determinism(
            method=args.method, campus=args.campus, preset=args.preset,
            iterations=iterations, episodes_per_iteration=args.episodes,
            num_envs=num_envs, num_ugvs=args.ugvs,
            num_uavs_per_ugv=args.uavs, seed=args.seed)
        print(report.format())
        if not report.equal:
            failures += 1

    if failures:
        print(f"\ncheck-determinism: {failures} finding(s)")
        return 1
    print("\ncheck-determinism: clean")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
