"""``repro check`` — run every analysis pillar, one summary table.

The three pillars each have their own CLI with their own option surface;
this meta-command runs them all with sensible defaults and reduces the
result to a single table plus a combined exit code — the one command a
pre-push hook or a CI smoke stage needs:

* ``lint``               — reprolint RL autodiff-misuse and DT
                           determinism rules over ``src``.
* ``graphcheck``         — GC001–GC005 IR passes on a traced step of the
                           registered methods.
* ``check-determinism``  — the two-run bisector; with ``--quick`` it
                           runs twice, 2 iterations at ``num_envs=1``,
                           then 2 at ``num_envs=4``.

Exit status is 0 only when every pillar passed.  Each pillar's full
output is buffered and replayed only when it failed (always, with
``--verbose``), so a clean run prints just the table.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import sys
import time
from dataclasses import dataclass

__all__ = ["main", "run_all"]


@dataclass
class PillarResult:
    name: str
    exit_code: int
    seconds: float
    output: str

    @property
    def status(self) -> str:
        return "ok" if self.exit_code == 0 else f"FAIL ({self.exit_code})"


# Pillar name -> (analysis module whose ``main`` runs it, its argv).
# ``_METHODS`` in an argv expands to the ``--methods`` list; the module is
# imported only when its pillar runs.
_METHODS = "<methods>"
_PILLARS = {
    "lint": (".lint", ("src",)),
    "graphcheck": (".graphcheck", ("--methods", _METHODS)),
    "check-determinism": (".determinism", ("--quick",)),
}


def _pillars(methods: list[str]) -> list[tuple[str, list[str]]]:
    """(name, argv) per pillar, in run order."""
    return [(name, [word for arg in argv
                    for word in (methods if arg == _METHODS else [arg])])
            for name, (_, argv) in _PILLARS.items()]


def _run_pillar(name: str, pillar_argv: list[str]) -> PillarResult:
    pillar_main = importlib.import_module(_PILLARS[name][0], __package__).main
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = int(pillar_main(pillar_argv) or 0)
    except SystemExit as exc:  # a pillar's argparse bailing out
        code = int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - a crashed pillar is a failure, not ours
        buffer.write(f"\n{name} crashed: {type(exc).__name__}: {exc}\n")
        code = 3
    return PillarResult(name, code, time.perf_counter() - start, buffer.getvalue())


def run_all(methods: list[str] | None = None,
            only: list[str] | None = None) -> list[PillarResult]:
    """Run the pillars (optionally a subset) and return their results."""
    methods = methods or ["garl"]
    results = []
    for name, pillar_argv in _pillars(methods):
        if only and name not in only:
            continue
        results.append(_run_pillar(name, pillar_argv))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="run all three analysis pillars (lint, graphcheck, "
                    "check-determinism --quick) and summarise")
    parser.add_argument("--methods", nargs="+", default=["garl"],
                        help="registry methods the traced pillars analyse "
                             "(default: garl)")
    parser.add_argument("--only", nargs="+", default=None,
                        choices=list(_PILLARS),
                        help="run just these pillars")
    parser.add_argument("--verbose", action="store_true",
                        help="replay every pillar's output, not only failures")
    args = parser.parse_args(argv)

    results = run_all(methods=args.methods, only=args.only)

    width = max(len(r.name) for r in results)
    print("pillar".ljust(width), " status     seconds")
    for r in results:
        print(r.name.ljust(width), f" {r.status:<9} {r.seconds:8.2f}")
    failed = [r for r in results if r.exit_code != 0]
    print(f"\n{len(results) - len(failed)}/{len(results)} pillars clean")

    for r in results:
        if args.verbose or r.exit_code != 0:
            print(f"\n--- {r.name} ---")
            print(r.output.rstrip())

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
