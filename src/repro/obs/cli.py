"""CLI glue for the observability layer (``repro profile``, ``--profile``).

Kept out of ``repro.obs.__init__`` on purpose: this module imports the
experiment runner (which imports the instrumented training stack), so
pulling it in from ``repro.obs`` would create an import cycle and drag
experiment dependencies into every hot-path ``from ..obs.scope import
scope`` line.  ``repro.cli`` imports it lazily instead.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .export import (
    format_op_table,
    format_top_table,
    write_chrome_trace,
    write_profile_jsonl,
)
from .opprof import OpProfile, profile_ops
from .scope import Profiler

__all__ = ["add_profile_parser", "run_profile_command", "profile_training"]

# Iteration count used by ``repro profile --quick``.
_QUICK_ITERATIONS = 2


def add_profile_parser(sub) -> argparse.ArgumentParser:
    """Register the ``profile`` subcommand on an argparse subparsers set."""
    p = sub.add_parser(
        "profile",
        help="profile a short training run: scope timers + per-op "
             "autodiff table + Chrome trace")
    p.add_argument("--method", default="garl",
                   help="agent to profile (default: garl)")
    p.add_argument("--campus", default="kaist", choices=("kaist", "ucla"))
    p.add_argument("--preset", default="smoke",
                   choices=("smoke", "small", "paper"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ugvs", type=int, default=4)
    p.add_argument("--uavs", type=int, default=2)
    p.add_argument("--iterations", type=int, default=None,
                   help="training iterations to profile (default: the "
                        "preset's count)")
    p.add_argument("--quick", action="store_true",
                   help=f"profile only {_QUICK_ITERATIONS} iterations")
    p.add_argument("--num-envs", type=int, default=1,
                   help="vectorized env replicas (default: 1)")
    p.add_argument("--trace-out", default="profile_trace.json",
                   help="Chrome trace_event output file (open in Perfetto; "
                        "default: profile_trace.json)")
    p.add_argument("--jsonl-out", default=None,
                   help="also write scope/metric/op aggregates as JSONL")
    p.add_argument("--top", type=int, default=15,
                   help="rows in each top-N table (default: 15)")
    p.add_argument("--no-ops", action="store_true",
                   help="skip the per-op tape profile (scope timers only; "
                        "use for longer runs — the op tape keeps one small "
                        "record per op)")
    return p


def run_profile_command(args: argparse.Namespace) -> int:
    """Drive one profiled training run from parsed ``profile`` args."""
    from ..experiments.runner import run_method

    iterations = args.iterations
    if args.quick and iterations is None:
        iterations = _QUICK_ITERATIONS

    def run():
        return run_method(args.method, args.campus, preset=args.preset,
                          num_ugvs=args.ugvs, num_uavs_per_ugv=args.uavs,
                          seed=args.seed, train_iterations=iterations,
                          num_envs=args.num_envs)

    # The scope profiler sits *inside* profile_ops so the tape-compile
    # pass after the workload does not count against scope coverage.
    prof = Profiler()

    def workload():
        with prof:
            return run()

    ops: OpProfile | None = None
    if args.no_ops:
        record = workload()
    else:
        ops = profile_ops(workload)
        record = ops.result

    m = record.metrics
    print(f"profiled {args.method} on {args.campus} "
          f"({iterations if iterations is not None else 'preset'} iterations, "
          f"num_envs={args.num_envs}): λ={m['efficiency']:.4f}")
    print()
    print(format_top_table(prof, args.top))
    if ops is not None:
        print()
        print(format_op_table(ops, args.top))

    trace_path = write_chrome_trace(args.trace_out, prof, ops)
    print(f"\nChrome trace written to {trace_path} "
          f"(open at https://ui.perfetto.dev)")
    if args.jsonl_out:
        jsonl_path = write_profile_jsonl(args.jsonl_out, prof, ops)
        print(f"profile JSONL written to {jsonl_path}")

    coverage = prof.coverage()
    print(f"scope coverage: {100.0 * coverage:.1f}% of wall time "
          f"attributed to named scopes")
    print(f"peak RSS: {prof.peak_rss_mb:.1f} MB")
    return 0


def profile_training(run_training_call, profile_dir: str | Path):
    """Run ``run_training_call()`` under a profiler (``train --profile``).

    Scope-timer-only by design: the per-op tape keeps one record per op
    and the per-op stack walk slows every op, which an arbitrarily long
    training run should not pay.  Writes
    ``profile_trace.json`` + ``profile.jsonl`` into ``profile_dir`` and
    prints the top-scope table.  Returns the callable's result.
    """
    profile_dir = Path(profile_dir)
    with Profiler() as prof:
        result = run_training_call()
    print()
    print(format_top_table(prof))
    print(f"peak RSS: {prof.peak_rss_mb:.1f} MB")
    trace_path = write_chrome_trace(profile_dir / "profile_trace.json", prof)
    jsonl_path = write_profile_jsonl(profile_dir / "profile.jsonl", prof)
    print(f"profile written to {trace_path} and {jsonl_path}")
    return result
