"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the paper's experiments:

* ``train``        — train one method on one campus, optionally saving a
                     checkpoint directory.
* ``evaluate``     — evaluate a saved checkpoint.
* ``ablation``     — Table III rows for one campus.
* ``layers``       — Table II layer sweep.
* ``sweep``        — Fig. 3-6 coalition sweep (writes JSON records).
* ``complexity``   — Table IV inference-cost rows.
* ``trajectories`` — Fig. 7 trajectory statistics.
* ``lint``         — reprolint static analysis over the codebase
                     (RL autodiff-misuse and DT determinism rules; see
                     docs/static_analysis.md).
* ``graphcheck``   — trace each method's training step into a graph IR
                     and run the GC001-GC005 static passes over it.
* ``profile``      — profile a short training run: hierarchical scope
                     timers, per-op autodiff table, Chrome trace (see
                     docs/observability.md).
* ``check-determinism`` — two-run runtime divergence bisector naming
                     the first divergent iteration and op.
* ``check``        — run the three analysis pillars (lint, graphcheck,
                     check-determinism) with one summary table and a
                     combined exit code.
* ``export``       — freeze a training checkpoint into a tape-free
                     inference artifact (weights + config fingerprint +
                     schema manifest), probe-verified bit-for-bit.
* ``serve``        — stand up the micro-batched policy inference service
                     over an exported artifact (see docs/serving.md).
"""

from __future__ import annotations

import argparse
import sys

from .baselines.registry import AGENT_NAMES, make_agent
from .experiments import (
    ablation_study,
    complexity_study,
    coalition_sweep,
    format_ablation,
    format_coalition_series,
    format_complexity,
    format_layer_sweep,
    format_trajectory_stats,
    get_preset,
    layer_sweep,
    run_method,
    save_records,
    trajectory_study,
)
from .experiments.runner import build_env, method_seed

_CAMPUSES = ("kaist", "ucla")
_PRESETS = ("smoke", "small", "paper")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--campus", default="kaist", choices=_CAMPUSES)
    parser.add_argument("--preset", default="smoke", choices=_PRESETS)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="GARL reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one method")
    p_train.add_argument("method", choices=sorted(AGENT_NAMES))
    _add_common(p_train)
    p_train.add_argument("--ugvs", type=int, default=4)
    p_train.add_argument("--uavs", type=int, default=2)
    p_train.add_argument("--iterations", type=int, default=None,
                         help="override the preset's training iterations")
    p_train.add_argument("--num-envs", type=int, default=1,
                         help="collect from this many vectorized env "
                              "replicas per iteration (default: 1)")
    p_train.add_argument("--save", type=str, default=None,
                         help="directory to write the trained (weights-only) "
                              "checkpoint")
    p_train.add_argument("--checkpoint-dir", type=str, default=None,
                         help="run directory for full-training-state "
                              "checkpoints + train.jsonl telemetry "
                              "(crash-safe, resumable)")
    p_train.add_argument("--save-every", type=int, default=10,
                         help="checkpoint every N iterations "
                              "(default: 10; requires --checkpoint-dir)")
    p_train.add_argument("--keep-last", type=int, default=3,
                         help="periodic checkpoints to retain besides the "
                              "best-by-λ one (default: 3)")
    p_train.add_argument("--resume", type=str, default=None, metavar="latest|PATH",
                         help="resume from 'latest' (via the run directory's "
                              "pointer) or from a specific checkpoint path; "
                              "continuation is bit-for-bit identical to an "
                              "uninterrupted run")
    p_train.add_argument("--profile", action="store_true",
                         help="run under the repro.obs scope profiler; "
                              "prints the top-scope table and writes a "
                              "Chrome trace + JSONL to --profile-dir")
    p_train.add_argument("--profile-dir", type=str, default=None,
                         help="output directory for --profile artifacts "
                              "(default: --checkpoint-dir, else cwd)")

    p_eval = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    p_eval.add_argument("method", choices=sorted(AGENT_NAMES))
    p_eval.add_argument("checkpoint", help="directory written by 'train --save'")
    _add_common(p_eval)
    p_eval.add_argument("--ugvs", type=int, default=4)
    p_eval.add_argument("--uavs", type=int, default=2)
    p_eval.add_argument("--episodes", type=int, default=3)

    p_abl = sub.add_parser("ablation", help="Table III rows")
    _add_common(p_abl)

    p_layers = sub.add_parser("layers", help="Table II layer sweep")
    _add_common(p_layers)
    p_layers.add_argument("--which", choices=("mc", "e"), default="mc")
    p_layers.add_argument("--layers", type=int, nargs="+", default=[1, 2, 3, 4, 5])

    p_sweep = sub.add_parser("sweep", help="Fig. 3-6 coalition sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--methods", nargs="+", default=["garl", "gat", "random"])
    p_sweep.add_argument("--ugv-counts", type=int, nargs="+", default=[2, 4, 6])
    p_sweep.add_argument("--uav-counts", type=int, nargs="+", default=[1, 2, 3])
    p_sweep.add_argument("--metric", default="efficiency",
                         choices=("efficiency", "psi", "xi", "zeta", "beta"))
    p_sweep.add_argument("--out", type=str, default=None,
                         help="write raw records to this JSON file")

    p_cx = sub.add_parser("complexity", help="Table IV rows")
    _add_common(p_cx)
    p_cx.add_argument("--methods", nargs="+",
                      default=["garl", "gam", "gat", "cubicmap", "aecomm",
                               "dgn", "ic3net", "maddpg"])

    p_traj = sub.add_parser("trajectories", help="Fig. 7 statistics")
    _add_common(p_traj)
    p_traj.add_argument("--methods", nargs="+",
                        default=["garl", "aecomm", "dgn", "gam", "gat"])

    p_render = sub.add_parser("render", help="render a campus (and optional "
                                             "method trace) to SVG")
    _add_common(p_render)
    p_render.add_argument("--method", default=None, choices=sorted(AGENT_NAMES),
                          help="also train this method and overlay its trace")
    p_render.add_argument("--out", default="campus.svg")

    p_lint = sub.add_parser("lint", help="run the reprolint RL and DT "
                                         "static-analysis rules (exit 1 on "
                                         "findings)")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")

    # These three own their option surfaces; main() dispatches them on
    # argv[0] before parsing, so the subparsers only list them in -h.
    sub.add_parser("graphcheck", add_help=False,
                   help="trace each method's training step into a graph IR "
                        "and run the GC001-GC005 passes (exit 1 on findings)")
    sub.add_parser("check-determinism", add_help=False,
                   help="two-run runtime divergence bisection "
                        "(exit 1 on findings)")
    sub.add_parser("check", add_help=False,
                   help="run the three analysis pillars with one summary "
                        "table and a combined exit code")

    p_export = sub.add_parser("export", help="freeze a training checkpoint "
                                             "into an inference artifact")
    p_export.add_argument("checkpoint",
                          help="an iter_* checkpoint directory or a run "
                               "directory (resolved via its 'latest' pointer)")
    p_export.add_argument("--out", required=True,
                          help="artifact output directory")
    p_export.add_argument("--method", default=None, choices=sorted(AGENT_NAMES),
                          help="override/supply the method when the "
                               "checkpoint manifest predates the serve fields")
    p_export.add_argument("--campus", default=None, choices=_CAMPUSES)
    p_export.add_argument("--preset", default=None, choices=_PRESETS)
    p_export.add_argument("--seed", type=int, default=None)
    p_export.add_argument("--ugvs", type=int, default=None)
    p_export.add_argument("--uavs", type=int, default=None)

    p_serve = sub.add_parser("serve", help="serve an exported artifact "
                                           "(micro-batched inference, SLOs)")
    p_serve.add_argument("artifact", help="directory written by 'repro export'")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="listen port (0 picks a free one; see "
                              "--ready-file)")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="most requests one batched forward takes "
                              "from the queue (default: 32)")
    p_serve.add_argument("--queue-limit", type=int, default=256,
                         help="bounded-queue depth; beyond it requests are "
                              "shed with 429 (default: 256)")
    p_serve.add_argument("--timeout-ms", type=float, default=1000.0,
                         help="per-request deadline (default: 1000)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         help="max seconds to wait for in-flight requests "
                              "after SIGTERM (default: 30)")
    p_serve.add_argument("--no-verify", action="store_true",
                         help="skip the load-time bit-for-bit probe check")
    p_serve.add_argument("--ready-file", default=None,
                         help="write '<host> <port>' here once listening")

    from .obs.cli import add_profile_parser

    add_profile_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "graphcheck":
        # Dispatch before parsing: argparse's REMAINDER does not capture
        # leading options, and the runner owns its own option surface.
        from .analysis.graphcheck import main as graphcheck_main

        return graphcheck_main(argv[1:])
    if argv and argv[0] == "check-determinism":
        from .analysis.determinism import main as determinism_main

        return determinism_main(argv[1:])
    if argv and argv[0] == "check":
        from .analysis.check import main as check_main

        return check_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.command == "lint":
        from .analysis.lint import main as lint_main

        lint_args = list(args.paths)
        if args.list_rules:
            lint_args.append("--list-rules")
        return lint_main(lint_args)

    if args.command == "export":
        from .serve import ArtifactError, export_artifact

        try:
            out = export_artifact(
                args.checkpoint, args.out, method=args.method,
                campus=args.campus, preset=args.preset, seed=args.seed,
                num_ugvs=args.ugvs, num_uavs_per_ugv=args.uavs)
        except ArtifactError as exc:
            print(f"export failed: {exc}", file=sys.stderr)
            return 1
        print(f"artifact written to {out} (probe-verified bit-for-bit)")
        return 0

    if args.command == "serve":
        from .serve import ArtifactError, run_service

        try:
            return run_service(
                args.artifact, host=args.host, port=args.port,
                max_batch=args.max_batch, queue_limit=args.queue_limit,
                timeout_ms=args.timeout_ms,
                drain_timeout_s=args.drain_timeout,
                verify=not args.no_verify, ready_file=args.ready_file)
        except ArtifactError as exc:
            print(f"refusing to serve: {exc}", file=sys.stderr)
            return 1

    preset = get_preset(args.preset)

    if args.command == "profile":
        from .obs.cli import run_profile_command

        return run_profile_command(args)

    if args.command == "train":
        from .experiments import RESUME_EXIT_CODE, TrainingInterrupted, run_training

        def _train_call():
            return run_training(
                args.method, args.campus, preset,
                num_ugvs=args.ugvs, num_uavs_per_ugv=args.uavs,
                seed=args.seed, train_iterations=args.iterations,
                num_envs=args.num_envs,
                checkpoint_dir=args.checkpoint_dir,
                save_every=args.save_every, keep_last=args.keep_last,
                resume=args.resume)

        try:
            if args.profile:
                from .obs.cli import profile_training

                profile_dir = (args.profile_dir or args.checkpoint_dir or ".")
                record, agent = profile_training(_train_call, profile_dir)
            else:
                record, agent = _train_call()
        except TrainingInterrupted as interrupted:
            print(f"{interrupted}")
            print(f"resume with: repro train {args.method} --campus "
                  f"{args.campus} --preset {args.preset} "
                  f"--checkpoint-dir {args.checkpoint_dir} --resume latest")
            return RESUME_EXIT_CODE
        m = record.metrics
        print(f"{args.method} on {args.campus}: λ={m['efficiency']:.4f} "
              f"ψ={m['psi']:.4f} ξ={m['xi']:.4f} ζ={m['zeta']:.4f} β={m['beta']:.4f}")
        if args.save:
            agent.save(args.save)
            print(f"checkpoint written to {args.save}")

    elif args.command == "evaluate":
        env = build_env(args.campus, preset, args.ugvs, args.uavs, args.seed)
        agent = make_agent(args.method, env, preset.garl_config())
        agent.load(args.checkpoint)
        snap = agent.evaluate(episodes=args.episodes, greedy=False)
        print(snap)

    elif args.command == "ablation":
        print(format_ablation(ablation_study(args.campus, preset, seed=args.seed)))

    elif args.command == "layers":
        records = layer_sweep(args.campus, which=args.which,
                              layers=tuple(args.layers), preset=preset,
                              seed=args.seed)
        print(format_layer_sweep(records, args.which))

    elif args.command == "sweep":
        records = coalition_sweep(args.campus, tuple(args.methods),
                                  ugv_counts=tuple(args.ugv_counts),
                                  uav_counts=tuple(args.uav_counts),
                                  preset=preset, seed=args.seed)
        for axis in ("ugvs", "uavs"):
            print(format_coalition_series(records, axis, args.metric))
            print()
        if args.out:
            save_records(records, args.out)
            print(f"records written to {args.out}")

    elif args.command == "complexity":
        rows = complexity_study(args.campus, tuple(args.methods), preset,
                                seed=args.seed)
        print(format_complexity(rows))

    elif args.command == "trajectories":
        stats = trajectory_study(args.campus, tuple(args.methods), preset,
                                 seed=args.seed)
        print(format_trajectory_stats(stats))

    elif args.command == "render":
        from .viz import render_campus, render_trajectories

        env = build_env(args.campus, preset, num_ugvs=4, num_uavs_per_ugv=2,
                        seed=args.seed)
        if args.method:
            agent = make_agent(args.method, env, preset.garl_config().replace(
                seed=method_seed(args.method, args.seed)))
            agent.train(preset.train_iterations, preset.episodes_per_iteration)
            trace = agent.rollout_trace(greedy=False, seed=args.seed)
            canvas = render_trajectories(env, trace,
                                         title=f"{args.method} on {args.campus}")
        else:
            env.reset()
            canvas = render_campus(env.campus, stops=env.stops)
        path = canvas.save(args.out)
        print(f"SVG written to {path}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
