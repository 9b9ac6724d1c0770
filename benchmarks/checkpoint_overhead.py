"""Measure full-state checkpoint write latency and training overhead.

Two questions about ``repro.experiments.checkpoint``:

* **save latency** — how long does one atomic full-state save take, and
  how does it scale with model size (``hidden_dim``)?  Includes state
  extraction, flattening, the npz + manifest writes and the directory
  rename.
* **training overhead** — what fraction of training wall-time does
  periodic checkpointing cost?  Reported two ways: amortized (median
  save latency spread over ``save_every`` measured iterations) and
  measured end-to-end (same training run with and without a
  :class:`TrainingCheckpointer` attached).

Results land in ``BENCH_checkpoint.json`` at the repo root:

    PYTHONPATH=src python benchmarks/checkpoint_overhead.py

``--quick`` runs a reduced matrix, skips the JSON write unless
``--write`` is also given, and exits non-zero if the amortized overhead
at ``--save-every 10`` reaches 5% of training throughput — the CI
regression gate for the checkpoint subsystem.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.garl import GARLAgent
from repro.experiments import TrainingCheckpointer, get_preset
from repro.experiments.runner import build_env

REPO_ROOT = Path(__file__).resolve().parents[1]
SAVE_EVERY = 10
GATE_PCT = 5.0


def _make_agent(hidden_dim: int, num_ugvs: int = 2, num_uavs_per_ugv: int = 1):
    preset = get_preset("smoke")
    env = build_env("kaist", preset, num_ugvs=num_ugvs,
                    num_uavs_per_ugv=num_uavs_per_ugv, seed=0)
    return GARLAgent(env, preset.garl_config(hidden_dim=hidden_dim))


def _state_stats(state: dict) -> tuple[int, int]:
    """(array leaves, total parameter/state bytes) of a state tree."""
    from repro.experiments import flatten_state

    arrays, _ = flatten_state(state)
    return len(arrays), sum(a.nbytes for a in arrays.values())


def bench_save_latency(hidden_dim: int, reps: int) -> dict:
    from repro.experiments import write_checkpoint

    agent = _make_agent(hidden_dim)
    leaves, nbytes = _state_stats(agent.state_dict())
    tmp = Path(tempfile.mkdtemp(prefix="ckpt_bench_"))
    try:
        write_checkpoint(tmp / "warmup", agent.state_dict(), {})  # warmup
        times = []
        for i in range(reps):
            t0 = time.perf_counter()
            write_checkpoint(tmp / f"iter_{i:06d}", agent.state_dict(),
                             {"iterations_completed": i})
            times.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    on_disk = 0  # recompute once for reporting
    tmp = Path(tempfile.mkdtemp(prefix="ckpt_bench_"))
    try:
        path = write_checkpoint(tmp / "probe", agent.state_dict(), {})
        on_disk = sum(p.stat().st_size for p in path.iterdir())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "hidden_dim": hidden_dim,
        "array_leaves": leaves,
        "state_bytes": nbytes,
        "checkpoint_bytes_on_disk": on_disk,
        "save_seconds_median": statistics.median(times),
        "save_seconds_max": max(times),
    }


def bench_training_overhead(iterations: int, hidden_dim: int = 16) -> dict:
    """Amortized + measured overhead of save_every=SAVE_EVERY checkpointing."""
    # Baseline: plain training, no telemetry, no checkpointing.
    agent = _make_agent(hidden_dim)
    agent.train(1)  # warmup (campus cache, first-touch allocations)
    t0 = time.perf_counter()
    agent.train(iterations)
    baseline = time.perf_counter() - t0

    # Same budget with a checkpointer attached at the gate cadence.
    agent = _make_agent(hidden_dim)
    agent.train(1)
    tmp = Path(tempfile.mkdtemp(prefix="ckpt_bench_"))
    try:
        checkpointer = TrainingCheckpointer(
            tmp, agent, total_iterations=10**9,  # no final-iteration save
            save_every=SAVE_EVERY, keep_last=3)
        t0 = time.perf_counter()
        agent.train(iterations, callback=checkpointer)
        with_ckpt = time.perf_counter() - t0
        saves = len(checkpointer.available())
        t0 = time.perf_counter()
        checkpointer.save(iterations + 1)
        one_save = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    iter_seconds = baseline / iterations
    amortized_pct = 100.0 * one_save / (SAVE_EVERY * iter_seconds)
    measured_pct = 100.0 * (with_ckpt - baseline) / baseline
    return {
        "iterations": iterations,
        "save_every": SAVE_EVERY,
        "saves_during_run": saves,
        "iter_seconds": iter_seconds,
        "save_seconds": one_save,
        "overhead_pct_amortized": amortized_pct,
        "overhead_pct_measured": measured_pct,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced matrix + CI regression gate")
    parser.add_argument("--write", action="store_true",
                        help="write BENCH_checkpoint.json even with --quick")
    args = parser.parse_args(argv)

    hidden_dims = (16, 32) if args.quick else (16, 32, 64)
    reps = 5 if args.quick else 20
    iterations = 3 if args.quick else 10

    results = {"save_latency": [], "training_overhead": None}
    for hidden_dim in hidden_dims:
        row = bench_save_latency(hidden_dim, reps)
        results["save_latency"].append(row)
        print(f"save latency  hidden_dim={hidden_dim:<3d} "
              f"leaves={row['array_leaves']:<4d} "
              f"state={row['state_bytes'] / 1024:.0f} KiB  "
              f"median={row['save_seconds_median'] * 1e3:.1f} ms")

    overhead = bench_training_overhead(iterations)
    results["training_overhead"] = overhead
    print(f"training      iter={overhead['iter_seconds']:.3f} s  "
          f"save={overhead['save_seconds'] * 1e3:.1f} ms  "
          f"overhead@save_every={SAVE_EVERY}: "
          f"{overhead['overhead_pct_amortized']:.2f}% amortized, "
          f"{overhead['overhead_pct_measured']:+.2f}% measured")

    if not args.quick or args.write:
        out = REPO_ROOT / "BENCH_checkpoint.json"
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"results written to {out}")

    if args.quick and overhead["overhead_pct_amortized"] >= GATE_PCT:
        print(f"GATE FAILED: amortized checkpoint overhead "
              f"{overhead['overhead_pct_amortized']:.2f}% >= {GATE_PCT}% "
              f"at --save-every {SAVE_EVERY}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
