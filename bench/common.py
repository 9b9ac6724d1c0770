"""Shared pieces: the percentile rule, host facts and the result line."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout; ignored by git.
WORK = ROOT / ".bench_work"

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB",
              "latency_p50_ms": "ms", "latency_p99_ms": "ms",
              "throughput_rps": "1/s"}


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, cap: float = 99.0) -> tuple[float, float, int]:
    """The highest nearest-rank percentile, at most ``cap``, that still has
    at least ten samples above it: ``(percentile, value, sample count)``.

    When not even the median has ten samples above it the tail is not
    supported by the sample, and the median is reported as percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    highest = n - 11  # last rank with >= 10 samples above it
    capped = math.ceil(cap / 100.0 * n) - 1
    if highest < math.ceil(0.5 * n) - 1:
        return 50.0, median(ordered), n
    if capped <= highest:
        return cap, ordered[max(capped, 0)], n
    return 100.0 * (highest + 1) / n, ordered[highest], n


def blocked_tail(values, blocks: int) -> tuple[float, float, int]:
    """The percentile rule applied to each of ``blocks`` consecutive equal
    slices of ``values`` (in the order they were taken): ``(percentile,
    median of the slices' tail values, samples per slice)``.

    A stall of the shared host lands in one slice and moves only that
    slice's tail, so the median of the slices keeps it out of the figure.
    The percentile is the lowest any slice used.
    """
    size = len(values) // blocks
    if size == 0:
        raise ValueError("fewer samples than blocks")
    tails = [tail_percentile(values[i * size:(i + 1) * size])
             for i in range(blocks)]
    return min(q for q, _, _ in tails), median([v for _, v, _ in tails]), size


#: One reference slice is ``REFERENCE_STEPS`` steps of the kernel below;
#: ``REFERENCE_NOMINAL_S`` is what a slice takes on a quiet host (2-core
#: x86 VM, Python 3.11, numpy 2.4).  Only the ratio to it matters, and it
#: is a fixed constant, so host-normalized times compare between commits.
REFERENCE_STEPS = 300
REFERENCE_NOMINAL_S = 0.0022
#: Wall seconds between the slices ``HostClock`` times during a call.
SAMPLE_PERIOD_S = 0.1
#: Slices timed just before and just after each measured call.
BRACKET_SLICES = 2

_KERNEL = []


def reference_s() -> float:
    """Wall time of one reference slice, a fixed kernel that uses nothing
    from ``src/``: small numpy ops driven from a Python loop, the mix a
    training iteration is made of, so a slow spell of the shared host
    slows it by about the same factor.
    """
    import numpy as np

    if not _KERNEL:
        _KERNEL.append(np.random.default_rng(0).standard_normal((24, 24)) * 0.1)
    a = _KERNEL[0]
    x = a
    acc = 0.0
    seen = {}
    t0 = time.perf_counter()
    for i in range(REFERENCE_STEPS):
        x = np.tanh(x @ a + a)
        g = (1.0 - x * x) * 0.5
        acc += float(g.sum())
        seen[i & 63] = [acc, i]
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel diverged")
    return elapsed


class HostClock:
    """Times calls in host-normalized seconds.

    The shared host's speed swings by up to ~2x, in bursts of a second or
    two and in states that hold for minutes, within and between runs.
    While ``measure(fn)`` runs ``fn``, a ``SIGALRM`` handler times one
    reference slice every ``SAMPLE_PERIOD_S`` of wall time, and
    ``BRACKET_SLICES`` more run just before and just after it.  The
    slices sample the host's speed evenly over the call, so the call's
    wall time (less the handler's) times the mean of
    ``REFERENCE_NOMINAL_S / slice`` is the time it would take on a host
    that runs a slice in ``REFERENCE_NOMINAL_S``.
    """

    def __init__(self):
        self.slices: list[float] = []
        #: ``REFERENCE_NOMINAL_S / slice`` averaged over each measured call.
        self.speeds: list[float] = []
        self._handler_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.slices.append(reference_s())
        self._handler_s += time.perf_counter() - t0

    def measure(self, fn):
        """``(fn(), wall seconds less the slices, normalized seconds)``."""
        first = len(self.slices)
        self.slices.extend(reference_s() for _ in range(BRACKET_SLICES))
        previous = signal.signal(signal.SIGALRM, self._tick)
        handler_s = self._handler_s
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - (self._handler_s - handler_s)
            signal.signal(signal.SIGALRM, previous)
        self.slices.extend(reference_s() for _ in range(BRACKET_SLICES))
        speed = statistics.fmean(REFERENCE_NOMINAL_S / s for s in self.slices[first:])
        self.speeds.append(speed)
        return result, wall, wall * speed


def with_units(values: dict) -> dict:
    """The end-to-end metrics in the result line's form."""
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    """sha256 over ``src/`` file paths and contents (the program built)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_facts(seed: int) -> dict:
    """Host and provenance facts recorded next to every result."""
    import numpy

    try:
        with open("/proc/meminfo") as fh:
            mem_kb = int(fh.readline().split()[1])
    except (OSError, ValueError, IndexError):
        mem_kb = 0
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024.0, 1),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         details: dict) -> None:
    """Print the readable table, the details, then the result line last."""
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  operations attempted={attempted} failed={failed} "
          f"correct={correct}")
    print("details " + json.dumps(details, sort_keys=True, default=str))
    sys.stdout.flush()
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)
