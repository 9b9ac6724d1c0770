"""Serving workload over an artifact frozen from a 1-iteration checkpoint.

``serve_http_2c`` drives the real ``python -m repro serve`` process with
two closed-loop keep-alive clients.
"""

from __future__ import annotations

import asyncio
import gc
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import layers
from .common import (ROOT, SRC, WORK, blocked_tail, emit, host_facts, median,
                     with_units)
from .spans import load_spans
from .validate import check

HTTP_CLIENTS = 2
# Server spawns per run: half before the load, half after it, so the
# median samples both ends of the run.
SERVER_SPAWNS = 6
# Observation-pool episodes: enough timesteps that the mix of UAV crop
# counts, and so the work per request, varies little from seed to seed.
POOL_EPISODES = 4
# latency_p99_ms is the median of the tails of this many consecutive
# slices of the timed requests, each with >= 10 samples beyond its tail.
TAIL_BLOCKS = 5
READY_TIMEOUT_S = 60.0
UGV_FIELDS = ("stop_features", "ugv_positions", "ugv_stops", "action_mask")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def make_artifact(workdir: Path, seed: int) -> Path:
    """Train one smoke iteration, checkpoint it and export it."""
    from repro.experiments.runner import run_training
    from repro.serve.artifact import export_artifact

    run_dir = workdir / "run"
    run_training("garl", "kaist", "smoke", seed=seed, train_iterations=1,
                 checkpoint_dir=run_dir, save_every=1, handle_signals=False)
    return export_artifact(run_dir, workdir / "artifact")


def make_jobs(seed: int) -> list[tuple[str, dict]]:
    """The observation pool as a request sequence: each timestep's UGV
    request, then its UAV request when any UAV was airborne."""
    from repro.serve.loadgen import build_observation_pool

    jobs = []
    for entry in build_observation_pool("kaist", "smoke", 4, 2, seed=seed,
                                        episodes=POOL_EPISODES):
        jobs.append(("ugv", {k: entry[k] for k in UGV_FIELDS}))
        if "grids" in entry:
            jobs.append(("uav", {"grids": entry["grids"], "aux": entry["aux"]}))
    return jobs


def _latency_metrics(latencies_ms: list[float]) -> tuple[dict, dict]:
    """p50 and tail latency of requests in the order they completed; an
    operation is a request, so ``iter_s`` is the median request in
    seconds."""
    q, tail, n = blocked_tail(latencies_ms, TAIL_BLOCKS)
    p50 = median(latencies_ms)
    return ({"iter_s": p50 / 1e3, "latency_p50_ms": p50, "latency_p99_ms": tail},
            {"tail_percentile": q, "samples": len(latencies_ms),
             "tail_blocks": TAIL_BLOCKS, "samples_per_block": n})


# ----------------------------------------------------------------------
# HTTP: server process + closed-loop clients
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, artifact: Path, workdir: Path, tag: str,
                 trace_out: Path | None = None):
        self.ready = workdir / f"ready-{tag}"
        self.log = open(workdir / f"server-{tag}.log", "w")
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(ROOT / "bench" / "serve_launcher.py"),
                   "--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + [str(artifact), "--port", "0", "--ready-file", str(self.ready)],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        while not self.ready.exists():
            if self.proc.poll() is not None or time.perf_counter() - t0 > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError(f"server {tag} never became ready; see {self.log.name}")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0
        # The ready file is written in one call; reread until it is whole.
        while True:
            parts = self.ready.read_text().split()
            if len(parts) == 2:
                break
            time.sleep(0.001)
        self.host, self.port = parts[0], int(parts[1])

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int | None:
        """SIGTERM (the service drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


async def _client(host: str, port: int, index: int, seed: int, bodies,
                  start_job: int, t_end: float, out: list) -> None:
    """One closed-loop stream of ``run_load``'s protocol, for a fixed
    time: a session, then request after request, every reply kept."""
    from repro.serve.loadgen import _request

    reader, writer = await asyncio.open_connection(host, port)
    try:
        status, body = await _request(
            reader, writer, "POST", "/v1/session",
            json.dumps({"seed": seed * 100 + index}).encode())
        if status != 200:
            raise ConnectionError(f"session refused with {status}")
        sid = json.loads(body)["session"]
        job = start_job
        while time.perf_counter() < t_end:
            kind, payload = bodies[job % len(bodies)]
            t0 = time.perf_counter()
            try:
                status, reply = await _request(
                    reader, writer, "POST", f"/v1/act?session={sid}&kind={kind}",
                    payload, "application/x-npz")
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                out.append((job, None, f"{type(exc).__name__}: {exc}", None))
                return
            out.append((job, (time.perf_counter() - t0) * 1e3, status, reply))
            job += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def drive_http(server: Server, jobs, seed: int, seconds: float, schema: dict):
    """Run HTTP_CLIENTS closed-loop clients for ``seconds``; returns the
    latencies of valid replies, the wall time, the requests sent and the
    failures."""
    from repro.serve.loadgen import _npz_bytes

    bodies = [(kind, _npz_bytes(arrays)) for kind, arrays in jobs]
    starts = [i for i, (kind, _) in enumerate(jobs) if kind == "ugv"]
    out: list = []

    async def main():
        t_end = time.perf_counter() + seconds
        await asyncio.gather(*(
            _client(server.host, server.port, i, seed, bodies,
                    starts[i * len(starts) // HTTP_CLIENTS], t_end, out)
            for i in range(HTTP_CLIENTS)))

    gc.collect()
    t0 = time.perf_counter()
    asyncio.run(main())
    wall = time.perf_counter() - t0
    latencies, failures = [], []
    for job, latency, status, reply in out:
        kind, request = jobs[job % len(jobs)]
        if status != 200:
            failures.append(f"{kind}: status {status}")
            continue
        with np.load(io.BytesIO(reply), allow_pickle=False) as data:
            decoded = {k: data[k] for k in data.files}
        problem = check(kind, request, decoded, schema)
        if problem is not None:
            failures.append(f"{kind}: {problem}")
            continue
        latencies.append(latency)
    return latencies, wall, len(out), failures


def run_http(workdir: Path, artifact: Path, jobs, seed: int, seconds: float,
             trace: bool, schema: dict) -> tuple:
    details: dict = {"clients": HTTP_CLIENTS}
    if not trace:
        spawns = []
        server = None
        try:
            for i in range(SERVER_SPAWNS // 2):
                if server is not None:
                    server.stop()
                server = Server(artifact, workdir, str(i))
                spawns.append(server.setup_s)
            latencies, wall, attempted, failures = drive_http(
                server, jobs, seed, seconds, schema)
            rss = server.vm_hwm_mb()
        finally:
            if server is not None:
                server.stop()
        for i in range(SERVER_SPAWNS // 2, SERVER_SPAWNS):
            server = Server(artifact, workdir, str(i))
            server.stop()
            spawns.append(server.setup_s)
        values, extra = _latency_metrics(latencies)
        values.update(setup_s=median(spawns), peak_rss_mb=rss,
                      throughput_rps=len(latencies) / wall)
        details.update(extra, setup_s_samples=spawns)
        return with_units(values), attempted, failures, details

    # Traced: an untraced server for the overhead baseline, then the launcher.
    server = Server(artifact, workdir, "plain")
    try:
        base, _, attempted, failures = drive_http(server, jobs, seed, seconds / 2, schema)
    finally:
        server.stop()
    trace_out = workdir / "server-trace"
    server = Server(artifact, workdir, "traced", trace_out=trace_out)
    try:
        traced, _, n, more = drive_http(server, jobs, seed, seconds / 2, schema)
    finally:
        rc = server.stop()
    attempted += n
    failures += more
    if rc != 0:
        failures.append(f"traced server exited with {rc}")
    spans = load_spans(trace_out.with_suffix(".spans.json"))
    probe = json.loads(trace_out.with_suffix(".probe.json").read_text())
    values = layers.serve_layer_metrics(spans)
    values.update(layers.engine_layer_metrics(
        probe["engine_stats"], probe["requests"], probe["describe"]))
    server_ms = [(done - submit) * 1e3 for submit, _, done in probe["requests"]]
    if traced and server_ms:
        values["http.overhead_ms"] = median(traced) - median(server_ms)
    if base and traced:
        values["trace.overhead_pct"] = 100.0 * (median(traced) / median(base) - 1)
    WORK.mkdir(exist_ok=True)
    shutil.copy(trace_out.with_suffix(".spans.json"),
                WORK / f"trace-serve_http_2c-seed{seed}.json")
    return layers.report(values), attempted, failures, details


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        artifact = make_artifact(workdir, seed)
        schema = json.loads((artifact / "manifest.json").read_text())["schema"]
        jobs = make_jobs(seed)
        metrics, attempted, failures, details = run_http(
            workdir, artifact, jobs, seed, seconds, trace, schema)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(workload=workload, pool_requests=len(jobs),
                   uav_requests=sum(kind == "uav" for kind, _ in jobs),
                   failures=failures[:5], host=host_facts(seed))
    emit(not failures, attempted, len(failures), metrics, details)
