"""Load generator: replay concurrent synthetic scenario streams.

Each *stream* models one campus scenario client: it opens its own
keep-alive connection, creates a session seeded by its stream index, and
walks a pre-built pool of real environment observations, alternating UGV
dispatch requests with UAV movement requests whenever the pooled
timestep had airborne UAVs.  Streams run as asyncio tasks — thousands of
them concurrently on one event loop — against a live ``repro serve``
process, using the compact ``.npz`` request encoding.

The observation pool is generated once, offline, by rolling the actual
simulator with a release-happy random policy
(:func:`build_observation_pool`), so request payloads have the exact
shapes and value distributions production traffic would.  Per-request
wall latency, HTTP status and shed/timeout counts aggregate into the
summary :func:`run_load` returns.  The many-connection check in
``tests/serve/test_service.py`` runs it with 200 streams against the
real ``repro serve`` process.
"""

from __future__ import annotations

import asyncio
import io
import time

import numpy as np

from ..env.observation import UGVObsArrays

__all__ = ["build_observation_pool", "run_load", "percentile"]


# ----------------------------------------------------------------------
# Observation pool
# ----------------------------------------------------------------------

def build_observation_pool(campus: str, preset: str, num_ugvs: int,
                           num_uavs_per_ugv: int, *, seed: int = 0,
                           episodes: int = 1) -> list[dict]:
    """Roll the real env under a random release-happy policy; keep obs.

    Returns a list of per-timestep entries: every entry has the four UGV
    observation arrays; entries whose timestep had airborne UAVs also
    carry stacked ``grids``/``aux`` crops.
    """
    from ..experiments.runner import build_env
    from ..experiments.presets import get_preset

    env = build_env(campus, get_preset(preset), num_ugvs, num_uavs_per_ugv,
                    seed=seed)
    rng = np.random.default_rng(seed + 1)
    cfg = env.config
    pool: list[dict] = []
    for episode in range(episodes):
        res = env.reset()
        while True:
            obs = UGVObsArrays.from_observations([res.ugv_observations])
            entry = {
                "stop_features": obs.stop_features[0],
                "ugv_positions": obs.ugv_positions[0],
                "ugv_stops": obs.ugv_stops[0],
                "action_mask": obs.action_mask[0],
            }
            airborne = [o for o in res.uav_observations if o is not None]
            if airborne:
                entry["grids"] = np.stack([o.grid for o in airborne])
                entry["aux"] = np.stack([o.aux for o in airborne])
            pool.append(entry)
            # Random policy biased toward release (the last action index)
            # so the pool contains plenty of airborne-UAV timesteps.
            actions = np.empty(cfg.num_ugvs, dtype=np.int64)
            for u, mask in enumerate(entry["action_mask"]):
                feasible = np.flatnonzero(mask)
                release = feasible[-1] == mask.shape[0] - 1
                if release and rng.random() < 0.5:
                    actions[u] = mask.shape[0] - 1
                else:
                    actions[u] = rng.choice(feasible)
            uav_actions = [rng.uniform(-1, 1, 2) * cfg.uav_max_step
                           if o is not None else None
                           for o in res.uav_observations]
            res = env.step(actions, uav_actions)
            if res.done:
                break
    return pool


# ----------------------------------------------------------------------
# Minimal asyncio HTTP/1.1 client
# ----------------------------------------------------------------------

async def _request(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                   method: str, path: str, body: bytes = b"",
                   ctype: str = "application/json") -> tuple[int, bytes]:
    writer.write((f"{method} {path} HTTP/1.1\r\n"
                  f"Host: loadgen\r\n"
                  f"Content-Type: {ctype}\r\n"
                  f"Content-Length: {len(body)}\r\n"
                  f"Connection: keep-alive\r\n\r\n").encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    close = False
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value.strip())
        elif name == "connection" and value.strip().lower() == "close":
            close = True
    payload = await reader.readexactly(length) if length else b""
    if close:
        raise ConnectionResetError("server is closing the connection")
    return status, payload


def _npz_bytes(arrays: dict) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------

async def _run_stream(host: str, port: int, stream_id: int, pool: list[dict],
                      requests: int, stats: dict, *,
                      connect_stagger_s: float = 0.0) -> None:
    if connect_stagger_s:
        await asyncio.sleep(connect_stagger_s)
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        stats["connect_errors"] += 1
        return
    try:
        status, body = await _request(
            reader, writer, "POST", "/v1/session",
            body=b'{"seed": %d}' % stream_id)
        if status != 200:
            stats["errors"][status] = stats["errors"].get(status, 0) + 1
            return
        import json

        sid = json.loads(body)["session"]
        sent = 0
        step = stream_id  # offset each stream into the pool differently
        while sent < requests:
            entry = pool[step % len(pool)]
            step += 1
            jobs = [("ugv", {k: entry[k] for k in
                             ("stop_features", "ugv_positions", "ugv_stops",
                              "action_mask")})]
            if "grids" in entry:
                jobs.append(("uav", {"grids": entry["grids"],
                                     "aux": entry["aux"]}))
            for kind, arrays in jobs:
                if sent >= requests:
                    break
                sent += 1
                t0 = time.perf_counter()
                try:
                    status, _ = await _request(
                        reader, writer, "POST",
                        f"/v1/act?session={sid}&kind={kind}",
                        body=_npz_bytes(arrays), ctype="application/x-npz")
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    stats["connect_errors"] += 1
                    return
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                if status == 200:
                    stats["latencies_ms"].append(elapsed_ms)
                elif status == 429:
                    stats["shed"] += 1
                elif status == 504:
                    stats["timeouts"] += 1
                else:
                    stats["errors"][status] = stats["errors"].get(status, 0) + 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


async def run_load(host: str, port: int, pool: list[dict], *,
                   streams: int = 1000, requests_per_stream: int = 4,
                   ramp_s: float = 2.0) -> dict:
    """Run ``streams`` concurrent scenario streams; return the summary.

    Connections are staggered uniformly over ``ramp_s`` so the accept
    queue sees a ramp instead of one synchronized thundering herd, then
    all streams issue their requests concurrently.
    """
    stats = {"latencies_ms": [], "shed": 0, "timeouts": 0,
             "connect_errors": 0, "errors": {}}
    t0 = time.perf_counter()
    tasks = [
        asyncio.create_task(_run_stream(
            host, port, i, pool, requests_per_stream, stats,
            connect_stagger_s=(ramp_s * i / max(1, streams - 1)) if ramp_s else 0.0))
        for i in range(streams)
    ]
    await asyncio.gather(*tasks)
    wall_s = time.perf_counter() - t0
    lat = stats["latencies_ms"]
    completed = len(lat)
    attempted = completed + stats["shed"] + stats["timeouts"]
    return {
        "streams": streams,
        "requests_per_stream": requests_per_stream,
        "completed": completed,
        "shed": stats["shed"],
        "timeouts": stats["timeouts"],
        "connect_errors": stats["connect_errors"],
        "errors": stats["errors"],
        "shed_rate": stats["shed"] / attempted if attempted else 0.0,
        "wall_seconds": round(wall_s, 3),
        "throughput_rps": round(completed / wall_s, 1) if wall_s > 0 else 0.0,
        "latency_ms": {
            "p50": round(percentile(lat, 50), 2),
            "p90": round(percentile(lat, 90), 2),
            "p99": round(percentile(lat, 99), 2),
            "mean": round(float(np.mean(lat)), 2) if lat else 0.0,
            "max": round(max(lat), 2) if lat else 0.0,
        },
    }
