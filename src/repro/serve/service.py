"""``repro serve``: stdlib-asyncio dispatch service over a frozen artifact.

One process on one thread, three layers: this module's minimal HTTP/1.1
front end (`asyncio.start_server`; no third-party web framework), the
:class:`~repro.serve.engine.InferenceEngine` micro-batcher, whose batches
this service runs on the event loop (``call_soon``) whenever requests are
queued, and the :class:`~repro.serve.artifact.FrozenPolicy` forwards.

Endpoints (all JSON unless noted):

* ``GET /healthz`` — ``{"status": "ok" | "draining"}``.
* ``GET /v1/artifact`` — the artifact manifest.
* ``GET /v1/metrics`` — engine counters (including the cumulative
  stage times ``decode_ms``, ``queue_wait_ms``, ``forward_ms`` and
  ``encode_ms``) plus the live metrics registry.
* ``POST /v1/session`` — ``{"seed": int}`` ⇒ ``{"session": id}``; every
  scenario stream owns a session whose rng makes its action sampling
  depend only on its own seed and request order.
* ``DELETE /v1/session/<id>`` — end a stream.
* ``POST /v1/act`` — one decision request.  Two encodings:
  JSON (``{"session", "kind": "ugv"|"uav", "greedy", <obs arrays as
  nested lists>}``) or, for high-throughput clients, an ``.npz`` body
  (``Content-Type: application/x-npz``, observation arrays by name) with
  session/kind/greedy passed as query parameters; the response mirrors
  the request encoding.  :mod:`repro.serve.wire` is the npz codec.  A
  200 carries a ``Server-Timing`` header with this request's ``decode``,
  ``queue``, ``forward`` and ``encode`` durations in ms.

Failure semantics (the SLO contract, see ``docs/serving.md``):

* malformed payload / schema mismatch / non-finite observation → **400**
  (never reaches the engine); a broken request line or
  ``Content-Length``, or a body cut short of it, → **400** and the
  connection closes;
* an observation whose forward gives NaN or Inf outputs → **400** (the
  rest of its batch is answered);
* body over 32 MiB → **413** and the connection closes; an npz body
  whose members declare over 32 MiB decoded → **413**; an npz body with
  more members than its kind has observation arrays → **400**;
* unknown session → **404**;
* bounded queue full → **429** ``{"error": "overloaded", ...}`` — load is
  shed instead of queueing without bound;
* per-request deadline exceeded → **504**;
* draining after SIGTERM → **503** for *new* work, while requests already
  accepted run to completion before the process exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..obs.scope import active_profiler
from .artifact import FrozenPolicy, load_artifact
from .engine import EngineOverloaded, InferenceEngine, NonFiniteOutput
from .wire import MAX_BYTES, NpzError, decode_npz, encode_npz

__all__ = ["DispatchService", "run_service"]

_JSON = "application/json"
_NPZ = "application/x-npz"
# Observation arrays per request kind (see _validate): an npz body may
# hold no more members than these, and is refused before it is parsed.
_MAX_MEMBERS = {"ugv": 4, "uav": 2}

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                429: "Too Many Requests", 500: "Internal Server Error",
                503: "Service Unavailable", 504: "Gateway Timeout"}


class _HttpError(Exception):
    """Routed straight into an error response with ``status``."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class _Session:
    """Per-stream state: the sampling rng plus bookkeeping counters."""

    __slots__ = ("sid", "seed", "rng", "requests")

    def __init__(self, sid: str, seed: int):
        self.sid = sid
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.requests = 0


class DispatchService:
    """The serving state machine: sessions, routing, drain choreography."""

    def __init__(self, policy: FrozenPolicy, engine: InferenceEngine, *,
                 host: str = "127.0.0.1", port: int = 8765,
                 drain_timeout_s: float = 30.0):
        self.policy = policy
        self.engine = engine
        self.host = host
        self.port = port
        self.drain_timeout_s = float(drain_timeout_s)
        self.schema = policy.schema
        self.sessions: dict[str, _Session] = {}
        # Cumulative /v1/act stage times: body -> validated arrays for
        # each request submitted, result -> reply bytes for each answered.
        self.stats = {"decode_ms": 0.0, "encode_ms": 0.0}
        self.draining = False
        self._session_counter = 0
        self._flush_scheduled = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._drain_requested = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self.bound_port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve(self, ready_callback=None) -> None:
        """Bind, serve until drain is requested, then drain and stop.

        ``ready_callback(host, bound_port)`` fires once the socket is
        listening (the load generator and CI use it for port discovery).
        """
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.begin_drain)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or unsupported platform
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=2048)
        self.bound_port = self._server.sockets[0].getsockname()[1]
        if ready_callback is not None:
            ready_callback(self.host, self.bound_port)
        await self._drain_requested.wait()
        # Stop accepting new connections; let accepted work finish.
        self._server.close()
        await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), self.drain_timeout_s)
        except asyncio.TimeoutError:
            pass  # cap the drain; stragglers get connection resets
        self.engine.stop()

    def begin_drain(self) -> None:
        """SIGTERM entry: refuse new work, finish what was accepted."""
        self.draining = True
        self._drain_requested.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # The stream's framing is lost: answer, then close.
                    writer.write(self._response(
                        exc.status, _JSON,
                        self._json({"error": exc.message}), True))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, ctype, payload, *extra = await self._route(
                    method, path, headers, body)
                close = not keep_alive or self.draining
                writer.write(self._response(status, ctype, payload, close,
                                            *extra))
                await writer.drain()
                if close:
                    break
        except ConnectionError:
            pass  # the client went away; nothing left to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Read one request, or return None at a clean end of stream.

        Raises :class:`_HttpError` when the request cannot be framed.
        """
        try:
            line = await reader.readline()
            if not line:
                return None
            request_line = line.decode("latin-1").split(" ", 2)
            if len(request_line) != 3:
                raise _HttpError(400, "malformed request line")
            headers: dict[str, str] = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # readline: a line over the stream's limit
            raise _HttpError(400, "request line or header too long") from None
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _HttpError(400, f"bad Content-Length {length!r}")
        if int(length) > MAX_BYTES:
            raise _HttpError(413, f"body over {MAX_BYTES} bytes")
        try:
            body = await reader.readexactly(int(length))
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "body shorter than Content-Length") from None
        method, target, _ = request_line
        return method.upper(), target, headers, body

    @staticmethod
    def _response(status: int, ctype: str, payload: bytes, close: bool,
                  extra_headers: str = "") -> bytes:
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n{extra_headers}"
                f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n")
        return head.encode("latin-1") + payload

    @staticmethod
    def _json(obj) -> bytes:
        return json.dumps(obj).encode()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, target: str, headers: dict,
                     body: bytes) -> tuple:
        """``(status, content type, body)``, plus the extra header lines
        of a ``/v1/act`` 200."""
        parts = urlsplit(target)
        path = parts.path
        try:
            if path == "/healthz" and method == "GET":
                return 200, _JSON, self._json(
                    {"status": "draining" if self.draining else "ok"})
            if path == "/v1/artifact" and method == "GET":
                return 200, _JSON, self._json(self.policy.describe())
            if path == "/v1/metrics" and method == "GET":
                return 200, _JSON, self._json(self._metrics())
            if path == "/v1/session" and method == "POST":
                return self._create_session(body)
            if path.startswith("/v1/session/") and method == "DELETE":
                return self._delete_session(path.rsplit("/", 1)[1])
            if path == "/v1/act" and method == "POST":
                return await self._act(parts.query, headers, body)
            return 404, _JSON, self._json({"error": f"no route {method} {path}"})
        except _HttpError as exc:
            return exc.status, _JSON, self._json({"error": exc.message})
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            return 500, _JSON, self._json({"error": f"{type(exc).__name__}: {exc}"})

    def _metrics(self) -> dict:
        prof = active_profiler()
        return {
            "engine": {**self.engine.stats, **self.stats},
            "sessions": len(self.sessions),
            "inflight": self._inflight,
            "draining": self.draining,
            "registry": prof.metrics.as_dict() if prof is not None else None,
        }

    # -- sessions -------------------------------------------------------
    def _create_session(self, body: bytes) -> tuple[int, str, bytes]:
        if self.draining:
            raise _HttpError(503, "draining; not accepting new sessions")
        try:
            blob = json.loads(body or b"{}")
        except (ValueError, RecursionError) as exc:
            raise _HttpError(400, f"bad session payload: {exc}") from None
        if not isinstance(blob, dict):
            raise _HttpError(400, "session payload must be a JSON object")
        seed = blob.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise _HttpError(400, f"seed must be a non-negative integer, "
                                  f"got {seed!r}")
        self._session_counter += 1
        sid = f"s{self._session_counter:010d}"
        self.sessions[sid] = _Session(sid, seed)
        return 200, _JSON, self._json({"session": sid, "seed": seed})

    def _delete_session(self, sid: str) -> tuple[int, str, bytes]:
        if self.sessions.pop(sid, None) is None:
            raise _HttpError(404, f"unknown session {sid!r}")
        return 200, _JSON, self._json({"deleted": sid})

    # -- act ------------------------------------------------------------
    async def _act(self, query: str, headers: dict,
                   body: bytes) -> tuple[int, str, bytes, str]:
        if self.draining:
            raise _HttpError(503, "draining; not accepting new requests")
        ctype = headers.get("content-type", _JSON).split(";")[0].strip()
        start = time.perf_counter()
        if ctype == _NPZ:
            meta, arrays = self._parse_npz(query, body)
        else:
            meta, arrays = self._parse_json(body)
        session = self.sessions.get(meta["session"])
        if session is None:
            raise _HttpError(404, f"unknown session {meta['session']!r}")
        kind = meta["kind"]
        payload = self._validate(kind, arrays)
        decode_ms = (time.perf_counter() - start) * 1e3
        self.stats["decode_ms"] += decode_ms
        session.requests += 1
        try:
            future = self.engine.submit(kind, payload, rng=session.rng,
                                        greedy=meta["greedy"])
        except EngineOverloaded as exc:
            raise _HttpError(429, f"overloaded: {exc}") from None
        except RuntimeError as exc:
            raise _HttpError(503, str(exc)) from None
        self._schedule_flush()
        self._inflight += 1
        self._idle.clear()
        try:
            # Every queued request is answered or expired by some batch,
            # so the wait needs no timer of its own.
            result = await future
        except TimeoutError:
            raise _HttpError(504, "request deadline exceeded") from None
        except NonFiniteOutput as exc:
            raise _HttpError(400, str(exc)) from None
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        start = time.perf_counter()
        out = result.fields()
        if ctype == _NPZ:
            reply = encode_npz(out)
        else:
            ctype, reply = _JSON, self._json(
                {k: v.tolist() if isinstance(v, np.ndarray) else v
                 for k, v in out.items()})
        encode_ms = (time.perf_counter() - start) * 1e3
        self.stats["encode_ms"] += encode_ms
        return 200, ctype, reply, (
            f"Server-Timing: decode;dur={decode_ms:.3f}, "
            f"queue;dur={result.queue_ms:.3f}, "
            f"forward;dur={result.forward_ms:.3f}, "
            f"encode;dur={encode_ms:.3f}\r\n")

    def _schedule_flush(self) -> None:
        """Run a batch on the loop soon, unless one is already due.

        ``call_soon`` lets every request that arrived in this loop
        iteration join the batch; the batch itself holds no request
        back waiting for company.
        """
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        self.engine.run_batch()
        if self.engine.pending:  # yield first: replies go out, arrivals join
            self._schedule_flush()

    # -- payload decoding / schema validation ---------------------------
    @staticmethod
    def _parse_json(body: bytes) -> tuple[dict, dict]:
        try:
            blob = json.loads(body)
        except (ValueError, RecursionError) as exc:
            raise _HttpError(400, f"bad JSON: {exc}") from None
        if not isinstance(blob, dict):
            raise _HttpError(400, "act payload must be a JSON object")
        meta = {"session": str(blob.get("session", "")),
                "kind": str(blob.get("kind", "ugv")),
                "greedy": bool(blob.get("greedy", False))}
        arrays = {}
        for key, value in blob.items():
            if key in ("session", "kind", "greedy"):
                continue
            try:
                arrays[key] = np.asarray(value, dtype=float)
            except (ValueError, TypeError) as exc:
                raise _HttpError(400, f"field {key!r} is not an array: {exc}") \
                    from None
        return meta, arrays

    @staticmethod
    def _parse_npz(query: str, body: bytes) -> tuple[dict, dict]:
        params = parse_qs(query)
        meta = {"session": params.get("session", [""])[0],
                "kind": params.get("kind", ["ugv"])[0],
                "greedy": params.get("greedy", ["0"])[0] in ("1", "true")}
        try:
            arrays = decode_npz(body, max_members=_MAX_MEMBERS.get(
                meta["kind"], max(_MAX_MEMBERS.values())))
        except NpzError as exc:
            raise _HttpError(exc.status, f"bad npz body: {exc}") from None
        return meta, arrays

    def _validate(self, kind: str, arrays: dict) -> tuple:
        """Check the payload against the artifact schema; 400 on mismatch."""
        s = self.schema
        num_ugvs, num_stops = int(s["num_ugvs"]), int(s["num_stops"])
        if kind == "ugv":
            shapes = {"stop_features": (num_ugvs, num_stops, 3),
                      "ugv_positions": (num_ugvs, 2),
                      "ugv_stops": (num_ugvs,),
                      "action_mask": (num_ugvs, num_stops + 1)}
            got = self._require(arrays, shapes)
            stops = got["ugv_stops"].astype(np.int64)
            if stops.min(initial=0) < 0 or stops.max(initial=0) >= num_stops:
                raise _HttpError(400, "ugv_stops indices out of range")
            mask = got["action_mask"].astype(bool)
            if not mask.any(axis=-1).all():
                raise _HttpError(400, "action_mask leaves an agent with no "
                                      "feasible action")
            return (got["stop_features"], got["ugv_positions"], stops, mask)
        if kind == "uav":
            size = int(s["uav_obs_size"])
            grids = arrays.get("grids")
            aux = arrays.get("aux")
            if grids is None or aux is None:
                raise _HttpError(400, "uav act needs 'grids' and 'aux'")
            grids = self._numeric("grids", grids).astype(float, copy=False)
            aux = self._numeric("aux", aux).astype(float, copy=False)
            if (grids.ndim != 4 or grids.shape[1:] != (3, size, size)
                    or grids.shape[0] < 1):
                raise _HttpError(400, f"grids must be (N, 3, {size}, {size}), "
                                      f"got {grids.shape}")
            if aux.shape != (grids.shape[0], int(s["uav_aux_dim"])):
                raise _HttpError(400, f"aux must be ({grids.shape[0]}, "
                                      f"{s['uav_aux_dim']}), got {aux.shape}")
            return (grids, aux)
        raise _HttpError(400, f"unknown kind {kind!r}")

    def _require(self, arrays: dict, shapes: dict[str, tuple]) -> dict:
        got = {}
        for name, shape in shapes.items():
            value = arrays.get(name)
            if value is None:
                raise _HttpError(400, f"missing observation field {name!r}")
            value = np.asarray(value)
            if value.shape != shape:
                raise _HttpError(400, f"{name} must have shape {shape}, "
                                      f"got {value.shape}")
            got[name] = self._numeric(name, value)
        return got

    @staticmethod
    def _numeric(name: str, value) -> np.ndarray:
        """``value`` as a finite bool/int/float array; 400 otherwise."""
        value = np.asarray(value)
        if value.dtype.kind not in "biuf":
            raise _HttpError(400, f"{name} must be numeric, got {value.dtype}")
        if not np.isfinite(value).all():
            raise _HttpError(400, f"{name} holds NaN or Inf")
        return value


def run_service(artifact_dir: str | Path, *, host: str = "127.0.0.1",
                port: int = 8765, max_batch: int = 32, queue_limit: int = 256,
                timeout_ms: float = 1000.0, drain_timeout_s: float = 30.0,
                verify: bool = True, ready_file: str | Path | None = None) -> int:
    """Load an artifact and serve it until SIGTERM/SIGINT, then drain.

    The synchronous entrypoint behind ``repro serve``.  ``ready_file``,
    when given, receives ``"<host> <port>\\n"`` once the socket is bound —
    with ``port=0`` this is how callers learn the kernel-assigned port.
    Returns the process exit code (0 after a clean drain).
    """
    policy = load_artifact(artifact_dir, verify=verify)
    policy.warmup()
    engine = InferenceEngine(policy, max_batch=max_batch,
                             queue_limit=queue_limit, timeout_ms=timeout_ms)
    service = DispatchService(policy, engine, host=host, port=port,
                              drain_timeout_s=drain_timeout_s)

    def _ready(bound_host: str, bound_port: int) -> None:
        print(f"serving {Path(artifact_dir).name} on "
              f"http://{bound_host}:{bound_port}", flush=True)
        if ready_file is not None:
            Path(ready_file).write_text(f"{bound_host} {bound_port}\n")

    asyncio.run(service.serve(ready_callback=_ready))
    print(f"drained: {engine.stats}", flush=True)
    return 0
