"""Dynamic micro-batching inference engine over a frozen policy.

Concurrent callers submit single-scenario observation payloads; a single
worker thread coalesces them into one batched forward through the
policy's PR-3 batched paths (``UGVPolicy.forward_batched`` over stacked
replicas, ``UAVPolicy.forward_arrays`` over concatenated crops).
Batching is work-conserving: the worker takes the oldest request plus
whatever is already queued, up to ``max_batch``, and runs it at once.
It never holds a batch open waiting for company, so a lone request pays
no batching delay; requests that arrive during a forward form the next
batch, so batches still grow with load.

The queue is bounded: :meth:`InferenceEngine.submit` raises
:class:`EngineOverloaded` instead of queueing unboundedly (the service
maps this to a 429), which keeps latency bounded under overload instead
of collapsing.  Every request carries an absolute deadline; requests
that expire while queued are failed with :class:`TimeoutError` without
spending a forward on them.  A request whose forward outputs are not
finite (an observation too large for float64, say) is failed alone
with :class:`NonFiniteOutput`; the rest of its batch is answered.

Sampling happens inside the worker thread with the *per-session* rng the
caller passed, so one scenario stream's action sequence depends only on
its own seed and its own observation order — never on which other
streams shared a batch.  (The forward's floats are not: BLAS blocks
rows differently at different batch sizes, so a row's outputs can move
in the last few bits with the size of its batch; see
``docs/serving.md``.)

Deadlines use ``time.perf_counter`` — a monotonic interval clock, not
wall time, so the determinism analyzer's DT002 wall-clock rule stays
quiet by construction.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass

import numpy as np

from ..env.observation import UGVObsArrays
from ..obs.scope import counter_add, histogram_observe
from .artifact import FrozenPolicy

__all__ = ["EngineOverloaded", "InferenceEngine", "InferenceResult",
           "NonFiniteOutput"]

_STOP = object()


class EngineOverloaded(RuntimeError):
    """The bounded request queue is full; the caller should shed load."""


class NonFiniteOutput(ValueError):
    """The forward gave this request NaN or Inf outputs (the service
    answers 400: the observation, though finite, is out of range)."""


@dataclass
class InferenceResult:
    """One request's decision: actions plus the value head's estimate.

    ``actions`` are in policy units (stop index / release for UGVs, the
    normalised 2-D direction for UAVs); ``moves`` scales UAV actions by
    the schema's ``uav_max_step`` into metres (``None`` for UGV
    requests).  ``batch_size`` records how many requests shared the
    forward (observability + batching tests).
    """

    kind: str
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    moves: np.ndarray | None
    batch_size: int

    def fields(self) -> dict:
        """The reply's fields by name (``moves`` for UAV requests only)."""
        out = {"kind": self.kind, "batch_size": self.batch_size,
               "actions": self.actions, "log_probs": self.log_probs,
               "values": self.values}
        if self.moves is not None:
            out["moves"] = self.moves
        return out


@dataclass
class _Request:
    kind: str
    arrays: tuple
    rng: np.random.Generator | None  # None => greedy (distribution mode)
    future: Future
    enqueued: float
    deadline: float


def _resolve(future: Future, value=None, exc: BaseException | None = None) -> None:
    """Set a future's outcome, tolerating caller-side cancellation."""
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(value)
    except InvalidStateError:
        pass  # caller cancelled/timed out first; the result is moot


class InferenceEngine:
    """Bounded-queue micro-batcher in front of a :class:`FrozenPolicy`.

    ``submit`` is thread-safe and returns a ``concurrent.futures.Future``
    (the asyncio front end wraps it with ``asyncio.wrap_future``).  Pass
    ``autostart=False`` to control the worker thread explicitly — the
    batching tests use this to stage a known queue before any batch is
    assembled.
    """

    def __init__(self, policy: FrozenPolicy, *, max_batch: int = 32,
                 queue_limit: int = 256, timeout_ms: float = 1000.0,
                 autostart: bool = True):
        if max_batch < 1 or queue_limit < 1:
            raise ValueError("max_batch and queue_limit must be >= 1")
        self.policy = policy
        self.max_batch = int(max_batch)
        self.timeout_s = float(timeout_ms) / 1e3
        self._queue: queue.Queue = queue.Queue(maxsize=int(queue_limit))
        self._thread: threading.Thread | None = None
        self._stopping = False
        # Monotonic counters; each key is written from a single thread
        # (shed/submitted by callers, the rest by the worker).
        # ``queue_wait_ms`` sums each live request's submit -> batch-start
        # wait; ``forward_ms`` sums the time spent in per-kind forwards.
        self.stats = {"submitted": 0, "completed": 0, "shed": 0,
                      "timeouts": 0, "batches": 0, "max_batch_seen": 0,
                      "queue_wait_ms": 0.0, "forward_ms": 0.0}
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._worker,
                                            name="serve-engine", daemon=True)
            self._thread.start()

    def stop(self, timeout: float | None = 30.0) -> None:
        """Drain: finish every queued request, then stop the worker."""
        if self._stopping:
            return
        self._stopping = True
        self._queue.put(_STOP)  # FIFO: everything queued before it drains first
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    def submit(self, kind: str, arrays: tuple, *,
               rng: np.random.Generator | None = None, greedy: bool = False,
               timeout_s: float | None = None) -> Future:
        """Enqueue one request; returns a future for its result.

        Raises :class:`EngineOverloaded` when the bounded queue is full
        and ``RuntimeError`` once the engine is stopping.  ``greedy``
        selects the distribution mode; otherwise ``rng`` draws the
        sample (required).
        """
        if kind not in ("ugv", "uav"):
            raise ValueError(f"unknown request kind {kind!r}")
        if self._stopping:
            raise RuntimeError("engine is stopping; not accepting requests")
        if not greedy and rng is None:
            raise ValueError("non-greedy requests need a session rng")
        now = time.perf_counter()
        request = _Request(kind, tuple(arrays), None if greedy else rng,
                           Future(), now,
                           now + (self.timeout_s if timeout_s is None
                                  else float(timeout_s)))
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.stats["shed"] += 1
            counter_add("serve/shed")
            raise EngineOverloaded(
                f"inference queue full ({self._queue.maxsize} pending)") from None
        self.stats["submitted"] += 1
        counter_add("serve/requests")
        return request.future

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            batch = self._collect()
            stop_seen = batch[-1] is _STOP
            if stop_seen:
                batch.pop()
            if batch:
                self._process(batch)
            if stop_seen:
                return

    def _collect(self) -> list:
        """Block for the oldest request, then add whatever is already
        queued behind it, up to ``max_batch`` (or up to a stop marker)."""
        batch: list = [self._queue.get()]
        while len(batch) < self.max_batch and batch[-1] is not _STOP:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return batch

    def _process(self, batch: list[_Request]) -> None:
        now = time.perf_counter()
        live: list[_Request] = []
        for request in batch:
            if request.deadline <= now:
                self.stats["timeouts"] += 1
                counter_add("serve/timeouts")
                _resolve(request.future, exc=TimeoutError(
                    "request expired in queue before a batch slot opened"))
            else:
                live.append(request)
        if not live:
            return
        self.stats["queue_wait_ms"] += sum(now - r.enqueued for r in live) * 1e3
        self.stats["batches"] += 1
        self.stats["max_batch_seen"] = max(self.stats["max_batch_seen"], len(live))
        histogram_observe("serve/batch_size", len(live))
        for kind, runner in (("ugv", self._run_ugv), ("uav", self._run_uav)):
            group = [r for r in live if r.kind == kind]
            if not group:
                continue
            try:
                # Overflow in a hostile request's forward is caught per
                # request below; it need not reach the server log.
                with np.errstate(over="ignore", invalid="ignore"):
                    results = runner(group)
            except BaseException as exc:  # fail the group, keep serving
                for request in group:
                    _resolve(request.future, exc=exc)
                continue
            # Count before resolving: a caller woken by its future (and
            # any /v1/metrics read after its response) sees itself counted.
            done = sum(isinstance(r, InferenceResult) for r in results)
            self.stats["completed"] += done
            counter_add("serve/completed", done)
            for request, result in zip(group, results):
                if isinstance(result, NonFiniteOutput):
                    _resolve(request.future, exc=result)
                else:
                    _resolve(request.future, result)
        latency_ms = (time.perf_counter() - live[0].enqueued) * 1e3
        histogram_observe("serve/oldest_latency_ms", latency_ms)

    # -- per-kind batched execution ------------------------------------
    def _forward(self, forward, *args):
        start = time.perf_counter()
        try:
            return forward(*args)
        finally:
            self.stats["forward_ms"] += (time.perf_counter() - start) * 1e3

    def _run_ugv(self, group: list[_Request]
                 ) -> list[InferenceResult | NonFiniteOutput]:
        """One ``forward_batched`` over the group's stacked replicas."""
        obs = UGVObsArrays(
            stop_features=np.stack([r.arrays[0] for r in group]),
            ugv_positions=np.stack([r.arrays[1] for r in group]),
            ugv_stops=np.stack([r.arrays[2] for r in group]).astype(np.int64),
            action_mask=np.stack([r.arrays[3] for r in group]),
        )
        logits, values = self._forward(self.policy.ugv_forward, obs)
        # Row-wise log-softmax in float64 (matches Categorical's math).
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs_all = shifted - np.log(
            np.exp(shifted).sum(axis=-1, keepdims=True))
        finite = (np.isfinite(log_probs_all).all(axis=(1, 2))
                  & np.isfinite(values).all(axis=1))
        results = []
        for i, request in enumerate(group):
            if not finite[i]:  # checked before its rng draws anything
                results.append(NonFiniteOutput(
                    "UGV forward gave non-finite log-probs or values"))
                continue
            row_logp = log_probs_all[i]  # (U, B+1)
            if request.rng is None:
                actions = row_logp.argmax(axis=-1)
            else:
                probs = np.exp(row_logp)
                probs = probs / probs.sum(axis=-1, keepdims=True)
                cdf = np.cumsum(probs, axis=-1)
                draws = request.rng.random((probs.shape[0], 1))
                actions = (draws > cdf).sum(axis=-1)
            taken = np.take_along_axis(row_logp, actions[:, None], axis=-1)[:, 0]
            results.append(InferenceResult(
                kind="ugv", actions=actions, log_probs=taken,
                values=values[i], moves=None, batch_size=len(group)))
        return results

    def _run_uav(self, group: list[_Request]
                 ) -> list[InferenceResult | NonFiniteOutput]:
        """One ``forward_arrays`` over the group's concatenated crops."""
        sizes = [r.arrays[0].shape[0] for r in group]
        grids = np.concatenate([r.arrays[0] for r in group])
        aux = np.concatenate([r.arrays[1] for r in group])
        mean, log_std, values = self._forward(self.policy.uav_forward,
                                              grids, aux)
        std = np.exp(log_std)
        max_step = float(self.policy.schema["uav_max_step"])
        finite = np.isfinite(mean).all(axis=1) & np.isfinite(values)
        results = []
        offset = 0
        for request, n in zip(group, sizes):
            if not finite[offset:offset + n].all():
                results.append(NonFiniteOutput(
                    "UAV forward gave non-finite means or values"))
                offset += n
                continue
            m = mean[offset:offset + n]
            if request.rng is None:
                actions = m.copy()
            else:
                actions = m + std * request.rng.standard_normal(m.shape)
            diff = (actions - m) / std
            log_probs = (-0.5 * (diff * diff) - np.log(std)
                         - 0.5 * np.log(2.0 * np.pi)).sum(axis=-1)
            results.append(InferenceResult(
                kind="uav", actions=actions, log_probs=log_probs,
                values=values[offset:offset + n], moves=actions * max_step,
                batch_size=len(group)))
            offset += n
        return results
