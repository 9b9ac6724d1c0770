"""Dynamic micro-batching inference engine over a frozen policy.

Callers on one event loop submit single-scenario observation payloads;
each :meth:`InferenceEngine.run_batch` call coalesces the queued ones
into one batched forward through the policy's batched paths
(``UGVPolicy.forward_batched`` over stacked replicas,
``UAVPolicy.forward_arrays`` over concatenated crops).  The engine owns
no thread: the service schedules ``run_batch`` on the loop (``call_soon``)
whenever requests are queued, so the forward runs on the loop's own
thread and a request costs no cross-thread wake-up.  Batching is
work-conserving: a batch takes the oldest request plus whatever is
already queued behind it, up to ``max_batch``, and runs at once.  It
never holds a batch open waiting for company, so a lone request pays no
batching delay; requests that arrive during a forward form the next
batch, so batches still grow with load.

The queue is bounded: :meth:`InferenceEngine.submit` raises
:class:`EngineOverloaded` instead of queueing unboundedly (the service
maps this to a 429), which keeps latency bounded under overload instead
of collapsing.  Every request carries an absolute deadline; requests
that expire while queued are failed with :class:`TimeoutError` without
spending a forward on them.  A request whose forward outputs are not
finite is failed alone with :class:`NonFiniteOutput`; the rest of its
batch is answered.  The wire is float64 and the policies float32, so a
finite observation beyond float32's range (``1e39``, say) is one: the
batch stacking casts it to ``inf``.

Sampling uses the *per-session* rng the caller passed, so one scenario
stream's action sequence depends only on its own seed and its own
observation order — never on which other streams shared a batch.  (The
forward's floats are not: BLAS blocks rows differently at different
batch sizes, so a row's outputs can move in the last few bits with the
size of its batch; see ``docs/serving.md``.)

Deadlines use ``time.perf_counter`` — a monotonic interval clock, not
wall time, so the determinism analyzer's DT002 wall-clock rule stays
quiet by construction.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..env.observation import UGVObsArrays
from ..nn import DTYPE
from ..nn.distributions import sample_categorical
from ..obs.scope import counter_add, histogram_observe
from .artifact import FrozenPolicy

__all__ = ["EngineOverloaded", "InferenceEngine", "InferenceResult",
           "NonFiniteOutput"]


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
    forward (observability + batching tests); ``queue_ms`` is this
    request's submit -> batch-start wait and ``forward_ms`` the duration
    of the forward that served it (the ``Server-Timing`` header).
    """

    kind: str
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    moves: np.ndarray | None
    batch_size: int
    queue_ms: float
    forward_ms: float

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
    future: asyncio.Future
    enqueued: float
    deadline: float


class InferenceEngine:
    """Bounded-queue micro-batcher in front of a :class:`FrozenPolicy`.

    Thread-free: :meth:`submit` (called from a running event loop)
    queues a request and returns a loop future for it, and each
    :meth:`run_batch` call serves one batch of the queue.  The caller
    decides when batches run — the service flushes with ``call_soon``,
    and the batching tests stage a known queue before calling
    ``run_batch`` themselves.
    """

    def __init__(self, policy: FrozenPolicy, *, max_batch: int = 32,
                 queue_limit: int = 256, timeout_ms: float = 1000.0):
        if max_batch < 1 or queue_limit < 1:
            raise ValueError("max_batch and queue_limit must be >= 1")
        self.policy = policy
        self.max_batch = int(max_batch)
        self.queue_limit = int(queue_limit)
        self.timeout_s = float(timeout_ms) / 1e3
        self._queue: deque[_Request] = deque()
        self._stopping = False
        # Monotonic counters.  ``queue_wait_ms`` sums each live request's
        # submit -> batch-start wait; ``forward_ms`` sums the time spent
        # in per-kind forwards.
        self.stats = {"submitted": 0, "completed": 0, "shed": 0,
                      "timeouts": 0, "batches": 0, "max_batch_seen": 0,
                      "queue_wait_ms": 0.0, "forward_ms": 0.0}

    @property
    def pending(self) -> int:
        """Requests queued and not yet taken by a batch."""
        return len(self._queue)

    def stop(self) -> None:
        """Drain: refuse new requests and serve every queued one."""
        self._stopping = True
        while self._queue:
            self.run_batch()

    # ------------------------------------------------------------------
    def submit(self, kind: str, arrays: tuple, *,
               rng: np.random.Generator | None = None, greedy: bool = False,
               timeout_s: float | None = None) -> asyncio.Future:
        """Enqueue one request; returns a loop future for its result.

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
        if len(self._queue) >= self.queue_limit:
            self.stats["shed"] += 1
            counter_add("serve/shed")
            raise EngineOverloaded(
                f"inference queue full ({self.queue_limit} pending)")
        now = time.perf_counter()
        request = _Request(kind, tuple(arrays), None if greedy else rng,
                           asyncio.get_running_loop().create_future(), now,
                           now + (self.timeout_s if timeout_s is None
                                  else float(timeout_s)))
        self._queue.append(request)
        self.stats["submitted"] += 1
        counter_add("serve/requests")
        return request.future

    # ------------------------------------------------------------------
    # Batch side
    # ------------------------------------------------------------------
    def run_batch(self) -> None:
        """Serve the oldest queued request plus whatever is queued behind
        it, up to ``max_batch``, as one batch (a no-op on an empty queue).

        Expired requests are failed with :class:`TimeoutError` and
        cancelled ones dropped, both without a forward.
        """
        batch = [self._queue.popleft()
                 for _ in range(min(self.max_batch, len(self._queue)))]
        now = time.perf_counter()
        live: list[_Request] = []
        for request in batch:
            if request.future.cancelled():
                continue  # its caller is gone; nobody reads the result
            if request.deadline <= now:
                self.stats["timeouts"] += 1
                counter_add("serve/timeouts")
                request.future.set_exception(TimeoutError(
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
                    results = runner(group, now)
            except Exception as exc:  # fail the group, keep serving
                for request in group:
                    request.future.set_exception(exc)
                continue
            done = sum(isinstance(r, InferenceResult) for r in results)
            self.stats["completed"] += done
            counter_add("serve/completed", done)
            for request, result in zip(group, results):
                if isinstance(result, NonFiniteOutput):
                    request.future.set_exception(result)
                else:
                    request.future.set_result(result)
        latency_ms = (time.perf_counter() - live[0].enqueued) * 1e3
        histogram_observe("serve/oldest_latency_ms", latency_ms)

    # -- per-kind batched execution ------------------------------------
    def _forward(self, forward, *args):
        """``(forward(*args), its duration in ms)``, counted in stats."""
        start = time.perf_counter()
        out = forward(*args)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.stats["forward_ms"] += elapsed_ms
        return out, elapsed_ms

    def _run_ugv(self, group: list[_Request], now: float
                 ) -> list[InferenceResult | NonFiniteOutput]:
        """One ``forward_batched`` over the group's stacked replicas."""
        obs = UGVObsArrays(
            stop_features=np.stack([r.arrays[0] for r in group], dtype=DTYPE),
            ugv_positions=np.stack([r.arrays[1] for r in group]),
            ugv_stops=np.stack([r.arrays[2] for r in group]).astype(np.int64),
            action_mask=np.stack([r.arrays[3] for r in group]),
        )
        (logits, values), forward_ms = self._forward(self.policy.ugv_forward,
                                                     obs)
        # Row-wise log-softmax in the model dtype (Categorical's math).
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
            actions = (row_logp.argmax(axis=-1) if request.rng is None
                       else sample_categorical(row_logp, request.rng))
            taken = np.take_along_axis(row_logp, actions[:, None], axis=-1)[:, 0]
            results.append(InferenceResult(
                kind="ugv", actions=actions, log_probs=taken,
                values=values[i], moves=None, batch_size=len(group),
                queue_ms=(now - request.enqueued) * 1e3,
                forward_ms=forward_ms))
        return results

    def _run_uav(self, group: list[_Request], now: float
                 ) -> list[InferenceResult | NonFiniteOutput]:
        """One ``forward_arrays`` over the group's concatenated crops."""
        sizes = [r.arrays[0].shape[0] for r in group]
        grids = np.concatenate([r.arrays[0] for r in group], dtype=DTYPE)
        aux = np.concatenate([r.arrays[1] for r in group], dtype=DTYPE)
        (mean, log_std, values), forward_ms = self._forward(
            self.policy.uav_forward, grids, aux)
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
                batch_size=len(group), queue_ms=(now - request.enqueued) * 1e3,
                forward_ms=forward_ms))
            offset += n
        return results
