"""Policy inference serving: export, micro-batched engine, dispatch service.

Training produces full-state checkpoints (``repro.experiments.checkpoint``:
parameters + Adam moments + rng streams + telemetry cursor).  Serving needs
none of that weight — production traffic is *inference*: "where should this
UGV/UAV go next" answered for many concurrent campus scenario streams.
This package is that path, in three layers:

* :mod:`repro.serve.artifact` — ``repro export`` freezes a training
  checkpoint into a tape-free, versioned inference artifact (policy
  weights + config fingerprint + an observation/action schema manifest),
  verified bit-identical against the training-time policy at export time
  and re-verifiable at every load.
* :mod:`repro.serve.engine` — a thread-free, work-conserving
  micro-batcher: each ``run_batch`` call runs whatever requests are
  queued (up to ``max_batch``) as one batched forward
  (``UGVPolicy.forward_batched`` / ``UAVPolicy.forward_arrays``)
  without holding a batch open, behind a bounded queue with
  load-shedding and per-request deadlines.
* :mod:`repro.serve.service` — ``repro serve``: a stdlib-only asyncio
  HTTP front end on one thread, which runs the engine's batches on its
  event loop, with per-stream scenario sessions, request timeouts,
  429-style rejection under overload, graceful drain on SIGTERM and a
  ``Server-Timing`` header on every decision.

:mod:`repro.serve.loadgen` replays thousands of concurrent synthetic
scenario streams against a running service and returns p50/p99 latency,
throughput and shed, timeout and connect-error counts.

See ``docs/serving.md`` for the artifact format, the knobs and the
operations guide.
"""

from .artifact import (
    SERVE_SCHEMA_VERSION,
    ArtifactError,
    FrozenPolicy,
    export_artifact,
    load_artifact,
)
from .engine import EngineOverloaded, InferenceEngine
from .service import DispatchService, run_service

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "ArtifactError",
    "FrozenPolicy",
    "export_artifact",
    "load_artifact",
    "EngineOverloaded",
    "InferenceEngine",
    "DispatchService",
    "run_service",
]
