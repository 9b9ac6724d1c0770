"""Which ``repro`` functions become spans, and the per-layer metrics.

:func:`install` wraps public functions and methods of
``experiments.runner``, ``maps``, ``env``, ``core.{ippo,policies,mc_gcn,
ecomm,buffer}``, ``nn`` and ``serve.{artifact,engine}`` from outside the
program; :meth:`Patches.restore` puts the originals back.  The metric
functions turn a finished span list into the names of ``PER_LAYER``.
"""

from __future__ import annotations

import statistics
import time

from .spans import Patches, Tracer, aggregate, nearest


def _seconds(base: str) -> list[tuple[str, str]]:
    return [(base + ".s", "s"), (base + ".self_s", "s")]


#: Every per-layer metric, in report order, with its unit.  A metric of a
#: layer the workload does not run reads 0.
PER_LAYER: list[tuple[str, str]] = [
    *_seconds("runner.build_agent"),
    *_seconds("maps.build_campus"),
    *_seconds("maps.build_stop_graph"),
    *_seconds("ippo.collect"),
    *_seconds("env.step"), ("env.step.calls", "count"),
    *_seconds("env.reset"),
    *_seconds("policies.ugv_forward.rollout"),
    ("policies.ugv_forward.rollout.calls", "count"),
    ("policies.ugv_forward.rollout.rows", "count"),
    *_seconds("policies.uav_forward.rollout"),
    ("policies.uav_forward.rollout.rows", "count"),
    *_seconds("buffer.samples"),
    *_seconds("ippo.update_ugv"), ("ippo.update_ugv.minibatches", "count"),
    *_seconds("ippo.update_uav"), ("ippo.update_uav.minibatches", "count"),
    *_seconds("policies.ugv_forward.update"),
    ("policies.ugv_forward.update.calls", "count"),
    ("policies.ugv_forward.update.rows", "count"),
    *_seconds("policies.uav_forward.update"),
    *_seconds("mc_gcn.forward"), ("mc_gcn.forward.centres", "count"),
    *_seconds("ecomm.forward"),
    *_seconds("nn.backward.ugv"), *_seconds("nn.backward.uav"),
    *_seconds("nn.optim.ugv"), *_seconds("nn.optim.uav"),
    ("mem.rss_rise_mb.collect", "MB"),
    ("mem.rss_rise_mb.update_ugv", "MB"),
    ("mem.rss_rise_mb.update_uav", "MB"),
    *_seconds("artifact.load"), *_seconds("artifact.warmup"),
    *_seconds("frozen.ugv_forward"), ("frozen.ugv_forward.rows", "count"),
    *_seconds("frozen.uav_forward"), ("frozen.uav_forward.rows", "count"),
    ("compile.replay_share", "ratio"),
    ("engine.batches", "count"),
    ("engine.mean_batch", "req/batch"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.shed", "count"),
    ("engine.timeouts", "count"),
    ("http.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.iter_coverage", "ratio"),
]

_ROLLOUT_OR_UPDATE = ("ippo.collect", "ippo.update_ugv", "ippo.update_uav")
_UPDATES = ("ippo.update_ugv", "ippo.update_uav")
_SETUP_ROOTS = ("artifact.load", "artifact.warmup")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

class EngineProbe:
    """Per-request times at the engine's public entry points.

    ``submit`` stamps the request; the frozen-policy forward of its kind
    stamps when the forward that serves it starts (the engine worker runs
    one forward per kind per batch and resolves that group's futures
    before the next one); the future's completion stamps done.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.engine = None
        self.policy = None
        self.requests: list[tuple[float, float, float]] = []
        self._forward_start: dict[str, float] = {}

    def install(self, patches: Patches) -> None:
        from repro.serve import artifact, engine

        original_submit = engine.InferenceEngine.submit

        def submit(eng, kind, arrays, **kwargs):
            self.engine = eng
            t_submit = self.clock()
            future = original_submit(eng, kind, arrays, **kwargs)
            future.add_done_callback(
                lambda f: self._done(kind, t_submit, f))
            return future

        patches.set(engine.InferenceEngine, "submit", submit)
        for kind in ("ugv", "uav"):
            patches.set(artifact.FrozenPolicy, f"{kind}_forward",
                        self._stamp(kind, artifact.FrozenPolicy.__dict__[
                            f"{kind}_forward"]))

    def _stamp(self, kind: str, forward):
        def stamped(policy, *args, **kwargs):
            self.policy = policy
            self._forward_start[kind] = self.clock()
            return forward(policy, *args, **kwargs)
        return stamped

    def _done(self, kind: str, t_submit: float, future) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        self.requests.append((t_submit, self._forward_start.get(kind, t_submit),
                              self.clock()))

    def summary(self) -> dict:
        """JSON-able record of what the probe saw."""
        return {"requests": self.requests,
                "engine_stats": dict(self.engine.stats) if self.engine else {},
                "describe": (self.policy.describe()["uav_step"]
                             if self.policy is not None else {})}


def install(tracer: Tracer, probe: EngineProbe | None = None) -> Patches:
    """Wrap the layers' public functions in spans; returns the undo log."""
    from repro.core import buffer, ecomm, ippo, mc_gcn, policies
    from repro.env.airground import AirGroundEnv
    from repro.env.vector import VecAirGroundEnv
    from repro.experiments import runner
    from repro.maps import campus, stop_graph
    from repro.nn import optim, tensor
    from repro.serve import artifact

    p = Patches()
    p.function(tracer, runner, "build_agent", "runner.build_agent", "repro")
    p.function(tracer, campus, "build_campus", "maps.build_campus", "repro")
    p.function(tracer, stop_graph, "build_stop_graph", "maps.build_stop_graph",
               "repro")

    trainer = ippo.IPPOTrainer
    p.method(tracer, trainer, "train", "ippo.train")
    for name in ("collect", "collect_vec"):
        p.method(tracer, trainer, name, "ippo.collect", rss=True)
    for name in ("update_ugv", "update_ugv_vec"):
        p.method(tracer, trainer, name, "ippo.update_ugv", rss=True)
    for name in ("update_uav", "update_uav_vec"):
        p.method(tracer, trainer, name, "ippo.update_uav", rss=True)

    for env_cls in (AirGroundEnv, VecAirGroundEnv):
        p.method(tracer, env_cls, "step", "env.step")
        p.method(tracer, env_cls, "reset", "env.reset")

    p.method(tracer, policies.UGVPolicy, "forward", "policies.ugv_forward",
             attrs_fn=lambda self, obs: {"rows": 1})
    p.method(tracer, policies.UGVPolicy, "forward_batched",
             "policies.ugv_forward",
             attrs_fn=lambda self, obs: {"rows": int(obs.ugv_stops.shape[0])})
    p.method(tracer, policies.UAVPolicy, "forward_arrays",
             "policies.uav_forward",
             attrs_fn=lambda self, grids, aux: {"rows": int(len(grids))})

    for cls, name in ((buffer.UGVRollout, "build_samples"),
                      (buffer.UAVRollout, "build_samples"),
                      (buffer.VecUGVRollout, "flat_samples"),
                      (buffer.VecUAVRollout, "flat_samples")):
        p.method(tracer, cls, name, "buffer.samples")

    p.method(tracer, mc_gcn.MCGCN, "forward", "mc_gcn.forward",
             attrs_fn=lambda self, *a, **k: {"centres": 1})
    p.method(tracer, mc_gcn.MCGCN, "forward_batch", "mc_gcn.forward",
             attrs_fn=lambda self, feats, own, *a, **k: {"centres": int(len(own))})
    for name in ("forward", "forward_batch"):
        p.method(tracer, ecomm.EComm, name, "ecomm.forward")

    p.method(tracer, tensor.Tensor, "backward", "nn.backward")
    p.function(tracer, optim, "clip_grad_norm", "nn.optim", "repro")
    p.method(tracer, optim.Adam, "step", "nn.optim",
             attrs_fn=lambda self: {"steps": 1})

    p.function(tracer, artifact, "load_artifact", "artifact.load", "repro")
    frozen = artifact.FrozenPolicy
    p.method(tracer, frozen, "warmup", "artifact.warmup")
    p.method(tracer, frozen, "ugv_forward", "frozen.ugv_forward",
             attrs_fn=lambda self, obs: {"rows": int(obs.ugv_stops.shape[0])})
    p.method(tracer, frozen, "uav_forward", "frozen.uav_forward",
             attrs_fn=lambda self, grids, aux: {"rows": int(len(grids))})
    if probe is not None:
        probe.install(p)
    return p


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _put_seconds(out: dict, base: str, totals, per: float) -> None:
    if totals is not None:
        out[base + ".s"] = totals.total_s / per
        out[base + ".self_s"] = totals.self_s / per


def _training_key(spans):
    """Group policy forwards by rollout/update and nn ops by agent class."""

    def key(i, span):
        if span.name in ("policies.ugv_forward", "policies.uav_forward"):
            context = nearest(spans, i, _ROLLOUT_OR_UPDATE)
            if context is None:
                return None
            return span.name + (".rollout" if context == "ippo.collect"
                                else ".update")
        if span.name in ("nn.backward", "nn.optim"):
            context = nearest(spans, i, _UPDATES)
            return None if context is None else f"{span.name}.{context[-3:]}"
        return span.name

    return key


def setup_layer_metrics(spans) -> dict:
    """Set-up layers as the mean per call (one call per set-up)."""
    out: dict = {}
    agg = aggregate(spans, keep=lambda i, s: s.phase == "setup")
    for base in ("runner.build_agent", "maps.build_campus",
                 "maps.build_stop_graph", "artifact.load", "artifact.warmup"):
        t = agg.get(base)
        if t is not None:
            _put_seconds(out, base, t, t.calls)
    return out


def train_layer_metrics(spans, iterations: int) -> dict:
    """Training layers per timed iteration (spans of phase ``measure``),
    plus the high-water-mark rise across each span of the first, untimed
    iteration (phase ``warmup``)."""
    out = setup_layer_metrics(spans)
    agg = aggregate(spans, keep=lambda i, s: s.phase == "measure",
                    key=_training_key(spans))
    n = max(1, iterations)
    for base in ("ippo.collect", "env.step", "env.reset",
                 "policies.ugv_forward.rollout", "policies.uav_forward.rollout",
                 "buffer.samples", "ippo.update_ugv", "ippo.update_uav",
                 "policies.ugv_forward.update", "policies.uav_forward.update",
                 "mc_gcn.forward", "ecomm.forward", "nn.backward.ugv",
                 "nn.backward.uav", "nn.optim.ugv", "nn.optim.uav"):
        _put_seconds(out, base, agg.get(base), n)
    for base in ("env.step", "policies.ugv_forward.rollout",
                 "policies.ugv_forward.update"):
        t = agg.get(base)
        if t is not None:
            out[base + ".calls"] = t.calls / n
    for base in ("policies.ugv_forward.rollout", "policies.uav_forward.rollout",
                 "policies.ugv_forward.update"):
        t = agg.get(base)
        if t is not None:
            out[base + ".rows"] = t.attrs.get("rows", 0) / n
    if "mc_gcn.forward" in agg:
        out["mc_gcn.forward.centres"] = agg["mc_gcn.forward"].attrs["centres"] / n
    for agent in ("ugv", "uav"):
        t = agg.get(f"nn.optim.{agent}")
        if t is not None:
            out[f"ippo.update_{agent}.minibatches"] = t.attrs.get("steps", 0) / n

    # The high-water mark only grows, and it grows most in the first
    # iteration; its rises are read there, a fixed amount of work.
    for short, name in (("collect", "ippo.collect"),
                        ("update_ugv", "ippo.update_ugv"),
                        ("update_uav", "ippo.update_uav")):
        out[f"mem.rss_rise_mb.{short}"] = sum(
            s.attrs["rss1"] - s.attrs["rss0"] for s in spans
            if s.name == name and s.phase == "warmup" and "rss1" in s.attrs)
    return out


def iteration_coverage(spans) -> float:
    """Share of ``ippo.train`` time (phase ``measure``) that its direct
    child spans cover."""
    covered = total = 0.0
    for i, span in enumerate(spans):
        if span.name == "ippo.train" and span.phase == "measure":
            total += span.duration
        elif (span.parent >= 0 and spans[span.parent].name == "ippo.train"
              and spans[span.parent].phase == "measure"):
            covered += span.duration
    return covered / total if total else 0.0


def serve_layer_metrics(spans) -> dict:
    """Serving layers: set-up means per call, then totals over the spans
    that are not artifact load/warmup and do not sit under one."""
    out = setup_layer_metrics(spans)
    agg = aggregate(spans, keep=lambda i, s: (
        s.name not in _SETUP_ROOTS and nearest(spans, i, _SETUP_ROOTS) is None))
    for base in ("frozen.ugv_forward", "frozen.uav_forward", "mc_gcn.forward",
                 "ecomm.forward"):
        _put_seconds(out, base, agg.get(base), 1.0)
    for base in ("frozen.ugv_forward", "frozen.uav_forward"):
        t = agg.get(base)
        if t is not None:
            out[base + ".rows"] = t.attrs.get("rows", 0)
    if "mc_gcn.forward" in agg:
        out["mc_gcn.forward.centres"] = agg["mc_gcn.forward"].attrs["centres"]
    return out


def engine_layer_metrics(stats: dict, requests, describe: dict) -> dict:
    """Engine counters over the traced server's run, the p50 queue wait
    and the compiled-plan replay share."""
    batches = stats.get("batches", 0)
    waits = [(start - submit) * 1e3 for submit, start, _ in requests]
    calls = describe.get("calls", 0)
    return {
        "engine.batches": batches,
        "engine.mean_batch": stats.get("completed", 0) / batches if batches else 0.0,
        "engine.queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "engine.shed": stats.get("shed", 0),
        "engine.timeouts": stats.get("timeouts", 0),
        "compile.replay_share": describe.get("replay_calls", 0) / calls if calls else 0.0,
    }


def report(values: dict) -> dict:
    """Every ``PER_LAYER`` metric with its unit; layers not run read 0."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
