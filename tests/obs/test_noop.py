"""Disabled-mode guarantees: the instrumentation must cost nothing.

Three load-bearing properties when no :class:`~repro.obs.Profiler` is
installed (the default for every training run):

* every ``scope()`` call returns the one shared do-nothing context
  manager and the metric primitives register nothing, so the disabled
  path allocates no per-call object and touches no registry;
* the scope/metric primitives create **zero extra autodiff tape nodes**
  — instrumented hot paths record the exact same tape as uninstrumented
  code, so graphcheck invariants and tape-size budgets are unaffected;
* an instrumented training run writes **byte-identical telemetry** to an
  uninstrumented one, profiler installed or not — observability never
  perturbs the science (rng streams, losses, metrics).
"""

import numpy as np

from repro.nn import Tensor, trace
from repro.obs import Profiler
from repro.obs.scope import (
    counter_add, gauge_set, histogram_observe, is_profiling, scope,
)


def _forward(with_scopes: bool) -> int:
    """Run one small forward under a tape trace; return the tape length."""
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    with trace() as tape:
        if with_scopes:
            with scope("outer"):
                with scope("inner/forward"):
                    out = (a @ b).relu().sum()
                counter_add("calls")
                gauge_set("g", 1.0)
                histogram_observe("h", 0.5)
        else:
            out = (a @ b).relu().sum()
    out.backward()
    return len(tape)


class TestDisabledPath:
    def test_scopes_share_one_null_context_and_metrics_register_nothing(self):
        with Profiler() as prof:
            counter_add("live")
            assert scope("a") is not scope("a")
        assert not is_profiling()
        before = prof.metrics.as_dict()
        assert scope("a") is scope("b/c")
        with scope("a"):
            counter_add("off")
            gauge_set("off", 1.0)
            histogram_observe("off", 0.5)
        assert prof.metrics.as_dict() == before


class TestZeroTapeNodes:
    def test_instrumentation_adds_no_tape_entries(self):
        assert _forward(with_scopes=True) == _forward(with_scopes=False)

    def test_enabled_profiler_adds_no_tape_entries_either(self):
        # Even *enabled*, scopes only read the clock — they never touch
        # tensors, so the tape stays identical under a live profiler.
        bare = _forward(with_scopes=False)
        with Profiler():
            assert _forward(with_scopes=True) == bare


class TestTelemetryBytes:
    def _train_once(self, tmp_path, name, toy_campus, toy_stops,
                    profiled: bool) -> bytes:
        from repro.core import GARLAgent, GARLConfig, PPOConfig
        from repro.env import AirGroundEnv, EnvConfig
        from repro.experiments.telemetry import TrainingLogger

        env = AirGroundEnv(toy_campus,
                           EnvConfig(num_ugvs=2, num_uavs_per_ugv=1,
                                     episode_len=8),
                           stops=toy_stops, seed=7)
        agent = GARLAgent(env, GARLConfig(hidden_dim=8, mc_gcn_layers=1,
                                          ecomm_layers=1,
                                          ppo=PPOConfig(epochs=1,
                                                        minibatch_size=16)))
        path = tmp_path / f"{name}.jsonl"
        logger = TrainingLogger(path)
        if profiled:
            with Profiler():
                agent.train(iterations=2, callback=logger)
        else:
            agent.train(iterations=2, callback=logger)
        return path.read_bytes()

    def test_profiled_run_writes_identical_telemetry(self, tmp_path,
                                                     toy_campus, toy_stops):
        plain = self._train_once(tmp_path, "plain", toy_campus, toy_stops,
                                 profiled=False)
        profiled = self._train_once(tmp_path, "profiled", toy_campus,
                                    toy_stops, profiled=True)
        assert plain == profiled
        assert len(plain.splitlines()) == 2
