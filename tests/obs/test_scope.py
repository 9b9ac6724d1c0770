"""Scope-timer semantics: paths, partitioning, coverage, installation."""

import importlib
import time

import pytest

from repro.obs import Profiler
from repro.obs.scope import (
    _NULL_SCOPE,
    active_profiler,
    counter_add,
    gauge_set,
    histogram_observe,
    is_profiling,
    scope,
)


class TestDisabled:
    def test_no_profiler_installed_by_default(self):
        assert not is_profiling()
        assert active_profiler() is None

    def test_scope_returns_shared_null_scope(self):
        # One shared object regardless of name: no allocation per call.
        assert scope("a") is scope("b") is _NULL_SCOPE

    def test_null_scope_is_reentrant(self):
        with scope("a"):
            with scope("a"):
                pass

    def test_metric_helpers_are_noops(self):
        counter_add("c")
        gauge_set("g", 1.0)
        histogram_observe("h", 0.5)  # nothing to assert: must not raise


class TestPaths:
    def test_flat_and_nested_paths(self):
        with Profiler() as prof:
            with scope("train"):
                with scope("rollout"):
                    pass
                with scope("rollout"):
                    pass
            with scope("eval"):
                pass
        assert set(prof.stats) == {"train", "train/rollout", "eval"}
        assert prof.stats["train/rollout"].count == 2
        assert prof.stats["train"].count == 1

    def test_slash_in_name_declares_levels(self):
        with Profiler() as prof:
            with scope("update"):
                with scope("forward/ugv"):
                    pass
        assert "update/forward/ugv" in prof.stats
        stats = prof.stats["update/forward/ugv"]
        assert stats.name == "ugv"
        assert stats.depth == 2

    def test_self_seconds_partition(self):
        with Profiler() as prof:
            with scope("outer"):
                time.sleep(0.01)
                with scope("inner"):
                    time.sleep(0.01)
        outer, inner = prof.stats["outer"], prof.stats["outer/inner"]
        assert outer.total_seconds >= inner.total_seconds
        assert outer.self_seconds == pytest.approx(
            outer.total_seconds - inner.total_seconds)
        # Summing self time over all paths reproduces the root total.
        total_self = sum(s.self_seconds for s in prof)
        assert total_self == pytest.approx(outer.total_seconds)

    def test_attributed_counts_root_scopes_only(self):
        with Profiler() as prof:
            with scope("a"):
                with scope("b"):
                    pass
        assert prof.attributed_seconds == pytest.approx(
            prof.stats["a"].total_seconds)

    def test_min_max_bounds(self):
        with Profiler() as prof:
            for _ in range(3):
                with scope("s"):
                    pass
        s = prof.stats["s"]
        assert 0.0 <= s.min_seconds <= s.max_seconds <= s.total_seconds


class TestProfilerLifecycle:
    def test_installation_visible_and_uninstalled_on_exit(self):
        with Profiler() as prof:
            assert is_profiling()
            assert active_profiler() is prof
        assert not is_profiling()

    def test_nested_installation_rejected(self):
        with Profiler():
            with pytest.raises(RuntimeError, match="already installed"):
                Profiler().__enter__()
        assert not is_profiling()  # failed enter must not clobber cleanup

    def test_uninstalled_even_on_exception(self):
        with pytest.raises(ValueError):
            with Profiler():
                raise ValueError("boom")
        assert not is_profiling()

    def test_wall_seconds_set_on_exit(self):
        prof = Profiler()
        with prof:
            time.sleep(0.005)
        assert prof.wall_seconds is not None
        assert prof.wall_seconds >= 0.005

    def test_coverage_high_for_fully_scoped_workload(self):
        with Profiler() as prof:
            with scope("work"):
                time.sleep(0.02)
        assert 0.9 <= prof.coverage() <= 1.0

    def test_events_recorded_and_capped(self):
        with Profiler(max_events=3) as prof:
            for _ in range(5):
                with scope("s"):
                    pass
        assert len(prof.events) == 3
        assert prof.stats["s"].count == 5  # aggregation keeps going
        path, start, dur = prof.events[0]
        assert path == "s" and start >= 0.0 and dur >= 0.0

    def test_keep_events_false(self):
        with Profiler(keep_events=False) as prof:
            with scope("s"):
                pass
        assert prof.events == []

    def test_sorted_stats(self):
        with Profiler() as prof:
            with scope("slow"):
                time.sleep(0.01)
            with scope("fast"):
                pass
        ordered = prof.sorted_stats("self_seconds")
        assert ordered[0].path == "slow"


class TestPeakRss:
    def test_rise_is_the_high_water_growth_inside_each_scope(self, monkeypatch):
        # ``repro.obs.scope`` the attribute is the function; get the module.
        scope_module = importlib.import_module("repro.obs.scope")
        # A scripted ru_maxrss (KiB): each read returns the next.
        reads = iter([100, 100, 1124, 1124, 3172, 3172, 6344])
        monkeypatch.setattr(scope_module, "_max_rss_kb", lambda: next(reads))
        with Profiler() as prof:
            with scope("update"):          # reads 100 ... 3172
                with scope("ugv"):         # reads 100 ... 1124
                    pass
                with scope("ugv"):         # reads 1124 ... 3172
                    pass
        # ... and 6344 when the profiler exits.
        assert prof.stats["update/ugv"].rss_rise_mb == pytest.approx(3.0)
        assert prof.stats["update"].rss_rise_mb == pytest.approx(3.0)
        assert prof.peak_rss_mb == pytest.approx(6.195, abs=1e-3)
        assert prof.stats["update"].as_dict()["rss_rise_mb"] == pytest.approx(3.0)

    def test_real_peak_is_read_at_exit(self):
        prof = Profiler()
        assert prof.peak_rss_mb is None
        with prof:
            with scope("work"):
                pass
        assert prof.peak_rss_mb > 1.0
        assert prof.stats["work"].rss_rise_mb >= 0.0


class TestMetricHelpers:
    def test_helpers_route_to_installed_registry(self):
        with Profiler() as prof:
            counter_add("env/steps", 5)
            counter_add("env/steps")
            gauge_set("train/lr", 3e-4)
            histogram_observe("loss", 0.25)
        snap = prof.metrics.as_dict()
        assert snap["counters"]["env/steps"] == 6
        assert snap["gauges"]["train/lr"] == pytest.approx(3e-4)
        assert snap["histograms"]["loss"]["count"] == 1

    def test_external_registry_attaches(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("pre").add(2)
        with Profiler(registry=reg) as prof:
            counter_add("pre", 1)
        assert prof.metrics is reg
        assert reg.counter("pre").value == 3
