"""The benchmark's own arithmetic: percentiles, host-normalized time,
self time, validators.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from bench import common
from bench.common import (BRACKET_SLICES, REFERENCE_NOMINAL_S, HostClock,
                          blocked_tail, tail_percentile)
from bench.spans import Span, Tracer, aggregate, self_times
from bench.validate import check_uav, check_ugv


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------

def test_percentile_caps_at_p99_when_the_sample_supports_it():
    values = list(range(3000))
    q, value, n = tail_percentile(values)
    assert (q, n) == (99.0, 3000)
    assert value == 2969  # nearest rank: ceil(0.99 * 3000) - 1
    assert sum(v > value for v in values) >= 10


def test_percentile_falls_back_to_the_highest_with_ten_beyond():
    values = list(range(500))[::-1]  # order must not matter
    q, value, n = tail_percentile(values)
    assert n == 500
    assert sum(v > value for v in values) == 10
    assert q == pytest.approx(98.0)
    assert value == 489


def test_percentile_reports_the_median_when_no_tail_is_supported():
    values = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0]
    assert tail_percentile(values) == (50.0, 3.5, 6)


def test_percentile_at_exactly_eleven_samples_is_the_minimum_rank_tail():
    q, value, n = tail_percentile(list(range(11)))
    assert n == 11
    # The median (rank 5) has only 5 samples above it: unsupported.
    assert (q, value) == (50.0, 5)


def test_percentile_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_blocked_tail_keeps_a_stall_in_one_block_out_of_the_figure():
    # 200 samples a block: p95 is the highest with ten beyond it, 94 here.
    steady = [float(i % 100) for i in range(1000)]
    stalled = steady[:200] + [500.0] * 30 + steady[230:]
    assert blocked_tail(steady, 5) == (95.0, 94.0, 200)
    assert blocked_tail(stalled, 5) == (95.0, 94.0, 200)
    assert tail_percentile(stalled)[1] == 500.0  # one tail over all: the stall


def test_blocked_tail_needs_a_sample_per_block():
    with pytest.raises(ValueError):
        blocked_tail([1.0, 2.0], 5)


# ----------------------------------------------------------------------
# Host-normalized time
# ----------------------------------------------------------------------

def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_clock_scales_by_the_mean_speed_of_its_slices(monkeypatch):
    # Half speed before the call, full speed after; too short for a tick.
    slices = iter([2 * REFERENCE_NOMINAL_S] * BRACKET_SLICES
                  + [REFERENCE_NOMINAL_S] * BRACKET_SLICES)
    monkeypatch.setattr(common, "reference_s", lambda: next(slices))
    clock = HostClock()
    result, wall, normalized = clock.measure(lambda: "done")
    assert result == "done"
    assert clock.speeds == [pytest.approx(0.75)]
    assert normalized == pytest.approx(0.75 * wall)


def test_host_clock_samples_during_the_call_and_leaves_the_slices_out(monkeypatch):
    def slice_of_20ms():
        _spin(0.02)
        return 0.02

    monkeypatch.setattr(common, "reference_s", slice_of_20ms)
    clock = HostClock()
    _, wall, normalized = clock.measure(lambda: _spin(0.45))
    ticks = len(clock.slices) - 2 * BRACKET_SLICES
    assert ticks >= 3
    # The spin ends 0.45 s after it starts, ticks included.
    assert wall == pytest.approx(0.45 - 0.02 * ticks, abs=0.01)
    assert normalized == pytest.approx(wall * REFERENCE_NOMINAL_S / 0.02)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def _spans():
    #  A [0, 10]
    #  ├── B [1, 4]
    #  │   └── D [2, 3]
    #  └── C [5, 7]
    return [Span("A", 0.0, 10.0), Span("B", 1.0, 4.0, parent=0),
            Span("D", 2.0, 3.0, parent=1), Span("C", 5.0, 7.0, parent=0)]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_spans()) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("A", 0.0, 10.0), Span("B", 1.0, 5.0, parent=0),
             Span("C", 3.0, 8.0, parent=0), Span("E", 9.0, 12.0, parent=0)]
    # Children cover [1, 8] and [9, 10] of A's interval.
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_repeated_spans_sum_and_recursion_counts_total_once():
    spans = [Span("X", 0.0, 10.0), Span("X", 2.0, 5.0, parent=0),
             Span("X", 20.0, 21.0), Span("Y", 6.0, 7.0, parent=0)]
    agg = aggregate(spans)
    x = agg["X"]
    assert x.calls == 3
    assert x.total_s == pytest.approx(11.0)  # the nested X is inside the outer
    assert x.self_s == pytest.approx((10 - 3 - 1) + 3 + 1)
    assert agg["Y"].total_s == agg["Y"].self_s == pytest.approx(1.0)


def test_tracer_links_nested_wrapped_calls_and_sums_attributes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap(lambda n: n, "inner", attrs_fn=lambda n: {"rows": n})

    def outer_fn():
        return inner(2) + inner(3)

    outer = tracer.wrap(outer_fn, "outer")
    assert outer() == 5
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    agg = aggregate(tracer.spans)
    assert agg["inner"].attrs["rows"] == 5
    assert agg["outer"].self_s == pytest.approx(
        agg["outer"].total_s - agg["inner"].total_s)


# ----------------------------------------------------------------------
# Response validation
# ----------------------------------------------------------------------

SCHEMA = {"num_ugvs": 2, "num_stops": 3, "uav_action_dim": 2}


def _ugv_request():
    mask = np.array([[True, False, True, False],
                     [False, True, False, True]])
    return {"action_mask": mask}


def _ugv_reply(actions):
    return {"actions": np.asarray(actions, dtype=np.int64),
            "log_probs": np.array([-0.5, -0.7]), "values": np.array([0.1, 0.2])}


def test_validator_accepts_a_feasible_ugv_reply():
    assert check_ugv(_ugv_request(), _ugv_reply([2, 3]), SCHEMA) is None


def test_validator_rejects_an_infeasible_ugv_action():
    problem = check_ugv(_ugv_request(), _ugv_reply([2, 0]), SCHEMA)
    assert problem is not None and "infeasible" in problem


def test_validator_rejects_an_out_of_range_ugv_action():
    assert check_ugv(_ugv_request(), _ugv_reply([2, 4]), SCHEMA) is not None


def _uav_reply(n):
    return {"actions": np.zeros((n, 2)), "moves": np.zeros((n, 2)),
            "log_probs": np.zeros(n), "values": np.zeros(n)}


def test_validator_accepts_one_move_per_crop():
    request = {"grids": np.zeros((3, 3, 5, 5))}
    assert check_uav(request, _uav_reply(3), SCHEMA) is None


def test_validator_rejects_a_wrongly_shaped_uav_reply():
    request = {"grids": np.zeros((3, 3, 5, 5))}
    problem = check_uav(request, _uav_reply(2), SCHEMA)
    assert problem is not None and "shape" in problem


def test_validator_rejects_a_non_finite_uav_move():
    request = {"grids": np.zeros((1, 3, 5, 5))}
    reply = _uav_reply(1)
    reply["moves"][0, 1] = np.nan
    assert check_uav(request, reply, SCHEMA) is not None
