"""Per-op profiler: FLOP estimates, attribution, provenance, labels."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import Tensor, annotate
from repro.obs.opprof import (
    OpProfile,
    OpStats,
    _module_from_site,
    estimate_flops,
    profile_ops,
)


class TestEstimateFlops:
    def test_matmul_counts_2mnk(self):
        # (4, 5) @ (5, 3): 2 * 4 * 3 * 5
        assert estimate_flops("matmul", (4, 3), [(4, 5), (5, 3)]) == 120.0

    def test_data_movement_is_free(self):
        assert estimate_flops("reshape", (100,), [(10, 10)]) == 0.0
        assert estimate_flops("transpose", (3, 4), [(4, 3)]) == 0.0

    def test_reduction_counts_input_elements(self):
        assert estimate_flops("sum", (), [(10, 10)]) == 100.0

    def test_softmax_composite_factor(self):
        assert estimate_flops("softmax", (8,), [(8,)]) == 5.0 * 8

    def test_pointwise_counts_output_elements(self):
        assert estimate_flops("add", (4, 4), [(4, 4), (4, 4)]) == 16.0


class TestModuleFromSite:
    def test_repro_package_path(self):
        site = "/x/src/repro/core/mc_gcn.py:118 in forward"
        assert _module_from_site(site) == "core.mc_gcn"

    def test_outside_package_keeps_file_name(self):
        assert _module_from_site("/tmp/script.py:3 in <module>") == "script"


class TestProfileOps:
    def _workload(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 5)))
        b = Tensor(rng.normal(size=(5, 3)))
        return (a @ b).relu().sum()

    def test_aggregates_ops(self):
        prof = profile_ops(self._workload)
        by_op = {row.op: row for row in prof.rows}
        assert {"matmul", "relu", "sum"} <= set(by_op)
        assert by_op["matmul"].calls == 1
        assert by_op["matmul"].flops == pytest.approx(2.0 * 4 * 3 * 5)
        assert by_op["matmul"].bytes == 4 * 3 * 8
        assert all(row.seconds >= 0.0 for row in prof.rows)

    def test_wall_and_attribution_accounting(self):
        prof = profile_ops(self._workload)
        assert prof.wall_seconds > 0.0
        assert prof.total_op_seconds <= prof.wall_seconds
        assert prof.total_calls == sum(r.calls for r in prof.rows)
        assert len(prof.events) == prof.total_calls

    def test_result_kept(self):
        prof = profile_ops(self._workload)
        assert isinstance(prof.result, Tensor)

    def test_module_provenance_points_at_caller(self):
        prof = profile_ops(self._workload)
        # This test file is outside the repro package, so the module
        # column falls back to the bare file name — and must NOT point
        # at the profiler's own machinery (opprof / tracer / tensor).
        modules = {row.module for row in prof.rows}
        assert modules == {"test_opprof"}

    def test_site_provenance_off(self):
        prof = profile_ops(self._workload, site_provenance=False)
        assert {row.module for row in prof.rows} == {""}

    def test_annotate_labels_group_rows(self):
        def workload():
            x = Tensor(np.ones((3, 3)))
            y = annotate(x @ x, "toy.square")
            return y.sum()

        prof = profile_ops(workload)
        labelled = [r for r in prof.rows if r.label == "toy.square"]
        assert len(labelled) == 1
        assert labelled[0].op == "matmul"
        name, _, _ = prof.events[0]
        assert name == "matmul [toy.square]"

    def test_tape_keeps_no_tensors_alive(self):
        # Each pass builds and drops a 1.28 MB product; a tape holding
        # the recorded tensors would keep all twenty of them.
        x = Tensor(np.ones((400, 400)))

        def workload():
            for _ in range(20):
                (x @ x).sum()

        tracemalloc.start()
        try:
            profile_ops(workload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * x.data.nbytes

    def test_event_cap(self):
        prof = profile_ops(self._workload, max_events=1)
        assert len(prof.events) == 1
        assert prof.total_calls >= 3  # aggregation unaffected by the cap

    def test_top_ordering(self):
        prof = profile_ops(self._workload)
        top = prof.top(len(prof.rows))
        assert [r.seconds for r in top] == sorted(
            (r.seconds for r in top), reverse=True)
        assert prof.top(1, key="flops")[0].op == "matmul"


class TestOpProfileContainer:
    def test_len_and_totals(self):
        row = OpStats("matmul", "", "core.mc_gcn")
        row.calls, row.seconds = 2, 0.5
        prof = OpProfile([row], [("matmul", 0.0, 0.25)], wall_seconds=1.0)
        assert len(prof) == 1
        assert prof.total_op_seconds == 0.5
        assert prof.total_calls == 2
