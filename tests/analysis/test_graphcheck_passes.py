"""Pass-by-pass corpus: each GC check fires on a seeded defect and stays
silent on the healthy equivalent, mirroring the reprolint rule tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.graphcheck import (
    GraphIR,
    IRNode,
    build_ir,
    check_common_subexpressions,
    check_detached_params,
    check_shapes,
    check_softmax_invariants,
    check_tape_growth,
    run_all_passes,
)
from repro.analysis.graphcheck.runner import filter_suppressed
from repro.nn import Linear, Module, Parameter, Tensor, trace


def codes(diags):
    return [d.code for d in diags]


# ----------------------------------------------------------------------
# GC001 shape-check
# ----------------------------------------------------------------------
def test_gc001_fires_on_implicit_mutual_broadcast():
    # The (B,) + (B,1) footgun: silently builds a (B,B) intermediate.
    with trace() as tape:
        a = Tensor(np.zeros(4))
        b = Tensor(np.zeros((4, 1)))
        c = a + b
    ir = build_ir(tape, roots=[c])
    diags = check_shapes(ir)
    assert codes(diags) == ["GC001"]
    assert "expands both operands" in diags[0].message
    assert "test_graphcheck_passes.py" in diags[0].site  # file:line provenance


def test_gc001_silent_on_explicit_pairwise_expansion():
    # Same-rank explicit singletons (x[:,None] - x[None,:]) are deliberate.
    with trace() as tape:
        g = Tensor(np.zeros((4, 2)))
        r = g.expand_dims(1) - g.expand_dims(0)
    ir = build_ir(tape, roots=[r])
    assert check_shapes(ir) == []


def test_gc001_fires_on_reshape_absorbing_batch():
    with trace() as tape:
        x = Tensor(np.zeros((2, 6)))
        y = x.reshape(12)
    ir = build_ir(tape, roots=[y])
    diags = check_shapes(ir, batch_size=2)
    assert codes(diags) == ["GC001"]
    assert "not batch-polymorphic" in diags[0].message


def test_gc001_silent_on_batch_preserving_flatten():
    with trace() as tape:
        x = Tensor(np.zeros((2, 3, 4)))
        y = x.reshape(2, 12)
    ir = build_ir(tape, roots=[y])
    assert check_shapes(ir, batch_size=2) == []


def test_gc001_fires_on_matmul_contracting_batch():
    # Works at the traced batch size only because B happens to equal 2.
    with trace() as tape:
        x = Tensor(np.zeros((2, 3)))
        w = Parameter(np.zeros((2, 4)))
        y = x.transpose() @ w
    ir = build_ir(tape, roots=[y])
    diags = check_shapes(ir, batch_size=2)
    assert "GC001" in codes(diags)
    assert any("batch dimension" in d.message for d in diags)


def test_gc001_batch_polymorphic_model_is_clean():
    with trace() as tape:
        x = Tensor(np.zeros((5, 3)))
        w = Parameter(np.ones((3, 4)))
        y = ((x @ w).tanh() + Parameter(np.zeros(4))).sum(axis=-1)
    ir = build_ir(tape, roots=[y])
    assert check_shapes(ir, batch_size=5) == []


# ----------------------------------------------------------------------
# GC002 detached-parameter
# ----------------------------------------------------------------------
class SeededDetached(Module):
    """`dead` never contributes to the loss; `ranked` only via .numpy()."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.used = Linear(4, 4, rng=rng)
        self.dead = Linear(4, 4, rng=rng)
        self.ranked = Linear(4, 1, rng=rng)

    def forward(self, x):
        order = np.argsort(self.ranked(x).squeeze(-1).numpy())
        return self.used(x).sum() + float(order[0]) * 0.0


def trace_module(model, x):
    model.zero_grad()
    with trace() as tape:
        loss = model(x)
        loss.backward()
    return build_ir(tape, roots=[loss], params=dict(model.named_parameters()))


def test_gc002_reports_detached_params_by_module_path():
    ir = trace_module(SeededDetached(), Tensor(np.ones((2, 4))))
    diags = check_detached_params(ir)
    flagged = {d.message.split("'")[1] for d in diags}
    assert flagged == {"dead.weight", "dead.bias", "ranked.weight", "ranked.bias"}
    by_param = {d.message.split("'")[1]: d.message for d in diags}
    assert "never used" in by_param["dead.weight"]
    assert "no gradient path" in by_param["ranked.weight"]


def test_gc002_silent_when_all_params_reach_loss():
    class Healthy(Module):
        def __init__(self):
            super().__init__()
            self.lin = Linear(4, 2, rng=np.random.default_rng(0))

        def forward(self, x):
            return self.lin(x).sum()

    ir = trace_module(Healthy(), Tensor(np.ones((2, 4))))
    assert check_detached_params(ir) == []


# ----------------------------------------------------------------------
# GC003 softmax-invariant
# ----------------------------------------------------------------------
def _softmax_ir(logits: np.ndarray, probs: np.ndarray) -> GraphIR:
    nodes = [
        IRNode(id=0, op="leaf", shape=logits.shape, dtype="float64",
               requires_grad=False, data=logits),
        IRNode(id=1, op="softmax", shape=probs.shape, dtype="float64",
               requires_grad=False, inputs=(0,), data=probs,
               label="demo.weights"),
    ]
    return GraphIR(nodes, roots=(1,))


def test_gc003_fires_on_rows_not_summing_to_one():
    logits = np.zeros((2, 3))
    probs = np.full((2, 3), 0.3)  # rows sum to 0.9
    diags = check_softmax_invariants(_softmax_ir(logits, probs))
    assert codes(diags) == ["GC003"]
    assert "do not sum to 1" in diags[0].message


def test_gc003_fires_on_probability_mass_behind_mask():
    logits = np.array([[0.0, -1e9], [0.0, 0.0]])
    probs = np.array([[0.6, 0.4], [0.5, 0.5]])  # rows normalised, mask leaks
    diags = check_softmax_invariants(_softmax_ir(logits, probs))
    assert codes(diags) == ["GC003"]
    assert "masked logit" in diags[0].message
    assert "demo.weights" in diags[0].message


def test_gc003_real_masked_softmax_is_clean():
    with trace() as tape:
        logits = Tensor(np.array([[1.0, -1e9, 0.5], [0.0, 0.0, -1e9]]))
        probs = logits.softmax(axis=-1)
        lp = logits.log_softmax(axis=-1)
    ir = build_ir(tape, roots=[probs, lp])
    assert check_softmax_invariants(ir) == []


# ----------------------------------------------------------------------
# GC004 tape-growth
# ----------------------------------------------------------------------
def test_gc004_fires_when_state_carries_the_tape():
    p = Parameter(np.ones(3))
    with trace() as t1:
        carried = p * 2.0
        loss1 = carried.sum()
        loss1.backward()
    with trace() as t2:
        loss2 = (carried * 3.0).sum()   # consumes step-1 graph: tape grows
        # The engine freed step 1's graph, so it refuses this backward too.
        with pytest.raises(RuntimeError, match="already freed"):
            loss2.backward()
    ir1 = build_ir(t1, roots=[loss1])
    ir2 = build_ir(t2, roots=[loss2])
    diags = check_tape_growth(ir1, ir2)
    assert "GC004" in codes(diags)
    assert any("grows across steps" in d.message for d in diags)


def test_gc004_silent_for_congruent_detached_steps():
    p = Parameter(np.ones(3))

    def step(state):
        h = (p * Tensor(state)).sum()
        h.backward()
        return h

    with trace() as t1:
        l1 = step(np.ones(3))
    with trace() as t2:
        l2 = step(np.ones(3) * 2.0)  # detached carry: fresh leaf each step
    diags = check_tape_growth(build_ir(t1, roots=[l1]), build_ir(t2, roots=[l2]))
    assert diags == []


def test_gc004_reports_op_histogram_drift():
    p = Parameter(np.ones(3))
    with trace() as t1:
        l1 = (p * 2.0).sum()
    with trace() as t2:
        l2 = (p * 2.0).tanh().sum()   # extra op appears in step 2
    diags = check_tape_growth(build_ir(t1, roots=[l1]), build_ir(t2, roots=[l2]))
    assert codes(diags) == ["GC004"]
    assert "tanh: 0 -> 1" in diags[0].message


# ----------------------------------------------------------------------
# GC005 common-subexpression
# ----------------------------------------------------------------------
def test_gc005_reports_recomputed_subgraphs():
    m = np.arange(12.0).reshape(3, 4)
    w = Parameter(np.ones((4, 2)))
    with trace() as tape:
        first = Tensor(m) @ w       # identical constant re-wrapped twice,
        second = Tensor(m) @ w      # multiplied by the same parameter
        loss = (first + second).sum()
    ir = build_ir(tape, roots=[loss])
    diags = check_common_subexpressions(ir)
    assert codes(diags) == ["GC005"]
    assert all(d.severity == "info" for d in diags)
    assert "computed 2x" in diags[0].message


def test_gc005_silent_when_inputs_differ():
    w = Parameter(np.ones((4, 2)))
    with trace() as tape:
        a = Tensor(np.ones((3, 4))) @ w
        b = Tensor(np.zeros((3, 4))) @ w
        loss = (a + b).sum()
    ir = build_ir(tape, roots=[loss])
    assert check_common_subexpressions(ir) == []


# ----------------------------------------------------------------------
# Driver + suppression
# ----------------------------------------------------------------------
def test_run_all_passes_composes_the_catalogue():
    ir = trace_module(SeededDetached(), Tensor(np.ones((2, 4))))
    diags = run_all_passes(ir)
    assert "GC002" in codes(diags)


def test_suppression_filters_by_site_comment(tmp_path):
    source = tmp_path / "model.py"
    source.write_text(
        "ok = 1\n"
        "x = a + b  # graphcheck: disable=GC001\n"
        "y = c + d  # graphcheck: disable\n"
    )
    from repro.analysis.graphcheck.passes import GraphDiagnostic

    def diag(code, line):
        return GraphDiagnostic(code, "demo", "error", "msg",
                               site=f"{source}:{line} in forward")

    kept = filter_suppressed([
        diag("GC001", 1),   # no marker: kept
        diag("GC001", 2),   # matching code: dropped
        diag("GC002", 2),   # non-matching code: kept
        diag("GC003", 3),   # bare disable: dropped
    ])
    assert [(d.code, d.site) for d in kept] == [
        ("GC001", f"{source}:1 in forward"),
        ("GC002", f"{source}:2 in forward"),
    ]


def test_check_method_end_to_end_is_clean():
    from repro.analysis.graphcheck.runner import check_method

    report = check_method("gat", num_ugvs=2, num_uavs_per_ugv=1,
                          include_cse=False)
    assert not report.skipped
    assert report.errors == []
    assert set(report.irs) == {"ugv", "uav"}


def test_check_method_skips_parameter_free_agents():
    from repro.analysis.graphcheck.runner import check_method

    report = check_method("random", num_ugvs=2, num_uavs_per_ugv=1)
    assert report.skipped and report.diagnostics == []
