"""Golden-IR snapshots for GARL's traced step.

The traced graph of one surrogate step (forward + loss + backward) on the
kaist smoke map is deterministic given the seed, so its op histogram and
key shapes act as a structural regression net: an accidental extra op,
lost communication round, or shape change shows up as a diff here before
it shows up as a training regression.

If a legitimate architecture change lands, regenerate with::

    PYTHONPATH=src python - <<'PY'
    from repro.analysis.graphcheck.runner import check_method
    r = check_method("garl", num_ugvs=3, num_uavs_per_ugv=1, include_cse=False)
    print(r.irs["ugv"].ops()); print(r.irs["uav"].ops())
    PY
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.graphcheck.runner import _VEC_BATCH, check_method
from repro.experiments.presets import get_preset

NUM_STOPS = 38  # kaist at smoke scale
NUM_UGVS = 3

GOLDEN_UGV_OPS = {
    "add": 71, "concat": 10, "exp": 1, "expand_dims": 15, "getitem": 36,
    "log_softmax": 1, "matmul": 83, "minimum": 3, "mul": 37, "neg": 13,
    "pow": 6, "reshape": 9, "softmax": 12, "squeeze": 7, "stack": 11,
    "sum": 26, "tanh": 20, "transpose": 2, "truediv": 22,
}

GOLDEN_UAV_OPS = {
    "add": 10, "concat": 1, "conv2d": 2, "exp": 1, "matmul": 3, "mul": 4,
    "neg": 3, "relu": 2, "reshape": 1, "squeeze": 1, "sum": 5, "tanh": 2,
}


@pytest.fixture(scope="module")
def garl_report():
    return check_method("garl", campus="kaist", preset="smoke",
                        num_ugvs=NUM_UGVS, num_uavs_per_ugv=1, seed=0,
                        include_cse=False)


def test_garl_passes_are_clean(garl_report):
    assert garl_report.errors == []


def test_ugv_op_histogram_matches_golden(garl_report):
    assert garl_report.irs["ugv"].ops() == GOLDEN_UGV_OPS


def test_uav_op_histogram_matches_golden(garl_report):
    assert garl_report.irs["uav"].ops() == GOLDEN_UAV_OPS


def test_ugv_phase_split(garl_report):
    # Forward dominates; the surrogate loss adds a small scalar tail.
    phases = Counter(n.phase for n in garl_report.irs["ugv"] if not n.is_leaf)
    assert phases == {"forward": 376, "loss": 9}


def test_mcgcn_attention_nodes(garl_report):
    # 3 UGVs x 3 MC-GCN layers, each a (B,) stop distribution.
    att = garl_report.irs["ugv"].find(label="MCGCN.attention")
    assert len(att) == 9
    assert {n.shape for n in att} == {(NUM_STOPS,)}
    assert {n.op for n in att} == {"softmax"}


def test_batched_mcgcn_is_one_fused_node_per_layer(garl_report):
    # The batched forward records each MC-GCN layer (Eqns. 21-22) as one
    # opaque node over all (replica, agent) centres, and no attention
    # softmax of its own.
    config = get_preset("smoke").garl_config()
    ir = garl_report.irs["ugv_vec"]
    fused = ir.find(op="mc_gcn_layer")
    assert len(fused) == config.mc_gcn_layers
    assert {n.shape for n in fused} == {(_VEC_BATCH * NUM_UGVS, NUM_STOPS,
                                         config.hidden_dim)}
    assert ir.find(label="MCGCN.attention") == []


def test_ecomm_alpha_nodes(garl_report):
    # One (U, U) communication-weight matrix per E-Comm round.
    alpha = garl_report.irs["ugv"].find(label="EComm.alpha")
    assert len(alpha) == 3
    assert {n.shape for n in alpha} == {(3, 3)}


def test_batched_ecomm_is_one_fused_node(garl_report):
    # The batched forward records E-Comm (Eqns. 25-30, every layer and
    # the readout) as one opaque node packing [h_final | z | g] per
    # (replica, agent), with no alpha softmax of its own.
    config = get_preset("smoke").garl_config()
    ir = garl_report.irs["ugv_vec"]
    fused = ir.find(op="ecomm_fused")
    assert len(fused) == 1
    assert fused[0].shape == (_VEC_BATCH, NUM_UGVS,
                              config.hidden_dim + NUM_STOPS + 2)
    # Parents: the pooled MC-GCN features and all 6 L^E + 3 parameters.
    assert len(fused[0].inputs) == 1 + 6 * config.ecomm_layers + 3
    assert ir.find(label="EComm.alpha") == []


def test_every_parameter_received_a_gradient(garl_report):
    for part in ("ugv", "uav"):
        ir = garl_report.irs[part]
        params = [n for n in ir if n.is_param]
        assert params, part
        assert all(n.has_grad for n in params), part


def test_uav_trace_is_batch_polymorphic(garl_report):
    # The UAV IR was traced at batch 4; the shape pass verified the batch
    # symbol flows root-to-loss, so the loss root must be batch-free.
    ir = garl_report.irs["uav"]
    root = ir.node(ir.roots[0])
    assert root.shape == () and root.phase == "loss"
