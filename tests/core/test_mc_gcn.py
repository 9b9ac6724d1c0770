"""Tests for the MC-GCN module (Section IV-B, Eqns. 18-23)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import GARLConfig, MCGCN, multi_center_structural_feature
from repro.core.config import PPOConfig
from repro.core.mc_gcn import mc_gcn_layer
from repro.maps.stop_graph import StopGraph
from repro.nn import GCNLayer, Parameter, Tensor, normalized_laplacian

from ..conftest import to_float64


@pytest.fixture()
def config():
    return GARLConfig(hidden_dim=8, mc_gcn_layers=2, structural_q=5.0,
                      ppo=PPOConfig())


class TestStructuralFeature:
    def test_eqn18_subtracts_mean_of_others(self):
        corr = np.array([
            [1.0, 0.5, 0.2],
            [0.5, 1.0, 0.4],
            [0.2, 0.4, 1.0],
        ])
        feature = multi_center_structural_feature(corr, own_stop=0,
                                                  other_stops=np.array([1, 2]))
        expected = corr[0] - (corr[1] + corr[2]) / 2.0
        np.testing.assert_allclose(feature, expected)

    def test_no_other_ugvs_returns_own_row(self):
        corr = np.eye(4)
        feature = multi_center_structural_feature(corr, 2, np.array([], dtype=int))
        np.testing.assert_allclose(feature, corr[2])

    def test_negative_centres_suppress_contested_stops(self):
        # A stop close to another UGV gets a lower value than with no rival.
        corr = np.array([
            [1.0, 0.5],
            [0.5, 1.0],
        ])
        alone = multi_center_structural_feature(corr, 0, np.array([], dtype=int))
        contested = multi_center_structural_feature(corr, 0, np.array([1]))
        assert contested[1] < alone[1]


class TestForward:
    def test_output_shapes(self, toy_stops, config):
        model = MCGCN(toy_stops, config)
        features = np.random.default_rng(0).normal(size=(toy_stops.num_stops, 3))
        nodes, pooled = model(features, own_stop=0, other_stops=np.array([3]))
        assert nodes.shape == (toy_stops.num_stops, config.hidden_dim)
        assert pooled.shape == (config.hidden_dim,)

    def test_pooled_feature_bounded_by_tanh(self, toy_stops, config):
        model = MCGCN(toy_stops, config)
        features = np.random.default_rng(1).normal(size=(toy_stops.num_stops, 3)) * 10
        _, pooled = model(features, 0, np.array([1, 2]))
        assert (np.abs(pooled.numpy()) <= 1.0).all()

    def test_gradients_reach_all_parameters(self, toy_stops, config):
        model = MCGCN(toy_stops, config)
        features = np.random.default_rng(2).normal(size=(toy_stops.num_stops, 3))
        nodes, pooled = model(features, 1, np.array([0]))
        (nodes.sum() + pooled.sum()).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"

    def test_own_position_changes_output(self, toy_stops, config):
        # The multi-center design makes the output depend on where the UGV is.
        model = MCGCN(toy_stops, config)
        features = np.random.default_rng(3).normal(size=(toy_stops.num_stops, 3))
        _, pooled_a = model(features, 0, np.array([5]))
        _, pooled_b = model(features, 10, np.array([5]))
        assert not np.allclose(pooled_a.numpy(), pooled_b.numpy())

    def test_other_ugv_positions_change_output(self, toy_stops, config):
        model = MCGCN(toy_stops, config)
        features = np.random.default_rng(4).normal(size=(toy_stops.num_stops, 3))
        nodes_a, _ = model(features, 0, np.array([1]))
        nodes_b, _ = model(features, 0, np.array([12]))
        assert not np.allclose(nodes_a.numpy(), nodes_b.numpy())

    def test_ablated_plain_gcn_ignores_other_ugvs(self, toy_stops, config):
        plain = MCGCN(toy_stops, config.ablated(mc=False))
        features = np.random.default_rng(5).normal(size=(toy_stops.num_stops, 3))
        nodes_a, _ = plain(features, 0, np.array([1]))
        nodes_b, _ = plain(features, 0, np.array([12]))
        np.testing.assert_allclose(nodes_a.numpy(), nodes_b.numpy())

    def test_layer_count_respected(self, toy_stops):
        for layers in (1, 3, 5):
            cfg = GARLConfig(hidden_dim=4, mc_gcn_layers=layers)
            model = MCGCN(toy_stops, cfg)
            assert len(model.gcn_layers) == layers
            assert len(model.attn_weights) == layers

    def test_deterministic_given_seed(self, toy_stops, config):
        a = MCGCN(toy_stops, config, rng=np.random.default_rng(11))
        b = MCGCN(toy_stops, config, rng=np.random.default_rng(11))
        features = np.random.default_rng(6).normal(size=(toy_stops.num_stops, 3))
        _, pa = a(features, 0, np.array([1]))
        _, pb = b(features, 0, np.array([1]))
        np.testing.assert_array_equal(pa.numpy(), pb.numpy())


# ----------------------------------------------------------------------
# The fused batched layer against the composed Tensor ops it replaces
# ----------------------------------------------------------------------
def _composed_layer(h, w1, layer, laplacian, structural, own, others):
    """Eqns. (21)-(22) for stacked centres, one Tensor op at a time."""
    rows = np.arange(h.shape[0])
    hw = h @ w1  # (N, B, F)
    f_own = (hw @ h[rows, own].expand_dims(-1)).squeeze(-1)  # (N, B)
    if others.shape[1]:
        f_others = hw @ h[rows[:, None], others].swapaxes(-1, -2)  # (N, B, M)
        f_own = f_own - f_others.mean(axis=-1)
    attention = (Tensor(structural) * f_own).softmax(axis=-1)
    return attention.expand_dims(-1) * layer(h, laplacian)


def _assert_rel_close(actual, expected, rtol=1e-12):
    """Max-norm relative agreement: |actual - expected| <= rtol * max|expected|."""
    scale = max(np.abs(expected).max(), np.finfo(float).tiny)
    assert np.abs(actual - expected).max() <= rtol * scale


def _run_layer(fn, h_data, w1, layer, laplacian, structural, own, others, upstream):
    h = Tensor(h_data, requires_grad=True)
    for p in (w1, layer.weight, layer.bias):
        p.zero_grad()
    out = fn(h, w1, layer, laplacian, structural, own, others)
    (out * Tensor(upstream)).sum().backward()
    return out.data, h.grad, w1.grad, layer.weight.grad, layer.bias.grad


@st.composite
def _layer_problems(draw):
    n = draw(st.integers(1, 4))
    b = draw(st.integers(2, 7))
    f = draw(st.integers(1, 4))
    hidden = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    collide = draw(st.sampled_from(["none", "own", "pair"]))
    seed = draw(st.integers(0, 2**16))
    return n, b, f, hidden, m, collide, seed


@settings(max_examples=40, deadline=None)
@given(_layer_problems())
@example((3, 5, 3, 2, 0, "none", 0))  # one UGV: no negative centres
@example((3, 5, 3, 2, 2, "own", 1))  # a negative centre on the own stop
@example((3, 5, 3, 2, 3, "pair", 2))  # two negative centres on one stop
@example((1, 2, 1, 3, 3, "none", 3))  # W1's gradient is rounding residue
def test_fused_layer_matches_composed_ops(problem):
    n, b, f, hidden, m, collide, seed = problem
    rng = np.random.default_rng(seed)
    adjacency = np.triu(rng.random((b, b)) < 0.5, 1).astype(float)
    laplacian = normalized_laplacian(adjacency + adjacency.T)
    own = rng.integers(0, b, size=n)
    others = rng.integers(0, b, size=(n, m))
    if collide == "own" and m:
        others[:, 0] = own
    elif collide == "pair" and m >= 2:
        others[:, 1] = others[:, 0]
    structural = rng.uniform(-1.0, 1.0, size=(n, b))
    h_data = rng.normal(size=(n, b, f))
    upstream = rng.normal(size=(n, b, hidden))
    w1 = Parameter(rng.normal(size=(f, f)))
    layer = to_float64(GCNLayer(f, hidden, rng=rng, activation="tanh"))
    layer.bias.data[:] = rng.normal(size=hidden)
    args = (h_data, w1, layer, laplacian, structural, own, others, upstream)

    fused = _run_layer(mc_gcn_layer, *args)
    composed = _run_layer(_composed_layer, *args)
    for name, got, want in zip(("out", "h", "W1", "W", "b"), fused, composed):
        assert got.shape == want.shape, name
    _assert_rel_close(fused[0], composed[0])
    # Max-norm relative over the whole gradient (h and every parameter).
    # A single parameter's own size is no scale for its rounding: when
    # the attention scores cancel, W1's gradient is only rounding residue
    # (exactly 0 fused, ~1e-18 composed).
    scale = max(np.abs(want).max() for want in composed[1:])
    for name, got, want in zip(("h", "W1", "W", "b"), fused[1:], composed[1:]):
        assert np.abs(got - want).max() <= 1e-12 * scale, name


def test_forward_batch_of_one_matches_forward(toy_stops, config):
    model = to_float64(MCGCN(toy_stops, config))
    features = np.random.default_rng(7).normal(size=(toy_stops.num_stops, 3))
    others = np.array([4, 9])
    nodes, pooled = model(features, 2, others)
    nodes_b, pooled_b = model.forward_batch(features[None], np.array([2]), others[None])
    np.testing.assert_allclose(nodes_b.data[0], nodes.data, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pooled_b.data[0], pooled.data, rtol=1e-12, atol=0)


# ----------------------------------------------------------------------
# Eqns. 18, 21 and 22 on a hand-built 4-stop path graph 0-1-2-3
# ----------------------------------------------------------------------
class TestEquationsOnPathGraph:
    """Own centre at stop 0, negative centres at stops 2 and 3.

    With ``q = 2`` the hop correlation ``1 / (d + 1)`` (zero past two
    hops) has rows ``[1, 1/2, 1/3, 0]``, ``[1/2, 1, 1/2, 1/3]``,
    ``[1/3, 1/2, 1, 1/2]`` and ``[0, 1/3, 1/2, 1]``.
    """

    H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0]])
    W1 = np.array([[1.0, 2.0], [0.0, 1.0]])
    W = np.array([[0.5, -1.0], [1.0, 0.25]])
    BIAS = np.array([0.1, -0.2])
    OWN, OTHERS = 0, np.array([2, 3])

    # Eqn. (18): row 0 minus the mean of rows 2 and 3.
    STRUCTURAL = np.array([5 / 6, 1 / 12, -5 / 12, -3 / 4])
    # Eqn. (21): f_own - mean f_others, with f(b, c) = h_b W1 h_c.
    SCORE = np.array([-0.5, 0.0, -0.5, -1.0])
    # softmax(STRUCTURAL * SCORE) = softmax([-5/12, 0, 5/24, 3/4]).
    ATTENTION = np.array([0.13164107334685782, 0.19968592243295447,
                          0.24593790311230582, 0.42273510110788187])
    # Eqn. (22): ATTENTION[:, None] * tanh(L H W + b).
    OUT = np.array([[0.0842560804299062, -0.07050440732450211],
                    [0.16245571559862357, -0.12975158512856522],
                    [0.18006201506694236, -0.2109829704908609],
                    [0.25878252140889707, -0.39155007016500654]])

    @pytest.fixture()
    def model(self):
        graph = nx.path_graph(4)
        stops = StopGraph(positions=np.arange(8.0).reshape(4, 2), graph=graph)
        cfg = GARLConfig(hidden_dim=2, mc_gcn_layers=1, structural_q=2.0)
        model = to_float64(MCGCN(stops, cfg, in_features=2))
        # The exact float64 constants (the model rounds them to float32).
        model.laplacian = normalized_laplacian(stops.adjacency_matrix())
        model.correlation = stops.structural_correlation(cfg.structural_q)
        model.attn_weights[0].data[:] = self.W1
        model.gcn_layers[0].weight.data[:] = self.W
        model.gcn_layers[0].bias.data[:] = self.BIAS
        return model

    def test_eqn18_structural_feature(self, model):
        feature = multi_center_structural_feature(model.correlation, self.OWN, self.OTHERS)
        np.testing.assert_allclose(feature, self.STRUCTURAL, rtol=1e-15)

    def test_eqn21_score_identity(self):
        f = self.H @ self.W1 @ self.H.T  # f[b, c] = h_b W1 h_c
        centre_subtracted = f[:, self.OWN] - f[:, self.OTHERS].mean(axis=1)
        q = self.H[self.OWN] - self.H[self.OTHERS].mean(axis=0)
        np.testing.assert_allclose(centre_subtracted, self.SCORE, rtol=1e-15)
        np.testing.assert_allclose(self.H @ (self.W1 @ q), self.SCORE, rtol=1e-15)

    def test_eqn21_attention(self, model):
        attention = model._attention(Tensor(self.H), 0, self.OWN, self.OTHERS,
                                     self.STRUCTURAL)
        np.testing.assert_allclose(attention.data, self.ATTENTION, rtol=1e-12)

    def test_eqn22_rescaled_propagation(self, model):
        nodes, _ = model(self.H, self.OWN, self.OTHERS)
        np.testing.assert_allclose(nodes.data, self.OUT, rtol=1e-12)
        nodes_b, _ = model.forward_batch(self.H[None], np.array([self.OWN]),
                                         self.OTHERS[None])
        np.testing.assert_allclose(nodes_b.data[0], self.OUT, rtol=1e-12)
