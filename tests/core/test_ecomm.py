"""Tests for E-Comm (Section IV-C): shapes, invariance and equivariance.

The paper's central claim about E-Comm is that message aggregation is
E(2)-*invariant* while target updating is E(2)-*equivariant*: applying a
rotation R and translation t to the input coordinates leaves the
non-geometric features h unchanged and maps the geometric outputs g to
R g + t.  These are property-tested over random rototranslations, on the
per-sample forward and per replica on the batched one.

The batched forward is one fused autograd node (``ecomm_fused``) with a
hand-written backward; it is checked against the composed per-sample ops
(outputs and every gradient) and, with the per-sample forward, against
Eqns. (26)-(30) worked out by hand on a three-UGV configuration.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import EComm, GARLConfig
from repro.nn import Tensor


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@pytest.fixture()
def config():
    return GARLConfig(hidden_dim=8, ecomm_layers=2, ecomm_clip=10.0)


def run_layers(ecomm: EComm, h: np.ndarray, g: np.ndarray):
    """Run only the message-passing layers, skipping the stop readout."""
    ht = Tensor(h)
    gt = Tensor(g)
    for layer in ecomm.layers:
        ht, gt = layer(ht, gt)
    return ht.numpy(), gt.numpy()


class TestShapes:
    def test_forward_shapes(self, toy_stops, config):
        ecomm = EComm(config.hidden_dim, config)
        u = 4
        h = np.random.default_rng(0).normal(size=(u, config.hidden_dim))
        g = np.random.default_rng(1).uniform(0, 400, size=(u, 2))
        h_out, z, g_out = ecomm(Tensor(h), g, toy_stops.positions)
        assert h_out.shape == (u, config.hidden_dim)
        assert z.shape == (u, toy_stops.num_stops)
        assert g_out.shape == (u, 2)

    def test_single_agent_passthrough_geometry(self, toy_stops, config):
        ecomm = EComm(config.hidden_dim, config)
        h = np.random.default_rng(2).normal(size=(1, config.hidden_dim))
        g = np.array([[100.0, 100.0]])
        _, _, g_out = ecomm(Tensor(h), g, toy_stops.positions)
        np.testing.assert_allclose(g_out.numpy(), g)

    def test_gradients_reach_parameters(self, toy_stops, config):
        ecomm = EComm(config.hidden_dim, config)
        h = Tensor(np.random.default_rng(3).normal(size=(3, config.hidden_dim)),
                   requires_grad=True)
        g = np.random.default_rng(4).uniform(0, 400, size=(3, 2))
        h_out, z, _ = ecomm(h, g, toy_stops.positions)
        (h_out.sum() + z.sum()).backward()
        for name, p in ecomm.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"
        assert h.grad is not None


class TestEquivariance:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0, 2 * np.pi), st.floats(-100, 100), st.floats(-100, 100))
    def test_h_invariant_under_rototranslation(self, angle, tx, ty):
        config = GARLConfig(hidden_dim=6, ecomm_layers=2, ecomm_clip=10.0)
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 6))
        g = rng.uniform(0, 300, size=(4, 2))
        rot = rotation(angle)
        g2 = g @ rot.T + np.array([tx, ty])
        h_out1, _ = run_layers(ecomm, h, g)
        h_out2, _ = run_layers(ecomm, h, g2)
        np.testing.assert_allclose(h_out1, h_out2, atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0, 2 * np.pi), st.floats(-100, 100), st.floats(-100, 100))
    def test_g_equivariant_under_rototranslation(self, angle, tx, ty):
        config = GARLConfig(hidden_dim=6, ecomm_layers=3, ecomm_clip=10.0)
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(2)
        h = rng.normal(size=(3, 6))
        g = rng.uniform(0, 300, size=(3, 2))
        rot = rotation(angle)
        shift = np.array([tx, ty])
        _, g_out1 = run_layers(ecomm, h, g)
        _, g_out2 = run_layers(ecomm, h, g @ rot.T + shift)
        np.testing.assert_allclose(g_out2, g_out1 @ rot.T + shift, atol=1e-6)

    def test_permutation_equivariance(self, config):
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, config.hidden_dim))
        g = rng.uniform(0, 300, size=(4, 2))
        perm = np.array([2, 0, 3, 1])
        h_out1, g_out1 = run_layers(ecomm, h, g)
        h_out2, g_out2 = run_layers(ecomm, h[perm], g[perm])
        np.testing.assert_allclose(h_out2, h_out1[perm], atol=1e-8)
        np.testing.assert_allclose(g_out2, g_out1[perm], atol=1e-8)

    def test_clip_bounds_geometry_update(self):
        config = GARLConfig(hidden_dim=6, ecomm_layers=1, ecomm_clip=0.5)
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 6)) * 100.0  # large features -> large effect
        g = rng.uniform(0, 300, size=(3, 2))
        _, g_out = run_layers(ecomm, h, g)
        moved = np.linalg.norm(g_out - g, axis=-1)
        assert (moved <= 0.5 + 1e-9).all()

    def test_closer_neighbours_weighted_more(self, config):
        # Eqn. (26): a UGV right next to u should dominate the softmax
        # over one far away, so moving the far one barely changes u's h.
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, config.hidden_dim))
        base = np.array([[0.0, 0.0], [1.0, 0.0], [500.0, 0.0]])
        far_moved = np.array([[0.0, 0.0], [1.0, 0.0], [600.0, 100.0]])
        near_moved = np.array([[0.0, 0.0], [30.0, 0.0], [500.0, 0.0]])
        h0, _ = run_layers(ecomm, h, base)
        h_far, _ = run_layers(ecomm, h, far_moved)
        h_near, _ = run_layers(ecomm, h, near_moved)
        delta_far = np.abs(h_far[0] - h0[0]).sum()
        delta_near = np.abs(h_near[0] - h0[0]).sum()
        assert delta_near > delta_far


class TestReadout:
    def test_z_scores_reflect_target_alignment(self, toy_stops):
        # With W3 = I, z_b = x_b . g: stops aligned with the target vector
        # score highest.
        config = GARLConfig(hidden_dim=4, ecomm_layers=1)
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        ecomm.w3.weight.data = np.eye(2)
        rng = np.random.default_rng(1)
        h = Tensor(rng.normal(size=(2, 4)))
        g = np.array([[200.0, 200.0], [210.0, 190.0]])
        _, z, g_out = ecomm(h, g, toy_stops.positions)
        expected = toy_stops.positions @ g_out.numpy().T
        np.testing.assert_allclose(z.numpy(), expected.T, atol=1e-8)


class TestUniformWeightsAblation:
    def test_uniform_alpha_is_mean(self):
        config = GARLConfig(hidden_dim=4, ecomm_layers=1,
                            ecomm_uniform_weights=True)
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        layer = ecomm.layers[0]
        assert layer.uniform_weights

    def test_uniform_variant_ignores_distance_changes(self):
        # With uniform weights, scaling all pairwise distances leaves the
        # aggregated h unchanged (only directions enter g, not h).
        config = GARLConfig(hidden_dim=6, ecomm_layers=1,
                            ecomm_uniform_weights=True, ecomm_clip=1e9)
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 6))
        g = rng.uniform(0, 100, size=(3, 2))
        centre = g.mean(axis=0)
        h1, _ = run_layers(ecomm, h, g)
        h2, _ = run_layers(ecomm, h, centre + (g - centre) * 5.0)
        np.testing.assert_allclose(h1, h2, atol=1e-9)

    def test_default_variant_sensitive_to_distance_changes(self):
        config = GARLConfig(hidden_dim=6, ecomm_layers=1, ecomm_clip=1e9)
        ecomm = EComm(config.hidden_dim, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 6))
        # Asymmetric formation so the softmax weights are non-uniform.
        g = np.array([[0.0, 0.0], [10.0, 0.0], [200.0, 0.0]])
        centre = g.mean(axis=0)
        h1, _ = run_layers(ecomm, h, g)
        h2, _ = run_layers(ecomm, h, centre + (g - centre) * 5.0)
        assert not np.allclose(h1, h2, atol=1e-9)


def run_batched(ecomm: EComm, h: np.ndarray, g: np.ndarray, stops: np.ndarray):
    """``forward_batch`` on ``(P, U, D)`` / ``(P, U, 2)`` arrays."""
    return tuple(t.numpy() for t in ecomm.forward_batch(Tensor(h), g, stops))


def run_per_sample(ecomm: EComm, h: np.ndarray, g: np.ndarray, stops: np.ndarray):
    """The composed per-sample ``forward`` per replica, stacked."""
    outs = [ecomm(Tensor(h[p]), g[p], stops) for p in range(h.shape[0])]
    return tuple(np.stack([o[i].numpy() for o in outs]) for i in range(3))


class TestEquationsOnThreeUGVs:
    """Eqns. (26)-(30) against hand-worked numbers.

    Three UGVs sit on a 3-4-5 triangle, ``g = (0, 0), (3, 0), (0, 4)``, so
    the reciprocal distances are 1/3, 1/4 and 1/5.  One layer, ``D = 4``,
    hand-set weights:

    * ``h_u = e_u`` and ``phi_m`` maps it to ``m_u = (e_u, c_u)`` with
      ``c = (0.1, 0.2, 0.3)``, so the aggregated message of UGV u is
      ``(alpha_u0, alpha_u1, alpha_u2, sum_u' alpha_uu' c_u')``;
    * ``phi_h`` passes the aggregated message, ``phi_u`` passes h, both
      through tanh, so ``h_final = tanh(tanh(aggregated))``;
    * ``phi_g(m_u') = u' + 1`` is the radial magnitude of sender u';
    * ``W_3 = diag(1, 2)`` and the stops are ``(1, 0), (0, 1), (1, 1)``.

    Eqn. (26) is a two-way softmax per row:
    ``alpha_01 = sigmoid(1/3 - 1/4) = sigmoid(1/12)``,
    ``alpha_10 = sigmoid(1/3 - 1/5) = sigmoid(2/15)``,
    ``alpha_20 = sigmoid(1/4 - 1/5) = sigmoid(1/20)``, the other weight of
    each row being one minus it.  The distance epsilons move these by
    under 1e-7 relative.
    """

    G = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    STOPS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ALPHA = np.array([[0.0, 0.5208212854, 0.4791787146],
                      [0.5332840383, 0.0, 0.4667159617],
                      [0.5124973965, 0.4875026035, 0.0]])
    # Eqn. (27): sum_u' alpha_uu' c_u', e.g. 0.2 * 0.52082 + 0.3 * 0.47918.
    MESSAGE = np.array([0.2479178715, 0.1933431923, 0.1487502604])
    # Eqn. (28): sum_u' alpha_uu' (u' + 1) (g_u - g_u') / |g_u - g_u'|,
    # e.g. UGV 0: 2 alpha_01 (-1, 0) + 3 alpha_02 (0, -1); UGV 1 and 2
    # also use the unit vectors (0.6, -0.8) and (-0.6, 0.8) of the
    # hypotenuse.
    EFFECT = np.array([[-1.0416425707, -1.4375361439],
                       [1.3733727694, -1.1201183082],
                       [-0.5850031242, 1.2925015621]])
    EFFECT_NORM = np.array([1.7752547451, 1.7722352519, 1.4187279314])
    CLIP = 1.6  # clips UGVs 0 and 1, not UGV 2
    # Eqn. (29): g + effect * min(1, 1.6 / |effect|).
    G_NEW = np.array([[-0.9388106793, -1.2956212828],
                      [4.2399010959, -1.0112592508],
                      [-0.5850031242, 5.2925015621]])
    # Eqn. (30a): z_ub = x_b^T W_3 g_u = (g_x, 2 g_y, g_x + 2 g_y).  For
    # UGV 2 the last is 8 + 2 (alpha_20 + alpha_21) = 10 exactly.
    Z = np.array([[-0.9388106793, -2.5912425656, -3.5300532449],
                  [4.2399010959, -2.0225185016, 2.2173825943],
                  [-0.5850031242, 10.5850031242, 10.0]])

    def _ecomm(self, clip: float) -> EComm:
        config = GARLConfig(hidden_dim=4, ecomm_layers=1, ecomm_clip=clip)
        ecomm = EComm(4, config, rng=np.random.default_rng(0))
        layer = ecomm.layers[0]
        w_m = np.eye(4)
        w_m[:3, 3] = [0.1, 0.2, 0.3]
        w_m[3, 3] = 0.0
        layer.phi_m.weight.data = w_m
        layer.phi_h.weight.data = np.vstack([np.zeros((4, 4)), np.eye(4)])
        layer.phi_g.weight.data = np.array([[1.0], [2.0], [3.0], [0.0]])
        ecomm.w3.weight.data = np.diag([1.0, 2.0])
        ecomm.phi_u.weight.data = np.vstack([np.eye(4), np.zeros((1, 4))])
        for linear in (layer.phi_m, layer.phi_h, layer.phi_g, ecomm.phi_u):
            linear.bias.data = np.zeros_like(linear.bias.data)
        return ecomm

    def _run(self, path, clip: float):
        h = np.eye(4)[:3][None]  # (1, 3, 4): h_u = e_u
        h_final, z, g = path(self._ecomm(clip), h, self.G[None], self.STOPS)
        return h_final[0], z[0], g[0]

    @pytest.mark.parametrize("path", [run_per_sample, run_batched],
                             ids=["per_sample", "fused"])
    def test_alpha_and_aggregated_message(self, path):
        h_final, _, _ = self._run(path, self.CLIP)
        aggregated = np.arctanh(np.arctanh(h_final))
        np.testing.assert_allclose(aggregated[:, :3], self.ALPHA, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(aggregated[:, 3], self.MESSAGE, rtol=1e-6)

    @pytest.mark.parametrize("path", [run_per_sample, run_batched],
                             ids=["per_sample", "fused"])
    def test_radial_effect_unclipped(self, path):
        _, _, g = self._run(path, 1e3)
        np.testing.assert_allclose(g - self.G, self.EFFECT, rtol=1e-6)
        np.testing.assert_allclose(np.linalg.norm(self.EFFECT, axis=-1),
                                   self.EFFECT_NORM, rtol=1e-9)

    @pytest.mark.parametrize("path", [run_per_sample, run_batched],
                             ids=["per_sample", "fused"])
    def test_clipped_target_in_both_regimes(self, path):
        _, _, g = self._run(path, self.CLIP)
        np.testing.assert_allclose(g, self.G_NEW, rtol=1e-6)
        moved = g - self.G
        # UGVs 0 and 1 are clipped: they move 1.6 along the effect.
        # (The norm epsilon inside |effect| shortens the step by ~2e-9.)
        np.testing.assert_allclose(np.linalg.norm(moved[:2], axis=-1), self.CLIP,
                                   rtol=1e-8)
        np.testing.assert_allclose(moved[:2], self.EFFECT[:2] * (
            self.CLIP / self.EFFECT_NORM[:2, None]), rtol=1e-6)
        # UGV 2's effect is shorter than the clip: it moves by the effect.
        np.testing.assert_allclose(moved[2], self.EFFECT[2], rtol=1e-6)

    @pytest.mark.parametrize("path", [run_per_sample, run_batched],
                             ids=["per_sample", "fused"])
    def test_stop_preference_z(self, path):
        _, z, _ = self._run(path, self.CLIP)
        np.testing.assert_allclose(z, self.Z, rtol=1e-6)


class TestBatchedProperties:
    """``forward_batch`` (the fused node) keeps the E-Comm contracts per
    replica."""

    P, U, D, B = 3, 4, 6, 5

    def _inputs(self, seed: int = 0):
        # Normalised coordinates, as the policy passes them: at campus
        # scale z would saturate the readout's tanh and hide h.
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(self.P, self.U, self.D)),
                rng.uniform(0, 1, size=(self.P, self.U, 2)),
                rng.uniform(0, 1, size=(self.B, 2)))

    def _ecomm(self, **overrides) -> EComm:
        config = GARLConfig(hidden_dim=self.D, ecomm_layers=3, ecomm_clip=10.0,
                            **overrides)
        return EComm(self.D, config, rng=np.random.default_rng(0))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 2 * np.pi), st.floats(-100, 100),
                              st.floats(-100, 100)), min_size=3, max_size=3))
    def test_h_invariant_and_g_equivariant_per_replica(self, motions):
        ecomm = self._ecomm()
        h, g, stops = self._inputs()
        rots = np.stack([rotation(angle) for angle, _, _ in motions])  # (P, 2, 2)
        shifts = np.array([[tx, ty] for _, tx, ty in motions])[:, None, :]
        moved = np.einsum("puk,pjk->puj", g, rots) + shifts
        ecomm.phi_u.weight.data[-1] = 0.0  # drop z, which is not invariant
        h1, _, g1 = run_batched(ecomm, h, g, stops)
        h2, _, g2 = run_batched(ecomm, h, moved, stops)
        np.testing.assert_allclose(h2, h1, atol=1e-8)
        np.testing.assert_allclose(g2, np.einsum("puk,pjk->puj", g1, rots) + shifts,
                                   atol=1e-6)

    def test_replicas_are_independent(self):
        ecomm = self._ecomm()
        h, g, stops = self._inputs()
        base = run_batched(ecomm, h, g, stops)
        h2, g2 = h.copy(), g.copy()
        h2[0] += 1.0
        g2[0, 1] += 0.25
        perturbed = run_batched(ecomm, h2, g2, stops)
        for a, b in zip(base, perturbed):
            assert not np.array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1:], b[1:])

    @pytest.mark.parametrize("overrides", [{}, {"ecomm_uniform_weights": True}],
                             ids=["softmax", "uniform"])
    @pytest.mark.parametrize("num_ugvs", [1, 4])
    def test_fused_matches_per_sample(self, num_ugvs, overrides):
        # U == 1 is the passthrough branch; uniform weights the Eqn. (26)
        # ablation.
        ecomm = self._ecomm(**overrides)
        h, g, stops = self._inputs()
        h, g = h[:, :num_ugvs], g[:, :num_ugvs]
        fused = run_batched(ecomm, h, g, stops)
        for a, b in zip(fused, run_per_sample(ecomm, h, g, stops)):
            np.testing.assert_array_equal(a, b)
        if num_ugvs == 1:
            np.testing.assert_array_equal(fused[2], g)


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm relative difference of ``a`` from the reference ``b``."""
    scale = np.abs(b).max()
    return float(np.abs(a - b).max() / scale) if scale > 0 else float(np.abs(a).max())


class TestFusedMatchesComposed:
    """The fused node agrees with the composed per-sample Tensor ops, in
    values and in the gradients of ``h`` and every E-Comm parameter, to
    1e-12 max-norm relative."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(1, 5),
           st.integers(1, 3), st.sampled_from([0.01, 1e3]), st.booleans(),
           st.integers(0, 2**16))
    @example(2, 1, 3, 2, 2, 1e3, False, 0)  # U == 1 passthrough
    @example(2, 3, 4, 3, 2, 0.01, True, 1)  # clipped, uniform weights
    def test_values_and_gradients(self, replicas, ugvs, dim, stops, layers, clip,
                                  uniform, seed):
        config = GARLConfig(hidden_dim=dim, ecomm_layers=layers, ecomm_clip=clip,
                            ecomm_uniform_weights=uniform)
        ecomm = EComm(dim, config, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        for _, p in ecomm.named_parameters():  # trained biases are not zero
            p.data = p.data + rng.normal(scale=0.3, size=p.shape)
        h = rng.normal(size=(replicas, ugvs, dim))
        g = rng.uniform(0, 1, size=(replicas, ugvs, 2))
        stop_xy = rng.uniform(0, 1, size=(stops, 2))
        weights = [rng.normal(size=(replicas, ugvs, n)) for n in (dim, stops, 2)]

        def grads(run):
            ecomm.zero_grad()
            h_t = Tensor(h, requires_grad=True)
            outs, loss = run(h_t), None
            for out, w in zip(outs, weights):
                term = (out * Tensor(w)).sum()
                loss = term if loss is None else loss + term
            loss.backward()
            return ([o.numpy() for o in outs],
                    {"h": h_t.grad, **{n: p.grad for n, p in ecomm.named_parameters()
                                       if p.grad is not None}})

        def composed(h_t):
            outs = [ecomm(h_t[p], g[p], stop_xy) for p in range(replicas)]
            return [Tensor.stack([o[i] for o in outs], axis=0) for i in range(3)]

        fused_outs, fused_grads = grads(lambda h_t: ecomm.forward_batch(h_t, g, stop_xy))
        ref_outs, ref_grads = grads(composed)
        for a, b in zip(fused_outs, ref_outs):
            assert _max_rel(a, b) <= 1e-12
        assert fused_grads.keys() == ref_grads.keys()
        # Max-norm relative over the whole gradient (h and every
        # parameter).  A single parameter's own size is no scale for its
        # rounding: phi_g's bias gradient sums terms over UGVs that
        # translation invariance makes cancel, and under an active clip
        # phi_g's gradient is all cancellation (the step is `clip` long
        # whatever the effect's length).
        scale = max(np.abs(ref).max() for ref in ref_grads.values())
        for name, ref in ref_grads.items():
            assert np.abs(fused_grads[name] - ref).max() <= 1e-12 * scale, name
