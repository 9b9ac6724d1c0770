"""Tests for the policy distributions."""

import numpy as np
import pytest

from repro.nn import Categorical, DiagGaussian, Tensor
from repro.nn.distributions import sample_categorical


class _TopDraw:
    """Stub rng: every ``random()`` draw is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class TestCategorical:
    def test_log_prob_matches_softmax(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        dist = Categorical(Tensor(logits))
        actions = np.array([2])
        expected = logits[0, 2] - np.log(np.exp(logits).sum())
        assert dist.log_prob(actions).numpy()[0] == pytest.approx(expected)

    def test_sample_frequencies_match_probs(self):
        rng = np.random.default_rng(0)
        logits = np.log(np.array([[0.7, 0.2, 0.1]]))
        dist = Categorical(Tensor(np.repeat(logits, 4000, axis=0)))
        samples = dist.sample(rng)
        freq = np.bincount(samples, minlength=3) / len(samples)
        np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.03)

    def test_mode(self):
        dist = Categorical(Tensor(np.array([[0.0, 5.0, 1.0], [9.0, 0.0, 0.0]])))
        np.testing.assert_array_equal(dist.mode(), [1, 0])

    def test_entropy_uniform_is_log_n(self):
        dist = Categorical(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(dist.entropy().numpy(), np.full(2, np.log(4)), atol=1e-10)

    def test_entropy_degenerate_is_zero(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        assert Categorical(Tensor(logits)).entropy().numpy()[0] == pytest.approx(0.0, abs=1e-6)

    def test_masked_logits_never_sampled(self):
        rng = np.random.default_rng(1)
        logits = np.array([[0.0, -1e9, 0.0]])
        dist = Categorical(Tensor(np.repeat(logits, 500, axis=0)))
        samples = dist.sample(rng)
        assert not (samples == 1).any()

    def test_gradient_through_log_prob(self):
        t = Tensor(np.zeros((1, 3)), requires_grad=True)
        dist = Categorical(t)
        dist.log_prob(np.array([0])).sum().backward()
        # d/dlogits of log p(a=0) = onehot(0) - softmax = [2/3, -1/3, -1/3]
        np.testing.assert_allclose(t.grad, [[2 / 3, -1 / 3, -1 / 3]], atol=1e-9)

    def test_draw_past_the_rounded_cdf_takes_the_last_feasible_action(self):
        """A draw above the last entry of the rounded cdf takes the row's
        last action with positive probability, not an index past the end."""
        # Over 7 or 19 equal actions the renormalised cdf ends below the
        # stub's draw (at 1 - 2**-52 and 1 - 2**-51).
        uniform = Categorical(Tensor(np.zeros((3, 7))))
        np.testing.assert_array_equal(uniform.sample(_TopDraw()), [6, 6, 6])
        masked = np.stack([np.r_[np.zeros(19), -1e9, -1e9],
                           np.r_[-1e9, np.zeros(19), -1e9]])
        log_probs = Categorical(Tensor(masked)).log_probs_all.data
        p = np.exp(log_probs)
        cdf_end = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)[:, -1]
        assert (cdf_end < np.nextafter(1.0, 0.0)).all(), cdf_end
        np.testing.assert_array_equal(
            sample_categorical(log_probs, _TopDraw()), [18, 19])

    def test_sample_is_the_inverse_cdf_draw(self):
        """Away from the rounding edge, a draw is ``(u > cdf).sum()``
        bitwise: the same rng stream gives the same indices."""
        logits = np.random.default_rng(3).normal(size=(4, 6, 5)) * 3
        log_probs = Categorical(Tensor(logits)).log_probs_all.data
        p = np.exp(log_probs).reshape(-1, 5)
        p = p / p.sum(axis=-1, keepdims=True)
        u = np.random.default_rng(4).random((p.shape[0], 1))
        want = (u > np.cumsum(p, axis=-1)).sum(axis=-1).reshape(4, 6)
        got = sample_categorical(log_probs, np.random.default_rng(4))
        np.testing.assert_array_equal(got, want)

    def test_batched_shapes(self):
        dist = Categorical(Tensor(np.zeros((5, 7))))
        rng = np.random.default_rng(2)
        actions = dist.sample(rng)
        assert actions.shape == (5,)
        assert dist.log_prob(actions).shape == (5,)
        assert dist.entropy().shape == (5,)


class TestDiagGaussian:
    def test_log_prob_matches_scipy(self):
        from scipy.stats import norm

        mean = np.array([[0.5, -1.0]])
        log_std = np.array([0.1, -0.3])
        dist = DiagGaussian(Tensor(mean), Tensor(log_std))
        action = np.array([[0.7, -0.5]])
        expected = norm.logpdf(action, loc=mean, scale=np.exp(log_std)).sum()
        assert dist.log_prob(action).numpy()[0] == pytest.approx(expected)

    def test_sample_statistics(self):
        rng = np.random.default_rng(0)
        mean = np.tile(np.array([[2.0, -3.0]]), (20000, 1))
        dist = DiagGaussian(Tensor(mean), Tensor(np.log([0.5, 2.0])))
        samples = dist.sample(rng)
        np.testing.assert_allclose(samples.mean(axis=0), [2.0, -3.0], atol=0.05)
        np.testing.assert_allclose(samples.std(axis=0), [0.5, 2.0], atol=0.05)

    def test_mode_is_mean(self):
        mean = np.array([[1.0, 2.0]])
        dist = DiagGaussian(Tensor(mean), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(dist.mode(), mean)

    def test_entropy_formula(self):
        log_std = np.array([0.0, 1.0])
        dist = DiagGaussian(Tensor(np.zeros((3, 2))), Tensor(log_std))
        expected = (log_std + 0.5 * (np.log(2 * np.pi) + 1)).sum()
        np.testing.assert_allclose(dist.entropy().numpy(), np.full(3, expected), atol=1e-9)

    def test_gradient_through_log_prob_mean(self):
        mean = Tensor(np.zeros((1, 2)), requires_grad=True)
        dist = DiagGaussian(mean, Tensor(np.zeros(2)))
        dist.log_prob(np.array([[1.0, -1.0]])).sum().backward()
        # d log N / d mu = (a - mu) / sigma^2 = [1, -1]
        np.testing.assert_allclose(mean.grad, [[1.0, -1.0]], atol=1e-9)

    def test_gradient_through_log_std(self):
        log_std = Tensor(np.zeros(2), requires_grad=True)
        dist = DiagGaussian(Tensor(np.zeros((1, 2))), log_std)
        dist.log_prob(np.array([[2.0, 0.0]])).sum().backward()
        # d log N / d log_std = (a-mu)^2/sigma^2 - 1 = [3, -1]
        np.testing.assert_allclose(log_std.grad, [3.0, -1.0], atol=1e-9)
