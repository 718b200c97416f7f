import numpy as np
import pytest

from turbomud.channel import make_equicorrelated
from turbomud.siso_discrete import serial_update, stationarity_residual

from references import exact_ext, exact_posterior, grid_min_Fdisc


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestExactPosterior:
    def test_normalized_and_marginal_consistent(self):
        rng = np.random.default_rng(0)
        ch = make_equicorrelated(3, 0.5, sigma2=0.8)
        for _ in range(20):
            r = rng.standard_normal(3)
            priors = rng.standard_normal(3)
            post = exact_posterior(ch, r, priors)
            assert abs(np.sum(post.joint) - 1.0) < 1e-12
            for k in range(3):
                recomputed = np.sum(post.joint[post.symbols[:, k] == 1.0])
                assert abs(recomputed - post.marginal_plus[k]) < 1e-12

    def test_noiseless_concentration(self):
        ch = make_equicorrelated(2, 0.7, sigma2=1e-4)
        b = np.array([1.0, -1.0])
        r = ch.S @ (ch.a * b)
        post = exact_posterior(ch, r)
        idx = int(np.argmax(post.joint))
        np.testing.assert_array_equal(post.symbols[idx], b)
        assert post.joint[idx] > 0.999

    def test_orthogonal_codes_factorize_to_sigmoids(self):
        ch = make_equicorrelated(3, 0.0, amplitudes=[1.0, 2.0, 0.5],
                                 sigma2=0.6)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(3)
        y = ch.S.T @ r
        post = exact_posterior(ch, r)
        np.testing.assert_allclose(post.marginal_plus,
                                   sigmoid(2.0 * ch.a * y / 0.6), atol=1e-12)

    def test_single_user_sigmoid(self):
        ch = make_equicorrelated(1, 0.0, sigma2=0.5)
        r = np.array([0.3])
        prior = np.array([-0.7])
        post = exact_posterior(ch, r, prior)
        expected = sigmoid(-0.7 + 2.0 * r[0] / 0.5)
        assert abs(post.marginal_plus[0] - expected) < 1e-12

    def test_enumeration_guard(self):
        ch = make_equicorrelated(17, 0.0)
        with pytest.raises(ValueError, match="guarded"):
            exact_posterior(ch, np.zeros(17))


class TestExactExt:
    def test_single_user_prior_independent(self):
        ch = make_equicorrelated(1, 0.0, sigma2=0.4)
        r = np.array([0.9])
        for prior in (-2.0, 0.0, 3.0):
            llr = exact_ext(ch, r, np.array([prior]), 0)
            assert abs(llr - 2.0 * r[0] / 0.4) < 1e-12

    def test_two_formulations_agree(self):
        # exact_ext cross-checks marginalization against division internally
        ch = make_equicorrelated(2, 0.7, sigma2=0.5)
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = rng.standard_normal(2)
            priors = rng.standard_normal(2)
            exact_ext(ch, r, priors, 0)
            exact_ext(ch, r, priors, 1)

    def test_three_user_agreement(self):
        ch = make_equicorrelated(3, 0.4, sigma2=0.7)
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = rng.standard_normal(3)
            priors = rng.standard_normal(3)
            for k in range(3):
                exact_ext(ch, r, priors, k)


class TestGridMinFdisc:
    def test_single_user_stationarity(self):
        ch = make_equicorrelated(1, 0.0, sigma2=0.5)
        r = np.array([0.4])
        prior = np.array([0.3])
        m = grid_min_Fdisc(ch, r, prior, grid_step=1e-3)
        # scalar fixed point: m = tanh(prior/2 + A s r / sigma2)
        target = np.tanh(0.15 + r[0] / 0.5)
        assert abs(m[0] - target) <= 1e-3

    def test_orthogonal_codes_separable(self):
        ch = make_equicorrelated(2, 0.0, sigma2=0.8)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(2)
        y = ch.S.T @ r
        prior = np.array([0.5, -1.0])
        m = grid_min_Fdisc(ch, r, prior, grid_step=1e-3)
        np.testing.assert_allclose(m, np.tanh(prior / 2.0 + y / 0.8),
                                   atol=2e-3)

    def test_k3_grid_min_is_serial_fixed_point(self):
        ch = make_equicorrelated(3, 0.5, sigma2=0.8)
        rng = np.random.default_rng(6)
        r = rng.standard_normal(3)
        prior = rng.standard_normal(3)
        step = 1e-2
        m_grid = grid_min_Fdisc(ch, r, prior, grid_step=step)
        moved, _ = serial_update(ch, r, prior,
                                 np.clip(m_grid, -0.999, 0.999))
        assert np.max(np.abs(moved - m_grid)) < step

    def test_serial_update_fixed_point_near_grid_min(self):
        ch = make_equicorrelated(2, 0.7, sigma2=0.6)
        rng = np.random.default_rng(5)
        r = rng.standard_normal(2)
        prior = rng.standard_normal(2)
        step = 1e-3
        m_grid = grid_min_Fdisc(ch, r, prior, grid_step=step)
        belief = serial_update(ch, r, prior,
                               np.clip(m_grid, -0.999, 0.999))[0]
        for _ in range(200):
            new, _ = serial_update(ch, r, prior, belief)
            if np.max(np.abs(new - belief)) < 1e-12:
                belief = new
                break
            belief = new
        assert np.max(np.abs(belief - m_grid)) <= step
        assert np.max(np.abs(stationarity_residual(ch, r, prior,
                                                   belief))) < 1e-8
