import numpy as np
import pytest

from turbomud.channel import (SymbolBlock, make_equicorrelated,
                              make_random_spreading, transmit)
from turbomud.coding import IdentityDecoder
from turbomud.detect_linear import GaussianBelief, mmse
from turbomud.errors import DegeneratePrior
from turbomud.siso_gaussian import (GaussianPrior, ext_flooding, ext_hybrid,
                                    flooding_ext_block, free_energy_gauss,
                                    free_energy_gauss_gradient_mu,
                                    loo_ext_block, run_schedule_gauss,
                                    solve_gauss, wang_poor_oracle)


def random_channel(rng, K, equicorrelated=True):
    sigma2 = float(rng.uniform(0.1, 1.0))
    amps = rng.uniform(0.5, 2.0, size=K)
    if equicorrelated:
        rho = float(rng.uniform(0.0, 0.8))
        return make_equicorrelated(K, rho, amplitudes=amps, sigma2=sigma2)
    N = K + int(rng.integers(0, 5))
    seed = int(rng.integers(0, 2**31))
    return make_random_spreading(N, K, seed=seed, amplitudes=amps,
                                 sigma2=sigma2)


def random_prior(rng, K):
    return GaussianPrior(btilde=rng.uniform(-0.95, 0.95, size=K))


class TestFreeEnergyGauss:
    def test_minimizer_beats_perturbations(self):
        rng = np.random.default_rng(0)
        ch = random_channel(rng, 4)
        r = rng.standard_normal(ch.N)
        prior = random_prior(rng, 4)
        q = solve_gauss(ch, r, prior)
        f_star = free_energy_gauss(ch, r, prior, q)
        for _ in range(100):
            dq = GaussianBelief(mu=q.mu + rng.standard_normal(4) * 0.01,
                                Sigma=q.Sigma)
            assert free_energy_gauss(ch, r, prior, dq) > f_star

    def test_scalar_reduction_oracle(self):
        # K = 1, unit code/amplitude, flat soft bit: compare against a
        # directly coded scalar KL to the complete likelihood
        sigma2 = 0.7
        ch = make_equicorrelated(1, 0.0, sigma2=sigma2)
        r = np.array([0.4])
        prior = GaussianPrior(btilde=np.zeros(1))
        mu, s = 0.3, 0.2
        q = GaussianBelief(mu=np.array([mu]), Sigma=np.array([[s]]))
        w = 1.0
        scalar = (
            -0.5 * np.log(s) - 0.5
            + 0.5 * np.log(w) + (mu**2 + s) / (2.0 * w)
            + 0.5 * np.log(2.0 * np.pi * sigma2)
            + ((r[0] - mu) ** 2 + s) / (2.0 * sigma2)
        )
        got = free_energy_gauss(ch, r, prior, q)
        assert abs(got - scalar) < 1e-12

    def test_noise_scaling_delta(self):
        # doubling sigma2 shifts F by the explicit sigma2-dependent terms
        rng = np.random.default_rng(1)
        ch = random_channel(rng, 3)
        r = rng.standard_normal(ch.N)
        prior = random_prior(rng, 3)
        q = solve_gauss(ch, r, prior)
        ch2 = ch.with_params(sigma2=2.0 * ch.sigma2)
        G = (ch.a[:, None] * ch.R) * ch.a[None, :]
        resid = r - ch.S @ (ch.a * q.mu)
        quad = resid @ resid + np.sum(G * q.Sigma.T)
        expected_delta = (0.5 * ch.N * np.log(2.0)
                          + quad * (0.25 - 0.5) / ch.sigma2)
        f1 = free_energy_gauss(ch, r, prior, q)
        f2 = free_energy_gauss(ch2, r, prior, q)
        assert abs((f2 - f1) - expected_delta) < 1e-12


class TestSolveGauss:
    def test_flat_prior_reduces_to_mmse(self):
        rng = np.random.default_rng(2)
        ch = random_channel(rng, 4)
        r = rng.standard_normal(ch.N)
        out = solve_gauss(ch, r, GaussianPrior(btilde=np.zeros(4)))
        np.testing.assert_allclose(out.mu, mmse(ch, r).mu, atol=1e-12)

    def test_saturated_prior_dominates(self):
        rng = np.random.default_rng(3)
        ch = random_channel(rng, 3)
        r = rng.standard_normal(ch.N)
        prior = GaussianPrior(btilde=np.array([1.0, -1.0, 1.0]))  # floored
        out = solve_gauss(ch, r, prior)
        np.testing.assert_allclose(out.mu, prior.btilde, atol=1e-3)

    def test_matches_direct_formula(self):
        ch = make_equicorrelated(2, 0.7, sigma2=0.5)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(2)
        prior = GaussianPrior(btilde=np.array([0.5, -0.5]))
        G = ch.A @ ch.R @ ch.A
        Winv = np.linalg.inv(prior.W)
        mu_ref = prior.btilde + np.linalg.solve(
            G + ch.sigma2 * Winv,
            ch.A @ ch.S.T @ (r - ch.S @ ch.A @ prior.btilde))
        Sigma_ref = np.linalg.inv(G / ch.sigma2 + Winv)
        out = solve_gauss(ch, r, prior)
        np.testing.assert_allclose(out.mu, mu_ref, atol=1e-12)
        np.testing.assert_allclose(out.Sigma, Sigma_ref, atol=1e-12)

    def test_gradient_at_minimizer(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ch = random_channel(rng, 4, equicorrelated=False)
            r = rng.standard_normal(ch.N)
            prior = random_prior(rng, 4)
            out = solve_gauss(ch, r, prior)
            g = free_energy_gauss_gradient_mu(ch, r, prior, out.mu)
            assert np.linalg.norm(g) < 1e-8


class TestHybridAgainstTwoStage:
    def test_single_user_matched_filter_llr(self):
        ch = make_equicorrelated(1, 0.0, amplitudes=[1.3], sigma2=0.4)
        y = np.array([0.7])
        prior = GaussianPrior(btilde=np.array([0.6]))
        for fn in (lambda: ext_hybrid(ch, prior, y=y),
                   lambda: wang_poor_oracle(ch, y, prior)):
            res = fn()
            assert abs(res.llr_mud[0] - 2.0 * 1.3 * y[0] / 0.4) < 1e-10

    def test_zero_prior_agreement(self):
        rng = np.random.default_rng(6)
        ch = random_channel(rng, 4)
        y = rng.standard_normal(4)
        prior = GaussianPrior(btilde=np.zeros(4))
        a = ext_hybrid(ch, prior, y=y)
        b = wang_poor_oracle(ch, y, prior)
        np.testing.assert_allclose(a.llr_mud, b.llr_mud, rtol=1e-10)

    def test_random_instance_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            K = int(rng.choice([2, 4, 8]))
            ch = random_channel(rng, K, equicorrelated=bool(rng.integers(2)))
            y = rng.standard_normal(K)
            prior = random_prior(rng, K)
            a = ext_hybrid(ch, prior, y=y)
            b = wang_poor_oracle(ch, y, prior)
            scale = np.maximum(np.abs(b.llr_mud), 1.0)
            assert np.max(np.abs(a.llr_mud - b.llr_mud) / scale) < 1e-10
            # the soft-IC filter output equals the VFEM mean component
            assert np.max(np.abs(a.mu - b.mu)) < 1e-12 * max(
                1.0, np.max(np.abs(b.mu)))

    def test_r_and_y_paths_agree(self):
        rng = np.random.default_rng(8)
        ch = random_channel(rng, 3, equicorrelated=False)
        r = rng.standard_normal(ch.N)
        prior = random_prior(rng, 3)
        a = ext_hybrid(ch, prior, r=r)
        b = ext_hybrid(ch, prior, y=ch.S.T @ r)
        np.testing.assert_allclose(a.llr_mud, b.llr_mud, rtol=1e-12)


class TestFlooding:
    def test_zero_prior_equals_hybrid(self):
        rng = np.random.default_rng(9)
        ch = random_channel(rng, 4)
        y = rng.standard_normal(4)
        prior = GaussianPrior(btilde=np.zeros(4))
        np.testing.assert_allclose(ext_flooding(ch, y, prior).llr_mud,
                                   ext_hybrid(ch, prior, y=y).llr_mud,
                                   rtol=1e-10)
        # with informative priors too: the own prior moves only C_kk,
        # which leaves 2 mu / (1 - alpha) unchanged (Sherman-Morrison)
        for _ in range(100):
            K = int(rng.choice([2, 4, 8]))
            ch = random_channel(rng, K, equicorrelated=bool(rng.integers(2)))
            y = rng.standard_normal(K)
            prior = random_prior(rng, K)
            hyb = ext_hybrid(ch, prior, y=y).llr_mud
            flood = ext_flooding(ch, y, prior).llr_mud
            scale = np.maximum(np.abs(hyb), 1.0)
            assert np.max(np.abs(flood - hyb) / scale) < 1e-9

    def test_single_user_prior_independent(self):
        ch = make_equicorrelated(1, 0.0, amplitudes=[1.1], sigma2=0.3)
        y = np.array([-0.4])
        vals = [ext_flooding(ch, y, GaussianPrior(btilde=np.array([b]))
                             ).llr_mud[0] for b in (-0.8, 0.0, 0.9)]
        np.testing.assert_allclose(vals, 2.0 * 1.1 * y[0] / 0.3, rtol=1e-10)

    def test_efficient_form_equals_gaussian_division(self):
        # shared-solve shortcut vs the direct posterior-over-prior division
        rng = np.random.default_rng(10)
        for _ in range(50):
            ch = random_channel(rng, 4)
            r = rng.standard_normal(ch.N)
            prior = random_prior(rng, 4)
            q = solve_gauss(ch, r, prior)
            direct = (2.0 * q.mu / np.diagonal(q.Sigma)
                      - 2.0 * prior.btilde / prior.w)
            got = ext_flooding(ch, ch.S.T @ r, prior).llr_mud
            scale = np.maximum(np.abs(direct), 1.0)
            assert np.max(np.abs(got - direct) / scale) < 1e-10

    def test_degenerate_prior_raises(self):
        ch = make_equicorrelated(2, 0.0, sigma2=1e-16)
        prior = GaussianPrior(btilde=np.zeros(2))
        with pytest.raises(DegeneratePrior):
            ext_flooding(ch, np.array([0.3, -0.1]), prior)


class TestBlockPaths:
    def test_block_matches_per_symbol_ops(self):
        rng = np.random.default_rng(11)
        ch = random_channel(rng, 4)
        T = 6
        Y = rng.standard_normal((T, 4))
        Btilde = rng.uniform(-0.9, 0.9, size=(T, 4))
        flood = flooding_ext_block(ch, Y, Btilde)
        loo = np.stack([loo_ext_block(ch, Y, Btilde, k) for k in range(4)],
                       axis=1)
        scale = np.maximum(np.abs(loo), 1.0)
        assert np.max(np.abs(flood - loo) / scale) < 1e-9
        for t in range(T):
            prior = GaussianPrior(btilde=Btilde[t])
            np.testing.assert_allclose(
                flood[t], ext_flooding(ch, Y[t], prior).llr_mud, rtol=1e-10)
            for k in range(4):
                np.testing.assert_allclose(
                    loo[t, k], ext_hybrid(ch, prior, y=Y[t]).llr_mud[k],
                    rtol=1e-10)


class TestRunSchedule:
    def make_obs(self, ch, T, seed):
        rng = np.random.default_rng(seed)
        b = np.where(rng.standard_normal((T, ch.K)) > 0, 1.0, -1.0)
        return transmit(ch, SymbolBlock(b=b), rng_seed=seed + 1)

    def test_first_iteration_exts_agree_across_schedules(self):
        ch = make_equicorrelated(4, 0.7, sigma2=0.5)
        obs = self.make_obs(ch, 5, seed=12)
        dec = IdentityDecoder()
        f = run_schedule_gauss(ch, obs, dec, "flooding", 1)[0]
        h = run_schedule_gauss(ch, obs, dec, "hybrid", 1)[0]
        s = run_schedule_gauss(ch, obs, dec, "sequential", 1)[0]
        np.testing.assert_allclose(f.llr_mud, h.llr_mud, rtol=1e-10)
        # sequential matches for user 1 only; later users already see
        # user 1's decoder feedback
        np.testing.assert_allclose(s.llr_mud[:, 0], h.llr_mud[:, 0],
                                   rtol=1e-10)
        assert not np.allclose(s.llr_mud[:, 1], h.llr_mud[:, 1])

    def test_identity_decoder_prior_handoff(self):
        # with a pass-through decoder, iteration-2 detection runs on
        # priors tanh(first-iteration EXT / 2)
        ch = make_equicorrelated(3, 0.6, sigma2=0.8)
        obs = self.make_obs(ch, 4, seed=13)
        frames = run_schedule_gauss(ch, obs, IdentityDecoder(), "hybrid", 2)
        priors = np.tanh(np.clip(frames[0].llr_dec, -30, 30) / 2.0)
        for t in range(4):
            expected = ext_hybrid(ch, GaussianPrior(btilde=priors[t]),
                                  y=obs.y[t]).llr_mud
            np.testing.assert_allclose(frames[1].llr_mud[t],
                                       np.clip(expected, -30, 30),
                                       rtol=1e-10)

    def test_scenario_shapes(self):
        ch = make_equicorrelated(4, 0.7, sigma2=0.5)
        obs = self.make_obs(ch, 8, seed=14)
        frames = run_schedule_gauss(ch, obs, IdentityDecoder(), "flooding", 5)
        assert len(frames) == 5
        assert frames[0].llr_mud.shape == (8, 4)
        np.testing.assert_allclose(frames[0].llr_post,
                                   frames[0].llr_mud + frames[0].llr_dec)
