import numpy as np
import pytest

from turbomud.channel import SymbolBlock, make_equicorrelated, transmit
from turbomud.coding import IdentityDecoder
from turbomud.siso_gaussian import run_schedule_gauss
from turbomud.varem import (EmState, PosteriorSummary, em_objective,
                            em_objective_grad_a, initial_sigma2, mstep_disc,
                            mstep_gauss, run_varem)


def make_setup(K=2, T=50, sigma2=0.1, rho=0.5, seed=0):
    ch = make_equicorrelated(K, rho, sigma2=sigma2)
    rng = np.random.default_rng(seed)
    b = np.where(rng.standard_normal((T, K)) > 0, 1.0, -1.0)
    obs = transmit(ch, SymbolBlock(b=b), rng_seed=seed + 1)
    return ch, obs, b


def flat_state(ch, T, sigma2=1.0):
    return EmState(a_hat=np.ones(ch.K), sigma2_hat=sigma2,
                   a_tilde=np.ones(ch.K), varsigma2=np.inf, T=T)


class TestMstepClosedForms:
    def test_perfect_beliefs_flat_prior_residual_variance(self):
        ch, obs, b = make_setup()
        post = PosteriorSummary(means=b, variances=np.zeros_like(b))
        state = mstep_gauss(ch.S, obs, post, flat_state(ch, b.shape[0]))
        resid = obs.r - (b * state.a_hat) @ ch.S.T
        expected = np.sum(resid**2) / (ch.N * b.shape[0])
        assert abs(state.sigma2_hat - expected) < 1e-12

    def test_tiny_varsigma_pins_amplitudes(self):
        ch, obs, b = make_setup()
        post = PosteriorSummary.from_means(0.7 * b)
        a_tilde = np.array([1.3, 0.8])
        state0 = EmState(a_hat=np.ones(2), sigma2_hat=0.1, a_tilde=a_tilde,
                         varsigma2=1e-14, T=b.shape[0])
        for mstep in (mstep_gauss, mstep_disc):
            out = mstep(ch.S, obs, post, state0)
            np.testing.assert_allclose(out.a_hat, a_tilde, atol=1e-9)

    def test_zero_varsigma_pins_exactly(self):
        ch, obs, b = make_setup()
        post = PosteriorSummary.from_means(0.7 * b)
        a_tilde = np.array([1.3, 0.8])
        state0 = EmState(a_hat=np.ones(2), sigma2_hat=0.1, a_tilde=a_tilde,
                         varsigma2=0.0, T=b.shape[0])
        out = mstep_gauss(ch.S, obs, post, state0)
        np.testing.assert_array_equal(out.a_hat, a_tilde)

    def test_hardened_beliefs_recover_residual_estimator(self):
        # as means -> +/-1 the variance correction term vanishes
        ch, obs, b = make_setup()
        post = PosteriorSummary.from_means(b * (1.0 - 1e-12))
        state = mstep_disc(ch.S, obs, post, flat_state(ch, b.shape[0]),
                           update_amplitudes=False)
        resid = obs.r - b @ ch.S.T
        expected = np.sum(resid**2) / (ch.N * b.shape[0])
        assert abs(state.sigma2_hat - expected) < 1e-9

    def test_gauss_disc_agree_on_binary_variances(self):
        ch, obs, b = make_setup()
        rng = np.random.default_rng(5)
        means = np.tanh(rng.standard_normal(b.shape))
        post = PosteriorSummary.from_means(means)
        st = flat_state(ch, b.shape[0], sigma2=0.2)
        g = mstep_gauss(ch.S, obs, post, st)
        d = mstep_disc(ch.S, obs, post, st)
        np.testing.assert_allclose(g.a_hat, d.a_hat, rtol=1e-12)
        np.testing.assert_allclose(g.sigma2_hat, d.sigma2_hat, rtol=1e-12)

    def test_monte_carlo_estimator_consistency(self):
        # true a = [1, 1], sigma2 = 0.1: with perfect beliefs the
        # estimates should track the truth over seeded trials
        errs_a, errs_s2 = [], []
        for seed in range(10):
            ch, obs, b = make_setup(K=2, T=50, sigma2=0.1, seed=seed)
            post = PosteriorSummary(means=b, variances=np.zeros_like(b))
            st = mstep_gauss(ch.S, obs, post, flat_state(ch, 50))
            errs_a.append(np.max(np.abs(st.a_hat - 1.0)))
            errs_s2.append(st.sigma2_hat)
        # std err of a_hat ~ sigma/sqrt(T) ~ 0.045; allow 3 sigma
        assert np.median(errs_a) < 3 * np.sqrt(0.1 / 50)
        assert abs(np.median(errs_s2) - 0.1) < 0.3 * 0.1


class TestStationarityAndDescent:
    def test_amplitude_gradient_zero_at_update(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            ch, obs, b = make_setup(K=3, T=10, sigma2=0.3, rho=0.4,
                                    seed=seed)
            means = np.tanh(rng.standard_normal(b.shape))
            post = PosteriorSummary.from_means(means)
            state0 = EmState(a_hat=np.ones(3), sigma2_hat=0.25,
                             a_tilde=rng.uniform(0.8, 1.2, 3),
                             varsigma2=0.09, T=10)
            new = mstep_gauss(ch.S, obs, post, state0)
            g = em_objective_grad_a(ch.S, obs, post, state0.sigma2_hat,
                                    new.a_hat, state0.a_tilde, 0.09)
            assert np.linalg.norm(g) < 1e-8

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        ch, obs, b = make_setup(K=3, T=10, sigma2=0.3, rho=0.4, seed=3)
        post = PosteriorSummary.from_means(np.tanh(rng.standard_normal(
            b.shape)))
        a = rng.uniform(0.7, 1.3, 3)
        args = (ch.S, obs, post, 0.2, a, np.ones(3), 0.25)
        g = em_objective_grad_a(*args)
        h = 1e-6
        for k in range(3):
            ap, am = a.copy(), a.copy()
            ap[k] += h
            am[k] -= h
            fd = (em_objective(ch.S, obs, post, 0.2, ap, np.ones(3), 0.25)
                  - em_objective(ch.S, obs, post, 0.2, am, np.ones(3), 0.25)
                  ) / (2 * h)
            assert abs(fd - g[k]) <= 1e-4 * max(1.0, abs(g[k]))

    def test_sigma2_stationary_point(self):
        # dF/d(1/sigma2) = 0 at the update: check by finite differences
        # of F in sigma2 around the returned value
        rng = np.random.default_rng(9)
        ch, obs, b = make_setup(K=3, T=10, sigma2=0.3, seed=4)
        post = PosteriorSummary.from_means(np.tanh(rng.standard_normal(
            b.shape)))
        st = mstep_gauss(ch.S, obs, post, flat_state(ch, 10, sigma2=0.2))
        s2 = st.sigma2_hat

        def f(sig2):
            return em_objective(ch.S, obs, post, sig2, st.a_hat,
                                st.a_tilde, st.varsigma2)

        h = s2 * 1e-5
        deriv = (f(s2 + h) - f(s2 - h)) / (2 * h)
        scale = abs(f(s2)) / s2
        assert abs(deriv) <= 1e-4 * scale

    def test_mstep_pair_never_increases_objective(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            ch, obs, b = make_setup(K=3, T=12, sigma2=0.4, seed=seed)
            post = PosteriorSummary.from_means(
                np.tanh(rng.standard_normal(b.shape)))
            state0 = EmState(a_hat=rng.uniform(0.6, 1.4, 3),
                             sigma2_hat=float(rng.uniform(0.05, 1.0)),
                             a_tilde=np.ones(3), varsigma2=0.09, T=12)
            for mstep in (mstep_gauss, mstep_disc):
                new = mstep(ch.S, obs, post, state0)
                f0 = em_objective(ch.S, obs, post, state0.sigma2_hat,
                                  state0.a_hat, state0.a_tilde, 0.09)
                f1 = em_objective(ch.S, obs, post, new.sigma2_hat,
                                  new.a_hat, state0.a_tilde, 0.09)
                assert f1 <= f0 + 1e-10 * max(1.0, abs(f0))


class TestRunVarem:
    def test_pinned_parameters_reduce_to_plain_turbo(self):
        ch, obs, b = make_setup(K=2, T=30, sigma2=0.2, seed=11)
        state0 = EmState(a_hat=np.ones(2), sigma2_hat=0.2,
                         a_tilde=np.ones(2), varsigma2=0.0, T=30)
        frames, traj = run_varem(ch, obs, "gaussian", "flooding", 3,
                                 IdentityDecoder(), state0,
                                 update_amplitudes=False,
                                 update_sigma2=False)
        from turbomud.siso_gaussian import run_schedule_gauss
        plain = run_schedule_gauss(ch, obs, IdentityDecoder(), "flooding", 3)
        for fa, fb in zip(frames, plain):
            np.testing.assert_array_equal(fa.llr_mud, fb.llr_mud)
        assert all(st.sigma2_hat == 0.2 for st in traj)

    def test_sigma2_estimation_converges_near_truth(self):
        sigma2 = 0.15
        ch, obs, b = make_setup(K=2, T=400, sigma2=sigma2, rho=0.4, seed=12)
        state0 = EmState(a_hat=np.ones(2),
                         sigma2_hat=initial_sigma2(obs, np.ones(2), ch.N),
                         a_tilde=np.ones(2), varsigma2=0.0, T=400)
        frames, traj = run_varem(ch, obs, "gaussian", "flooding", 6,
                                 IdentityDecoder(), state0,
                                 update_amplitudes=False, update_sigma2=True)
        assert abs(traj[-1].sigma2_hat - sigma2) < 0.5 * sigma2

    def test_amplitude_refinement_improves_prior(self):
        # noisy prior amplitudes, estimation on: the final estimate
        # should be closer to the truth than the prior was
        ch, obs, b = make_setup(K=2, T=400, sigma2=0.05, rho=0.5, seed=13)
        rng = np.random.default_rng(14)
        a_tilde = 1.0 + 0.3 * rng.standard_normal(2)
        state0 = EmState(a_hat=a_tilde.copy(), sigma2_hat=ch.sigma2,
                         a_tilde=a_tilde, varsigma2=0.09, T=400)
        frames, traj = run_varem(ch, obs, "gaussian", "flooding", 8,
                                 IdentityDecoder(), state0,
                                 update_amplitudes=True, update_sigma2=False)
        err0 = np.linalg.norm(a_tilde - 1.0)
        err1 = np.linalg.norm(traj[-1].a_hat - 1.0)
        assert err1 < err0

    def test_per_user_mstep_cadence(self):
        ch, obs, b = make_setup(K=2, T=200, sigma2=0.1, rho=0.5, seed=16)
        state0 = EmState(a_hat=np.ones(2),
                         sigma2_hat=initial_sigma2(obs, np.ones(2), ch.N),
                         a_tilde=np.ones(2), varsigma2=0.0, T=200)
        frames, traj = run_varem(ch, obs, "gaussian", "sequential", 3,
                                 IdentityDecoder(), state0,
                                 update_amplitudes=False, update_sigma2=True,
                                 mstep_per_user=True)
        assert len(frames) == 3
        assert abs(traj[-1].sigma2_hat - 0.1) < 0.5 * 0.1
        # with nothing to update and the true parameters, the per-user
        # M step is a no-op and the plain sequential schedule results
        true_state = EmState(a_hat=ch.a, sigma2_hat=ch.sigma2,
                             a_tilde=ch.a, varsigma2=0.0, T=200)
        frames, _ = run_varem(ch, obs, "gaussian", "sequential", 3,
                              IdentityDecoder(), true_state,
                              update_amplitudes=False, update_sigma2=False,
                              mstep_per_user=True)
        plain = run_schedule_gauss(ch, obs, IdentityDecoder(), "sequential",
                                   3)
        for got, want in zip(frames, plain, strict=True):
            np.testing.assert_array_equal(got.llr_mud, want.llr_mud)
            np.testing.assert_array_equal(got.llr_dec, want.llr_dec)
        with pytest.raises(ValueError):
            run_varem(ch, obs, "gaussian", "flooding", 1, IdentityDecoder(),
                      state0, mstep_per_user=True)

    def test_discrete_family_runs(self):
        ch, obs, b = make_setup(K=3, T=20, sigma2=0.2, rho=0.3, seed=15)
        state0 = EmState(a_hat=np.ones(3), sigma2_hat=0.5,
                         a_tilde=np.ones(3), varsigma2=0.0, T=20)
        frames, traj = run_varem(ch, obs, "discrete", "flooding", 3,
                                 IdentityDecoder(), state0,
                                 update_amplitudes=False, update_sigma2=True,
                                 I=3, ddf_seed=True)
        assert len(frames) == 3 and len(traj) == 4
        assert traj[-1].sigma2_hat > 0
