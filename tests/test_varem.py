from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from turbomud.channel import (ChannelInstance, Observation, SymbolBlock,
                              make_equicorrelated, make_random_spreading,
                              receive, transmit)
from turbomud import coding, siso_gaussian, varem
from turbomud.coding import ConvCode, ConvTurboDecoder, IdentityDecoder
from turbomud.siso_ddf import DdfPrecompute, ddf_pass_block
from turbomud.siso_discrete import DiscreteTurboLoop, tanh_sic_block
from turbomud.siso_gaussian import SCHEDULES, GaussianTurboLoop
from turbomud.varem import (DETECTORS, EmState, em_objective,
                            em_objective_grad_a, initial_sigma2,
                            mstep_disc, mstep_gauss, run_varem)


def make_setup(K=2, T=50, sigma2=0.1, rho=0.5, seed=0):
    ch = make_equicorrelated(K, rho, sigma2=sigma2)
    rng = np.random.default_rng(seed)
    b = np.where(rng.standard_normal((T, K)) > 0, 1.0, -1.0)
    obs = transmit(ch, SymbolBlock(b=b), rng_seed=seed + 1)
    return ch, obs, b


def plain_schedule(ch, obs, detector, schedule, J, decoder, I=6):
    """Reference turbo run: the detector's loop iterated on the true channel."""
    if detector == "gaussian":
        loop = GaussianTurboLoop(obs, decoder, schedule)
    else:
        seed = None if detector != "ddf_aided" else partial(
            ddf_pass_block, ch, obs.y,
            pre=DdfPrecompute.from_channel(ch, "amplitude_descending"))
        loop = DiscreteTurboLoop(obs, decoder, schedule, I=I, seed=seed)
    return [loop.iterate(ch) for _ in range(J)]


def flat_state(ch, sigma2=1.0):
    return EmState(a_hat=np.ones(ch.K), sigma2_hat=sigma2,
                   a_tilde=np.ones(ch.K), varsigma2=np.inf,
                   estimate_sigma2=True)


class TestMstepClosedForms:
    def test_perfect_beliefs_flat_prior_residual_variance(self):
        ch, obs, b = make_setup()
        state = mstep_gauss(ch, obs, b, flat_state(ch))
        resid = obs.r - (b * state.a_hat) @ ch.S.T
        expected = np.sum(resid**2) / (ch.N * b.shape[0])
        assert abs(state.sigma2_hat - expected) < 1e-12

    def test_tiny_varsigma_pins_amplitudes(self):
        ch, obs, b = make_setup()
        means = 0.7 * b
        a_tilde = np.array([1.3, 0.8])
        state0 = EmState(a_hat=np.ones(2), sigma2_hat=0.1, a_tilde=a_tilde,
                         varsigma2=1e-14, estimate_sigma2=True)
        for mstep in (mstep_gauss, mstep_disc):
            out = mstep(ch, obs, means, state0)
            np.testing.assert_allclose(out.a_hat, a_tilde, atol=1e-9)

    def test_zero_varsigma_pins_exactly(self):
        ch, obs, b = make_setup()
        means = 0.7 * b
        a_tilde = np.array([1.3, 0.8])
        state0 = EmState(a_hat=np.ones(2), sigma2_hat=0.1, a_tilde=a_tilde,
                         varsigma2=0.0, estimate_sigma2=True)
        out = mstep_gauss(ch, obs, means, state0)
        np.testing.assert_array_equal(out.a_hat, a_tilde)

    def test_hardened_beliefs_recover_residual_estimator(self):
        # as means -> +/-1 the variance correction term vanishes
        ch, obs, b = make_setup()
        means = b * (1.0 - 1e-12)
        state = mstep_disc(ch, obs, means,
                           replace(flat_state(ch), varsigma2=0.0))
        resid = obs.r - b @ ch.S.T
        expected = np.sum(resid**2) / (ch.N * b.shape[0])
        assert abs(state.sigma2_hat - expected) < 1e-9

    def test_gauss_disc_agree_on_binary_variances(self):
        ch, obs, b = make_setup()
        rng = np.random.default_rng(5)
        means = np.tanh(rng.standard_normal(b.shape))
        st = flat_state(ch, sigma2=0.2)
        g = mstep_gauss(ch, obs, means, st)
        d = mstep_disc(ch, obs, means, st)
        np.testing.assert_allclose(g.a_hat, d.a_hat, rtol=1e-12)
        np.testing.assert_allclose(g.sigma2_hat, d.sigma2_hat, rtol=1e-12)

    @pytest.mark.parametrize("varsigma2", [0.0, 0.09, np.inf])
    @pytest.mark.parametrize("geometry", ["equicorrelated", "random"])
    def test_only_the_channel_geometry_is_read(self, geometry, varsigma2):
        # the estimates come from state and the arguments, never from
        # ch.a or ch.sigma2: a copy with other parameters gives the
        # same bits
        ch = make_equicorrelated(3, 0.4, sigma2=0.3) \
            if geometry == "equicorrelated" \
            else make_random_spreading(8, 3, seed=2, sigma2=0.3)
        rng = np.random.default_rng(6)
        b = np.where(rng.standard_normal((20, 3)) > 0, 1.0, -1.0)
        obs = transmit(ch, SymbolBlock(b=b), rng_seed=7)
        other = ch.with_params(a=np.array([0.2, 3.0, 1.7]), sigma2=5.0)
        means = np.tanh(rng.standard_normal(b.shape))
        state = EmState(a_hat=np.array([0.9, 1.1, 1.0]), sigma2_hat=0.25,
                        a_tilde=np.array([1.2, 0.8, 1.0]),
                        varsigma2=varsigma2, estimate_sigma2=True)
        for mstep in (mstep_gauss, mstep_disc):
            x, y = mstep(ch, obs, means, state), mstep(other, obs, means,
                                                       state)
            assert np.array_equal(x.a_hat, y.a_hat)
            assert x.sigma2_hat == y.sigma2_hat
        args = (obs, means, 0.2, state.a_hat, state.a_tilde, varsigma2)
        assert em_objective(ch, *args) == em_objective(other, *args)

    def test_monte_carlo_estimator_consistency(self):
        # true a = [1, 1], sigma2 = 0.1: with perfect beliefs the
        # estimates should track the truth over seeded trials
        errs_a, errs_s2 = [], []
        for seed in range(10):
            ch, obs, b = make_setup(K=2, T=50, sigma2=0.1, seed=seed)
            st = mstep_gauss(ch, obs, b, flat_state(ch))
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
            state0 = EmState(a_hat=np.ones(3), sigma2_hat=0.25,
                             a_tilde=rng.uniform(0.8, 1.2, 3),
                             varsigma2=0.09, estimate_sigma2=True)
            new = mstep_gauss(ch, obs, means, state0)
            g = em_objective_grad_a(ch, obs, means, state0.sigma2_hat,
                                    new.a_hat, state0.a_tilde, 0.09)
            assert np.linalg.norm(g) < 1e-8

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        ch, obs, b = make_setup(K=3, T=10, sigma2=0.3, rho=0.4, seed=3)
        means = np.tanh(rng.standard_normal(b.shape))
        a = rng.uniform(0.7, 1.3, 3)
        args = (ch, obs, means, 0.2, a, np.ones(3), 0.25)
        g = em_objective_grad_a(*args)
        h = 1e-6
        for k in range(3):
            ap, am = a.copy(), a.copy()
            ap[k] += h
            am[k] -= h
            fd = (em_objective(ch, obs, means, 0.2, ap, np.ones(3), 0.25)
                  - em_objective(ch, obs, means, 0.2, am, np.ones(3), 0.25)
                  ) / (2 * h)
            assert abs(fd - g[k]) <= 1e-4 * max(1.0, abs(g[k]))

    def test_sigma2_stationary_point(self):
        # dF/d(1/sigma2) = 0 at the update: check by finite differences
        # of F in sigma2 around the returned value
        rng = np.random.default_rng(9)
        ch, obs, b = make_setup(K=3, T=10, sigma2=0.3, seed=4)
        means = np.tanh(rng.standard_normal(b.shape))
        st = mstep_gauss(ch, obs, means, flat_state(ch, sigma2=0.2))
        s2 = st.sigma2_hat

        def f(sig2):
            return em_objective(ch, obs, means, sig2, st.a_hat,
                                st.a_tilde, st.varsigma2)

        h = s2 * 1e-5
        deriv = (f(s2 + h) - f(s2 - h)) / (2 * h)
        scale = abs(f(s2)) / s2
        assert abs(deriv) <= 1e-4 * scale

    def test_mstep_pair_never_increases_objective(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            ch, obs, b = make_setup(K=3, T=12, sigma2=0.4, seed=seed)
            means = np.tanh(rng.standard_normal(b.shape))
            state0 = EmState(a_hat=rng.uniform(0.6, 1.4, 3),
                             sigma2_hat=float(rng.uniform(0.05, 1.0)),
                             a_tilde=np.ones(3), varsigma2=0.09,
                             estimate_sigma2=True)
            for mstep in (mstep_gauss, mstep_disc):
                new = mstep(ch, obs, means, state0)
                f0 = em_objective(ch, obs, means, state0.sigma2_hat,
                                  state0.a_hat, state0.a_tilde, 0.09)
                f1 = em_objective(ch, obs, means, new.sigma2_hat,
                                  new.a_hat, state0.a_tilde, 0.09)
                assert f1 <= f0 + 1e-10 * max(1.0, abs(f0))


class TestRunVarem:
    def test_pinned_parameters_reduce_to_plain_turbo(self):
        ch, obs, b = make_setup(K=2, T=30, sigma2=0.2, seed=11)
        state0 = EmState(a_hat=np.ones(2), sigma2_hat=0.2,
                         a_tilde=np.ones(2), varsigma2=0.0,
                         estimate_sigma2=False)
        frames, traj = run_varem(ch, obs, "gaussian", "flooding", 3,
                                 IdentityDecoder(), state0)
        plain = plain_schedule(ch, obs, "gaussian", "flooding", 3,
                               IdentityDecoder())
        for fa, fb in zip(frames, plain):
            np.testing.assert_array_equal(fa.llr_mud, fb.llr_mud)
        assert all(st.sigma2_hat == 0.2 for st in traj)

    @pytest.mark.parametrize("schedule", ["flooding", "sequential", "hybrid"])
    def test_true_state_without_updates_is_the_plain_schedule(self, schedule):
        # the default state is the true one; user 3 sits below
        # AMPLITUDE_FLOOR, which applies only to estimated amplitudes
        K, n_info = 3, 20
        dec = ConvTurboDecoder(ConvCode(generators=("111", "101")), K,
                               n_info, master_seed=3)
        ch = make_equicorrelated(K, 0.6, amplitudes=[1.0, 0.7, 1e-7],
                                 sigma2=0.3)
        info = np.random.default_rng(4).integers(0, 2, size=(n_info, K))
        blk = SymbolBlock(b=dec.encode_block(info))
        obs = transmit(ch, blk, rng_seed=5)
        for detector in ("gaussian", "discrete", "ddf_aided"):
            want = plain_schedule(ch, obs, detector, schedule, 3, dec, I=2)
            frames, traj = run_varem(ch, obs, detector, schedule, 3, dec,
                                     I=2)
            for got, ref in zip(frames, want, strict=True):
                np.testing.assert_array_equal(got.llr_mud, ref.llr_mud)
                np.testing.assert_array_equal(got.llr_dec, ref.llr_dec)
            np.testing.assert_array_equal(traj[0].a_hat, ch.a)
            assert traj[0].sigma2_hat == ch.sigma2
            assert traj[0].varsigma2 == 0.0
            assert all(st is traj[0] for st in traj)

    def test_unknown_detector_raises(self):
        ch, obs, b = make_setup(K=2, T=5)
        for detector in ("ddf", "mean_field", "Gaussian"):
            with pytest.raises(ValueError, match="unknown detector"):
                run_varem(ch, obs, detector, "flooding", 1, IdentityDecoder())

    def test_sigma2_estimation_converges_near_truth(self):
        sigma2 = 0.15
        ch, obs, b = make_setup(K=2, T=400, sigma2=sigma2, rho=0.4, seed=12)
        state0 = EmState(a_hat=np.ones(2),
                         sigma2_hat=initial_sigma2(ch, obs, np.ones(2)),
                         a_tilde=np.ones(2), varsigma2=0.0,
                         estimate_sigma2=True)
        frames, traj = run_varem(ch, obs, "gaussian", "flooding", 6,
                                 IdentityDecoder(), state0)
        assert abs(traj[-1].sigma2_hat - sigma2) < 0.5 * sigma2
        # varsigma2 = 0 leaves the amplitudes at a_tilde
        assert all(np.array_equal(st.a_hat, np.ones(2)) for st in traj)

    def test_zero_varsigma_m_step_pins_a_hat_to_a_tilde(self):
        # sigma2-only EM from an a_hat off a_tilde: the first M step
        # already holds a_tilde, as EmState's varsigma2 = 0 documents
        ch, obs, b = make_setup(K=2, T=40, sigma2=0.1, seed=17)
        a_tilde = np.array([1.2, 0.9])
        state0 = EmState(a_hat=np.array([0.7, 1.4]), sigma2_hat=0.3,
                         a_tilde=a_tilde, varsigma2=0.0,
                         estimate_sigma2=True)
        for detector in DETECTORS:
            _, traj = run_varem(ch, obs, detector, "flooding", 2,
                                IdentityDecoder(), state0, I=2)
            np.testing.assert_array_equal(traj[0].a_hat, [0.7, 1.4])
            for st in traj[1:]:
                np.testing.assert_array_equal(st.a_hat, a_tilde)

    def test_amplitude_floor_applies_to_estimates_only(self):
        ch = make_equicorrelated(4, 0.3, sigma2=0.2)
        a_hat = np.array([1.0, -0.05, 1e-9, 2.0])
        est = varem._estimated_channel(
            ch, EmState(a_hat=a_hat, sigma2_hat=0.2, a_tilde=np.ones(4),
                        varsigma2=0.09, estimate_sigma2=False))
        np.testing.assert_array_equal(est.a, [1.0, 1e-6, 1e-6, 2.0])
        # pinned amplitudes (varsigma2 = 0) pass through unfloored
        pinned = np.array([1.0, 1e-9, 2.0, 3e-7])
        est = varem._estimated_channel(
            ch, EmState(a_hat=pinned, sigma2_hat=0.2, a_tilde=pinned,
                        varsigma2=0.0, estimate_sigma2=False))
        np.testing.assert_array_equal(est.a, pinned)

    def test_amplitude_refinement_improves_prior(self):
        # noisy prior amplitudes, estimation on: the final estimate
        # should be closer to the truth than the prior was
        ch, obs, b = make_setup(K=2, T=400, sigma2=0.05, rho=0.5, seed=13)
        rng = np.random.default_rng(14)
        a_tilde = 1.0 + 0.3 * rng.standard_normal(2)
        state0 = EmState(a_hat=a_tilde.copy(), sigma2_hat=ch.sigma2,
                         a_tilde=a_tilde, varsigma2=0.09,
                         estimate_sigma2=False)
        frames, traj = run_varem(ch, obs, "gaussian", "flooding", 8,
                                 IdentityDecoder(), state0)
        err0 = np.linalg.norm(a_tilde - 1.0)
        err1 = np.linalg.norm(traj[-1].a_hat - 1.0)
        assert err1 < err0

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("detector", DETECTORS)
    def test_one_m_step_per_outer_iteration(self, monkeypatch, detector,
                                            schedule):
        # sigma2 and amplitude EM: iteration j detects on the channel of
        # trajectory[j] alone, Gaussian kernel calls included, and one M
        # step follows each iteration; user 3's prior and estimates sit
        # near 0, below AMPLITUDE_FLOOR, so the floor is exercised
        K, n_info, J = 3, 16, 3
        dec = ConvTurboDecoder(ConvCode(generators=("111", "101")), K,
                               n_info, master_seed=2)
        ch = make_equicorrelated(K, 0.5, amplitudes=[1.0, 0.7, 1e-7],
                                 sigma2=0.3)
        info = np.random.default_rng(3).integers(0, 2, size=(n_info, K))
        obs = transmit(ch, SymbolBlock(b=dec.encode_block(info)), rng_seed=4)
        a_tilde = np.array([1.0, 0.7, 0.0])
        state0 = EmState(a_hat=a_tilde, a_tilde=a_tilde, sigma2_hat=0.5,
                         varsigma2=0.09, estimate_sigma2=True)
        msteps, seen = [], []  # seen[j]: iterate's channel, kernel channels

        def spy(fn, record):
            def wrapped(*args, **kwargs):
                record(args)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(varem, "mstep_gauss",
                            spy(mstep_gauss, msteps.append))
        for cls in (GaussianTurboLoop, DiscreteTurboLoop):
            monkeypatch.setattr(cls, "iterate", spy(
                cls.iterate, lambda args: seen.append((args[1], []))))
        for name in ("flooding_ext_block", "loo_ext_block"):
            monkeypatch.setattr(siso_gaussian, name, spy(
                getattr(siso_gaussian, name),
                lambda args: seen[-1][1].append(args[0])))
        frames, traj = run_varem(ch, obs, detector, schedule, J, dec,
                                 state0, I=2)
        assert len(msteps) == J and len(seen) == J and len(traj) == J + 1
        assert any(min(st.a_hat) < varem.AMPLITUDE_FLOOR for st in traj[1:])
        for (ch_j, kernel_chs), state in zip(seen, traj):
            assert ch_j.sigma2 == state.sigma2_hat
            np.testing.assert_array_equal(
                ch_j.a, np.maximum(state.a_hat, varem.AMPLITUDE_FLOOR))
            assert all(c is ch_j for c in kernel_chs)
            assert bool(kernel_chs) == (detector == "gaussian")

    def test_discrete_family_runs(self, monkeypatch):
        # both families share mstep_gauss; mstep_disc is the test reference
        def unused(*args, **kwargs):
            raise AssertionError("run_varem called mstep_disc")

        monkeypatch.setattr(varem, "mstep_disc", unused)
        ch, obs, b = make_setup(K=3, T=20, sigma2=0.2, rho=0.3, seed=15)
        state0 = EmState(a_hat=np.ones(3), sigma2_hat=0.5,
                         a_tilde=np.ones(3), varsigma2=0.0,
                         estimate_sigma2=True)
        frames, traj = run_varem(ch, obs, "ddf_aided", "flooding", 3,
                                 IdentityDecoder(), state0, I=3)
        assert len(frames) == 3 and len(traj) == 4
        assert traj[-1].sigma2_hat > 0


class TestScaleRelation:
    """Metamorphic relation of a whole ``run_varem`` run: a -> c a and
    sigma2 -> c^2 sigma2, with the same bits and noise draw, scale the
    received signal by c and leave every LLR unchanged.  EM estimates
    scale with it: sigma2_hat by c^2, a_hat by c.

    Bounds: info posteriors within 1e-11 of max(1, |L|) with no decision
    flip; EM estimates within 1e-12 relative.
    """

    K, N_INFO, J = 4, 64, 4
    A_TILDE = np.array([1.1, 0.9, 1.05, 0.95])

    @pytest.fixture(scope="class")
    def setup(self):
        dec = ConvTurboDecoder(ConvCode(generators=("10011", "11101")),
                               self.K, self.N_INFO, master_seed=2)
        info = np.random.default_rng(3).integers(0, 2,
                                                 size=(self.N_INFO, self.K))
        return dec, SymbolBlock(b=dec.encode_block(info))

    def run(self, setup, snr_db, c, detector, schedule, em):
        dec, blk = setup
        ch = make_equicorrelated(self.K, 0.7, amplitudes=np.full(self.K, c),
                                 sigma2=c * c * 10.0 ** (-snr_db / 10.0))
        obs = transmit(ch, blk, rng_seed=4)
        state0 = None
        if em:
            a_tilde = c * self.A_TILDE
            state0 = EmState(a_hat=a_tilde, a_tilde=a_tilde,
                             varsigma2=c * c * 0.09,
                             sigma2_hat=initial_sigma2(ch, obs, a_tilde),
                             estimate_sigma2=True)
        frames, traj = run_varem(ch, obs, detector, schedule, self.J, dec,
                                 state0, I=3)
        return np.stack([np.stack(f.info_posterior) for f in frames]), traj

    @pytest.mark.parametrize("c, em", [
        (1e3, False), (1e3, True), (1e6, False), (1e6, True), (1e-3, False),
        pytest.param(1e-3, True, marks=pytest.mark.xfail(
            strict=True, reason="initial_sigma2 floors its start at the "
            "absolute SIGMA2_INIT_FLOOR = 1e-3, far above the true "
            "sigma2 = 5e-7 at 3 dB; hundreds of decisions flip")),
        pytest.param(1e-6, False, marks=pytest.mark.xfail(
            strict=True, reason="EmState floors sigma2 at the absolute "
            "SIGMA2_FLOOR = 1e-9, above the true sigma2 = 5e-13 at 3 dB, "
            "so detection runs at the floor and decisions flip")),
        pytest.param(1e-6, True, marks=pytest.mark.xfail(
            strict=True, reason="EmState floors every sigma2 estimate at "
            "the absolute SIGMA2_FLOOR = 1e-9 (and initial_sigma2 starts "
            "at SIGMA2_INIT_FLOOR = 1e-3), above the true sigma2 = 5e-13 "
            "at 3 dB; decisions flip"))])
    def test_llrs_invariant_and_estimates_scale(self, setup, c, em):
        for snr_db in (3.0, 8.0):
            for detector in DETECTORS:
                for schedule in SCHEDULES:
                    L, traj = self.run(setup, snr_db, 1.0, detector,
                                       schedule, em)
                    Lc, traj_c = self.run(setup, snr_db, c, detector,
                                          schedule, em)
                    assert np.array_equal(Lc < 0, L < 0)
                    assert np.max(np.abs(Lc - L)
                                  / np.maximum(1.0, np.abs(L))) < 1e-11
                    for st, st_c in zip(traj, traj_c, strict=True):
                        assert st_c.sigma2_hat / c**2 == pytest.approx(
                            st.sigma2_hat, rel=1e-12, abs=0)
                        np.testing.assert_allclose(st_c.a_hat / c, st.a_hat,
                                                   rtol=1e-12, atol=0)


class TestUserRelabelling:
    """Metamorphic relation of a Gaussian flooding or hybrid run: permuting
    the users (the columns of S, the amplitudes, the bits and a_tilde)
    under the same chip noise draw permutes every LLR and EM estimate
    the same way.  Uncoded, so no interleaver ties a user to its label;
    mean-field and sequential are left out, as their update order
    follows the labels.

    Bounds: LLRs within 1e-10 of max(1, |L|) with no decision flip (seen:
    1.6e-13); EM estimates within 1e-12 relative (seen: 3.8e-15).
    """

    J = 4

    def run(self, ch, b, noise, schedule, a_tilde):
        obs = receive(ch, SymbolBlock(b=b), noise.copy())
        state0 = None if a_tilde is None else EmState(
            a_hat=a_tilde, a_tilde=a_tilde, varsigma2=0.09,
            sigma2_hat=initial_sigma2(ch, obs, a_tilde),
            estimate_sigma2=True)
        frames, traj = run_varem(ch, obs, "gaussian", schedule, self.J,
                                 IdentityDecoder(), state0)
        return np.stack([f.llr_post for f in frames]), traj

    @pytest.mark.parametrize("K, N, T", [(4, 8, 64), (6, 8, 64),
                                         (32, 40, 32)])
    @pytest.mark.parametrize("schedule", ["flooding", "hybrid"])
    @pytest.mark.parametrize("em", [False, True])
    def test_llrs_and_estimates_permute_with_the_users(self, K, N, T,
                                                        schedule, em):
        rng = np.random.default_rng(K)
        a = rng.uniform(0.6, 1.4, K)
        ch = make_random_spreading(N, K, seed=K + 10, amplitudes=a,
                                   sigma2=0.3 if K < 32 else 0.1)
        b = np.where(rng.standard_normal((T, K)) > 0, 1.0, -1.0)
        noise = rng.standard_normal((T, N))
        a_tilde = a * (1.0 + 0.2 * rng.standard_normal(K)) if em else None
        p = rng.permutation(K)
        permuted = ChannelInstance(N=N, K=K, S=ch.S[:, p], a=a[p],
                                   sigma2=ch.sigma2)
        L, traj = self.run(ch, b, noise, schedule, a_tilde)
        Lp, traj_p = self.run(permuted, b[:, p], noise, schedule,
                              None if a_tilde is None else a_tilde[p])
        want = L[:, :, p]
        assert np.array_equal(Lp < 0, want < 0)
        assert np.max(np.abs(Lp - want) / np.maximum(1.0, np.abs(want))) \
            < 1e-10
        for st, st_p in zip(traj, traj_p, strict=True):
            np.testing.assert_allclose(st_p.a_hat, st.a_hat[p], rtol=1e-12,
                                       atol=0)
            assert st_p.sigma2_hat == pytest.approx(st.sigma2_hat,
                                                    rel=1e-12, abs=0)


class TestCodedUserRelabelling:
    """``TestUserRelabelling`` coded: permuting the users together with
    their amplitudes, spreading columns, bits and interleaver rows (and
    a_tilde under EM) permutes every frame's detector and decoder LLRs,
    info posteriors and EM estimates the same way, under one chip noise
    draw.  Gaussian flooding only: its detector and decoder treat all
    users at once, while the mean-field sweeps visit users in index
    order (and sequential decodes in it), so relabelling legitimately
    moves their results.

    Bounds: LLRs within the Gaussian tolerance, 1e-9 of max(1, |L|),
    with no decision flip (seen: 2.9e-13 at K = 32); EM estimates within
    1e-12 relative.
    """

    J = 3

    def run(self, ch, decoder, b, noise, a_tilde):
        obs = receive(ch, SymbolBlock(b=b), noise.copy())
        state0 = None if a_tilde is None else EmState(
            a_hat=a_tilde, a_tilde=a_tilde, varsigma2=0.09,
            sigma2_hat=initial_sigma2(ch, obs, a_tilde),
            estimate_sigma2=True)
        return run_varem(ch, obs, "gaussian", "flooding", self.J, decoder,
                         state0)

    @staticmethod
    def assert_permuted(got, want):
        assert np.array_equal(got < 0, want < 0)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) \
            < 1e-9

    @pytest.mark.parametrize("K, N, gens, n_info", [
        (4, 8, "10011,11101", 40), (32, 40, "111,101", 64)])
    @pytest.mark.parametrize("em", [False, True])
    def test_llrs_and_estimates_permute_with_the_users(self, K, N, gens,
                                                        n_info, em,
                                                        monkeypatch):
        rng = np.random.default_rng(K + 1)
        a = rng.uniform(0.6, 1.4, K)
        ch = make_random_spreading(N, K, seed=K + 20, amplitudes=a,
                                   sigma2=0.5 if K < 32 else 0.2)
        code = ConvCode(generators=tuple(gens.split(",")))
        decoder = ConvTurboDecoder(code, K, n_info, master_seed=2)
        p = rng.permutation(K)
        with monkeypatch.context() as patched:  # user j gets row p[j]
            patched.setattr(coding, "user_permutations",
                            lambda n, K, seed: list(decoder.perms[p]))
            decoder_p = ConvTurboDecoder(code, K, n_info, master_seed=2)
        permuted = ChannelInstance(N=N, K=K, S=ch.S[:, p], a=a[p],
                                   sigma2=ch.sigma2)
        bits = rng.integers(0, 2, size=(n_info, K))
        b = decoder.encode_block(bits)
        assert np.array_equal(decoder_p.encode_block(bits[:, p]), b[:, p])
        noise = rng.standard_normal((len(b), N))
        a_tilde = a * (1.0 + 0.2 * rng.standard_normal(K)) if em else None
        frames, traj = self.run(ch, decoder, b, noise, a_tilde)
        frames_p, traj_p = self.run(permuted, decoder_p, b[:, p], noise,
                                    None if a_tilde is None else a_tilde[p])
        for f, f_p in zip(frames, frames_p, strict=True):
            self.assert_permuted(f_p.llr_mud, f.llr_mud[:, p])
            self.assert_permuted(f_p.llr_dec, f.llr_dec[:, p])
            self.assert_permuted(np.stack(f_p.info_posterior),
                                 np.stack(f.info_posterior)[p])
        for st, st_p in zip(traj, traj_p, strict=True):
            np.testing.assert_allclose(st_p.a_hat, st.a_hat[p], rtol=1e-12,
                                       atol=0)
            assert st_p.sigma2_hat == pytest.approx(st.sigma2_hat,
                                                    rel=1e-12, abs=0)


# A frame's result does not depend on the group it runs in: the harness
# stacks consecutive frames into one block, and every LLR of a frame must
# be bit for bit that of the frame run alone.  K = 4 at rho 0.7 with
# unequal amplitudes, and scenario-ii's K = 32 random-spreading geometry.
GROUP_FRAMES = 3
GROUP_GEOMETRIES = {
    "k4": (lambda: make_equicorrelated(
        4, 0.7, amplitudes=[0.8, 1.2, 1.0, 0.9], sigma2=0.4),
        "10011,11101", 40),
    "k32": (lambda: make_random_spreading(32, 32, seed=[1, 0xC0DE],
                                          sigma2=0.25), "111,101", 64),
}


def stacked_group(geometry, coded, seed=31):
    """(channel, decoder, stacked observation, frame length T)."""
    make_channel, gens, n_info = GROUP_GEOMETRIES[geometry]
    ch = make_channel()
    decoder = ConvTurboDecoder(ConvCode(generators=tuple(gens.split(","))),
                               ch.K, n_info, master_seed=2) \
        if coded else IdentityDecoder()
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(GROUP_FRAMES, n_info, ch.K))
    b = np.concatenate([decoder.encode_block(x) for x in bits]) \
        if coded else 1.0 - 2.0 * bits.reshape(-1, ch.K)
    noise = rng.standard_normal((len(b), ch.N))
    obs = receive(ch, SymbolBlock(b=b), noise, frames=GROUP_FRAMES)
    return ch, decoder, obs, len(b) // GROUP_FRAMES


def frame_rows(obs, f, T):
    rows = slice(f * T, (f + 1) * T)
    return rows, Observation(r=obs.r[rows], y=obs.y[rows])


def same_bits(a, b):
    return np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


_GROUP_CELLS = [(geometry, det, sched, coded)
                for geometry in GROUP_GEOMETRIES for det in DETECTORS
                for sched in SCHEDULES for coded in (True, False)]


@pytest.mark.parametrize("geometry, detector, schedule, coded", _GROUP_CELLS,
                         ids=lambda v: v if isinstance(v, str)
                         else ("coded" if v else "uncoded"))
def test_stacked_group_gives_each_frame_its_lone_llrs(geometry, detector,
                                                     schedule, coded):
    ch, decoder, obs, T = stacked_group(geometry, coded)
    group, _ = run_varem(ch, obs, detector, schedule, 3, decoder, I=2)
    for f in range(GROUP_FRAMES):
        rows, alone_obs = frame_rows(obs, f, T)
        alone, _ = run_varem(ch, alone_obs, detector, schedule, 3, decoder,
                             I=2)
        for j, (g, a) in enumerate(zip(group, alone, strict=True)):
            for name in ("llr_mud", "llr_dec", "llr_post"):
                assert same_bits(getattr(g, name)[rows], getattr(a, name)), \
                    (f, j, name)


@pytest.mark.parametrize("geometry", ["near-far-k2", "k32"])
def test_stacked_group_gives_each_frame_its_lone_ddf_pass(geometry):
    """The uncoded DDF path: one DDF pass, then tanh-SIC sweeps."""
    if geometry == "k32":
        ch, _, obs, T = stacked_group("k32", coded=False)
    else:  # the ddf-two-user regime: user 2 at 11 dB, user 1 at 17 dB
        ch = make_equicorrelated(2, 0.7, amplitudes=[10 ** 0.85, 10 ** 0.55],
                                 sigma2=1.0)
        T = 500
        rng = np.random.default_rng(32)
        b = 1.0 - 2.0 * rng.integers(0, 2, size=(GROUP_FRAMES * T, 2))
        obs = receive(ch, SymbolBlock(b=b),
                      rng.standard_normal((len(b), ch.N)),
                      frames=GROUP_FRAMES)
    # last user first, so the detection order is not the labels'
    pre = DdfPrecompute.from_channel(ch, np.arange(ch.K)[::-1])
    sweeps = 4

    def ddf_then_sic(o):
        M, L = ddf_pass_block(ch, o.y, None, pre)
        signs = np.empty((sweeps,) + M.shape, dtype=bool)
        final = tanh_sic_block(ch, o.r, sweeps, m0=M, signs=signs)
        return M, L, signs, final

    group = ddf_then_sic(obs)
    for f in range(GROUP_FRAMES):
        _, alone_obs = frame_rows(obs, f, T)
        cols = slice(f * T, (f + 1) * T)
        for g, a in zip(group, ddf_then_sic(alone_obs), strict=True):
            assert same_bits(g[..., cols], a), f
