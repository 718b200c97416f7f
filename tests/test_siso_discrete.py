import numpy as np
import pytest

from turbomud.channel import SymbolBlock, make_equicorrelated, transmit
from turbomud.coding import IdentityDecoder
from turbomud.errors import DomainError
from turbomud.siso_discrete import (MEAN_CLEARANCE, DiscreteBelief,
                                    ext_one_shot, free_energy_disc,
                                    serial_update, stationarity_residual,
                                    tanh_sic_block)
from turbomud.siso_gaussian import (LLR_CLAMP, VAR_FLOOR, GaussianPrior,
                                    clamp_llr, soft_bits)
from turbomud.varem import run_varem

from references import _enum_symbols, clamp_mean


def enumeration_kl(ch, r, prior_llr, m):
    """KL from the factorized belief to the complete likelihood (oracle)."""
    B = _enum_symbols(ch.K)
    btilde = np.tanh(np.asarray(prior_llr) / 2.0)
    q = np.prod((1.0 + B * m) / 2.0, axis=1)
    logp_prior = np.sum(np.log((1.0 + B * btilde) / 2.0), axis=1)
    resid = r[None, :] - (B * ch.a) @ ch.S.T
    loglik = (-0.5 * ch.N * np.log(2.0 * np.pi * ch.sigma2)
              - np.sum(resid**2, axis=1) / (2.0 * ch.sigma2))
    mask = q > 0
    return float(np.sum(q[mask] * (np.log(q[mask])
                                   - logp_prior[mask] - loglik[mask])))


class TestFreeEnergyDisc:
    def test_prior_equals_posterior_zero_entropy_term(self):
        # with m = btilde the cross-entropy term vanishes; only the
        # channel terms remain, so F is the expected negative likelihood
        ch = make_equicorrelated(2, 0.5, sigma2=0.7)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(2)
        prior = np.array([0.8, -0.4])
        m = np.tanh(prior / 2.0)
        got = free_energy_disc(ch, r, prior, DiscreteBelief(m=m))
        np.testing.assert_allclose(got, enumeration_kl(ch, r, prior, m),
                                   atol=1e-12)

    def test_scalar_reduction(self):
        ch = make_equicorrelated(1, 0.0, sigma2=0.5)
        r = np.array([0.6])
        for m in (-0.7, 0.0, 0.3, 0.95):
            got = free_energy_disc(ch, r, np.zeros(1),
                                   DiscreteBelief(m=np.array([m])))
            scalar = (
                0.5 * (1 + m) * np.log(1 + m) + 0.5 * (1 - m) * np.log(1 - m)
                + 0.5 * np.log(2.0 * np.pi * 0.5)
                + (r[0] ** 2 - 2.0 * r[0] * m + 1.0) / (2.0 * 0.5)
            )
            assert abs(got - scalar) < 1e-12

    def test_enumeration_oracle_k2(self):
        rng = np.random.default_rng(1)
        ch = make_equicorrelated(2, 0.7, sigma2=0.6)
        for _ in range(50):
            r = rng.standard_normal(2)
            prior = rng.standard_normal(2)
            m = rng.uniform(-0.99, 0.99, size=2)
            got = free_energy_disc(ch, r, prior, DiscreteBelief(m=m))
            ref = enumeration_kl(ch, r, prior, m)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_enumeration_oracle_k3_random_amps(self):
        rng = np.random.default_rng(2)
        ch = make_equicorrelated(3, 0.4, amplitudes=[1.0, 1.7, 0.6],
                                 sigma2=0.9)
        for _ in range(20):
            r = rng.standard_normal(3)
            prior = rng.standard_normal(3)
            m = rng.uniform(-0.99, 0.99, size=3)
            got = free_energy_disc(ch, r, prior, DiscreteBelief(m=m))
            ref = enumeration_kl(ch, r, prior, m)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_domain_guard(self):
        ch = make_equicorrelated(2, 0.0)
        with pytest.raises(DomainError):
            free_energy_disc(ch, np.zeros(2), np.zeros(2),
                             np.array([1.0, 0.0]))


class TestSerialUpdate:
    def test_single_user_formula(self):
        ch = make_equicorrelated(1, 0.0, amplitudes=[1.2], sigma2=0.4)
        r = np.array([0.5])
        prior = np.array([0.7])
        _, llr_pos = serial_update(ch, r, prior, DiscreteBelief(np.zeros(1)))
        assert abs(llr_pos[0] - (0.7 + 2 * 1.2 * r[0] / 0.4)) < 1e-12

    def test_one_clamp_per_update_equals_clamping_the_llr_first(self):
        # the sweeps clamp only the mean, and the Gaussian kernels only the
        # soft bit: exact because tanh(LLR_CLAMP / 2) already lies past
        # both clamps
        assert np.tanh(LLR_CLAMP / 2.0) > 1.0 - MEAN_CLEARANCE
        assert np.tanh(LLR_CLAMP / 2.0) > np.sqrt(1.0 - VAR_FLOOR)
        llr = np.concatenate([np.linspace(-80.0, 80.0, 4001),
                              [-1e300, -30.0, -29.99, 29.99, 30.0, 1e300,
                               -np.inf, np.inf]])
        np.testing.assert_array_equal(
            clamp_mean(np.tanh(llr / 2.0)),
            clamp_mean(np.tanh(clamp_llr(llr) / 2.0)))
        np.testing.assert_array_equal(
            GaussianPrior(soft_bits(llr)).btilde,
            GaussianPrior(np.tanh(clamp_llr(llr) / 2.0)).btilde)

    def test_orthogonal_codes_decouple(self):
        ch = make_equicorrelated(3, 0.0, amplitudes=[1.0, 2.0, 0.5],
                                 sigma2=0.6)
        rng = np.random.default_rng(3)
        r = rng.standard_normal(3)
        y = ch.S.T @ r
        prior = rng.standard_normal(3)
        belief, llr_pos = serial_update(ch, r, prior,
                                        DiscreteBelief(np.zeros(3)))
        np.testing.assert_allclose(llr_pos, prior + 2 * ch.a * y / 0.6,
                                   rtol=1e-12)

    def test_monotone_descent_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            K = int(rng.integers(2, 6))
            rho = float(rng.uniform(0, 0.8))
            ch = make_equicorrelated(K, rho, sigma2=float(rng.uniform(0.1, 1)))
            r = rng.standard_normal(K)
            prior = rng.standard_normal(K) * 2
            belief = DiscreteBelief(m=rng.uniform(-0.9, 0.9, size=K))
            energies = [free_energy_disc(ch, r, prior, belief)]
            cb = lambda m: energies.append(
                free_energy_disc(ch, r, prior, DiscreteBelief(m=m)))
            for _ in range(3):
                belief, _ = serial_update(ch, r, prior, belief, callback=cb)
            assert np.all(np.diff(energies) <= 1e-12)

    def test_fixed_point_stationarity(self):
        ch = make_equicorrelated(2, 0.7, sigma2=0.6)
        rng = np.random.default_rng(5)
        r = rng.standard_normal(2)
        prior = rng.standard_normal(2)
        belief = DiscreteBelief(m=np.zeros(2))
        for _ in range(300):
            belief, _ = serial_update(ch, r, prior, belief)
        assert np.max(np.abs(stationarity_residual(
            ch, r, prior, belief.m))) < 1e-8


class TestExtOneShot:
    def test_single_user(self):
        ch = make_equicorrelated(1, 0.0, amplitudes=[1.5], sigma2=0.5)
        r = np.array([-0.3])
        res = ext_one_shot(ch, r, np.array([0.9]))
        assert abs(res[0] - 2 * 1.5 * r[0] / 0.5) < 1e-12

    def test_perfect_cancellation(self):
        ch = make_equicorrelated(4, 0.7, amplitudes=[1.0, 2.0, 0.5, 1.5],
                                 sigma2=0.3)
        b = np.array([1.0, -1.0, 1.0, -1.0])
        r = ch.S @ (ch.a * b)
        big = 60.0  # saturated priors: btilde = tanh(30) ~ 1
        res = ext_one_shot(ch, r, big * b)
        np.testing.assert_allclose(res, 2.0 * ch.a**2 * b / 0.3,
                                   rtol=1e-10)

    def test_equals_sweep_with_feedback_suppressed(self):
        ch = make_equicorrelated(4, 0.7, sigma2=0.5)
        rng = np.random.default_rng(6)
        r = rng.standard_normal(4)
        prior = rng.standard_normal(4)
        btilde = np.tanh(prior / 2.0)
        manual = (2.0 / 0.5) * (ch.SA.T @ r - ch.hollow_gram.T @ btilde)
        np.testing.assert_allclose(ext_one_shot(ch, r, prior),
                                   manual, atol=1e-12)

    def test_own_prior_invariance(self):
        ch = make_equicorrelated(3, 0.6, sigma2=0.4)
        rng = np.random.default_rng(7)
        r = rng.standard_normal(3)
        prior = rng.standard_normal(3)
        base = ext_one_shot(ch, r, prior)
        bumped = prior.copy()
        bumped[1] += 5.0
        got = ext_one_shot(ch, r, bumped)
        assert got[1] == base[1]


class TestTanhSic:
    def test_equals_serial_update_zero_prior(self):
        ch = make_equicorrelated(3, 0.5, sigma2=0.7)
        rng = np.random.default_rng(8)
        r = rng.standard_normal(3)
        direct = tanh_sic_block(ch, r, 3)[:, 0]
        belief = DiscreteBelief(m=np.zeros(3))
        for _ in range(3):
            belief, _ = serial_update(ch, r, np.zeros(3), belief)
        np.testing.assert_array_equal(direct, belief.m)

    def test_single_user(self):
        ch = make_equicorrelated(1, 0.0, amplitudes=[0.9], sigma2=0.6)
        r = np.array([0.8])
        out = tanh_sic_block(ch, r, 1)[:, 0]
        assert abs(out[0] - np.tanh(0.9 * r[0] / 0.6)) < 1e-12

    def test_zero_sweeps_return_the_start(self):
        # uncoded ddf_aided at J = 1 runs J - 1 = 0 sweeps
        ch = make_equicorrelated(3, 0.5, sigma2=0.7)
        r = np.random.default_rng(10).standard_normal((4, 3))
        np.testing.assert_array_equal(tanh_sic_block(ch, r, 0),
                                      np.zeros((3, 4)))
        m0 = np.full((3, 4), 0.25)
        np.testing.assert_array_equal(tanh_sic_block(ch, r, 0, m0), m0)

    def test_high_snr_sign_recovery(self):
        sigma2 = 1e-4
        ch = make_equicorrelated(2, 0.7, sigma2=sigma2)
        rng = np.random.default_rng(9)
        for _ in range(100):
            b = np.where(rng.standard_normal(2) > 0, 1.0, -1.0)
            obs = transmit(ch, SymbolBlock(b=b[None, :]),
                           rng_seed=int(rng.integers(2**31)))
            out = tanh_sic_block(ch, obs.r[0], 3)[:, 0]
            np.testing.assert_array_equal(np.sign(out), b)


class TestRunScheduleDisc:
    def make_obs(self, ch, T, seed):
        rng = np.random.default_rng(seed)
        b = np.where(rng.standard_normal((T, ch.K)) > 0, 1.0, -1.0)
        return transmit(ch, SymbolBlock(b=b), rng_seed=seed + 1)

    def test_flooding_single_sweep_is_serial_update(self):
        ch = make_equicorrelated(3, 0.5, sigma2=0.5)
        obs = self.make_obs(ch, 4, seed=10)
        frames, _ = run_varem(ch, obs, "discrete", "flooding", 1,
                              IdentityDecoder(), I=1)
        for t in range(4):
            _, llr_pos = serial_update(ch, obs.r[t], np.zeros(3),
                                       DiscreteBelief(np.zeros(3)))
            np.testing.assert_allclose(frames[0].llr_mud[t],
                                       np.clip(llr_pos, -30, 30), rtol=1e-12)

    def test_sequential_rotated_order_first_user(self):
        # user 1's extrinsic after I=1 inner iteration matches a single
        # rotated sweep in natural order with zeroed own prior
        ch = make_equicorrelated(3, 0.6, sigma2=0.4)
        obs = self.make_obs(ch, 3, seed=11)
        frames, _ = run_varem(ch, obs, "discrete", "sequential", 1,
                              IdentityDecoder(), I=1)
        for t in range(3):
            _, llr_pos = serial_update(ch, obs.r[t], np.zeros(3),
                                       DiscreteBelief(np.zeros(3)),
                                       order=[0, 1, 2])
            np.testing.assert_allclose(frames[0].llr_mud[t, 0],
                                       np.clip(llr_pos, -30, 30)[0],
                                       rtol=1e-12)

    def test_schedules_run_and_report_shapes(self):
        ch = make_equicorrelated(4, 0.3, sigma2=0.5)
        obs = self.make_obs(ch, 6, seed=12)
        for schedule in ("flooding", "sequential", "hybrid"):
            frames, _ = run_varem(ch, obs, "discrete", schedule, 2,
                                  IdentityDecoder(), I=2)
            assert len(frames) == 2
            assert frames[0].llr_mud.shape == (6, 4)
