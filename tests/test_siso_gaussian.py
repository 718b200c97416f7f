import copy

import numpy as np
import pytest

from turbomud.channel import (SymbolBlock, make_equicorrelated,
                              make_random_spreading, transmit)
from turbomud import siso_gaussian
from turbomud.coding import ConvCode, ConvTurboDecoder, IdentityDecoder
from turbomud.detect_linear import GaussianBelief, mmse
from turbomud.errors import (DegeneratePrior, DimensionMismatch,
                             NotPositiveDefinite)
from turbomud.linalg import PIVOT_FLOOR
from turbomud.siso_discrete import DiscreteTurboLoop
from turbomud.siso_gaussian import (SCHEDULES, VAR_FLOOR, GaussianTurboLoop,
                                    _clamp_soft, ext_flooding, ext_hybrid,
                                    flooding_ext_block, free_energy_gauss,
                                    loo_ext_block, solve_gauss,
                                    wang_poor_oracle)
from turbomud.varem import SIGMA2_FLOOR, EmState, initial_sigma2, run_varem

from references import einsum_flooding_ext_block


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
    return rng.uniform(-0.95, 0.95, size=K)


def inv_reference(ch, Y, Btilde, k=None):
    """Flooding extrinsics, or user k's leave-one-out ones, from P = C^{-1}
    formed in full by np.linalg.inv.  Returns (llr, 1 - alpha)."""
    lim = np.sqrt(1.0 - VAR_FLOOR)
    B = np.clip(Btilde, -lim, lim)
    if k is not None:
        B[:, k] = 0.0
    w = 1.0 - B**2
    C = ch.sigma2 * ch.Rinv + (ch.a**2 * w)[:, :, None] * np.eye(ch.K)
    P = np.linalg.inv(C)
    diagP = np.diagonal(P, axis1=1, axis2=2)
    PV = np.einsum("tkj,tj->tk", P, Y @ ch.Rinv.T - ch.a * B)
    if k is None:
        mu, alpha = ch.a * PV + B * ch.a**2 * diagP, w * ch.a**2 * diagP
    else:
        mu, alpha = ch.a[k] * PV[:, k], ch.a[k] ** 2 * diagP[:, k]
    return 2.0 * mu / (1.0 - alpha), 1.0 - alpha


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
        prior = np.zeros(1)
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
        out = solve_gauss(ch, r, np.zeros(4))
        np.testing.assert_allclose(out.mu, mmse(ch, r).mu, atol=1e-12)

    def test_saturated_prior_dominates(self):
        rng = np.random.default_rng(3)
        ch = random_channel(rng, 3)
        r = rng.standard_normal(ch.N)
        prior = np.array([1.0, -1.0, 1.0])  # floored
        out = solve_gauss(ch, r, prior)
        np.testing.assert_allclose(out.mu, prior, atol=1e-3)

    def test_matches_direct_formula(self):
        ch = make_equicorrelated(2, 0.7, sigma2=0.5)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(2)
        prior = np.array([0.5, -0.5])
        A, W = np.diag(ch.a), np.diag(1.0 - prior**2)
        G = A @ ch.R @ A
        Winv = np.linalg.inv(W)
        mu_ref = prior + np.linalg.solve(
            G + ch.sigma2 * Winv,
            A @ ch.S.T @ (r - ch.S @ A @ prior))
        Sigma_ref = np.linalg.inv(G / ch.sigma2 + Winv)
        out = solve_gauss(ch, r, prior)
        np.testing.assert_allclose(out.mu, mu_ref, atol=1e-12)
        np.testing.assert_allclose(out.Sigma, Sigma_ref, atol=1e-12)

    def test_gradient_at_minimizer(self):
        # central differences of the free energy in mu vanish at the
        # minimizer; F is quadratic in mu, so they are exact but for
        # rounding, about eps |F| / h (worst norm here 8.7e-10)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            ch = random_channel(rng, 4, equicorrelated=False)
            r = rng.standard_normal(ch.N)
            prior = random_prior(rng, 4)
            out = solve_gauss(ch, r, prior)

            def f(mu):
                return free_energy_gauss(
                    ch, r, prior, GaussianBelief(mu=mu, Sigma=out.Sigma))
            g = [(f(out.mu + h * e) - f(out.mu - h * e)) / (2.0 * h)
                 for e in np.eye(4)]
            assert np.linalg.norm(g) < 1e-6


class TestHybridAgainstTwoStage:
    def test_single_user_matched_filter_llr(self):
        ch = make_equicorrelated(1, 0.0, amplitudes=[1.3], sigma2=0.4)
        y = np.array([0.7])
        prior = np.array([0.6])
        for llr in (ext_hybrid(ch, y, prior),
                    wang_poor_oracle(ch, y, prior)[0]):
            assert abs(llr[0] - 2.0 * 1.3 * y[0] / 0.4) < 1e-10

    def test_zero_prior_agreement(self):
        rng = np.random.default_rng(6)
        ch = random_channel(rng, 4)
        y = rng.standard_normal(4)
        prior = np.zeros(4)
        a = ext_hybrid(ch, y, prior)
        b, _ = wang_poor_oracle(ch, y, prior)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_random_instance_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            K = int(rng.choice([2, 4, 8]))
            ch = random_channel(rng, K, equicorrelated=bool(rng.integers(2)))
            y = rng.standard_normal(K)
            prior = random_prior(rng, K)
            a = ext_hybrid(ch, y, prior)
            b, z = wang_poor_oracle(ch, y, prior)
            scale = np.maximum(np.abs(b), 1.0)
            assert np.max(np.abs(a - b) / scale) < 1e-10
            # the soft-IC filter output equals the VFEM mean component of
            # the minimizer under user k's leave-one-out prior
            r = ch.S @ np.linalg.solve(ch.R, y)  # S^T r = y
            mu = [solve_gauss(ch, r, np.where(np.arange(K) == k, 0.0,
                                              prior)).mu[k]
                  for k in range(K)]
            assert np.max(np.abs(mu - z)) < 1e-12 * max(1.0, np.max(np.abs(z)))


class TestFlooding:
    def test_zero_prior_equals_hybrid(self):
        rng = np.random.default_rng(9)
        ch = random_channel(rng, 4)
        y = rng.standard_normal(4)
        prior = np.zeros(4)
        np.testing.assert_allclose(ext_flooding(ch, y, prior),
                                   ext_hybrid(ch, y, prior), rtol=1e-10)
        # with informative priors too: the own prior moves only C_kk,
        # which leaves 2 mu / (1 - alpha) unchanged (Sherman-Morrison)
        for _ in range(100):
            K = int(rng.choice([2, 4, 8]))
            ch = random_channel(rng, K, equicorrelated=bool(rng.integers(2)))
            y = rng.standard_normal(K)
            prior = random_prior(rng, K)
            hyb = ext_hybrid(ch, y, prior)
            flood = ext_flooding(ch, y, prior)
            scale = np.maximum(np.abs(hyb), 1.0)
            assert np.max(np.abs(flood - hyb) / scale) < 1e-9

    def test_single_user_prior_independent(self):
        ch = make_equicorrelated(1, 0.0, amplitudes=[1.1], sigma2=0.3)
        y = np.array([-0.4])
        vals = [ext_flooding(ch, y, np.array([b]))[0]
                for b in (-0.8, 0.0, 0.9)]
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
                      - 2.0 * prior / (1.0 - prior**2))
            got = ext_flooding(ch, ch.S.T @ r, prior)
            scale = np.maximum(np.abs(direct), 1.0)
            assert np.max(np.abs(got - direct) / scale) < 1e-10

    def test_degenerate_prior_raises(self):
        ch = make_equicorrelated(2, 0.0, sigma2=1e-16)
        prior = np.zeros(2)
        with pytest.raises(DegeneratePrior):
            ext_flooding(ch, np.array([0.3, -0.1]), prior)


class TestFloodingReadOut:
    """P V = X^T (X V) by two batched matmuls, against the einsum form."""

    @pytest.mark.parametrize("prior", ["zero", "shared", "mixed"])
    @pytest.mark.parametrize("K", [4, 32])
    def test_within_1e12_of_einsum_form(self, K, prior):
        # the sums run in another order, so LLRs move by ulps; an LLR near
        # 0 is a cancellation, so the bound is relative to each interval's
        # largest LLR.  Equal priors take the broadcast factor.
        rng = np.random.default_rng(40 + K)
        T = 132
        for trial in range(6):
            ch = random_channel(rng, K, equicorrelated=trial % 2 == 0)
            Y = 2.0 * rng.standard_normal((T, K))
            Btilde = {"zero": np.zeros((T, K)),
                      "shared": np.tile(rng.uniform(-0.9, 0.9, K), (T, 1)),
                      "mixed": rng.uniform(-0.99, 0.99, (T, K))}[prior]
            got = flooding_ext_block(ch, Y, Btilde)
            want = einsum_flooding_ext_block(ch, Y, Btilde)
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


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

    @pytest.mark.parametrize("kernel", ["flooding", "loo"])
    def test_degenerate_variance_raises(self, kernel):
        # the block kernels share the scalar policy: raise, never clamp
        ch = make_equicorrelated(2, 0.0, sigma2=1e-16)
        Y = np.array([[0.3, -0.1]])
        Btilde = np.zeros((1, 2))
        with pytest.raises(DegeneratePrior):
            if kernel == "flooding":
                flooding_ext_block(ch, Y, Btilde)
            else:
                loo_ext_block(ch, Y, Btilde, 0)


    @pytest.mark.parametrize("form", ["flooding", "loo", "ext_flooding",
                                      "ext_hybrid", "wang_poor_oracle"])
    def test_nan_soft_bit_raises(self, form):
        # NaN fails every comparison, so the floor test is one that NaN
        # fails too: a NaN soft bit raises instead of giving NaN LLRs
        ch = make_equicorrelated(3, 0.3, sigma2=0.5)
        y = np.array([0.3, -0.1, 0.8])
        btilde = np.array([0.2, np.nan, -0.4])
        with pytest.raises(DegeneratePrior):
            {"flooding": lambda: flooding_ext_block(ch, y[None], btilde[None]),
             "loo": lambda: loo_ext_block(ch, y[None], btilde[None], 0),
             "ext_flooding": lambda: ext_flooding(ch, y, btilde),
             "ext_hybrid": lambda: ext_hybrid(ch, y, btilde),
             "wang_poor_oracle": lambda: wang_poor_oracle(ch, y, btilde),
             }[form]()


class TestSoftBitClamp:
    """Every single-interval form clamps its soft bits itself, so +-1
    give bit for bit what ``_clamp_soft`` of them gives."""

    @pytest.mark.parametrize("form", ["solve_gauss", "free_energy_gauss",
                                      "ext_flooding", "ext_hybrid",
                                      "wang_poor_oracle"])
    def test_unit_soft_bits_equal_clamped_ones(self, form):
        ch = make_random_spreading(6, 4, seed=3, sigma2=0.3,
                                   amplitudes=[1.0, 0.7, 1.3, 2.0])
        r = np.random.default_rng(8).standard_normal(6)
        y = ch.S.T @ r
        btilde = np.array([1.0, -1.0, 0.3, 1.0])
        assert not np.array_equal(_clamp_soft(btilde), btilde)
        q = solve_gauss(ch, r, _clamp_soft(btilde))

        def solved(b):
            out = solve_gauss(ch, r, b)
            return np.concatenate([out.mu, out.Sigma.ravel()])
        run = {
            "solve_gauss": solved,
            "free_energy_gauss": lambda b: free_energy_gauss(ch, r, b, q),
            "ext_flooding": lambda b: ext_flooding(ch, y, b),
            "ext_hybrid": lambda b: ext_hybrid(ch, y, b),
            "wang_poor_oracle": lambda b: np.concatenate(
                wang_poor_oracle(ch, y, b)),
        }[form]
        np.testing.assert_array_equal(run(btilde), run(_clamp_soft(btilde)))


class TestKernelsAgainstInverse:
    """Both block kernels against ``inv_reference``.

    Tolerance: |llr - ref| <= 1e-11 max(1, |ref|) / min(1, 1 - alpha).
    Forming 1 - alpha cancels, so rounding in alpha reaches the LLR
    amplified by 1 / (1 - alpha): at sigma2 = SIGMA2_FLOOR the LLRs
    of users with flat priors agree only to about 1e-6 relative, while
    the scaled difference stays near 1e-12 everywhere on this grid.
    """

    @staticmethod
    def assert_close(got, ref):
        llr, ext_var = ref
        scale = np.maximum(np.abs(llr), 1.0) / np.minimum(ext_var, 1.0)
        assert np.max(np.abs(got - llr) / scale) < 1e-11

    @pytest.mark.parametrize("sigma2", [SIGMA2_FLOOR, 1e-6, 1e-3, 1.0])
    @pytest.mark.parametrize("T", [1, 132])
    # the factors are inverted by blocks of INVERSE_BLOCK = 4 rows: K = 3
    # is one partial block; 5, 7 and 9 end one or two blocks with a tail
    # of 1 to 3 rows; 33 is eight blocks and a one-row tail
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 7, 9, 32, 33])
    def test_matches_inverse(self, K, T, sigma2):
        rng = np.random.default_rng(K * T)
        ch = make_random_spreading(K + 4, K, seed=K, sigma2=sigma2,
                                   amplitudes=rng.uniform(0.5, 2.0, size=K))
        Y = 2.0 * rng.standard_normal((T, K))
        # soft bits at the clamp, at 0 and in between (+-1 are clamped)
        lim = np.sqrt(1.0 - VAR_FLOOR)
        Btilde = rng.choice([-1.0, -lim, 0.0, lim, 1.0], size=(T, K))
        inner = rng.random((T, K)) < 0.4
        Btilde[inner] = rng.uniform(-0.99, 0.99, size=np.sum(inner))
        self.assert_close(flooding_ext_block(ch, Y, Btilde),
                          inv_reference(ch, Y, Btilde))
        for k in range(K):
            self.assert_close(loo_ext_block(ch, Y, Btilde, k),
                              inv_reference(ch, Y, Btilde, k))

    def test_pivots_below_linalg_floor(self):
        # a tiny amplitude at a tiny noise variance: the first pivot is
        # about 1e-14, yet the extrinsic variances are well resolved
        ch = make_equicorrelated(2, 0.5, amplitudes=[1e-7, 1.0],
                                 sigma2=1e-15)
        Y = np.array([[0.3, -0.8]])
        Btilde = np.array([[0.0, 1.0]])
        assert ch.a[0] ** 2 + ch.sigma2 * ch.Rinv[0, 0] < PIVOT_FLOOR
        self.assert_close(flooding_ext_block(ch, Y, Btilde),
                          inv_reference(ch, Y, Btilde))
        self.assert_close(loo_ext_block(ch, Y, Btilde, 0),
                          inv_reference(ch, Y, Btilde, 0))

    @pytest.mark.parametrize("kernel", ["flooding", "loo"])
    def test_indefinite_filter_matrix_raises(self, kernel):
        # a channel copy whose cached R^{-1} is -I: C = diag(a^2 w) - I
        ch = copy.copy(make_equicorrelated(3, 0.4, sigma2=1.0))
        object.__setattr__(ch, "Rinv", -np.eye(3))
        Y = np.ones((4, 3))
        Btilde = np.full((4, 3), 0.5)
        with pytest.raises(NotPositiveDefinite):
            if kernel == "flooding":
                flooding_ext_block(ch, Y, Btilde)
            else:
                loo_ext_block(ch, Y, Btilde, 1)


class TestRunSchedule:
    def make_obs(self, ch, T, seed):
        rng = np.random.default_rng(seed)
        b = np.where(rng.standard_normal((T, ch.K)) > 0, 1.0, -1.0)
        return transmit(ch, SymbolBlock(b=b), rng_seed=seed + 1)

    def test_first_iteration_exts_agree_across_schedules(self):
        ch = make_equicorrelated(4, 0.7, sigma2=0.5)
        obs = self.make_obs(ch, 5, seed=12)
        dec = IdentityDecoder()
        f = run_varem(ch, obs, "gaussian", "flooding", 1, dec)[0][0]
        h = run_varem(ch, obs, "gaussian", "hybrid", 1, dec)[0][0]
        s = run_varem(ch, obs, "gaussian", "sequential", 1, dec)[0][0]
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
        frames, _ = run_varem(ch, obs, "gaussian", "hybrid", 2,
                              IdentityDecoder())
        priors = np.tanh(np.clip(frames[0].llr_dec, -30, 30) / 2.0)
        for t in range(4):
            expected = ext_hybrid(ch, obs.y[t], priors[t])
            np.testing.assert_allclose(frames[1].llr_mud[t],
                                       np.clip(expected, -30, 30),
                                       rtol=1e-10)

    @pytest.mark.parametrize("coded", [True, False],
                             ids=["coded", "uncoded"])
    @pytest.mark.parametrize("family", [GaussianTurboLoop, DiscreteTurboLoop],
                             ids=["gaussian", "discrete"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_decoder_call_pattern(self, schedule, family, coded):
        # per outer iteration, flooding and hybrid decode all users in one
        # call on the (T, K) block, and sequential decodes users 0..K-1 in
        # order, one column each.  User k is detected from the decoder
        # LLRs of the users already decoded in this iteration (none under
        # hybrid) and the previous iteration's for the rest, column k
        # zeroed.  Gaussian hybrid runs as flooding: no per-user detection.
        K, T = 3, 12
        ch = make_equicorrelated(K, 0.6, amplitudes=[1.0, 0.8, 1.2],
                                 sigma2=0.5)
        if coded:
            decoder = ConvTurboDecoder(ConvCode(("111", "101")), K, 4,
                                       master_seed=1)
            rng = np.random.default_rng(15)
            obs = transmit(ch, SymbolBlock(
                b=decoder.encode_block(rng.integers(0, 2, (4, K)))), 16)
        else:
            decoder = IdentityDecoder()
            obs = self.make_obs(ch, T, seed=15)
        loop = family(obs, decoder, schedule)
        decodes, detects = [], []
        decode, exchange = decoder.decode_user, loop._exchange

        def spy_decode(k, llr):
            decodes.append((k, np.shape(llr)))
            return decode(k, llr)

        def spy_exchange(ext_all, ext_user):
            def spy_user(work, k):
                detects.append((k, work.copy()))
                return ext_user(work, k)
            return exchange(ext_all, spy_user)

        decoder.decode_user, loop._exchange = spy_decode, spy_exchange
        for _ in range(3):
            previous = loop.llr_dec.copy()
            decodes.clear()
            detects.clear()
            frame = loop.iterate(ch)
            if schedule == "sequential":
                assert decodes == [(k, (T,)) for k in range(K)]
                assert all(type(k) is int for k, _ in decodes)
            else:
                assert decodes == [(slice(None), (T, K))]
            if schedule == "flooding" or (
                    schedule == "hybrid" and family is GaussianTurboLoop):
                assert detects == []
                continue
            assert [k for k, _ in detects] == list(range(K))
            for k, work in detects:
                want = previous.copy()
                if schedule == "sequential":
                    want[:, :k] = frame.llr_dec[:, :k]
                want[:, k] = 0.0
                np.testing.assert_array_equal(work, want)

    def test_scenario_shapes(self):
        ch = make_equicorrelated(4, 0.7, sigma2=0.5)
        obs = self.make_obs(ch, 8, seed=14)
        frames, _ = run_varem(ch, obs, "gaussian", "flooding", 5,
                              IdentityDecoder())
        assert len(frames) == 5
        assert frames[0].llr_mud.shape == (8, 4)
        np.testing.assert_allclose(frames[0].llr_post,
                                   frames[0].llr_mud + frames[0].llr_dec)


class TestWorkBuffer:
    """The caller-owned (T, K, K) buffer of the extrinsic kernels.

    Every call must rebuild all of C in it: a sequence that changes
    sigma2, the amplitudes, the soft bits and k in turn would carry a
    stale entry of an earlier call into a later one.
    """

    def call_sequence(self, T=7, K=5):
        rng = np.random.default_rng(21)
        base = make_random_spreading(K + 3, K, seed=4, sigma2=0.4)
        for i in range(8):
            ch = base.with_params(a=rng.uniform(0.3, 2.0, size=K),
                                  sigma2=float(rng.uniform(1e-3, 1.0)))
            Y = rng.standard_normal((T, K))
            Btilde = rng.uniform(-0.99, 0.99, size=(T, K))
            yield ch, Y, Btilde, (None if i % 3 == 0 else i % K)

    @staticmethod
    def ext(ch, Y, Btilde, k, work=None):
        if k is None:
            return flooding_ext_block(ch, Y, Btilde, work)
        return loo_ext_block(ch, Y, Btilde, k, work)

    def test_reused_buffer_equals_fresh_calls(self):
        work = np.full((7, 5, 5), np.nan)
        for ch, Y, Btilde, k in self.call_sequence():
            got = self.ext(ch, Y, Btilde, k, work)
            np.testing.assert_array_equal(got, self.ext(ch, Y, Btilde, k))
            np.testing.assert_array_equal(
                got, self.ext(ch, Y, Btilde, k, np.empty((7, 5, 5))))
            assert not np.shares_memory(got, work)

    @pytest.mark.parametrize("shape, dtype", [
        ((6, 5, 5), float), ((7, 5, 4), float), ((7, 25), float),
        ((7,), float), ((7, 5, 5), np.float32)])
    def test_wrong_buffer_raises(self, shape, dtype):
        # never silently replaced or written
        ch, Y, Btilde, _ = next(self.call_sequence())
        work = np.zeros(shape, dtype)
        for k in (None, 2):
            with pytest.raises(DimensionMismatch):
                self.ext(ch, Y, Btilde, k, work)
        assert not np.any(work)

    def test_strided_buffer_raises(self):
        # the diagonals are written through a reshaped view, which a
        # strided buffer would silently copy
        ch, Y, Btilde, _ = next(self.call_sequence())
        work = np.zeros((7, 5, 10))[..., ::2]
        for k in (None, 2):
            with pytest.raises(DimensionMismatch):
                self.ext(ch, Y, Btilde, k, work)
        assert not np.any(work)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_em_run_equals_unbuffered_run(self, monkeypatch, schedule):
        K, n_info = 4, 24
        dec = ConvTurboDecoder(ConvCode(generators=("111", "101")), K,
                               n_info, master_seed=6)
        ch = make_random_spreading(6, K, seed=8, sigma2=0.3,
                                   amplitudes=[1.0, 0.6, 1.4, 0.9])
        info = np.random.default_rng(9).integers(0, 2, size=(n_info, K))
        obs = transmit(ch, SymbolBlock(b=dec.encode_block(info)), rng_seed=10)
        a_tilde = np.array([1.2, 0.5, 1.1, 1.0])
        state0 = EmState(a_hat=a_tilde, a_tilde=a_tilde, varsigma2=0.09,
                         sigma2_hat=initial_sigma2(ch, obs, a_tilde),
                         estimate_sigma2=True)

        buffers = []
        factors = siso_gaussian._inverse_factors

        def spy(ch, w_block, work=None):
            buffers.append(work)
            return factors(ch, w_block, work)

        monkeypatch.setattr(siso_gaussian, "_inverse_factors", spy)

        def run():
            return run_varem(ch, obs, "gaussian", schedule, 3, dec, state0)

        frames, traj = run()
        assert buffers[0] is not None
        assert all(work is buffers[0] for work in buffers)
        init = GaussianTurboLoop.__init__

        def unbuffered_init(loop, *args):
            init(loop, *args)
            loop.work = None

        monkeypatch.setattr(GaussianTurboLoop, "__init__", unbuffered_init)
        buffers.clear()
        want_frames, want_traj = run()
        assert buffers and all(work is None for work in buffers)
        for got, want in zip(frames, want_frames, strict=True):
            np.testing.assert_array_equal(got.llr_mud, want.llr_mud)
            np.testing.assert_array_equal(got.llr_dec, want.llr_dec)
        for got, want in zip(traj, want_traj, strict=True):
            np.testing.assert_array_equal(got.a_hat, want.a_hat)
            assert got.sigma2_hat == want.sigma2_hat
        # the estimates moved, so later calls saw new sigma2 and amplitudes
        assert traj[-1].sigma2_hat != traj[0].sigma2_hat
        assert not np.array_equal(traj[-1].a_hat, traj[0].a_hat)


class TestUniformBlock:
    """A block whose priors are all equal has one filter matrix C_t.

    ``_inverse_factors`` factors it once and broadcasts the factor over
    the T intervals.  The reference is the same kernel with every
    interval factored on its own; both must agree bit for bit.
    """

    @pytest.fixture
    def factored_shapes(self, monkeypatch):
        shapes = []
        cholesky = np.linalg.cholesky

        def spy(C):
            shapes.append(C.shape)
            return cholesky(C)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        return shapes

    @staticmethod
    def every_interval(monkeypatch, *args):
        factors = siso_gaussian._inverse_factors

        def per_interval(ch, w_block, work=None):
            return np.concatenate([factors(ch, w_block[t:t + 1])
                                   for t in range(len(w_block))])

        with monkeypatch.context() as m:
            m.setattr(siso_gaussian, "_inverse_factors", per_interval)
            return TestWorkBuffer.ext(*args)

    def assert_exact(self, monkeypatch, shapes, ch, Y, Btilde, factored_T):
        T, K = Btilde.shape
        for k in dict.fromkeys([None, 0, K - 1]):
            want = self.every_interval(monkeypatch, ch, Y, Btilde, k)
            for work in (None, np.full((T, K, K), np.nan)):
                shapes.clear()
                got = TestWorkBuffer.ext(ch, Y, Btilde, k, work)
                assert shapes == [(factored_T, K, K)]
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("prior", ["zero", "shared"])
    @pytest.mark.parametrize("sigma2", [SIGMA2_FLOOR, 1e-3, 1.0])
    @pytest.mark.parametrize("T", [2, 132])
    @pytest.mark.parametrize("K", [1, 2, 4, 32])
    def test_factors_once_and_matches_every_interval(
            self, monkeypatch, factored_shapes, K, T, sigma2, prior):
        rng = np.random.default_rng(K * T)
        ch = make_random_spreading(K + 4, K, seed=K, sigma2=sigma2,
                                   amplitudes=rng.uniform(0.5, 2.0, size=K))
        Y = 2.0 * rng.standard_normal((T, K))
        row = np.zeros(K) if prior == "zero" else rng.uniform(-0.9, 0.9, K)
        Btilde = np.tile(row, (T, 1))
        self.assert_exact(monkeypatch, factored_shapes, ch, Y, Btilde, 1)

    @pytest.mark.parametrize("T", [2, 132])
    def test_one_differing_row_factors_every_interval(
            self, monkeypatch, factored_shapes, T):
        rng = np.random.default_rng(T)
        K = 4
        ch = make_random_spreading(K + 4, K, seed=K, sigma2=0.3)
        Y = rng.standard_normal((T, K))
        Btilde = np.tile(rng.uniform(-0.9, 0.9, K), (T, 1))
        Btilde[T - 1, 1] = 0.25
        self.assert_exact(monkeypatch, factored_shapes, ch, Y, Btilde, T)

    @pytest.mark.parametrize("k", [None, 1])
    def test_indefinite_uniform_block_raises(self, factored_shapes, k):
        ch = copy.copy(make_equicorrelated(3, 0.4, sigma2=1.0))
        object.__setattr__(ch, "Rinv", -np.eye(3))
        factored_shapes.clear()
        with pytest.raises(NotPositiveDefinite):
            TestWorkBuffer.ext(ch, np.ones((132, 3)), np.zeros((132, 3)), k)
        assert factored_shapes == [(1, 3, 3)]
