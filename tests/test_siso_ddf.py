import itertools

import numpy as np
import pytest

from turbomud.channel import SymbolBlock, make_equicorrelated, transmit
from turbomud.coding import IdentityDecoder
from turbomud.errors import InvalidPermutation
from turbomud.linalg import factor_FtF
from turbomud.siso_ddf import (DdfPrecompute, ddf_pass, ddf_pass_block,
                               detection_order)
from turbomud.siso_discrete import DiscreteBelief, free_energy_disc
from turbomud.varem import run_varem

from references import frozen_ddf_pass_block
from test_mean_field_kernel import (DDF_TOL, assert_close, random_case,
                                    reference_ddf, whiten_in_order)


def identity_pre(ch):
    return DdfPrecompute.from_channel(ch, np.arange(ch.K))


class TestDetectionOrder:
    def test_equal_amplitudes_keep_index_order(self):
        ch = make_equicorrelated(3, 0.4)
        np.testing.assert_array_equal(detection_order(ch), [0, 1, 2])

    def test_two_user_sort(self):
        ch = make_equicorrelated(2, 0.4, amplitudes=[2.0, 1.0])
        np.testing.assert_array_equal(detection_order(ch), [0, 1])

    def test_three_user_sort(self):
        ch = make_equicorrelated(3, 0.4, amplitudes=[1.0, 3.0, 2.0])
        np.testing.assert_array_equal(detection_order(ch), [1, 2, 0])

    def test_custom_permutation_validated(self):
        ch = make_equicorrelated(3, 0.4)
        np.testing.assert_array_equal(detection_order(ch, [2, 0, 1]),
                                      [2, 0, 1])
        with pytest.raises(InvalidPermutation):
            detection_order(ch, [0, 0, 1])
        with pytest.raises(InvalidPermutation):
            detection_order(ch, "sideways")


class TestDdfPrecompute:
    def test_scalar_identities(self):
        # etabar_k^T ybar = A_k F_kk ybar_k and betabar has no entries at
        # or after its own position
        ch = make_equicorrelated(4, 0.6, amplitudes=[1.0, 2.0, 0.5, 1.0],
                                 sigma2=0.4)
        pre = identity_pre(ch)
        F = factor_FtF(ch.R)
        np.testing.assert_allclose(pre.diag_gain, ch.a * np.diagonal(F),
                                   rtol=1e-12)
        for k in range(4):
            assert np.all(pre.feedback[k:, k] == 0.0)
            expected = ch.a[k] * F[k, k] * ch.a[:k] * F[k, :k]
            np.testing.assert_allclose(pre.feedback[:k, k], expected,
                                       rtol=1e-12)

    def test_whiten_matches_channel_whitening(self):
        # the pass's back-substitution whitens as scipy's triangular
        # solver does, in the identity and in a permuting order
        for K, T, policy in itertools.product(
                (1, 2, 4, 32), (1, 132, 4096),
                ("as_given", "amplitude_descending")):
            rng = np.random.default_rng(K * T)
            ch = make_equicorrelated(K, 0.5, sigma2=0.2,
                                     amplitudes=rng.uniform(0.5, 2.0, K))
            y = rng.standard_normal((T, K))
            prior = rng.standard_normal((T, K))
            order = detection_order(ch, policy)
            pre = DdfPrecompute.from_channel(ch, order)
            m_want, pos_want = reference_ddf(
                ch, whiten_in_order(ch, y, order), prior, pre)
            m_got, pos_got = ddf_pass_block(ch, y, prior, pre)
            assert_close(pos_got.T, pos_want, m_got.T, m_want, DDF_TOL)


class TestFrozenForm:
    """``ddf_pass_block`` whitens from y's columns in detection order,
    folds H in place and forms LLRs only when asked: every output bit
    equals the frozen form's (``references.frozen_ddf_pass_block``).
    K = 1 whitens without the loop; y is also passed as a strided view."""

    @pytest.mark.parametrize("K", [1, 2, 4, 32])
    @pytest.mark.parametrize("policy", ["amplitude_descending", "as_given",
                                        "custom"])
    @pytest.mark.parametrize("prior_kind", ["none", "zero", "random"])
    def test_outputs_equal_the_frozen_form(self, K, policy, prior_kind):
        rng = np.random.default_rng([K, len(policy), len(prior_kind)])
        T = 64
        for _ in range(4):
            ch, r, prior, _ = random_case(rng, K, T)
            prior = {"none": None, "zero": np.zeros((T, K)),
                     "random": prior}[prior_kind]
            order = rng.permutation(K) if policy == "custom" else policy
            pre = DdfPrecompute.from_channel(ch, order)
            wide = np.empty((T, 2 * K))
            wide[:, ::2] = r @ ch.S
            for y in (wide[:, ::2], np.ascontiguousarray(wide[:, ::2])):
                m_want, pos_want = frozen_ddf_pass_block(ch, y, prior, pre)
                m_got, pos_got = ddf_pass_block(ch, y, prior, pre)
                m_only, none = ddf_pass_block(ch, y, prior, pre, llr=False)
                for got, want in ((m_got, m_want), (pos_got, pos_want),
                                  (m_only, m_want)):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                assert none is None


class TestDdfPass:
    def test_single_user(self):
        ch = make_equicorrelated(1, 0.0, amplitudes=[1.4], sigma2=0.5)
        pre = identity_pre(ch)
        y = np.array([0.6])  # one user: ybar = y
        belief, ext = ddf_pass(ch, y, np.zeros(1), pre)
        assert abs(belief.m[0] - np.tanh(1.4 * y[0] / 0.5)) < 1e-12
        assert abs(ext[0] - 2 * 1.4 * y[0] / 0.5) < 1e-12

    def test_two_user_noiseless_limit_signs(self):
        ch = make_equicorrelated(2, 0.7, sigma2=1e-6)
        b = np.array([1.0, -1.0])
        obs = transmit(ch, SymbolBlock(b=b[None, :]), rng_seed=3)
        pre = identity_pre(ch)
        belief, _ = ddf_pass(ch, obs.y[0], np.zeros(2), pre)
        np.testing.assert_array_equal(np.sign(belief.m), b)

    def test_extrinsic_excludes_prior(self):
        ch = make_equicorrelated(2, 0.7, sigma2=0.4)
        pre = identity_pre(ch)
        y = np.array([0.2, -0.5])
        prior = np.array([1.0, -2.0])
        belief, ext = ddf_pass(ch, y, prior, pre)
        _, ext0 = ddf_pass(ch, y, np.zeros(2), pre)
        # user 1 has no feedback: its extrinsic is prior-independent
        assert abs(ext[0] - ext0[0]) < 1e-12

    def test_triangular_causality(self):
        ch = make_equicorrelated(4, 0.5, sigma2=0.3)
        pre = identity_pre(ch)
        # y = F^T ybar: the bump moves the later user's whitened
        # coordinate only, and exactly, from the zero observation (from
        # other starts the whitening rounds the earlier ones by ~1e-16)
        y = np.zeros(4)
        belief, _ = ddf_pass(ch, y, np.zeros(4), pre)
        bumped = y + 10.0 * pre.F[3]  # later user only
        belief2, _ = ddf_pass(ch, bumped, np.zeros(4), pre)
        np.testing.assert_array_equal(belief.m[:3], belief2.m[:3])
        assert belief.m[3] != belief2.m[3]

    def test_orthogonal_codes_reduce_to_scaled_matched_filter(self):
        # F = I: no feedback at all, every user is a lone tanh decision
        ch = make_equicorrelated(3, 0.0, amplitudes=[1.0, 0.5, 2.0],
                                 sigma2=0.6)
        pre = identity_pre(ch)
        assert np.all(pre.feedback == 0.0)
        y = np.array([0.3, -0.2, 0.9])  # F = I: ybar = y
        belief, _ = ddf_pass(ch, y, np.zeros(3), pre)
        np.testing.assert_allclose(belief.m, np.tanh(ch.a * y / 0.6),
                                   rtol=1e-12)

    def test_permuted_order_unpermutes_outputs(self):
        ch = make_equicorrelated(2, 0.7, amplitudes=[0.5, 2.0], sigma2=1e-6)
        order = detection_order(ch)  # strong user (index 1) first
        np.testing.assert_array_equal(order, [1, 0])
        pre = DdfPrecompute.from_channel(ch, order)
        b = np.array([1.0, -1.0])
        obs = transmit(ch, SymbolBlock(b=b[None, :]), rng_seed=5)
        belief, _ = ddf_pass(ch, obs.y[0], np.zeros(2), pre)
        np.testing.assert_array_equal(np.sign(belief.m), b)


class TestFreeEnergySeeding:
    def test_ddf_output_below_zero_belief(self):
        # statistical rationale for seeding the mean-field iterations
        snr_db = 6.0
        sigma2 = 10 ** (-snr_db / 10.0)
        ch = make_equicorrelated(4, 0.7, sigma2=sigma2)
        pre = identity_pre(ch)
        rng = np.random.default_rng(1234)
        wins = 0
        trials = 1000
        for _ in range(trials):
            b = np.where(rng.standard_normal(4) > 0, 1.0, -1.0)
            obs = transmit(ch, SymbolBlock(b=b[None, :]),
                           rng_seed=int(rng.integers(2**31)))
            belief, _ = ddf_pass(ch, obs.y[0], np.zeros(4), pre)
            f_ddf = free_energy_disc(ch, obs.r[0], np.zeros(4), belief)
            f_zero = free_energy_disc(ch, obs.r[0], np.zeros(4),
                                      DiscreteBelief(np.zeros(4)))
            wins += f_ddf <= f_zero
        assert wins / trials >= 0.95


class TestDdfAidedDiscrete:
    def make_obs(self, ch, T, seed):
        rng = np.random.default_rng(seed)
        b = np.where(rng.standard_normal((T, ch.K)) > 0, 1.0, -1.0)
        return transmit(ch, SymbolBlock(b=b), rng_seed=seed + 1), b

    def test_single_iteration_equals_ddf_pass(self):
        ch = make_equicorrelated(3, 0.6, sigma2=0.4)
        obs, _ = self.make_obs(ch, 5, seed=20)
        frames, _ = run_varem(ch, obs, "ddf_aided", "flooding", 1,
                              IdentityDecoder(), order_policy=np.arange(3))
        pre = identity_pre(ch)
        _, pos = ddf_pass_block(ch, obs.y, np.zeros((5, 3)), pre)
        np.testing.assert_allclose(frames[0].llr_mud, np.clip(pos.T, -30, 30),
                                   rtol=1e-12)

    def test_later_iterations_refine(self):
        ch = make_equicorrelated(4, 0.7, sigma2=0.25)
        obs, b = self.make_obs(ch, 100, seed=21)
        frames, _ = run_varem(ch, obs, "ddf_aided", "flooding", 3,
                              IdentityDecoder(), I=4)
        first = np.mean(np.sign(frames[0].llr_post) != b)
        last = np.mean(np.sign(frames[-1].llr_post) != b)
        assert last <= first + 0.02
