import pickle

import numpy as np
import pytest

from turbomud.channel import (ChannelInstance, SymbolBlock,
                              make_equicorrelated, make_random_spreading,
                              receive, transmit)
from turbomud.errors import DimensionMismatch, InvalidCorrelation
from turbomud.linalg import factor_FtF

from test_mean_field_kernel import whiten


class TestMakeEquicorrelated:
    def test_rho_zero_orthonormal(self):
        ch = make_equicorrelated(2, 0.0)
        np.testing.assert_allclose(ch.S.T @ ch.S, np.eye(2), atol=1e-14)

    def test_k4_rho_07_offdiagonals(self):
        ch = make_equicorrelated(4, 0.7)
        R = ch.S.T @ ch.S
        off = R[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.7, atol=1e-12)
        np.testing.assert_allclose(np.diagonal(R), 1.0, atol=1e-12)

    def test_k2_rho_07_eigenvalues(self):
        # (1-rho) I + rho 11^T has eigenvalues 1 + rho and 1 - rho
        ch = make_equicorrelated(2, 0.7)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(ch.R)),
                                   [0.3, 1.7], atol=1e-12)

    def test_invalid_rho(self):
        with pytest.raises(InvalidCorrelation):
            make_equicorrelated(3, 1.0)
        with pytest.raises(InvalidCorrelation):
            make_equicorrelated(3, -0.1)


class TestChannelMatrices:
    MATRICES = ("R", "gram", "hollow_gram", "SA", "Rinv")

    @pytest.fixture
    def ch(self):
        return make_random_spreading(16, 6, seed=4,
                                     amplitudes=[0.5, 1.0, 1.5, 2.0, 0.8, 1.2],
                                     sigma2=0.3)

    def test_gram(self, ch):
        np.testing.assert_array_equal(
            ch.gram, (ch.a[:, None] * ch.R) * ch.a[None, :])

    def test_hollow_gram(self, ch):
        np.testing.assert_array_equal(np.diagonal(ch.hollow_gram), 0.0)
        off = ~np.eye(ch.K, dtype=bool)
        np.testing.assert_array_equal(ch.hollow_gram[off], ch.gram[off])

    def test_SA_and_Rinv(self, ch):
        np.testing.assert_array_equal(ch.SA, ch.S * ch.a)
        np.testing.assert_allclose(ch.R @ ch.Rinv, np.eye(ch.K), atol=1e-12)

    @pytest.mark.parametrize("name", MATRICES)
    def test_built_once_and_read_only(self, ch, name):
        M = getattr(ch, name)
        assert getattr(ch, name) is M
        with pytest.raises(ValueError):
            M[0, 0] = 7.0

    def test_estimates_get_their_own_matrices(self, ch):
        est = ch.with_params(a=2.0 * ch.a, sigma2=0.1)
        np.testing.assert_array_equal(est.gram, 4.0 * ch.gram)
        np.testing.assert_array_equal(est.R, ch.R)

    def test_estimates_share_the_geometry(self, ch):
        est = ch.with_params(a=2.0 * ch.a)
        assert est.sigma2 == ch.sigma2
        # built once, with the original, and shared by every copy
        for copied in (est, ch.with_params(sigma2=0.5),
                       est.with_params(a=ch.a)):
            for name in ("R", "Rinv"):
                assert getattr(copied, name) is getattr(ch, name)

    def test_estimates_are_validated(self, ch):
        with pytest.raises(ValueError):
            ch.with_params(a=-ch.a)
        with pytest.raises(DimensionMismatch):
            ch.with_params(a=ch.a[:-1])
        with pytest.raises(ValueError):
            ch.with_params(sigma2=-1.0)

    def test_unpickled_matrices_stay_read_only(self, ch):
        back, est = pickle.loads(pickle.dumps((ch, ch.with_params(a=ch.a))))
        for name in self.MATRICES:
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(ch, name))
            assert not getattr(back, name).flags.writeable, name
            assert not getattr(est, name).flags.writeable, name
        for name in ("R", "Rinv"):  # the copy still shares them
            assert getattr(est, name) is getattr(back, name)

    @pytest.mark.parametrize("name", MATRICES)
    def test_matrices_are_derived_not_passed(self, ch, name):
        with pytest.raises(TypeError):
            ChannelInstance(N=ch.N, K=ch.K, S=ch.S, a=ch.a, sigma2=ch.sigma2,
                            **{name: np.eye(ch.K)})


class TestMakeRandomSpreading:
    def test_scenario_size(self):
        ch = make_random_spreading(32, 32, seed=1)
        np.testing.assert_allclose(np.linalg.norm(ch.S, axis=0), 1.0,
                                   atol=1e-12)
        assert np.all(np.linalg.eigvalsh(ch.R) > 0)

    def test_single_user(self):
        ch = make_random_spreading(4, 1, seed=0)
        np.testing.assert_allclose(ch.R, [[1.0]], atol=1e-14)

    def test_deterministic_under_seed(self):
        a = make_random_spreading(16, 8, seed=123)
        b = make_random_spreading(16, 8, seed=123)
        np.testing.assert_array_equal(a.S, b.S)

    def test_users_exceed_gain(self):
        with pytest.raises(DimensionMismatch):
            make_random_spreading(4, 5, seed=0)


class TestTransmit:
    def test_noiseless_identity_channel(self):
        ch = make_equicorrelated(2, 0.0, sigma2=0.0)
        blk = SymbolBlock(b=np.array([[1.0, -1.0]]))
        obs = transmit(ch, blk, rng_seed=0)
        np.testing.assert_allclose(obs.r[0], ch.S @ np.array([1.0, -1.0]),
                                   atol=1e-14)

    def test_noiseless_matched_filter_is_RAb(self):
        ch = make_equicorrelated(3, 0.4, amplitudes=[1.0, 2.0, 0.5],
                                 sigma2=0.0)
        b = np.array([[1.0, -1.0, 1.0]])
        obs = transmit(ch, SymbolBlock(b=b), rng_seed=0)
        np.testing.assert_allclose(obs.y[0], ch.R @ (ch.a * b[0]), atol=1e-12)

    def test_k2_rho07_all_plus_one(self):
        ch = make_equicorrelated(2, 0.7, sigma2=0.0)
        obs = transmit(ch, SymbolBlock(b=np.ones((1, 2))), rng_seed=0)
        np.testing.assert_allclose(obs.y[0], [1.7, 1.7], atol=1e-12)

    def test_noiseless_channel_draws_no_noise(self, monkeypatch):
        ch = make_equicorrelated(2, 0.7, sigma2=0.0)
        blk = SymbolBlock(b=np.array([[1.0, -1.0], [-1.0, -1.0]]))

        def no_draw(*args, **kwargs):
            raise AssertionError("a noiseless channel drew noise")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        obs = transmit(ch, blk, rng_seed=0)
        np.testing.assert_array_equal(obs.r, blk.b * ch.a @ ch.S.T)

    @pytest.mark.parametrize("K", [1, 2, 4, 32])
    @pytest.mark.parametrize("kind", ["equicorrelated", "random"])
    def test_one_receive_on_stacked_frames_equals_per_frame_transmit(
            self, kind, K):
        """The harness draws each frame's noise from its own seed and
        forms a whole group's observation in one ``receive``: its rows
        must be exactly the rows of per-frame ``transmit`` calls.  T = 13
        is no multiple of 8, so BLAS tail kernels run too, and at K = 32
        three stacked frames pass the size where BLAS changes kernels."""
        amps = np.linspace(0.5, 3.0, K)
        if kind == "equicorrelated":
            ch = make_equicorrelated(K, 0.7, amplitudes=amps, sigma2=0.3)
        else:
            ch = make_random_spreading(32 if K == 32 else 2 * K + 1, K,
                                       seed=K, amplitudes=amps, sigma2=0.3)
        T = 13
        rng = np.random.default_rng(K)
        for F in (1, 2, 3):
            b = np.where(rng.standard_normal((F * T, K)) > 0, 1.0, -1.0)
            seeds = [[K, F, f] for f in range(F)]
            frames = [transmit(ch, SymbolBlock(b=b[f * T:(f + 1) * T]),
                               rng_seed=seeds[f]) for f in range(F)]
            noise = np.empty((F * T, ch.N))
            for f in range(F):
                np.random.default_rng(seeds[f]).standard_normal(
                    out=noise[f * T:(f + 1) * T])
            obs = receive(ch, SymbolBlock(b=b), noise, frames=F)
            assert np.array_equal(obs.r, np.concatenate([o.r for o in frames]))
            assert np.array_equal(obs.y, np.concatenate([o.y for o in frames]))

    def test_deterministic_under_seed(self):
        ch = make_equicorrelated(2, 0.7, sigma2=0.5)
        blk = SymbolBlock(b=np.ones((4, 2)))
        o1 = transmit(ch, blk, rng_seed=99)
        o2 = transmit(ch, blk, rng_seed=99)
        np.testing.assert_array_equal(o1.r, o2.r)

    def test_sufficiency_relations(self):
        ch = make_random_spreading(8, 5, seed=2, sigma2=0.3)
        rng = np.random.default_rng(0)
        blk = SymbolBlock(b=np.where(rng.standard_normal((10, 5)) > 0,
                                     1.0, -1.0))
        obs = transmit(ch, blk, rng_seed=5)
        # F^T ybar = y = S^T r on every interval
        F = factor_FtF(ch.R)
        np.testing.assert_allclose(whiten(ch, obs.y) @ F, obs.y, atol=1e-10)
        np.testing.assert_allclose(obs.r @ ch.S, obs.y, atol=1e-12)
        np.testing.assert_allclose(F.T @ F, ch.S.T @ ch.S, atol=1e-10)

    def test_whitened_noise_covariance(self):
        # over many draws with b fixed, cov(ybar - F A b) -> sigma2 I
        sigma2 = 0.25
        ch = make_equicorrelated(2, 0.7, sigma2=sigma2)
        T = 200_000
        b = np.ones((T, 2))
        obs = transmit(ch, SymbolBlock(b=b), rng_seed=7)
        F = factor_FtF(ch.R)
        centered = whiten(ch, obs.y) - (F @ (ch.a * b[0]))[None, :]
        cov = centered.T @ centered / T
        np.testing.assert_allclose(cov, sigma2 * np.eye(2),
                                   atol=0.05 * sigma2)
