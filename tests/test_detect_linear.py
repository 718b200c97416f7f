import numpy as np
import pytest

from turbomud import detect_linear
from turbomud.channel import SymbolBlock, make_equicorrelated, transmit
from turbomud.detect_linear import (DECORRELATOR, MMSE, ClipBox,
                                    GaussianBelief, decorrelate,
                                    free_energy_gradient_linear,
                                    free_energy_linear, mmse, pme_alpha, sic)
from turbomud.errors import SingularCovariance
from turbomud.siso_gaussian import free_energy_gauss

from references import gaussian_conditioning


def noiseless_obs(ch, b):
    return transmit(ch, SymbolBlock(b=np.asarray(b)[None, :]), rng_seed=0).r[0]


class TestDecorrelate:
    def test_noiseless_recovers_symbols(self):
        ch = make_equicorrelated(4, 0.7, amplitudes=[1.0, 0.5, 2.0, 1.0],
                                 sigma2=0.0)
        b = np.array([1.0, -1.0, -1.0, 1.0])
        out = decorrelate(ch, noiseless_obs(ch, b))
        np.testing.assert_allclose(out.mu, b, atol=1e-10)

    def test_diagonal_case(self):
        ch = make_equicorrelated(2, 0.0, amplitudes=[2.0, 3.0], sigma2=0.4)
        out = decorrelate(ch, np.array([2.0, -3.0]))
        np.testing.assert_allclose(out.mu, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(out.Sigma,
                                   0.4 * np.diag([0.25, 1.0 / 9.0]),
                                   atol=1e-12)

    def test_matches_least_squares_oracle(self):
        ch = make_equicorrelated(2, 0.5, sigma2=0.3)
        rng = np.random.default_rng(8)
        for _ in range(20):
            r = rng.standard_normal(2)
            mu_ref, Sigma_ref = gaussian_conditioning(ch, r, prior="flat")
            out = decorrelate(ch, r)
            np.testing.assert_allclose(out.mu, mu_ref, atol=1e-10)
            np.testing.assert_allclose(out.Sigma, Sigma_ref, atol=1e-10)


class TestMmse:
    def test_orthogonal_codes_scalar_form(self):
        ch = make_equicorrelated(3, 0.0, amplitudes=[1.0, 2.0, 0.5],
                                 sigma2=0.7)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(3)
        y = ch.S.T @ r
        out = mmse(ch, r)
        np.testing.assert_allclose(out.mu, ch.a * y / (ch.a**2 + 0.7),
                                   rtol=1e-12)

    def test_small_noise_limit_is_decorrelator(self):
        ch = make_equicorrelated(3, 0.6, sigma2=1e-10)
        r = np.random.default_rng(2).standard_normal(3)
        assert np.max(np.abs(mmse(ch, r).mu - decorrelate(ch, r).mu)) < 1e-6

    def test_gradient_stationarity(self):
        ch = make_equicorrelated(4, 0.7, sigma2=0.5)
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = rng.standard_normal(4)
            g = free_energy_gradient_linear(ch, r, mmse(ch, r).mu, MMSE)
            assert np.linalg.norm(g) < 1e-8
            g0 = free_energy_gradient_linear(ch, r, decorrelate(ch, r).mu,
                                             DECORRELATOR)
            assert np.linalg.norm(g0) < 1e-8

    def test_matches_gaussian_conditioning_oracle(self):
        ch = make_equicorrelated(4, 0.7, amplitudes=[1.0, 1.5, 0.7, 1.2],
                                 sigma2=0.9)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(4)
        mu_ref, Sigma_ref = gaussian_conditioning(ch, r)
        out = mmse(ch, r)
        np.testing.assert_allclose(out.mu, mu_ref, atol=1e-10)
        np.testing.assert_allclose(out.Sigma, Sigma_ref, atol=1e-10)


class TestPmeAlpha:
    def setup_method(self):
        self.ch = make_equicorrelated(4, 0.4, sigma2=0.6)
        self.r = np.random.default_rng(5).standard_normal(4)

    def test_alpha_sigma_is_mmse(self):
        np.testing.assert_allclose(pme_alpha(self.ch, self.r, 0.6),
                                   mmse(self.ch, self.r).mu, atol=1e-12)

    def test_alpha_zero_is_decorrelator(self):
        np.testing.assert_allclose(pme_alpha(self.ch, self.r, 0.0),
                                   decorrelate(self.ch, self.r).mu,
                                   atol=1e-12)

    def test_large_alpha_matched_filter_direction(self):
        out = pme_alpha(self.ch, self.r, 1e8)
        mf = self.ch.a * (self.ch.S.T @ self.r)
        cos = out @ mf / (np.linalg.norm(out) * np.linalg.norm(mf))
        assert cos > 0.9999


class TestSic:
    def setup_method(self):
        self.ch = make_equicorrelated(4, 0.7, sigma2=0.5)
        self.r = np.random.default_rng(6).standard_normal(4)

    def test_converges_to_mmse(self):
        mu = sic(self.ch, self.r, target=MMSE, sweeps=200)
        assert np.max(np.abs(mu - mmse(self.ch, self.r).mu)) < 1e-8

    def test_decorrelator_target_fixed_point(self):
        mu = sic(self.ch, self.r, target=DECORRELATOR, sweeps=400)
        assert np.max(np.abs(mu - decorrelate(self.ch, self.r).mu)) < 1e-8

    def test_inactive_box_equals_unclipped(self):
        # scale r down until the unconstrained minimizer is inside the box
        r = 0.1 * self.r
        assert np.max(np.abs(mmse(self.ch, r).mu)) < 1.0
        clipped = sic(self.ch, r, box=ClipBox(-1.0, 1.0), sweeps=200)
        free = sic(self.ch, r, sweeps=200)
        np.testing.assert_array_equal(clipped, free)

    def test_sweeps_stop_once_converged(self, monkeypatch):
        ch = make_equicorrelated(3, 0.2, sigma2=0.5)
        r = np.random.default_rng(7).standard_normal(3)

        def updates():
            trace = []
            sic(ch, r, sweeps=500, callback=trace.append)
            return len(trace)

        assert updates() < 30 * 3
        monkeypatch.setattr(detect_linear, "CONVERGED_DELTA", -1.0)
        assert updates() == 500 * 3

    def test_first_sweep_hand_unrolled(self):
        ch = make_equicorrelated(2, 0.7, sigma2=0.3)
        r = np.array([0.9, -1.4])
        trace = []
        sic(ch, r, sweeps=1, callback=trace.append)
        s1, s2 = ch.S[:, 0], ch.S[:, 1]
        mu1 = s1 @ r / (1.0 + 0.3)
        mu2 = s2 @ (r - s1 * mu1) / (1.0 + 0.3)
        np.testing.assert_allclose(trace[-1], [mu1, mu2], rtol=1e-12)

    @pytest.mark.parametrize("target", [MMSE, DECORRELATOR])
    @pytest.mark.parametrize("box", [ClipBox(), ClipBox(-1.0, 1.0)])
    def test_monotone_descent(self, target, box):
        energies = []
        sic(self.ch, self.r, box=box, target=target, sweeps=30,
            callback=lambda mu: energies.append(
                free_energy_linear(self.ch, self.r, mu, target)))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("order", ["almost_cyclic", "gauss_southwell"])
    def test_relaxed_orders_descend(self, order):
        energies = []
        sic(self.ch, self.r, target=MMSE, sweeps=20, order=order, seed=3,
            callback=lambda mu: energies.append(
                free_energy_linear(self.ch, self.r, mu, MMSE)))
        assert np.all(np.diff(energies) <= 1e-12)

    def test_linear_convergence_witness(self):
        mu_star = mmse(self.ch, self.r).mu
        trace = []
        sic(self.ch, self.r, target=MMSE, sweeps=40,
            callback=trace.append)
        sweep_ends = trace[3::4]  # last update of each sweep (K = 4)
        errs = [np.linalg.norm(m - mu_star) for m in sweep_ends]
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)
                  if errs[i + 1] > 1e-10]  # stop before the precision floor
        late = ratios[3:]
        assert len(late) >= 5
        assert max(late) < 0.9  # contraction bounded below 1
        assert max(late) / min(late) < 2.0  # roughly constant rate

    def test_clipped_kkt(self):
        # drive the unconstrained optimum outside the unit box
        ch = make_equicorrelated(3, 0.7, amplitudes=[1.0, 1.0, 1.0],
                                 sigma2=0.05)
        r = noiseless_obs(ch, np.array([1.0, 1.0, -1.0])) * 2.5
        box = ClipBox(-1.0, 1.0)
        mu = sic(ch, r, box=box, target=MMSE, sweeps=500)
        g = free_energy_gradient_linear(ch, r, mu, MMSE)
        for k in range(3):
            if abs(mu[k] - box.hi) < 1e-12:
                assert g[k] <= 1e-8  # pushing past the upper bound
            elif abs(mu[k] - box.lo) < 1e-12:
                assert g[k] >= -1e-8
            else:
                assert abs(g[k]) < 1e-8

    def test_zero_start_documented(self):
        trace = []
        sic(self.ch, self.r, sweeps=1,
            callback=lambda mu: trace.append(mu))
        # after the first coordinate update, the remaining entries are 0
        assert np.all(trace[0][1:] == 0.0)


def test_indefinite_covariance_raises_singular_covariance():
    """The linear and the Gaussian-SISO free energies reject a Sigma that
    is not positive definite with the same package error."""
    ch = make_equicorrelated(2, 0.5, sigma2=0.5)
    r, mu = np.array([0.4, -0.3]), np.array([0.2, -0.1])
    Sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(SingularCovariance):
        free_energy_linear(ch, r, mu, MMSE, Sigma)
    with pytest.raises(SingularCovariance):
        free_energy_gauss(ch, r, np.zeros(2), GaussianBelief(mu, Sigma))
