import numpy as np
import pytest

from turbomud.errors import DimensionMismatch, NotPositiveDefinite
from turbomud.linalg import factor_FtF, spd_inverse, spd_solve


def textbook_cholesky(A):
    """Independent triple-loop lower Cholesky A = L L^T (test oracle)."""
    n = A.shape[0]
    L = np.zeros_like(A)
    for i in range(n):
        for j in range(i + 1):
            s = sum(L[i, k] * L[j, k] for k in range(j))
            if i == j:
                L[i, j] = np.sqrt(A[i, i] - s)
            else:
                L[i, j] = (A[i, j] - s) / L[j, j]
    return L


def random_spd(rng, n, jitter=0.5):
    X = rng.standard_normal((n, n))
    return X @ X.T + jitter * n * np.eye(n)


class TestFactorFtF:
    def test_identity(self):
        np.testing.assert_array_equal(factor_FtF(np.eye(2)), np.eye(2))

    def test_2x2_closed_form(self):
        # solving F^T F = R by hand for the lower-triangular unknowns:
        # F = [[sqrt(1 - rho^2), 0], [rho, 1]] for unit-diagonal R
        R = np.array([[1.0, 0.7], [0.7, 1.0]])
        F = factor_FtF(R)
        expected = np.array([[np.sqrt(0.51), 0.0], [0.7, 1.0]])
        np.testing.assert_allclose(F, expected, atol=1e-14)
        np.testing.assert_allclose(F.T @ F, R, atol=1e-14)

    def test_3x3_equicorrelated_vs_reversed_textbook_cholesky(self):
        rho = 0.7
        R = np.full((3, 3), rho)
        np.fill_diagonal(R, 1.0)
        F = factor_FtF(R)
        assert np.max(np.abs(F.T @ F - R)) < 1e-12
        L = textbook_cholesky(R[::-1, ::-1])
        np.testing.assert_allclose(F, L[::-1, ::-1].T, atol=1e-12)

    def test_random_spd_factor_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 9)
            R = random_spd(rng, n)
            F = factor_FtF(R)
            scale = np.max(np.abs(R))
            assert np.max(np.abs(F.T @ F - R)) <= 1e-10 * scale
            assert np.allclose(np.triu(F, 1), 0.0)
            assert np.all(np.diagonal(F) > 0)

    def test_whitening_identity(self):
        # Cov(F^{-T} z) = sigma2 I when Cov(z) = sigma2 R
        rng = np.random.default_rng(3)
        R = random_spd(rng, 4)
        F = factor_FtF(R)
        sigma2 = 0.3
        cov = np.linalg.solve(F.T, np.linalg.solve(F.T, sigma2 * R).T).T
        np.testing.assert_allclose(cov, sigma2 * np.eye(4), atol=1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            factor_FtF(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            factor_FtF(np.diag([1.0, 1e-13]))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            factor_FtF(np.array([[1.0, 0.5], [0.1, 1.0]]))


class TestSpdSolve:
    def test_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(spd_solve(np.eye(3), v), v)

    def test_diagonal(self):
        x = spd_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_residual_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            M = random_spd(rng, 5)
            rhs = rng.standard_normal(5)
            x = spd_solve(M, rhs)
            assert np.linalg.norm(M @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(5)
        M = random_spd(rng, 6)
        np.testing.assert_allclose(spd_inverse(M) @ M, np.eye(6), atol=1e-9)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solve(np.array([[0.0, 0.0], [0.0, 1.0]]), np.ones(2))

