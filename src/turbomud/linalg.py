"""Dense symmetric linear-algebra kernel.

Everything here operates on small K x K matrices (K is the number of
users, a few tens at most), so plain LAPACK-backed numpy calls are used
throughout.  The one non-standard piece is ``factor_FtF``: the whitening
convention used by the rest of the package is R = F^T F with F *lower*
triangular, which is the reverse of the textbook Cholesky R = L L^T.
"""

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Cholesky pivots (squared diagonal entries of the factor) at or below
# this threshold are treated as a failed factorization.  Callers that
# need robustness add explicit diagonal loading; no silent jitter here.
PIVOT_FLOOR = 1e-12


def _cholesky_lower(M):
    """Standard Cholesky M = L L^T with the pivot floor enforced."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    d = np.diagonal(L)
    if np.min(d * d) <= PIVOT_FLOOR:
        raise NotPositiveDefinite(
            f"pivot {np.min(d * d):.3e} at or below {PIVOT_FLOOR:.0e}"
        )
    return L


def check_symmetric(M):
    """Validate that M is square and symmetric to relative tolerance 1e-12."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {M.shape}")
    scale = max(np.max(np.abs(M)), 1.0)
    if np.max(np.abs(M - M.T)) > 1e-12 * scale:
        raise DimensionMismatch("matrix is not symmetric")
    return M


def factor_FtF(R):
    """Factor a symmetric positive definite R as R = F^T F, F lower triangular.

    This is the reversed-index counterpart of the usual Cholesky
    factorization: permuting rows and columns of R with the index
    reversal P, factoring P R P = L L^T, and permuting back gives an
    upper-triangular U = P L P with R = U U^T; its transpose is the
    lower-triangular F.

    Raises NotPositiveDefinite if any pivot is at or below 1e-12.
    """
    R = check_symmetric(R)
    L = _cholesky_lower(R[::-1, ::-1])
    F = L[::-1, ::-1].T.copy()
    return F


def spd_solve(M, rhs):
    """Solve M x = rhs for symmetric positive definite M."""
    M = check_symmetric(M)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != M.shape[0]:
        raise DimensionMismatch(
            f"rhs length {rhs.shape[0]} does not match matrix dim {M.shape[0]}"
        )
    L = _cholesky_lower(M)
    # Two triangular solves; cheaper and better conditioned than inv(M) @ rhs.
    z = np.linalg.solve(L, rhs)
    return np.linalg.solve(L.T, z)


def spd_inverse(M):
    """Inverse of a symmetric positive definite matrix via its factor."""
    M = check_symmetric(M)
    L = _cholesky_lower(M)
    Linv = np.linalg.solve(L, np.eye(M.shape[0]))
    return Linv.T @ Linv

