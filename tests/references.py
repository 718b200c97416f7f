"""Exponential-complexity exact references and test-only helpers.

Enumerates all 2^K symbol vectors to evaluate the true posterior, the
exact extrinsic messages under both scheduling conventions, and a dense
grid search over factorized-binary beliefs.  Guarded to small K (a
larger K raises ValueError); the library never calls them.  Also the
closed-form Gaussian conditioning the linear detectors are checked
against, and the mean clamp of the mean-field kernel as a function.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from turbomud.siso_discrete import (_MEAN_HI, _MEAN_LO, MEAN_CLEARANCE,
                                    _binary_cross_entropy)

ENUM_MAX_USERS = 16
GRID_MAX_USERS = 3


def clamp_mean(m):
    """The clamp ``_sweep_block`` applies in place after every tanh."""
    return np.minimum(np.maximum(m, _MEAN_LO), _MEAN_HI)


def _enum_symbols(K):
    """All 2^K BPSK vectors as a (2^K, K) array of +/-1."""
    return np.array(list(product((-1.0, 1.0), repeat=K)))


def _log1p_exp(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _log_prior_table(B, prior_llrs):
    """log prod_k p(b_k) for each row of B, p from per-user LLRs."""
    L = np.asarray(prior_llrs, dtype=float)
    # log p(b=+1) = L - log(1+e^L), log p(b=-1) = -log(1+e^L)
    log_norm = _log1p_exp(L)
    return (B == 1.0) @ (L - log_norm) + (B == -1.0) @ (-log_norm)


def _log_likelihood_table(ch, r, B):
    """log N(r; S A b, sigma2 I) up to the constant -N/2 log(2 pi sigma2)."""
    resid = np.asarray(r, dtype=float)[None, :] - (B * ch.a) @ ch.S.T
    return -np.sum(resid * resid, axis=1) / (2.0 * ch.sigma2)


@dataclass(frozen=True)
class ExactPosterior:
    """Joint posterior table over {+/-1}^K plus per-user marginals.

    ``joint`` is indexed in the row order of the enumeration table
    ``symbols``; ``marginal_plus[k]`` is p(b_k = +1 | r).
    """

    symbols: np.ndarray
    joint: np.ndarray
    marginal_plus: np.ndarray


def exact_posterior(ch, r, prior_llrs=None):
    """Brute-force p(b | r) with Gaussian likelihood and factorized priors.

    Works in the log domain with max-subtraction so high-SNR instances
    do not underflow.
    """
    if ch.K > ENUM_MAX_USERS:
        raise ValueError(f"enumeration guarded to K <= {ENUM_MAX_USERS}")
    if prior_llrs is None:
        prior_llrs = np.zeros(ch.K)
    B = _enum_symbols(ch.K)
    logp = _log_likelihood_table(ch, r, B) + _log_prior_table(B, prior_llrs)
    logp -= np.max(logp)
    joint = np.exp(logp)
    joint /= np.sum(joint)
    marg = np.array([np.sum(joint[B[:, k] == 1.0]) for k in range(ch.K)])
    return ExactPosterior(symbols=B, joint=joint, marginal_plus=marg)


def _logsumexp(v):
    m = np.max(v)
    return m + np.log(np.sum(np.exp(v - m)))


def exact_ext(ch, r, prior_llrs, k):
    """Exact extrinsic LLR for user k, computed two equivalent ways.

    Sequential form: marginalize p(r|b) against the other users' priors
    only.  Flooding form: posterior LLR (all priors) minus the own
    prior LLR.  Under exact inference the two coincide; both are
    computed and cross-checked here before returning.
    """
    if ch.K > ENUM_MAX_USERS:
        raise ValueError(f"enumeration guarded to K <= {ENUM_MAX_USERS}")
    prior_llrs = np.asarray(prior_llrs, dtype=float)
    B = _enum_symbols(ch.K)
    loglik = _log_likelihood_table(ch, r, B)

    # marginalization with user k's own prior forced uniform
    loo = prior_llrs.copy()
    loo[k] = 0.0
    logm = loglik + _log_prior_table(B, loo)
    seq = _logsumexp(logm[B[:, k] == 1.0]) - _logsumexp(logm[B[:, k] == -1.0])

    # posterior-over-prior ratio with all priors in place
    logp = loglik + _log_prior_table(B, prior_llrs)
    post = _logsumexp(logp[B[:, k] == 1.0]) - _logsumexp(logp[B[:, k] == -1.0])
    flood = post - prior_llrs[k]

    if abs(seq - flood) > 1e-12 * max(1.0, abs(seq)):
        raise AssertionError(
            f"extrinsic message mismatch: {seq!r} vs {flood!r}"
        )
    return seq


def gaussian_conditioning(ch, r, prior="standard_normal"):
    """Exact posterior of b | r when b is postulated Gaussian.

    Independent closed-form reference for the linear detectors: with
    b ~ N(0, I) the joint covariance of (b, r) gives

        E[b|r] = A^T S^T (S A A^T S^T + sigma2 I)^{-1} r,

    and with a flat prior the posterior is N(argmin ||r - S A b||^2,
    sigma2 (A^T S^T S A)^{-1}); both are evaluated without the
    detector-side matrix identities.
    """
    r = np.asarray(r, dtype=float)
    SA = ch.S * ch.a
    if prior == "standard_normal":
        cov_r = SA @ SA.T + ch.sigma2 * np.eye(ch.N)
        mu = SA.T @ np.linalg.solve(cov_r, r)
        Sigma = np.eye(ch.K) - SA.T @ np.linalg.solve(cov_r, SA)
        return mu, Sigma
    if prior == "flat":
        mu, *_ = np.linalg.lstsq(SA, r, rcond=None)
        Sigma = ch.sigma2 * np.linalg.inv(SA.T @ SA)
        return mu, Sigma
    raise ValueError(f"unknown prior {prior!r}")


def grid_min_Fdisc(ch, r, prior_llrs, grid_step=None):
    """Dense grid search for the factorized-binary free-energy minimizer.

    Returns the grid point in (-1, 1)^K minimizing the discrete free
    energy.  Default step: 1e-3 for K <= 2, 1e-2 for K = 3 (runtime
    bounded).  Up to a constant the free energy is separable plus
    pairwise bilinear, sum_k h_k(m_k) + sum_{i<j} G_ij m_i m_j / sigma2
    with h_k the binary cross-entropy minus a_k y_k m_k / sigma2, so
    the lattice values are per-axis terms and outer products broadcast
    against each other.
    """
    if ch.K > GRID_MAX_USERS:
        raise ValueError(f"grid search guarded to K <= {GRID_MAX_USERS}")
    if grid_step is None:
        grid_step = 1e-3 if ch.K <= 2 else 1e-2
    # uniform lattice plus the belief-clamp boundary: minimizers pinned
    # within the last step of +/-1 would otherwise be edge-clipped
    edge = 1.0 - MEAN_CLEARANCE
    axis = np.concatenate(([-edge], np.arange(-1.0 + grid_step, 1.0,
                                              grid_step), [edge]))
    btilde = np.tanh(np.asarray(prior_llrs, dtype=float) / 2.0)
    ay = ch.a * (ch.S.T @ np.asarray(r, dtype=float))
    G = (ch.a[:, None] * ch.R) * ch.a[None, :]

    def along(k, values):
        """``values`` over the lattice axis of user k, broadcast shape."""
        shape = [1] * ch.K
        shape[k] = axis.size
        return values.reshape(shape)

    vals = np.zeros((axis.size,) * ch.K)
    for k in range(ch.K):
        h = _binary_cross_entropy(axis[:, None], btilde[k:k + 1]) \
            - ay[k] * axis / ch.sigma2
        vals += along(k, h)
        for j in range(k):
            vals += along(j, (G[j, k] / ch.sigma2) * axis) * along(k, axis)
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    return axis[np.array(idx)]
