"""Exponential-complexity exact references and test-only helpers.

Enumerates all 2^K symbol vectors to evaluate the true posterior, the
exact extrinsic messages under both scheduling conventions, and a dense
grid search over factorized-binary beliefs.  Guarded to small K (a
larger K raises ValueError); the library never calls them.  Also the
closed-form Gaussian conditioning the linear detectors are checked
against, the mean clamp of the mean-field kernel as a function, and, in
earlier frozen forms, that kernel's update, the DDF pass, the BCJR
decoder and the Gaussian flooding read-out.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from turbomud import coding
from turbomud.siso_discrete import (_MEAN_HI, _MEAN_LO, MEAN_CLEARANCE,
                                    _binary_cross_entropy, _fold)
from turbomud.siso_gaussian import _clamp_soft, _ext_llr, _inverse_factors

ENUM_MAX_USERS = 16
GRID_MAX_USERS = 3


def clamp_mean(m):
    """The clamp ``_sweep_block`` applies in place after every tanh."""
    return np.minimum(np.maximum(m, _MEAN_LO), _MEAN_HI)


# The mean-field update as it was first written: keyword outputs and
# read-only 0-d clamp bounds.  The kernel is pinned to it bit for bit.
_FROZEN_LO, _FROZEN_HI = (np.broadcast_to(b, ()) for b in (
    -1.0 + MEAN_CLEARANCE, 1.0 - MEAN_CLEARANCE))


def frozen_sweep_block(Mt, users, H, Bh):
    """``_sweep_block`` in the frozen five-call form: in place on the
    users-major means Mt, returns X = LLR_pos/2 (rows of updated users)."""
    X, tmp = np.empty_like(H), np.empty(H.shape[1])
    for k in users:
        Bh[k].dot(Mt, out=tmp)
        np.subtract(H[k], tmp, out=X[k])
        np.tanh(X[k], out=Mt[k])
        np.maximum(Mt[k], _FROZEN_LO, out=Mt[k])
        np.minimum(Mt[k], _FROZEN_HI, out=Mt[k])
    return X


# The DDF pass as it was first written on users-major blocks: a permuted
# copy of y, the full back-substitution loop (an empty product for the
# last detected user), ``_fold`` into a new H and posterior LLRs always
# formed.  ``ddf_pass_block`` is pinned to it bit for bit.

def frozen_ddf_pass_block(ch, y, prior_llr, pre):
    """(means, posterior LLRs) of ``ddf_pass_block``, users-major."""
    yp = np.asarray(y, dtype=float)[:, pre.order]
    U = pre.F.T
    ybar = np.empty((ch.K, len(yp)))
    for i in reversed(range(ch.K)):
        np.divide(yp[:, i] - U[i, i + 1:] @ ybar[i + 1:], U[i, i],
                  out=ybar[i])
    ybar *= pre.diag_gain[:, None]
    prior = None if prior_llr is None else np.asarray(prior_llr)[:, pre.order]
    H, Bh = _fold(prior, ybar.T, pre.feedback, ch.sigma2)
    Mt = np.zeros_like(H)
    X = frozen_sweep_block(Mt, range(ch.K), H, Bh)
    inverse = np.argsort(pre.order)
    return Mt[inverse], 2.0 * X[inverse]


# The BCJR decoder as it was first batched: each alpha/beta row divided by
# v.max, the per-row low-mass screen on every call, one log per sign
# group, and the size check over the padded inputs.  ``bcjr_decode`` is
# pinned to it bit for bit.  Valid inputs only; it reads SUM_FLOOR and
# BLOCK_NATS from ``coding`` and its masses from ``frozen_block_masses``
# at call time, so a test can patch either.

def frozen_bcjr_decode(code, channel_llrs):
    """(extrinsic, posterior, info_posterior) of ``bcjr_decode``."""
    Lc = np.asarray(channel_llrs, dtype=float)
    n_steps = Lc.shape[-1] // 2
    tail = code.memory
    n_info = n_steps - tail
    signs, mask = code._blocks
    M = mask.shape[1] // 6
    pad = -n_steps % M
    nb, B = (n_steps + pad) // M, Lc.size // (2 * n_steps)
    x = np.zeros((B, nb * M, 3))
    x[:, pad:, :2] = Lc.reshape(B, n_steps, 2)
    size = np.abs(x).max(axis=(1, 2))
    x = x.reshape(B, nb, 3 * M)
    llr = np.empty((B, nb * M, 3))
    redo = size > coding.BLOCK_NATS / (4.5 * M)
    if not redo.all():
        rows = ~redo if redo.any() else slice(None)
        mass = frozen_block_masses(x[rows], signs, mask, pad, tail)
        with np.errstate(divide="ignore"):
            llr[rows] = np.log(mass[..., 0::2]) - np.log(mass[..., 1::2])
        low = mass[:, pad:] < coding.SUM_FLOOR
        redo[rows] = (low[..., :4].any(axis=(1, 2))
                      | low[:, :n_info, 4:].any(axis=(1, 2)))
    if redo.any():
        mass = frozen_block_masses(x[redo], signs, mask, pad, tail, log=True)
        llr[redo] = mass[..., 0::2] - mass[..., 1::2]
    posterior = llr[:, pad:, :2].reshape(Lc.shape)
    info_posterior = llr[:, pad:pad + n_info, 2].reshape(*Lc.shape[:-1],
                                                         n_info)
    return posterior - Lc, posterior, info_posterior


def frozen_block_masses(x, signs, mask, pad, tail, log=False):
    """``coding._block_masses`` in the frozen form, buffers per call."""
    B, nb, _ = x.shape
    S = 1 << (signs.shape[0] // 3)
    q, w = np.empty((2, nb, B, S, S)), np.empty((2, B, 1, S))
    v = np.empty((nb + 1, 2, B, 1, S))
    p = q[0]
    np.matmul(x, signs, out=p.reshape(nb, B, S * S).swapaxes(0, 1))
    if pad:
        p[0, ..., np.arange(S) % (1 << pad) > 0] = -np.inf
    if tail:
        p[-1, ..., 1:] = -np.inf
    if not log:
        np.exp(p, out=p)
    q[1] = p[::-1].swapaxes(-1, -2)
    v[0] = -np.inf if log else 0.0
    v[0, 0, :, 0, 0] = v[0, 1, :, 0, :1 if tail else S] = 0.0 if log else 1.0
    w0, scale = w[..., :1], np.subtract if log else np.divide
    for vk, qk, vnext in zip(v[:-1], q.swapaxes(0, 1), v[1:]):
        if log:
            np.logaddexp.reduce(vk.swapaxes(-1, -2) + qk, axis=-2,
                                keepdims=True, out=w)
        else:
            np.matmul(vk, qk, out=w)
        scale(w, w0, out=vnext)
    if not log:
        v /= v.max(axis=-1, keepdims=True)
    alpha = v[:-1, 0, :, 0]
    beta = v[-2::-1, 1, :, 0]
    if log:
        joint = alpha[..., :, None] + p + beta[..., None, :]
        joint = joint.swapaxes(0, 1).reshape(B, nb, S * S)
        mass = np.stack([np.logaddexp.reduce(np.where(c > 0, joint, -np.inf),
                                             axis=-1) for c in mask.T], -1)
    else:
        joint = q[1]
        np.multiply(alpha[..., :, None], beta[..., None, :], out=joint)
        joint *= p
        mass = np.matmul(joint.reshape(nb, B, S * S).swapaxes(0, 1), mask)
    return mass.reshape(B, -1, 6)


def einsum_flooding_ext_block(ch, Y, Btilde):
    """``flooding_ext_block`` with P V = X^T (X V) read out by the two
    einsums of its first form."""
    Btilde = _clamp_soft(Btilde)
    w = 1.0 - Btilde**2
    X = _inverse_factors(ch, w)
    diagP = np.einsum("tij,tij->tj", X, X)
    V = Y @ ch.Rinv.T - ch.a * Btilde
    PV = np.einsum("tij,ti->tj", X, np.einsum("tij,tj->ti", X, V))
    mu_check = ch.a * PV + Btilde * ch.a**2 * diagP
    return _ext_llr(mu_check, w * ch.a**2 * diagP)


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
