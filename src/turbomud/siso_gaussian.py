"""Gaussian soft-in-soft-out multiuser detection.

The detector postulates a Gaussian prior N(btilde, W) built from the
decoder's soft bits (W = diag(1 - btilde^2)), a Gaussian channel
p(r|b) = N(S A b, sigma2 I) and a Gaussian belief Q(b) = N(mu, Sigma),
then minimizes the free energy exactly.  Extrinsic log-likelihood
ratios come in two forms that give the same LLRs:

* leave-one-out: user k's own prior forced uninformative,
  LLR = 2 mu'_k / (1 - alpha_k);
* Gaussian division: one shared solve with the full prior, the own
  prior divided out, LLR = 2 mucheck_k / (1 - alphacheck_k).

The own prior moves only C_kk of C = A W A + sigma2 R^{-1}, so by
Sherman-Morrison it divides mu'_k and 1 - alpha_k by one common factor
and leaves their ratio unchanged.  The hybrid schedule (every user
leave-one-out against the same priors) therefore equals flooding and
runs on the shared solve; sequential differs through its fresher
priors.  For the discrete family the schedules stay distinct: the
mean-field sweeps feed a user's own prior back to it through the other
users' beliefs.

Each extrinsic has one kernel over a (T, K) block of intervals;
``ext_flooding`` and ``ext_hybrid`` call it with T = 1.  Both kernels
form 2 mu / (1 - alpha) in ``_ext_llr``, which raises DegeneratePrior
when 1 - alpha falls below EXT_VAR_FLOOR.  The independently coded
two-stage soft-IC + MMSE detector (Wang & Poor 1999) is
``wang_poor_oracle``; ``ext_hybrid`` must match it.
"""

from dataclasses import dataclass

import numpy as np

from .coding import LlrFrame
from .errors import (DegeneratePrior, DimensionMismatch, NotPositiveDefinite,
                     SingularCovariance)
from .detect_linear import GaussianBelief
from .linalg import spd_inverse, spd_solve

# Soft bits are clamped so every prior variance stays at or above this
# floor; keeps W^{-1} bounded when the decoder saturates.
VAR_FLOOR = 1e-6
# Extrinsics passed to the decoder are clamped to +/- this magnitude.
LLR_CLAMP = 30.0
# 1 - alpha below this is treated as a degenerate extrinsic variance.
EXT_VAR_FLOOR = 1e-12
INVERSE_BLOCK = 4  # rows per block of the inverse factors (2, 8: slower)

SEQUENTIAL = "sequential"
FLOODING = "flooding"
HYBRID = "hybrid"
SCHEDULES = (FLOODING, SEQUENTIAL, HYBRID)


def clamp_llr(llr):
    """Clamp LLRs into [-30, 30] (maps infinities to the bounds)."""
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)


def soft_bits(llr):
    """Decoder LLRs -> soft bit means tanh(LLR/2), clamped by the kernels."""
    return np.tanh(np.asarray(llr, dtype=float) / 2.0)


def _without_user(llr_dec, k):
    work = llr_dec.copy()
    work[:, k] = 0.0
    return work


def _clamp_soft(btilde):
    lim = np.sqrt(1.0 - VAR_FLOOR)
    return np.clip(np.asarray(btilde, dtype=float), -lim, lim)


@dataclass(frozen=True)
class GaussianPrior:
    """Soft-bit prior means with their implied diagonal variances.

    btilde is clamped so that W_kk = 1 - btilde_k^2 >= 1e-6.
    """

    btilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "btilde", _clamp_soft(self.btilde))

    @property
    def w(self):
        """Diagonal of W as a vector."""
        return 1.0 - self.btilde**2


def free_energy_gauss(ch, r, prior, q):
    """Free energy of a Gaussian belief against prior and likelihood.

    Convention: all additive constants are kept, so the value equals
    the KL divergence from Q to the complete likelihood p(b)p(r|b)
    exactly (integral form), not just up to a constant.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(q.mu, dtype=float)
    Sigma = np.asarray(q.Sigma, dtype=float)
    sign, logdet_S = np.linalg.slogdet(Sigma)
    if sign <= 0:
        raise SingularCovariance("belief covariance not positive definite")
    w = prior.w
    if np.any(w <= 0):
        raise SingularCovariance("prior variances must be positive")
    dm = mu - prior.btilde
    resid = r - ch.S @ (ch.a * mu)
    return float(
        -0.5 * logdet_S
        - 0.5 * ch.K
        + 0.5 * np.sum(np.log(w))
        + 0.5 * (np.sum(dm * dm / w) + np.sum(np.diagonal(Sigma) / w))
        + 0.5 * ch.N * np.log(2.0 * np.pi * ch.sigma2)
        + (resid @ resid + np.sum(ch.gram * Sigma.T)) / (2.0 * ch.sigma2)
    )


def free_energy_gauss_gradient_mu(ch, r, prior, mu):
    """Analytic gradient of ``free_energy_gauss`` in the belief mean."""
    mu = np.asarray(mu, dtype=float)
    rhs = ch.a * (ch.S.T @ np.asarray(r, dtype=float))
    return (ch.gram @ mu - rhs) / ch.sigma2 + (mu - prior.btilde) / prior.w


def solve_gauss(ch, r, prior):
    """Exact minimizer of the Gaussian free energy.

    mu    = btilde + (A^T S^T S A + sigma2 W^{-1})^{-1} A^T S^T (r - S A btilde)
    Sigma = (A^T S^T S A / sigma2 + W^{-1})^{-1}
    """
    r = np.asarray(r, dtype=float)
    G = ch.gram
    w = prior.w
    M = G + ch.sigma2 * np.diag(1.0 / w)
    rhs = ch.a * (ch.S.T @ (r - ch.S @ (ch.a * prior.btilde)))
    mu = prior.btilde + spd_solve(M, rhs)
    Sigma = spd_inverse(G / ch.sigma2 + np.diag(1.0 / w)) if ch.sigma2 > 0 else \
        np.zeros((ch.K, ch.K))
    return GaussianBelief(mu=mu, Sigma=Sigma)


# ----------------------------------------------------------------------
# Extrinsic kernels over T symbol intervals at once.  A W A is diagonal,
# so the per-interval filter matrices differ only on the diagonal and
# are factored by one batched Cholesky call.  A block whose priors are
# all equal (decoder LLRs still 0, so w = 1, as in every first flooding
# iteration) has one C_t, factored once and broadcast over T.  Each call
# builds C in ``work`` (None allocates; no output shares it); the turbo
# loop keeps that (T, K, K) buffer, as a fresh 1 MB C per call faults in
# new pages.
# ----------------------------------------------------------------------

def _inverse_factors(ch, w_block, work=None):
    """X_t = L_t^{-1} of C_t = diag(a^2 w_t) + sigma2 R^{-1} = L_t L_t^T.

    P_t = C_t^{-1} = X_t^T X_t: diag(P_t) is the column sums of X_t * X_t
    and row k of P_t is X_t^T X_t[:, k].  X overwrites L by blocks of
    INVERSE_BLOCK rows, then row by row: a row recurrence inverts every
    diagonal block at once, then block row s is -X_ss (L_s,:s X_:s,:s).
    No pivot floor: a pivot below linalg.PIVOT_FLOOR can still be well
    resolved.  Equal rows of w_block give one X, broadcast read-only.
    """
    C = np.empty(w_block.shape + (ch.K,)) if work is None else work
    if (C.shape != w_block.shape + (ch.K,) or C.dtype != float
            or not C.flags.c_contiguous):
        raise DimensionMismatch(f"work is {C.dtype} {C.shape}, not a "
                                "C-contiguous (T, K, K)")
    shape = C.shape
    if shape[0] > 1 and (w_block == w_block[0]).all():
        w_block, C = w_block[:1], C[:1]
    np.multiply(ch.sigma2, ch.Rinv, out=C)
    C.reshape(len(C), -1)[:, ::ch.K + 1] += ch.a**2 * w_block  # diagonals
    try:
        X = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    diagonal = X.reshape(len(X), -1)[:, ::ch.K + 1]
    np.divide(1.0, diagonal, out=diagonal)
    b, (st, sr, sc) = INVERSE_BLOCK, X.strides
    full = ch.K - ch.K % b
    D = np.lib.stride_tricks.as_strided(  # the diagonal blocks
        X, (len(X), full // b, b, b), (st, b * (sr + sc), sr, sc))
    for i in range(1, b):  # row i of X needs row i of L and X's rows above
        D[..., i, :i] = -D[..., i, i, None] * (
            D[..., i, None, :i] @ D[..., :i, :i])[..., 0, :]
    ends = [*range(b, full + 1, b), *range(full + 1, ch.K + 1)]
    for s, e in zip(ends, ends[1:]):
        X[:, s:e, :s] = X[:, s:e, s:e] @ -(X[:, s:e, :s] @ X[:, :s, :s])
    return X if len(X) == shape[0] else np.broadcast_to(X, shape)


def _ext_llr(mu, alpha):
    """Extrinsic LLR 2 mu / (1 - alpha), the one degenerate-variance policy.

    An extrinsic variance 1 - alpha below EXT_VAR_FLOOR leaves the
    symbol unresolvable and raises DegeneratePrior; it is never clamped.
    """
    ext_var = 1.0 - alpha
    if np.any(ext_var < EXT_VAR_FLOOR):
        raise DegeneratePrior(f"extrinsic variance {np.min(ext_var):.3e} "
                              f"below {EXT_VAR_FLOOR:.0e}")
    return 2.0 * mu / ext_var


def flooding_ext_block(ch, Y, Btilde, work=None):
    """Flooding extrinsic LLRs for a whole (T, K) block.

    Gaussian division of the posterior of one shared solve per interval,
    P = (A W A + sigma2 R^{-1})^{-1}, by the own prior:
    mucheck_k = A_k e_k^T P (R^{-1} y - A btilde) + btilde_k A_k^2 P_kk,
    alphacheck_k = (1 - btilde_k^2) A_k^2 P_kk.
    """
    Btilde = _clamp_soft(Btilde)
    w = 1.0 - Btilde**2
    X = _inverse_factors(ch, w, work)
    diagP = np.einsum("tij,tij->tj", X, X)
    V = Y @ ch.Rinv.T - ch.a * Btilde
    PV = np.matmul(np.matmul(X, V[..., None]).swapaxes(-1, -2), X)[:, 0]
    mu_check = ch.a * PV + Btilde * ch.a**2 * diagP
    return _ext_llr(mu_check, w * ch.a**2 * diagP)


def loo_ext_block(ch, Y, Btilde, k, work=None):
    """Leave-one-out extrinsic LLRs of user k for a whole (T, K) block."""
    Btilde = _clamp_soft(np.array(Btilde, dtype=float))
    Btilde[:, k] = 0.0
    w = 1.0 - Btilde**2
    X = _inverse_factors(ch, w, work)
    Pk = np.einsum("ti,tij->tj", X[:, :, k], X)
    V = Y @ ch.Rinv.T - ch.a * Btilde
    mu = ch.a[k] * np.einsum("tj,tj->t", Pk, V)
    return _ext_llr(mu, ch.a[k] ** 2 * Pk[:, k])


def ext_hybrid(ch, y, prior):
    """Leave-one-out extrinsic LLRs of one interval from matched filter y.

    For each user k the prior of b_k is ignored (mean 0, variance 1)
    and the exact minimizer is evaluated; the extrinsic LLR is
    2 mu'_k / (1 - alpha_k).  All K users see the same incoming priors.
    ``loo_ext_block`` with T = 1, once per user.
    """
    Y = np.asarray(y, dtype=float)[None]
    return np.array([loo_ext_block(ch, Y, prior.btilde[None], k)[0]
                     for k in range(ch.K)])


def wang_poor_oracle(ch, y, prior):
    """Two-stage soft-IC + MMSE detector, coded independently.

    Stage one subtracts the remodulated soft estimates of the other
    users from the matched filter output; stage two applies the
    residual-interference MMSE filter.  With the filter output z_k
    modelled as alpha_k b_k + Gaussian noise of variance
    alpha_k - alpha_k^2, the extrinsic LLR is 2 z_k / (1 - alpha_k).
    Returns (llr, z); must match ``ext_hybrid``.
    """
    y = np.asarray(y, dtype=float)
    Rinv = spd_inverse(ch.R)
    Rinv_y = Rinv @ y
    llr = np.empty(ch.K)
    z = np.empty(ch.K)
    for k in range(ch.K):
        bt_k = prior.btilde.copy()
        bt_k[k] = 0.0               # own prior forced uninformative
        C = np.diag(ch.a**2 * (1.0 - bt_k**2)) + ch.sigma2 * Rinv
        Cinv = spd_inverse(C)
        z[k] = ch.a[k] * (Cinv[k] @ (Rinv_y - ch.a * bt_k))
        alpha = ch.a[k] ** 2 * Cinv[k, k]
        if 1.0 - alpha < EXT_VAR_FLOOR:
            raise DegeneratePrior(f"1 - alpha = {1 - alpha:.3e} for user {k}")
        llr[k] = 2.0 * z[k] / (1.0 - alpha)
    return llr, z


def ext_flooding(ch, y, prior):
    """Flooding extrinsic LLRs of one interval: ``flooding_ext_block``."""
    return flooding_ext_block(ch, np.asarray(y, dtype=float)[None],
                              prior.btilde[None])[0]


class TurboLoop:
    """Stateful detector/decoder exchange, one outer iteration at a time.

    The decoder LLRs, and with them the soft-bit priors, persist across
    iterations.  The channel is an argument of each iteration, fixed
    within it, so the joint-estimation loop can refresh amplitude and
    noise estimates between iterations.  A detector family subclasses
    it with its own ``iterate(ch)``, which hands two extrinsic functions
    on that channel to ``_exchange``.
    """

    def __init__(self, obs, decoder, schedule):
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {schedule!r}")
        self.decoder = decoder
        self.schedule = schedule
        self.llr_dec = np.zeros(obs.y.shape)

    def _exchange(self, ext_all, ext_user):
        """One outer detector/decoder exchange under ``self.schedule``.

        The family supplies unclamped extrinsics on one channel:
        ``ext_all(dec)`` of every user given decoder LLRs ``dec``, and
        ``ext_user(work, k)`` of user k given decoder LLRs ``work`` with
        column k zeroed.  Sequential and hybrid detect user by user;
        sequential decodes each user right after detecting it, so under
        hybrid every user sees the previous iteration's decoder LLRs.
        Flooding and hybrid decode all users in one batched call.  The
        frame's ``llr_dec`` is the new decoder state.
        """
        T, K = self.llr_dec.shape
        decode = self.decoder.decode_user
        new_dec = np.array(self.llr_dec, dtype=float)
        info = [None] * K
        if self.schedule == FLOODING:
            llr_mud = clamp_llr(ext_all(self.llr_dec))
        else:
            llr_mud = np.empty((T, K))
            for k in range(K):
                llr_mud[:, k] = clamp_llr(
                    ext_user(_without_user(new_dec, k), k))
                if self.schedule == SEQUENTIAL:
                    new_dec[:, k], info[k] = decode(k, llr_mud[:, k])
        if self.schedule != SEQUENTIAL:
            new_dec[:], info = decode(slice(None), llr_mud)
        self.llr_dec = new_dec
        return LlrFrame(llr_mud, new_dec, llr_mud + new_dec, list(info))


class GaussianTurboLoop(TurboLoop):
    """``TurboLoop`` on the Gaussian kernels.  It owns their ``work``
    buffer, so its calls reuse mapped pages.  Leave-one-out extrinsics
    equal the Gaussian-division ones (module docstring), so hybrid runs
    as flooding, on the one shared solve rather than K solves."""

    def __init__(self, obs, decoder, schedule):
        super().__init__(obs, decoder,
                         FLOODING if schedule == HYBRID else schedule)
        self.Y = obs.y
        self.work = np.empty(self.Y.shape + self.Y.shape[1:])  # (T, K, K)

    def iterate(self, ch):
        """One outer iteration on channel ``ch``."""
        Y, work = self.Y, self.work
        return self._exchange(
            lambda dec: flooding_ext_block(ch, Y, soft_bits(dec), work),
            lambda dec, k: loo_ext_block(ch, Y, soft_bits(dec), k, work))
