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

The classical two-stage soft-interference-cancellation + MMSE detector
is re-implemented independently in ``wang_poor_oracle`` as a
cross-check: it must agree with the leave-one-out free-energy path to
numerical precision.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePrior, DimensionMismatch, SingularCovariance
from .detect_linear import GaussianBelief
from .linalg import spd_inverse, spd_solve

# Soft bits are clamped so every prior variance stays at or above this
# floor; keeps W^{-1} bounded when the decoder saturates.
VAR_FLOOR = 1e-6
# LLRs are clamped to +/- this magnitude before any tanh.
LLR_CLAMP = 30.0
# 1 - alpha below this is treated as a degenerate extrinsic variance.
EXT_VAR_FLOOR = 1e-12

SEQUENTIAL = "sequential"
FLOODING = "flooding"
HYBRID = "hybrid"
SCHEDULES = (SEQUENTIAL, FLOODING, HYBRID)


def clamp_llr(llr):
    """Clamp LLRs into [-30, 30] (maps infinities to the bounds)."""
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)


def soft_bits(llr):
    """Decoder LLRs -> soft bit means tanh(LLR/2), clamped first."""
    return np.tanh(clamp_llr(np.asarray(llr, dtype=float)) / 2.0)


def _turbo_iteration(ch, decoder, schedule, llr_dec, ext_all, ext_user,
                     after_user=None):
    """One outer detector/decoder exchange under ``schedule``.

    The family supplies unclamped extrinsics: ``ext_all(ch, dec)`` of
    every user given decoder LLRs ``dec``, and ``ext_user(ch, work, k)``
    of user k given decoder LLRs ``work`` with column k zeroed.  Hybrid
    detects every user from the previous iteration's decoder LLRs, then
    decodes all, as flooding does; sequential decodes each user right
    after detecting it and then calls ``after_user(k, llr_mud_k,
    llr_dec_k)``, if given, for the channel of the users that follow.
    ``llr_dec`` is left unchanged; the frame's ``llr_dec`` is the new
    decoder state.
    """
    from .coding import LlrFrame

    T, K = llr_dec.shape
    new_dec = np.array(llr_dec, dtype=float)
    info = [None] * K
    if schedule == FLOODING:
        llr_mud = clamp_llr(ext_all(ch, llr_dec))
    else:
        llr_mud = np.empty((T, K))
    if schedule == HYBRID:
        for k in range(K):
            llr_mud[:, k] = clamp_llr(ext_user(ch, _without_user(llr_dec, k),
                                               k))
    for k in range(K):
        if schedule == SEQUENTIAL:
            llr_mud[:, k] = clamp_llr(ext_user(ch, _without_user(new_dec, k),
                                               k))
        new_dec[:, k], info[k] = decoder.decode_user(k, llr_mud[:, k])
        if schedule == SEQUENTIAL and after_user is not None:
            ch = after_user(k, llr_mud[:, k], new_dec[:, k])
    return LlrFrame.from_exchange(llr_mud, new_dec, info)


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

    @property
    def W(self):
        return np.diag(self.w)

    def leave_one_out(self, k):
        """(btilde_k, w_k): user k's own prior forced uninformative."""
        bt = self.btilde.copy()
        bt[k] = 0.0
        w = 1.0 - bt**2
        return bt, w


@dataclass(frozen=True)
class ExtResult:
    """Extrinsic LLRs with the per-user intermediates that formed them."""

    llr_mud: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    nu2: np.ndarray = field(default=None)


def _gram(ch):
    return (ch.a[:, None] * ch.R) * ch.a[None, :]


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
    G = _gram(ch)
    dm = mu - prior.btilde
    resid = r - ch.S @ (ch.a * mu)
    return float(
        -0.5 * logdet_S
        - 0.5 * ch.K
        + 0.5 * np.sum(np.log(w))
        + 0.5 * (np.sum(dm * dm / w) + np.sum(np.diagonal(Sigma) / w))
        + 0.5 * ch.N * np.log(2.0 * np.pi * ch.sigma2)
        + (resid @ resid + np.sum(G * Sigma.T)) / (2.0 * ch.sigma2)
    )


def free_energy_gauss_gradient_mu(ch, r, prior, mu):
    """Analytic gradient of ``free_energy_gauss`` in the belief mean."""
    G = _gram(ch)
    mu = np.asarray(mu, dtype=float)
    rhs = ch.a * (ch.S.T @ np.asarray(r, dtype=float))
    return (G @ mu - rhs) / ch.sigma2 + (mu - prior.btilde) / prior.w


def solve_gauss(ch, r, prior):
    """Exact minimizer of the Gaussian free energy.

    mu    = btilde + (A^T S^T S A + sigma2 W^{-1})^{-1} A^T S^T (r - S A btilde)
    Sigma = (A^T S^T S A / sigma2 + W^{-1})^{-1}
    """
    r = np.asarray(r, dtype=float)
    G = _gram(ch)
    w = prior.w
    M = G + ch.sigma2 * np.diag(1.0 / w)
    rhs = ch.a * (ch.S.T @ (r - ch.S @ (ch.a * prior.btilde)))
    mu = prior.btilde + spd_solve(M, rhs)
    Sigma = spd_inverse(G / ch.sigma2 + np.diag(1.0 / w)) if ch.sigma2 > 0 else \
        np.zeros((ch.K, ch.K))
    return GaussianBelief(mu=mu, Sigma=Sigma)


def _require_y(ch, r, y):
    if (r is None) == (y is None):
        raise DimensionMismatch("provide exactly one of r or y")
    if y is None:
        y = ch.S.T @ np.asarray(r, dtype=float)
    return np.asarray(y, dtype=float)


def ext_hybrid(ch, prior, r=None, y=None):
    """Leave-one-out extrinsic LLRs from the free-energy minimizer.

    For each user k the prior of b_k is ignored (mean 0, variance 1)
    and the exact minimizer is evaluated; the extrinsic LLR is
    2 mu'_k / [Sigma_k]_kk with [Sigma_k]_kk = 1 - alpha_k.  All K
    users see the same incoming priors.
    """
    y = _require_y(ch, r, y)
    G = _gram(ch)
    K = ch.K
    llr = np.empty(K)
    mus = np.empty(K)
    alphas = np.empty(K)
    for k in range(K):
        bt_k, w_k = prior.leave_one_out(k)
        Minv = spd_inverse(G + ch.sigma2 * np.diag(1.0 / w_k))
        rhs = ch.a * (y - ch.R @ (ch.a * bt_k))
        mus[k] = Minv[k] @ rhs
        sigma_kk = ch.sigma2 * Minv[k, k]  # = [ (G/sigma2 + W_k^{-1})^{-1} ]_kk
        if sigma_kk < EXT_VAR_FLOOR:
            raise DegeneratePrior(f"extrinsic variance {sigma_kk:.3e} for user {k}")
        alphas[k] = 1.0 - sigma_kk
        llr[k] = 2.0 * mus[k] / sigma_kk
    return ExtResult(llr_mud=llr, mu=mus, alpha=alphas)


def wang_poor_oracle(ch, y, prior):
    """Two-stage soft-IC + MMSE detector, coded independently.

    Stage one subtracts the remodulated soft estimates of the other
    users from the matched filter output; stage two applies the
    residual-interference MMSE filter.  With the filter output z_k
    modelled as alpha_k b_k + Gaussian noise of variance
    nu_k^2 = alpha_k - alpha_k^2, the extrinsic LLR is
    2 z_k / (1 - alpha_k).
    """
    y = np.asarray(y, dtype=float)
    Rinv = spd_inverse(ch.R)
    Rinv_y = Rinv @ y
    K = ch.K
    llr = np.empty(K)
    zs = np.empty(K)
    alphas = np.empty(K)
    nu2 = np.empty(K)
    for k in range(K):
        bt_k, w_k = prior.leave_one_out(k)
        C = np.diag(ch.a**2 * w_k) + ch.sigma2 * Rinv  # A W_k A + sigma2 R^{-1}
        Cinv = spd_inverse(C)
        zs[k] = ch.a[k] * (Cinv[k] @ (Rinv_y - ch.a * bt_k))
        alphas[k] = ch.a[k] ** 2 * Cinv[k, k]
        nu2[k] = alphas[k] - alphas[k] ** 2
        if 1.0 - alphas[k] < EXT_VAR_FLOOR:
            raise DegeneratePrior(f"1 - alpha = {1 - alphas[k]:.3e} for user {k}")
        llr[k] = 2.0 * zs[k] / (1.0 - alphas[k])
    return ExtResult(llr_mud=llr, mu=zs, alpha=alphas, nu2=nu2)


def ext_flooding(ch, y, prior):
    """Flooding-schedule extrinsic LLRs from one shared solve.

    A single filter matrix (A W A + sigma2 R^{-1})^{-1} built from the
    full prior serves all users; the per-user extrinsic is the Gaussian
    division of the shared posterior by the own prior,

        mucheck_k    = A_k e_k^T P (R^{-1} y - A btilde_k)
        alphacheck_k = (1 - btilde_k^2) A_k^2 P_kk
        LLR_k        = 2 mucheck_k / (1 - alphacheck_k),

    with mucheck evaluated in the shared form
    A_k e_k^T P (R^{-1} y - A btilde) + btilde_k A_k^2 P_kk.
    """
    y = np.asarray(y, dtype=float)
    w = prior.w
    Rinv = spd_inverse(ch.R)
    P = spd_inverse(np.diag(ch.a**2 * w) + ch.sigma2 * Rinv)
    diagP = np.diagonal(P)
    v = Rinv @ y - ch.a * prior.btilde
    mu_check = ch.a * (P @ v) + prior.btilde * ch.a**2 * diagP
    alpha_check = w * ch.a**2 * diagP
    ext_var = 1.0 - alpha_check
    if np.any(ext_var < EXT_VAR_FLOOR):
        raise DegeneratePrior("degenerate extrinsic variance in flooding division")
    return ExtResult(llr_mud=2.0 * mu_check / ext_var, mu=mu_check,
                     alpha=alpha_check)


# ----------------------------------------------------------------------
# Block (T symbol intervals at once) versions used by the turbo loop.
# A W A is diagonal, so the per-interval filter matrices differ only on
# the diagonal and are inverted as one batched call.
# ----------------------------------------------------------------------

def _batched_P(ch, w_block, Rinv):
    """inv(diag(a^2 w_t) + sigma2 R^{-1}) for every row w_t of w_block."""
    T = w_block.shape[0]
    C = np.broadcast_to(ch.sigma2 * Rinv, (T, ch.K, ch.K)).copy()
    idx = np.arange(ch.K)
    C[:, idx, idx] += ch.a**2 * w_block
    return np.linalg.inv(C)


def flooding_ext_block(ch, Y, Btilde):
    """Flooding extrinsic LLRs for a whole (T, K) block."""
    Btilde = _clamp_soft(Btilde)
    w = 1.0 - Btilde**2
    Rinv = spd_inverse(ch.R)
    P = _batched_P(ch, w, Rinv)
    diagP = P[:, np.arange(ch.K), np.arange(ch.K)]
    V = Y @ Rinv.T - ch.a * Btilde
    mu_check = ch.a * np.einsum("tkj,tj->tk", P, V) + Btilde * ch.a**2 * diagP
    alpha_check = w * ch.a**2 * diagP
    ext_var = np.maximum(1.0 - alpha_check, EXT_VAR_FLOOR)
    return 2.0 * mu_check / ext_var


def loo_ext_block(ch, Y, Btilde, k):
    """Leave-one-out extrinsic LLRs of user k for a whole (T, K) block."""
    Btilde = _clamp_soft(np.array(Btilde, dtype=float))
    Btilde[:, k] = 0.0
    w = 1.0 - Btilde**2
    Rinv = spd_inverse(ch.R)
    P = _batched_P(ch, w, Rinv)
    V = Y @ Rinv.T - ch.a * Btilde
    mu = ch.a[k] * np.einsum("tj,tj->t", P[:, k, :], V)
    alpha = ch.a[k] ** 2 * P[:, k, k]
    ext_var = np.maximum(1.0 - alpha, EXT_VAR_FLOOR)
    return 2.0 * mu / ext_var


class GaussianTurboLoop:
    """Stateful detector/decoder exchange, one outer iteration at a time.

    The decoder LLRs, and with them the soft-bit priors, persist across
    iterations; the channel is an argument of ``iterate`` so the
    joint-estimation loop can refresh amplitude and noise estimates
    between iterations, or between users with ``after_user``.
    """

    def __init__(self, obs, decoder, schedule, K):
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {schedule!r}")
        self.Y = obs.y
        self.decoder = decoder
        self.schedule = schedule
        self.llr_dec = np.zeros((self.Y.shape[0], K))

    def iterate(self, ch, after_user=None):
        """One outer iteration; see ``_turbo_iteration`` for ``after_user``."""
        # Leave-one-out extrinsics equal the Gaussian-division ones (module
        # docstring), so hybrid takes the one shared solve, not K solves.
        schedule = FLOODING if self.schedule == HYBRID else self.schedule
        frame = _turbo_iteration(
            ch, self.decoder, schedule, self.llr_dec,
            lambda ch, dec: flooding_ext_block(ch, self.Y, soft_bits(dec)),
            lambda ch, work, k: loo_ext_block(ch, self.Y, soft_bits(work), k),
            after_user)
        self.llr_dec = frame.llr_dec
        return frame


def run_schedule_gauss(ch, obs, decoder, schedule, J):
    """Turbo loop of detector and per-user decoders, one of three schedules.

    Sequential interleaves detection and decoding user by user (the
    freshest priors feed each detection); flooding detects all users
    from the shared solve then decodes all; hybrid detects all users
    with leave-one-out priors then decodes all, which for Gaussian
    beliefs yields the flooding extrinsics and so runs as flooding.
    Soft bits are updated as tanh(LLR_dec / 2) throughout.  Returns one
    LlrFrame per outer iteration.
    """
    loop = GaussianTurboLoop(obs, decoder, schedule, ch.K)
    return [loop.iterate(ch) for _ in range(J)]
