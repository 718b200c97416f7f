"""Discrete (mean-field) soft-in-soft-out multiuser detection.

Both the prior and the belief over the BPSK vector are factorized
binary distributions, parameterized by their means btilde and m.  The
free energy

    F(m) = sum_k [ (1+m_k)/2 log (1+m_k)/(1+btilde_k)
                 + (1-m_k)/2 log (1-m_k)/(1-btilde_k) ]
         + N/2 log(2 pi sigma2)
         + 1/(2 sigma2) [ r^T r - 2 r^T S A m + m^T B m + tr(A^T S^T S A) ]

with B = A^T S^T S A - diag(A^T S^T S A) is exactly the KL divergence
from the belief to the complete likelihood (all constants kept).
Coordinate descent on F gives the serial update

    LLR_pos(b_k) = LLR_prior(b_k) + (2/sigma2) [eta_k^T r - beta_k^T m],

where eta_k and beta_k are the k-th columns of S A and B; dropping the
serial refinement entirely gives the classical one-shot
soft-cancellation detector (which no longer guarantees descent).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .siso_gaussian import SCHEDULES, _turbo_iteration

# Belief means are clamped into [-1 + MEAN_CLEARANCE, 1 - MEAN_CLEARANCE]
# after every tanh so the entropy terms stay finite.  tanh(LLR_CLAMP / 2)
# already lies past the clamp, so tanh of an unclamped LLR clamps to the
# same mean as tanh of the clamped one.
MEAN_CLEARANCE = 1e-9

DEFAULT_INNER_ITERS = 6


def clamp_mean(m):
    # the ufuncs, not np.clip: this runs once per user update
    return np.minimum(np.maximum(m, -1.0 + MEAN_CLEARANCE),
                      1.0 - MEAN_CLEARANCE)


@dataclass(frozen=True)
class DiscreteBelief:
    """Factorized binary belief, stored as posterior means in (-1, 1)."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if np.any(np.abs(m) >= 1.0):
            raise DomainError("belief means must lie strictly inside (-1, 1)")
        object.__setattr__(self, "m", m)


def _binary_cross_entropy(m, btilde):
    """sum_k (1+-m)/2 log[(1+-m)/(1+-btilde)], elementwise over last axis."""
    p, q = 1.0 + m, 1.0 - m
    pb, qb = 1.0 + btilde, 1.0 - btilde
    return 0.5 * np.sum(p * np.log(p / pb) + q * np.log(q / qb), axis=-1)


def free_energy_disc(ch, r, prior_llr, q):
    """Mean-field free energy; equals the enumeration KL exactly.

    The prior means are btilde_k = tanh(prior_llr_k / 2).
    """
    m = q.m if isinstance(q, DiscreteBelief) else np.asarray(q, dtype=float)
    if np.any(np.abs(m) >= 1.0):
        raise DomainError("belief means must lie strictly inside (-1, 1)")
    r = np.asarray(r, dtype=float)
    btilde = np.tanh(np.asarray(prior_llr, dtype=float) / 2.0)
    data = r @ r - 2.0 * (ch.a * (ch.S.T @ r)) @ m + m @ ch.hollow_gram @ m \
        + np.trace(ch.gram)
    return float(
        _binary_cross_entropy(m, btilde)
        + 0.5 * ch.N * np.log(2.0 * np.pi * ch.sigma2)
        + data / (2.0 * ch.sigma2)
    )


def stationarity_residual(ch, r, prior_llr, m):
    """Componentwise gap in the mean-field fixed-point equations.

    Zero when log[(1+m_k)/(1-m_k)] = prior_llr_k
    + (2/sigma2)(eta_k^T r - beta_k^T m) for every k.
    """
    m = np.asarray(m, dtype=float)
    lhs = np.log1p(m) - np.log1p(-m)
    rhs = np.asarray(prior_llr, dtype=float) + (
        2.0 / ch.sigma2
    ) * (ch.SA.T @ np.asarray(r, dtype=float) - ch.hollow_gram.T @ m)
    return lhs - rhs


def serial_update(ch, r, prior_llr, q, order=None, callback=None):
    """One full coordinate-descent sweep in the given user order.

    Each coordinate is set to its exact conditional minimizer
    m_k = tanh(LLR_pos(b_k)/2), so the free energy cannot increase.
    Returns the updated belief and the posterior LLRs of the sweep.
    ``callback(m)`` runs after every single-coordinate update.
    ``_sweep_block`` with T = 1, one user at a time.
    """
    eta_r = np.atleast_2d(np.asarray(r, dtype=float)) @ ch.SA
    prior = np.asarray(prior_llr, dtype=float)[None]
    M = np.array([q.m if isinstance(q, DiscreteBelief) else q], dtype=float)
    llr_pos = np.empty(ch.K)
    for k in range(ch.K) if order is None else order:
        llr_pos[k] = _sweep_block(ch, eta_r, prior, M, [k])[0, k]
        if callback is not None:
            callback(M[0].copy())
    return DiscreteBelief(m=M[0]), llr_pos


def ext_one_shot(ch, r, prior_llr):
    """Single-pass soft cancellation without serial refinement.

    LLR_mud(b_k) = (2/sigma2) A_k s_k^T (r - S A btilde_k) with the
    user's own soft bit zeroed in the cancellation term.  No descent
    guarantee; kept as the classical simplified detector.
    """
    r = np.asarray(r, dtype=float)
    btilde = np.tanh(np.asarray(prior_llr, dtype=float) / 2.0)
    return (2.0 / ch.sigma2) * (ch.SA.T @ r - ch.hollow_gram.T @ btilde)


def tanh_sic(ch, r, sweeps):
    """Uncoded hyperbolic-tangent SIC: ``tanh_sic_block`` with T = 1."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    return DiscreteBelief(m=tanh_sic_block(ch, r, sweeps)[0])


def tanh_sic_block(ch, r_block, sweeps, m0=None, record=False):
    """Uncoded serial sweeps over a whole (T, N) received block.

    Starts from m0 (zeros by default); returns the final mean block, or
    the per-sweep history when ``record`` is set.
    """
    r_block = np.atleast_2d(np.asarray(r_block, dtype=float))
    eta_r = r_block @ ch.SA
    T = r_block.shape[0]
    M = np.zeros((T, ch.K)) if m0 is None else np.array(m0, dtype=float)
    zeros = np.zeros_like(M)
    history = []
    for _ in range(sweeps):
        _sweep_block(ch, eta_r, zeros, M, range(ch.K))
        if record:
            history.append(M.copy())
    return history if record else M


# ----------------------------------------------------------------------
# Block turbo loop (T symbol intervals).  The serial sweep vectorizes
# over t because intervals never couple; the order dependence is only
# across users.
# ----------------------------------------------------------------------

def _sweep_block(ch, eta_r, llr_dec, M, order):
    """In-place serial sweep over users for all intervals at once.

    ``eta_r`` is r S A; returns the posterior LLR block of the sweep.
    """
    beta = ch.hollow_gram
    llr_pos = np.empty_like(llr_dec)
    for k in order:
        # beta_k has a zero k-th entry, so m_k never feeds itself
        metric = eta_r[:, k] - M @ beta[:, k]
        llr_pos[:, k] = llr_dec[:, k] + (2.0 / ch.sigma2) * metric
        M[:, k] = clamp_mean(np.tanh(llr_pos[:, k] / 2.0))
    return llr_pos


class DiscreteTurboLoop:
    """Stateful mean-field turbo exchange, one outer iteration at a time.

    Flooding runs I serial sweeps over all users, then decodes all
    users with LLR_mud = LLR_pos - LLR_dec.  Sequential and hybrid zero
    user k's decoder LLR, run I sweeps in the rotated order
    (k..K, 1..k-1) and emit user k's extrinsic; sequential decodes user
    k at once, hybrid decodes all users after the last detection.
    Belief means and decoder LLRs persist across iterations
    (initialized to zero); the channel is an argument of ``iterate``
    so the joint-estimation loop can refresh parameter estimates.

    ``first_iteration_hook(ch, M, llr_dec) -> llr_pos`` optionally
    replaces the inner sweeps of outer iteration 1, mutating the belief
    block M in place (used by the decision-feedback seeding).
    """

    def __init__(self, obs, decoder, schedule, K, I=DEFAULT_INNER_ITERS,
                 first_iteration_hook=None):
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {schedule!r}")
        self.r = obs.r
        self.decoder = decoder
        self.schedule = schedule
        self.I = I
        self.hook = first_iteration_hook
        T = self.r.shape[0]
        self.M = np.zeros((T, K))
        self.llr_dec = np.zeros((T, K))
        self.iteration = 0

    def iterate(self, ch):
        # no after_user below, so every posterior call gets this ch
        eta_r = self.r @ ch.SA  # (T, K): eta_k^T r_t
        K = self.M.shape[1]

        def posterior(ch, dec, order):
            if self.iteration == 0 and self.hook is not None:
                return self.hook(ch, self.M, dec)
            for _ in range(self.I):
                llr_pos = _sweep_block(ch, eta_r, dec, self.M, order)
            return llr_pos

        frame = _turbo_iteration(
            ch, self.decoder, self.schedule, self.llr_dec,
            lambda ch, dec: posterior(ch, dec, range(K)) - dec,
            lambda ch, work, k: posterior(
                ch, work, list(range(k, K)) + list(range(k)))[:, k])
        self.llr_dec = frame.llr_dec
        self.iteration += 1
        return frame
