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
from .siso_gaussian import SCHEDULES, _turbo_iteration, clamp_llr

# Belief means are clamped into [-1 + MEAN_CLEARANCE, 1 - MEAN_CLEARANCE]
# after every tanh so the entropy terms stay finite.
MEAN_CLEARANCE = 1e-9

DEFAULT_INNER_ITERS = 6


def clamp_mean(m):
    return np.clip(m, -1.0 + MEAN_CLEARANCE, 1.0 - MEAN_CLEARANCE)


@dataclass(frozen=True)
class DiscreteBelief:
    """Factorized binary belief, stored as posterior means in (-1, 1)."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if np.any(np.abs(m) >= 1.0):
            raise DomainError("belief means must lie strictly inside (-1, 1)")
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class McColumns:
    """Cancellation geometry: columns of S A and of the hollow Gram B."""

    eta: np.ndarray   # (N, K), eta_k = A_k s_k
    beta: np.ndarray  # (K, K), k-th column of B (zero diagonal)

    @classmethod
    def from_channel(cls, ch):
        G = (ch.a[:, None] * ch.R) * ch.a[None, :]
        B = G - np.diag(np.diagonal(G))
        return cls(eta=ch.S * ch.a, beta=B)


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
    return float(free_energy_disc_vectorized(ch, r, prior_llr, m[None, :])[0])


def free_energy_disc_vectorized(ch, r, prior_llr, M):
    """``free_energy_disc`` over every row of M (used by the grid oracle)."""
    r = np.asarray(r, dtype=float)
    btilde = np.tanh(np.asarray(prior_llr, dtype=float) / 2.0)
    G = (ch.a[:, None] * ch.R) * ch.a[None, :]
    B = G - np.diag(np.diagonal(G))
    data = (
        r @ r
        - 2.0 * (ch.a * (ch.S.T @ r)) @ M.T
        + np.einsum("ti,ij,tj->t", M, B, M)
        + np.trace(G)
    )
    return (
        _binary_cross_entropy(M, btilde)
        + 0.5 * ch.N * np.log(2.0 * np.pi * ch.sigma2)
        + data / (2.0 * ch.sigma2)
    )


def stationarity_residual(ch, r, prior_llr, m):
    """Componentwise gap in the mean-field fixed-point equations.

    Zero when log[(1+m_k)/(1-m_k)] = prior_llr_k
    + (2/sigma2)(eta_k^T r - beta_k^T m) for every k.
    """
    mc = McColumns.from_channel(ch)
    m = np.asarray(m, dtype=float)
    lhs = np.log1p(m) - np.log1p(-m)
    rhs = np.asarray(prior_llr, dtype=float) + (
        2.0 / ch.sigma2
    ) * (mc.eta.T @ np.asarray(r, dtype=float) - mc.beta.T @ m)
    return lhs - rhs


def serial_update(ch, r, prior_llr, q, order=None, callback=None):
    """One full coordinate-descent sweep in the given user order.

    Each coordinate is set to its exact conditional minimizer
    m_k = tanh(LLR_pos(b_k)/2), so the free energy cannot increase.
    Returns the updated belief and the posterior LLRs of the sweep.
    ``callback(m)`` runs after every single-coordinate update.
    """
    r = np.asarray(r, dtype=float)
    prior_llr = np.asarray(prior_llr, dtype=float)
    mc = McColumns.from_channel(ch)
    eta_r = mc.eta.T @ r
    m = np.array(q.m if isinstance(q, DiscreteBelief) else q, dtype=float)
    llr_pos = np.empty(ch.K)
    order = range(ch.K) if order is None else order
    for k in order:
        # beta_k has a zero k-th entry, so m_k never feeds itself
        llr_pos[k] = prior_llr[k] + (2.0 / ch.sigma2) * (
            eta_r[k] - mc.beta[:, k] @ m
        )
        m[k] = clamp_mean(np.tanh(clamp_llr(llr_pos[k]) / 2.0))
        if callback is not None:
            callback(m.copy())
    return DiscreteBelief(m=m), llr_pos


def ext_one_shot(ch, r, prior_llr):
    """Single-pass soft cancellation without serial refinement.

    LLR_mud(b_k) = (2/sigma2) A_k s_k^T (r - S A btilde_k) with the
    user's own soft bit zeroed in the cancellation term.  No descent
    guarantee; kept as the classical simplified detector.
    """
    from .siso_gaussian import ExtResult

    r = np.asarray(r, dtype=float)
    btilde = np.tanh(np.asarray(prior_llr, dtype=float) / 2.0)
    mc = McColumns.from_channel(ch)
    llr = (2.0 / ch.sigma2) * (mc.eta.T @ r - mc.beta.T @ btilde)
    return ExtResult(llr_mud=llr, mu=np.tanh(llr / 2.0), alpha=np.zeros(ch.K))


def tanh_sic(ch, r, sweeps):
    """Uncoded hyperbolic-tangent SIC: serial updates with zero priors."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    belief = DiscreteBelief(m=np.zeros(ch.K))
    zeros = np.zeros(ch.K)
    for _ in range(sweeps):
        belief, _ = serial_update(ch, r, zeros, belief)
    return belief


def tanh_sic_block(ch, r_block, sweeps, m0=None, record=False):
    """Uncoded serial sweeps over a whole (T, N) received block.

    Starts from m0 (zeros by default); returns the final mean block, or
    the per-sweep history when ``record`` is set.
    """
    mc = McColumns.from_channel(ch)
    r_block = np.atleast_2d(np.asarray(r_block, dtype=float))
    eta_r = r_block @ mc.eta
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

    Returns the posterior LLR block of the sweep.
    """
    mc = McColumns.from_channel(ch)
    llr_pos = np.empty_like(llr_dec)
    for k in order:
        metric = eta_r[:, k] - M @ mc.beta[:, k]
        llr_pos[:, k] = llr_dec[:, k] + (2.0 / ch.sigma2) * metric
        M[:, k] = clamp_mean(np.tanh(clamp_llr(llr_pos[:, k]) / 2.0))
    return llr_pos


class DiscreteTurboLoop:
    """Stateful mean-field turbo exchange, one outer iteration at a time.

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
        eta_r = self.r @ McColumns.from_channel(ch).eta  # (T, K): eta_k^T r_t
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


def run_schedule_disc(ch, obs, decoder, schedule, J, I=DEFAULT_INNER_ITERS,
                      first_iteration_hook=None):
    """Turbo loop with the mean-field detector, one of three schedules.

    Flooding runs I serial sweeps over all users, then decodes all
    users in parallel with LLR_mud = LLR_pos - LLR_dec.  Sequential and
    hybrid zero user k's decoder LLR, run I sweeps in the rotated order
    (k..K, 1..k-1) and emit user k's extrinsic; sequential decodes user
    k immediately, hybrid stores all extrinsics and decodes in
    parallel.  Returns one LlrFrame per outer iteration.
    """
    loop = DiscreteTurboLoop(obs, decoder, schedule, ch.K, I=I,
                             first_iteration_hook=first_iteration_hook)
    return [loop.iterate(ch) for _ in range(J)]
