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
Every mean-field update (turbo-loop sweeps, tanh-SIC, ``serial_update``,
the DDF pass) is one kernel, ``_sweeps``: the half-LLR form LLR_pos/2
on means held users-major, a (K, T) block of T intervals.  Its per-user
rows and scratch are built once per kernel entry: by the turbo loop once
per outer iteration, by ``tanh_sic_block`` once for all its sweeps, by
``_sweep_block`` (every other caller) once per call.  What is left per
update is five numpy calls at their cheapest public dispatch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .siso_gaussian import TurboLoop

# Belief means are clamped into [-1 + MEAN_CLEARANCE, 1 - MEAN_CLEARANCE]
# after every tanh so the entropy terms stay finite; tanh(LLR_CLAMP / 2)
# lies past the clamp, so unclamped and clamped LLRs clamp to one mean.
MEAN_CLEARANCE = 1e-9
_MEAN_LO, _MEAN_HI = -1.0 + MEAN_CLEARANCE, 1.0 - MEAN_CLEARANCE

DEFAULT_INNER_ITERS = 6


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
    m = (q if isinstance(q, DiscreteBelief) else DiscreteBelief(m=q)).m
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
    Returns the updated belief and the sweep's posterior LLRs, NaN for
    users ``order`` leaves out.  ``callback(m)`` runs after every single
    coordinate update.  ``_sweep_block`` with T = 1, one user at a time.
    """
    H, Bh = _fold(np.atleast_2d(prior_llr), np.atleast_2d(r) @ ch.SA,
                  ch.hollow_gram, ch.sigma2)
    Mt = np.array([q.m if isinstance(q, DiscreteBelief) else q], dtype=float).T
    llr_pos = np.full(ch.K, np.nan)
    for k in range(ch.K) if order is None else order:
        llr_pos[k] = 2.0 * _sweep_block(Mt, [k], H, Bh)[k, 0]
        if callback is not None:
            callback(Mt[:, 0].copy())
    return DiscreteBelief(m=Mt[:, 0]), llr_pos


def ext_one_shot(ch, r, prior_llr):
    """Single-pass soft cancellation without serial refinement.

    LLR_mud(b_k) = (2/sigma2) A_k s_k^T (r - S A btilde_k) with the
    user's own soft bit zeroed in the cancellation term.  No descent
    guarantee; kept as the classical simplified detector.
    """
    r = np.asarray(r, dtype=float)
    btilde = np.tanh(np.asarray(prior_llr, dtype=float) / 2.0)
    return (2.0 / ch.sigma2) * (ch.SA.T @ r - ch.hollow_gram.T @ btilde)


def tanh_sic_block(ch, r_block, sweeps, m0=None, *, signs=None):
    """Uncoded serial sweeps over a whole (T, N) received block.

    Means are users-major (K, T): starts from m0 (zeros by default) and
    returns the final mean block.  ``signs``, a (sweeps, K, T) bool
    array, takes each sweep's decisions m < 0 as it ends.
    """
    H, Bh = _fold(None, np.atleast_2d(r_block) @ ch.SA, ch.hollow_gram,
                  ch.sigma2)
    Mt = np.zeros_like(H) if m0 is None else \
        np.array(m0, dtype=float, order="C")
    kernel, users = _sweep_kernel(Mt, H, Bh, np.empty_like(H)), range(ch.K)
    for s in range(sweeps):
        _sweeps(*kernel, users, Mt)
        if signs is not None:
            np.less(Mt, 0, out=signs[s])
    return Mt


def _fold(prior_llr, obs, coupling, sigma2, out=None):
    """``_sweep_block``'s H = (prior_llr/2 + obs/sigma2)^T from (T, K)
    inputs (prior None: zero), into ``out`` if given (it may be obs^T),
    and Bh = coupling^T/sigma2 (the hollow Gram is not symmetric to the
    bit, so the transpose is explicit)."""
    H = np.divide(np.transpose(obs), sigma2, out=out, order="C")
    if prior_llr is not None:
        H += 0.5 * np.transpose(prior_llr)
    return H, np.divide(coupling.T, sigma2, order="C")


def _sweep_kernel(Mt, H, Bh, X):
    """What ``_sweeps`` runs on: the per-user rows (Bh_k.dot, H_k, X_k,
    Mt_k) and the scratch, a ``tmp`` row and the clamp rows, T floats
    each.  The rows are views, so they stay valid while H, X and Mt
    change in place.  The bound ``dot`` is ``np.dot`` without its
    dispatch overhead; against contiguous rows of _MEAN_LO and _MEAN_HI
    the clamp runs numpy's same-shape loop, not its broadcast loop."""
    T = H.shape[1]
    rows = [(bh.dot, h, x, m) for bh, h, x, m in zip(Bh, H, X, Mt)]
    return rows, (np.empty(T), np.full(T, _MEAN_LO), np.full(T, _MEAN_HI))


def _sweeps(rows, scratch, users, Mt):
    """The mean-field update of each k of ``users`` in turn, in place on
    the users-major means Mt over all T intervals: x_k = H_k - Bh_k Mt
    and m_k = tanh(x_k) clamped into [_MEAN_LO, _MEAN_HI], five numpy
    calls into preallocated rows, with ufuncs bound to locals.  Outputs
    are positional where numpy takes them so (``maximum`` and
    ``minimum`` deprecate a third positional argument).
    """
    subtract, tanh, maximum, minimum = (np.subtract, np.tanh, np.maximum,
                                        np.minimum)
    tmp, lo, hi = scratch
    for k in users:
        dot, h, x, m = rows[k]
        dot(Mt, tmp)
        subtract(h, tmp, x)
        tanh(x, m)
        maximum(m, lo, out=m)
        minimum(m, hi, out=m)


def _sweep_block(Mt, users, H, Bh):
    """``_sweeps`` on a kernel built for this call.  Returns
    X = LLR_pos/2, set only in the rows of updated users."""
    X = np.empty_like(H)
    _sweeps(*_sweep_kernel(Mt, H, Bh, X), users, Mt)
    return X


class DiscreteTurboLoop(TurboLoop):
    """``TurboLoop`` on the mean-field sweeps.

    Flooding runs I serial sweeps over all users, then decodes all
    users with LLR_mud = LLR_pos - LLR_dec (0 where LLR_dec is +-inf:
    the trellis fixes that symbol).  Sequential and hybrid zero
    user k's decoder LLR, run I sweeps in the rotated order
    (k..K, 1..k-1) and emit user k's extrinsic; sequential decodes user
    k at once, hybrid decodes all users after the last detection.
    Belief means (users-major, ``Mt``) persist across iterations
    (initialized to zero) next to the decoder LLRs.

    ``seed(llr_dec) -> (means, llr_pos)``, if given, replaces the inner
    sweeps of every posterior call of outer iteration 1 (the DDF pass of
    ``ddf_aided``): it returns users-major (K, T) means, which the loop
    copies into Mt, and posterior LLRs.
    """

    def __init__(self, obs, decoder, schedule, I=DEFAULT_INNER_ITERS,
                 seed=None):
        super().__init__(obs, decoder, schedule)
        if I < 1:
            raise ValueError("I must be >= 1")
        self.r = obs.r
        self.I = I
        self.seed = seed
        self.Mt = np.zeros(self.llr_dec.shape[::-1])

    def iterate(self, ch):
        # ch is fixed within the iteration: H's observation part H0, Bh
        # and the sweep kernel are built once, and each posterior call
        # refreshes H in place with its prior (the divide-then-add of
        # ``_fold``).  EM may change ch between iterations, so nothing
        # outlives this one.
        Mt, I = self.Mt, self.I
        H0, Bh = _fold(None, self.r @ ch.SA, ch.hollow_gram, ch.sigma2)
        H, X = np.empty_like(H0), np.empty_like(H0)
        kernel = _sweep_kernel(Mt, H, Bh, X)
        users = list(range(len(Mt)))
        seed, self.seed = self.seed, None  # outer iteration 1 only

        def posterior(dec, order):
            """Users-major LLR_pos of the seed or the sweeps in ``order``."""
            if seed is not None:
                Mt[:], llr_pos = seed(dec)
                return llr_pos
            np.add(H0, 0.5 * dec.T, out=H)
            _sweeps(*kernel, order * I, Mt)
            return 2.0 * X

        def ext_all(dec):
            # a +-inf decoder LLR fixes its symbol: extrinsic 0, not inf - inf
            return np.subtract(posterior(dec, users).T, dec,
                               out=np.zeros_like(dec), where=~np.isinf(dec))

        def ext_user(work, k):
            return posterior(work, users[k:] + users[:k])[k]

        return self._exchange(ext_all, ext_user)
