"""Uncoded linear detectors and their coordinate-descent (SIC) forms.

The decorrelating and MMSE detectors are the exact minimizers of the
Gaussian-belief free energy

    F(mu, Sigma) = -1/2 log|Sigma|
                   + 1/(2 sigma2) { mu^T M mu + tr(M Sigma) - 2 r^T S A mu }

with M = A^T S^T S A for a flat symbol prior (decorrelator) and
M = A^T S^T S A + sigma2 I for a standard-normal prior (MMSE).
Successive interference cancellation is cyclic coordinate descent on
the same objective, optionally with a per-coordinate clip box.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularCovariance
from .linalg import spd_inverse, spd_solve

DECORRELATOR = "decorrelator"
MMSE = "mmse"

CONVERGED_DELTA = 1e-10  # stop sweeps early below this max coordinate change


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian posterior belief N(mu, Sigma) over the symbol vector."""

    mu: np.ndarray
    Sigma: np.ndarray


@dataclass(frozen=True)
class ClipBox:
    """Per-coordinate interval constraint; infinite bounds mean unclipped."""

    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty clip box [{self.lo}, {self.hi}]")

    def clip(self, x):
        return min(max(x, self.lo), self.hi)


# matches the BPSK symbol alphabet; the usual box for clipped SIC
BPSK_BOX = ClipBox(-1.0, 1.0)


def _quadratic_matrix(ch, target):
    if target not in (DECORRELATOR, MMSE):
        raise ValueError(f"unknown target {target!r}")
    return ch.gram + ch.sigma2 * np.eye(ch.K) if target == MMSE else ch.gram


def _linear_detector(ch, r, target):
    """mu = M^{-1} A^T S^T r and Sigma = sigma2 M^{-1} for the target's M."""
    M = _quadratic_matrix(ch, target)
    rhs = ch.a * (ch.S.T @ np.asarray(r, dtype=float))
    mu = spd_solve(M, rhs)
    return GaussianBelief(mu=mu, Sigma=ch.sigma2 * spd_inverse(M))


def decorrelate(ch, r):
    """Zero-forcing detector: mu = (A^T S^T S A)^{-1} A^T S^T r.

    Also returns the belief covariance sigma2 (A^T S^T S A)^{-1}, which
    the hard-decision form of the detector discards.
    """
    return _linear_detector(ch, r, DECORRELATOR)


def mmse(ch, r):
    """MMSE detector: mu = (A^T S^T S A + sigma2 I)^{-1} A^T S^T r."""
    return _linear_detector(ch, r, MMSE)


def pme_alpha(ch, r, alpha2):
    """Posterior-mean family (A^T S^T S A + alpha2 I)^{-1} A^T S^T r.

    alpha2 = sigma2 gives the MMSE mean, alpha2 = 0 the decorrelator,
    and alpha2 -> infinity a vanishing vector aligned with the scaled
    matched filter output A^T S^T r.
    """
    if alpha2 < 0:
        raise ValueError("alpha2 must be nonnegative")
    M = ch.gram + alpha2 * np.eye(ch.K)
    return spd_solve(M, ch.a * (ch.S.T @ np.asarray(r, dtype=float)))


def free_energy_linear(ch, r, mu, target, Sigma=None):
    """Free energy of the linear-detector objective at belief mean mu.

    With Sigma omitted the Sigma-dependent terms (constant during SIC,
    which updates only mu) are dropped.
    """
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    M = _quadratic_matrix(ch, target)
    val = (mu @ M @ mu - 2.0 * (r @ ch.S) @ (ch.a * mu)) / (2.0 * ch.sigma2)
    if Sigma is not None:
        sign, logdet = np.linalg.slogdet(Sigma)
        if sign <= 0:
            raise SingularCovariance("belief covariance not positive definite")
        val += -0.5 * logdet + np.trace(M @ Sigma) / (2.0 * ch.sigma2)
    return float(val)


def free_energy_gradient_linear(ch, r, mu, target):
    """Analytic gradient of ``free_energy_linear`` in mu."""
    M = _quadratic_matrix(ch, target)
    rhs = ch.a * (ch.S.T @ np.asarray(r, dtype=float))
    return (M @ np.asarray(mu, dtype=float) - rhs) / ch.sigma2


def _sic_coordinate(ch, r, mu, k, target, box):
    """Exact box-constrained minimizer of the free energy in coordinate k.

    MMSE target:         mu_k = A_k s_k^T (r - S A mu_\\k) / (A_k^2 + sigma2)
    decorrelator target: mu_k = s_k^T (r - S A mu_\\k) / A_k
    followed by projection onto the clip box.
    """
    mu_k_saved = mu[k]
    mu[k] = 0.0
    resid = ch.S[:, k] @ (r - ch.S @ (ch.a * mu))
    if target == MMSE:
        new = ch.a[k] * resid / (ch.a[k] ** 2 + ch.sigma2)
    else:
        new = resid / ch.a[k]
    mu[k] = box.clip(new)
    return abs(mu[k] - mu_k_saved)


def _sweep_orders(K, order, sweeps, ch, r, target, box, mu, rng):
    """Yield coordinate sequences, one per sweep, for the chosen rule."""
    if order == "cyclic":
        for _ in range(sweeps):
            yield range(K)
    elif order == "almost_cyclic":
        # every coordinate once per sweep, in a fresh random order
        for _ in range(sweeps):
            yield rng.permutation(K)
    elif order == "gauss_southwell":
        # K greedy picks per sweep, each at the steepest coordinate
        def greedy():
            for _ in range(K):
                g = free_energy_gradient_linear(ch, r, mu, target)
                yield int(np.argmax(np.abs(g)))

        for _ in range(sweeps):
            yield greedy()
    else:
        raise ValueError(f"unknown update order {order!r}")


def sic(ch, r, box=None, target=MMSE, sweeps=50, order="cyclic", seed=0,
        callback=None):
    """Successive interference cancellation from the all-zero start.

    Performs coordinate descent sweeps on the linear-detector free
    energy, clipping each update into ``box``.  Stops when sweeps are
    exhausted or the largest coordinate change in a sweep falls below
    1e-10.  ``callback(mu)`` is invoked after every coordinate update
    (used by the descent property tests).
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    r = np.asarray(r, dtype=float)
    if r.shape[0] != ch.N:
        raise DimensionMismatch(f"received vector length {r.shape[0]} != N={ch.N}")
    box = box or ClipBox()
    rng = np.random.default_rng(seed)
    mu = np.zeros(ch.K)
    for coords in _sweep_orders(ch.K, order, sweeps, ch, r, target, box, mu, rng):
        delta = 0.0
        for k in coords:
            delta = max(delta, _sic_coordinate(ch, r, mu, k, target, box))
            if callback is not None:
                callback(mu.copy())
        if delta < CONVERGED_DELTA:
            break
    return mu
