"""Decorrelating decision-feedback detection on the whitened model.

The pass whitens the matched-filter rows y itself, in detection order:
ybar = F^{-T} y, with F the whitening factor of the permuted users.
The whitened observation ybar = F A b + nbar is lower triangular in the
detection order, so nulling the below-diagonal entries of column k of F
turns the mean-field cancellation statistics into the causal pair

    etabar_k^T ybar = A_k F_kk ybar_k
    betabar_k       = A_k F_kk [A_1 F_k1, ..., A_{k-1} F_k,k-1, 0, ..., 0]^T,

giving the single forward pass

    LLR_pos(b_k) = LLR_prior(b_k)
                   + (2/sigma2)(A_k F_kk ybar_k - betabar_k^T m),
    m_k = tanh(LLR_pos(b_k) / 2),

whose cancellation uses only already-detected users: one sweep of the
mean-field kernel ``siso_discrete._sweep_block``, with A_k F_kk ybar_k
in place of eta_k^T r and betabar_k in place of beta_k, on a
users-major (K, T) block.  Means and posterior LLRs come back
users-major, in natural user order.  The extrinsic is LLR_pos -
LLR_prior.  A DDF pass also seeds the mean-field detector's first
turbo iteration, which rescues it from the poor local minima it falls
into on strongly correlated channels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPermutation
from .linalg import factor_FtF
from .siso_discrete import _fold, _sweep_block

AMPLITUDE_DESCENDING = "amplitude_descending"
AS_GIVEN = "as_given"


def detection_order(ch, policy=AMPLITUDE_DESCENDING):
    """Detection order as a permutation of user indices 0..K-1.

    ``amplitude_descending`` detects the strongest user first (ties
    broken by user index); ``as_given`` keeps natural order; a custom
    permutation may be passed directly.
    """
    if isinstance(policy, (list, tuple, np.ndarray)):
        perm = np.asarray(policy, dtype=int)
        if sorted(perm.tolist()) != list(range(ch.K)):
            raise InvalidPermutation(f"{perm} is not a permutation of 0..{ch.K - 1}")
        return perm
    if policy == AS_GIVEN:
        return np.arange(ch.K)
    if policy == AMPLITUDE_DESCENDING:
        return np.argsort(-ch.a**2, kind="stable")
    raise InvalidPermutation(f"unknown detection order policy {policy!r}")


@dataclass(frozen=True)
class DdfPrecompute:
    """Whitening factor and feedback scalars in detection order.

    The order is realized by permuting users before factoring R, so F
    reflects the order; the pass un-permutes its outputs.

    diag_gain[k] = A_k F_kk and feedback[:, k] = betabar_k, both
    indexed in the permuted domain.
    """

    order: np.ndarray
    F: np.ndarray
    diag_gain: np.ndarray
    feedback: np.ndarray

    @classmethod
    def from_channel(cls, ch, order):
        """Factors in the detection order of ``order``, a policy name or a
        permutation (see ``detection_order``)."""
        order = detection_order(ch, order)
        Sp = ch.S[:, order]
        ap = ch.a[order]
        F = factor_FtF(Sp.T @ Sp)
        diag_gain = ap * np.diagonal(F)
        # feedback[j, k] = A_k F_kk * A_j F_kj for j < k, else 0
        feedback = np.tril(F, -1).T * ap[:, None] * diag_gain[None, :]
        return cls(order=order, F=F, diag_gain=diag_gain, feedback=feedback)


def ddf_pass(ch, y, prior_llr, pre):
    """Single decision-feedback forward pass over one symbol interval.

    ``ddf_pass_block`` with T = 1 on the matched-filter vector ``y``;
    returns the means and the extrinsic LLRs in natural user order.
    """
    prior = np.asarray(prior_llr, dtype=float)
    m_blk, pos_blk = ddf_pass_block(ch, np.atleast_2d(y), prior[None], pre)
    return m_blk[:, 0], pos_blk[:, 0] - prior


def ddf_pass_block(ch, y, prior_llr, pre, *, llr=True):
    """Forward pass over the (T, K) matched-filter rows ``y`` with
    (T, K) priors or None (zero), whitened and swept in ``pre``'s order.

    Returns users-major (K, T) means and posterior LLRs in natural user
    order; with ``llr=False`` the LLRs are not formed and come back None.
    """
    y, order, U = np.asarray(y, dtype=float), pre.order, pre.F.T
    # ybar = F^{-T} y[:, order]^T by back-substitution on y's columns,
    # users-major; the last detected user has nothing below it
    ybar = np.empty((ch.K, len(y)))
    last = ch.K - 1
    np.divide(y[:, order[last]], U[last, last], out=ybar[last])
    for i in reversed(range(last)):
        np.divide(y[:, order[i]] - U[i, i + 1:] @ ybar[i + 1:], U[i, i],
                  out=ybar[i])
    ybar *= pre.diag_gain[:, None]
    prior = None if prior_llr is None else np.asarray(prior_llr)[:, order]
    H, Bh = _fold(prior, ybar.T, pre.feedback, ch.sigma2, out=ybar)
    Mt = np.zeros_like(H)  # permuted domain, users-major
    X = _sweep_block(Mt, range(ch.K), H, Bh)
    inverse = np.argsort(order)
    return Mt[inverse], (2.0 * X[inverse] if llr else None)

