"""Synchronous CDMA signal model.

One symbol interval of the chip-sampled channel is

    r = S A b + n,      n ~ N(0, sigma2 * I_N),

with unit-norm spreading columns in S, per-user amplitudes on the
diagonal of A and BPSK symbols b in {-1,+1}^K.  Matched filtering and
noise whitening give the two equivalent observations

    y    = S^T r = R A b + z,        R = S^T S,   z ~ N(0, sigma2 * R),
    ybar = F^{-T} y = F A b + nbar,  R = F^T F (F lower triangular),

where nbar is white again.  Detectors depend on the channel only
through (R, A, sigma2) and one of r / y / ybar.
"""

from copy import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidCorrelation, RankDeficient
from .linalg import factor_FtF, spd_inverse

_RESAMPLE_CAP = 100


@dataclass(frozen=True)
class ChannelInstance:
    """Immutable channel description shared by all detectors.

    Attributes
    ----------
    N, K : spreading gain (chips per symbol) and number of users.
    S : (N, K) spreading matrix with unit-norm columns.
    a : (K,) positive amplitude vector; A = diag(a).
    sigma2 : noise variance per chip (0 allowed for noiseless tests).
    R : (K, K) signature correlation matrix S^T S (unit diagonal).
    Rinv : R^{-1}, the sigma2 R^{-1} term of the Gaussian filter matrices.
    gram : A R A = A^T S^T S A, the quadratic term of every free energy.
    hollow_gram : gram with a zero diagonal, the mean-field coupling B.
    SA : S A, whose k-th column eta_k = A_k s_k.

    Every derived matrix is built at construction and is read-only;
    each ``with_params`` copy builds its own last three.
    """

    N: int
    K: int
    S: np.ndarray
    a: np.ndarray
    sigma2: float
    R: np.ndarray = field(init=False, repr=False, compare=False)
    Rinv: np.ndarray = field(init=False, repr=False, compare=False)
    gram: np.ndarray = field(init=False, repr=False, compare=False)
    hollow_gram: np.ndarray = field(init=False, repr=False, compare=False)
    SA: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.shape != (self.N, self.K):
            raise DimensionMismatch(f"S shape {S.shape} != ({self.N}, {self.K})")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "R", _read_only(S.T @ S))
        self._set_params(self.a, self.sigma2)
        norms = np.linalg.norm(S, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("spreading columns must be unit norm")
        try:
            Rinv = spd_inverse(self.R)
        except Exception as exc:
            raise RankDeficient(f"S^T S not positive definite: {exc}") from None
        object.__setattr__(self, "Rinv", _read_only(Rinv))

    def _set_params(self, a, sigma2):
        a = np.asarray(a, dtype=float)
        if a.shape != (self.K,):
            raise DimensionMismatch(f"amplitude length {a.shape} != {self.K}")
        if np.any(a <= 0):
            raise ValueError("amplitudes must be positive")
        if sigma2 < 0:
            raise ValueError("noise variance must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma2", sigma2)
        gram = (a[:, None] * self.R) * a[None, :]
        hollow = gram - np.diag(np.diagonal(gram))
        for name, M in (("gram", gram), ("hollow_gram", hollow),
                        ("SA", self.S * a)):
            object.__setattr__(self, name, _read_only(M))

    def __setstate__(self, state):
        """Unpickling: arrays come back writeable, so the derived ones are
        made read-only again."""
        self.__dict__.update(state)
        for name in ("R", "Rinv", "gram", "hollow_gram", "SA"):
            _read_only(state[name])

    def with_params(self, a=None, sigma2=None):
        """Copy of this instance with replaced amplitudes / noise variance.

        Used by the joint-estimation loop, which detects with estimated
        parameters over the true spreading geometry: the copy shares S,
        R and R^{-1} with this instance and builds gram, hollow_gram and
        SA from its own amplitudes.
        """
        new = copy(self)
        new._set_params(self.a if a is None else a,
                        self.sigma2 if sigma2 is None else float(sigma2))
        return new


def _read_only(M):
    M.flags.writeable = False  # shared by every detector on the channel
    return M


@dataclass(frozen=True)
class SymbolBlock:
    """T consecutive channel uses of BPSK symbols, shape (T, K)."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 2:
            raise DimensionMismatch("symbol block must be a (T, K) array")
        if not np.all(np.abs(b) == 1.0):
            raise ValueError("symbols must be exactly +/-1")
        object.__setattr__(self, "b", b)

    @property
    def T(self):
        return self.b.shape[0]

    @property
    def K(self):
        return self.b.shape[1]


@dataclass(frozen=True)
class Observation:
    """Received block and its matched-filter transform.

    r has shape (T, N) and y = r S row-wise, i.e. y_t = S^T r_t for
    each interval t.  No whitened ybar is stored: the DDF pass takes y
    and whitens it in its own detection order.
    """

    r: np.ndarray
    y: np.ndarray


def make_equicorrelated(K, rho, amplitudes=None, sigma2=1.0):
    """Channel whose signature correlations are all equal to rho.

    R = (1 - rho) I + rho 11^T is positive definite for rho in [0, 1).
    The spreading matrix is realized as S = Q F with Q orthonormal
    (here Q = I, N = K); detectors see S only through R and S^T r, so
    any orthonormal Q is equivalent.
    """
    if not (0.0 <= rho < 1.0):
        raise InvalidCorrelation(f"{rho} outside [0, 1)")
    R = np.full((K, K), float(rho))
    np.fill_diagonal(R, 1.0)
    S = factor_FtF(R)  # Q = I_K: S^T S = F^T F = R
    a = np.ones(K) if amplitudes is None else np.asarray(amplitudes, dtype=float)
    return ChannelInstance(N=K, K=K, S=S, a=a, sigma2=float(sigma2))


def make_random_spreading(N, K, seed, amplitudes=None, sigma2=1.0):
    """Channel with random +/- 1/sqrt(N) chip sequences, deterministic in seed.

    Resamples internally (up to a cap) if the drawn S^T S is not
    positive definite, then raises RankDeficient.
    """
    if K > N:
        raise DimensionMismatch(f"K = {K} users exceed spreading gain N = {N}")
    rng = np.random.default_rng(seed)
    a = np.ones(K) if amplitudes is None else np.asarray(amplitudes, dtype=float)
    for _ in range(_RESAMPLE_CAP):
        chips = rng.integers(0, 2, size=(N, K)) * 2 - 1
        S = chips / np.sqrt(N)
        try:
            return ChannelInstance(N=N, K=K, S=S, a=a, sigma2=float(sigma2))
        except RankDeficient:
            continue
    raise RankDeficient(
        f"no positive definite S^T S in {_RESAMPLE_CAP} draws (N={N}, K={K})"
    )


def transmit(ch, blk, rng_seed):
    """Send a symbol block through the channel, deterministic in rng_seed:
    per-chip noise (none on a noiseless channel), then ``receive``."""
    noise = None if ch.sigma2 == 0 else \
        np.random.default_rng(rng_seed).standard_normal((blk.T, ch.N))
    return receive(ch, blk, noise)


def receive(ch, blk, noise, frames=1):
    """Observation of a symbol block under (T, N) standard normal chip
    draws ``noise``, scaled here in place (None: noiseless); y = S^T r
    exactly.  BLAS picks kernels by matrix size, so each of ``frames``
    stacked equal-length frames gets its own product: its rows are bit
    for bit those of a per-frame call.  S.T stays a non-contiguous view,
    as a contiguous copy may take another BLAS path and move r by an ulp."""
    if blk.K != ch.K:
        raise DimensionMismatch(f"block has {blk.K} users, channel has {ch.K}")
    r = (blk.b * ch.a).reshape(frames, -1, ch.K) @ ch.S.T  # row t: (S A b_t)^T
    if noise is not None:
        r += np.multiply(noise, np.sqrt(ch.sigma2), out=noise).reshape(r.shape)
    return Observation(r=r.reshape(-1, ch.N),
                       y=(r @ ch.S).reshape(-1, ch.K))
