"""Per-user error-control chain for the turbo loop.

Rate-1/2 feedforward convolutional encoding, per-user pseudo-random
interleaving, and an exact log-domain forward/backward APP decoder.
The bit-to-symbol map is fixed globally as 0 -> +1, 1 -> -1, and every
LLR in the package is log p(b = +1) / p(b = -1); the decoder consumes
coded-symbol LLRs from the detector and returns coded-symbol extrinsic
LLRs (posterior minus the channel input at the same position), plus
info-bit posteriors for error counting.  Both ``bcjr_decode`` and
``decode_user`` also take a batch of users, and ``decode_user`` frames
stacked along its rows, decoded in one trellis pass.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, LengthMismatch

TERMINATED = "terminated"
TRUNCATED = "truncated"

# A symbol's +1 or -1 edge mass below this floor lies more than ~575 nats
# under its trellis step's best edge: its exp terms may be subnormal or
# zero, so the step is decoded again by masked log-sum-exp.
SUM_FLOOR = 1e-250
# Largest input LLR magnitude: a branch metric adds two, which past about
# 1e307 can overflow to inf and turn every output NaN.
LLR_LIMIT = 1e300


@dataclass(frozen=True)
class ConvCode:
    """Rate-1/2 convolutional code from two binary generator strings.

    Generators are MSB first: the leading character multiplies the
    current input bit.  ``termination`` selects whether the encoder is
    flushed back to the zero state with tail bits.
    """

    generators: tuple
    termination: str = TERMINATED

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(gens) != 2:
            raise ValueError("rate-1/2 code needs exactly two generators")
        if any(set(g) - {"0", "1"} or int(g, 2) == 0 for g in gens):
            raise ValueError(f"bad generator strings {gens}")
        if len(gens[0]) != len(gens[1]):
            raise ValueError("generators must share one constraint length")
        if self.termination not in (TERMINATED, TRUNCATED):
            raise ValueError(f"unknown termination {self.termination!r}")
        object.__setattr__(self, "generators", gens)

    @property
    def constraint_length(self):
        return len(self.generators[0])

    @property
    def memory(self):
        return self.constraint_length - 1

    @property
    def n_states(self):
        return 1 << self.memory

    def n_coded(self, n_info):
        """Coded symbols produced for n_info information bits."""
        tail = self.memory if self.termination == TERMINATED else 0
        return 2 * (n_info + tail)

    @cached_property
    def _tables(self):
        """next_state[s, u], coded symbols out_pm[s, u, 2] in {+1, -1} and
        pred[ns, j], flat index 2 s + u of the j-th of the two edges into ns.
        """
        m = self.memory
        g = [int(s, 2) for s in self.generators]
        S = self.n_states
        next_state = np.empty((S, 2), dtype=np.int64)
        out_pm = np.empty((S, 2, 2))
        for s in range(S):
            for u in (0, 1):
                window = (u << m) | s
                for j in (0, 1):
                    bit = bin(window & g[j]).count("1") & 1
                    out_pm[s, u, j] = 1.0 - 2.0 * bit
                next_state[s, u] = (u << (m - 1)) | (s >> 1) if m > 0 else 0
        pred = np.argsort(next_state.ravel(), kind="stable").reshape(S, 2)
        for table in (next_state, out_pm, pred):
            table.flags.writeable = False  # shared by every call on the code
        return next_state, out_pm, pred

    @cached_property
    def _sign_mask(self):
        """(2S, 6) 0/1 mask over flat edges 2 s + u: the +1 and -1 groups
        of coded symbol 1, coded symbol 2 and the input bit (u = 0 -> +1).
        """
        _, out_pm, _ = self._tables
        upm = np.broadcast_to([1.0, -1.0], out_pm.shape[:2])[..., None]
        signs = np.concatenate([out_pm, upm], axis=2).reshape(-1, 3, 1)
        mask = (signs * [1.0, -1.0] > 0).reshape(-1, 6).astype(float)
        mask.flags.writeable = False
        return mask


def encode(code, info_bits):
    """Encode 0/1 information bits, one block (n,) or rows (B, n), into
    +/-1 symbols [c1_0, c2_0, c1_1, c2_1, ...], plus the flushing tail
    of a terminated code.  Coded bit j at step t is the XOR of u_{t-i}
    over the taps i of generator j (tap 0 leads; u = 0 outside the
    block): one shifted XOR per tap over all rows.
    """
    bits = np.asarray(info_bits, dtype=int)
    if bits.ndim not in (1, 2) or bits.shape[-1] < 1 or np.any(bits & ~1):
        raise ValueError("info_bits must be a nonempty 1-D or 2-D 0/1 array")
    m, n = code.memory, bits.shape[-1]
    steps = code.n_coded(n) // 2
    padded = np.zeros(bits.shape[:-1] + (m + steps,), dtype=np.uint8)
    padded[..., m:m + n] = bits
    parity = np.zeros(bits.shape[:-1] + (steps, 2), dtype=np.uint8)
    for j, gen in enumerate(code.generators):
        for i in (i for i, tap in enumerate(gen) if tap == "1"):
            parity[..., j] ^= padded[..., m - i:m - i + steps]
    return (1.0 - 2.0 * parity).reshape(bits.shape[:-1] + (-1,))


@dataclass(frozen=True)
class BcjrResult:
    extrinsic: np.ndarray       # coded positions
    posterior: np.ndarray       # coded positions
    info_posterior: np.ndarray  # information positions only


def bcjr_decode(code, channel_llrs, prior_info_llrs=None):
    """Exact log-domain APP decoding over the code trellis.

    ``channel_llrs`` holds one LLR per coded symbol, one block ``(n,)``
    or a batch ``(B, n)``; an optional prior per information bit is
    ``(n_info,)`` or ``(B, n_info)`` to match, and results keep that
    leading shape.  Every input LLR must lie in +/-``LLR_LIMIT`` (else
    ``DomainError``).  The forward and backward recursions advance in one
    loop, each step an exact two-edge log-sum-exp (not max-log) per
    state, shifted so that state 0 sits at 0 (a pure log-domain shift,
    so LLRs are unchanged; the all-zero input path keeps that entry
    finite).  Each trellis step's edge masses are shifted by their max
    and exponentiated once, and one matmul with ``code._sign_mask``
    gives the +1 and -1 mass of both coded symbols and the input bit.
    A step where a used mass falls below ``SUM_FLOOR`` (more than ~575
    nats under the step's best edge, or no edge at all) is decoded
    again by masked log-sum-exp, so large and infinite LLRs stay exact.
    Each batch row decodes bit for bit like a single-row call.
    """
    Lc = np.asarray(channel_llrs, dtype=float)
    if Lc.ndim not in (1, 2) or Lc.shape[-1] % 2 != 0:
        raise LengthMismatch("channel LLRs must pair up per trellis step")
    n_steps = Lc.shape[-1] // 2
    tail = code.memory if code.termination == TERMINATED else 0
    n_info = n_steps - tail
    if n_info < 1:
        raise LengthMismatch("no information positions in channel LLR array")
    La = np.zeros(Lc.shape[:-1] + (n_info,)) if prior_info_llrs is None \
        else np.asarray(prior_info_llrs, dtype=float)
    if La.shape != Lc.shape[:-1] + (n_info,):
        raise LengthMismatch(
            f"prior shape {La.shape} does not match {n_info} info bits"
        )
    # NaN fails every comparison, so NaN and +/-inf are rejected too
    if not np.maximum(np.abs(Lc).max(), np.abs(La).max()) <= LLR_LIMIT:
        raise DomainError(f"channel and prior LLRs must lie in "
                          f"+/-{LLR_LIMIT:g}")

    next_state, out_pm, pred = code._tables
    S = code.n_states
    Lc2 = Lc.reshape(-1, n_steps, 2)
    B = Lc2.shape[0]

    # branch metrics: gamma[b, t, s, u]
    gamma = 0.5 * (out_pm[:, :, 0] * Lc2[:, :, None, None, 0]
                   + out_pm[:, :, 1] * Lc2[:, :, None, None, 1])
    upm = np.array([1.0, -1.0])  # bit 0 -> +1
    gamma[:, :n_info] += 0.5 * upm * La.reshape(B, n_info, 1, 1)
    gamma[:, n_info:, :, 1] = -np.inf  # tail forced to the flushing input

    # fused step t: v[t] = [alpha_t | beta_{n-t}] of each block; row j of
    # idx/gam is the j-th edge into a state (alpha, step t, through pred)
    # or out of it with input j (beta, step n-1-t, through next_state)
    idx = np.concatenate([pred.T // 2, S + next_state.T], axis=1)
    idx = idx[:, None] + 2 * S * np.arange(B)[:, None]
    by_t = gamma.transpose(1, 0, 2, 3)
    gam = np.concatenate(
        [by_t.reshape(n_steps, B, 2 * S)[:, :, pred.T].transpose(0, 2, 1, 3),
         by_t[::-1].transpose(0, 3, 1, 2)], axis=3)
    v = np.full((n_steps + 1, B, 2, S), -np.inf)
    v[0, :, :, 0] = 0.0
    if code.termination == TRUNCATED:
        v[0, :, 1] = 0.0
    for t in range(n_steps):
        c = v[t].take(idx)
        c += gam[t]
        w = np.logaddexp(c[0], c[1]).reshape(B, 2, S)
        np.subtract(w, w[:, :, :1], out=v[t + 1])
    del gam  # free the step-ordered copy before the edge pass: peak memory

    # edge mass: e[b, t, s, u] = alpha[t, s] + gamma[t, s, u] + beta[t+1, ns]
    edge = v[:-1, :, 0].transpose(1, 0, 2)[..., None] + gamma
    edge += v[-2::-1, :, 1].transpose(1, 0, 2)[:, :, next_state.ravel()] \
        .reshape(B, n_steps, S, 2)
    edge = edge.reshape(-1, 2 * S)
    edge -= edge.max(axis=1, keepdims=True)
    mask = code._sign_mask
    mass = np.exp(edge) @ mask  # (B n_steps, 6): +1 and -1 mass per symbol
    with np.errstate(divide="ignore"):
        llr = np.log(mass[:, 0::2]) - np.log(mass[:, 1::2])
    low = (mass < SUM_FLOOR).reshape(B, n_steps, 6)
    redo = low[:, :, :4].any(axis=2)
    redo[:, :n_info] |= low[:, :n_info, 4:].any(axis=2)  # tails have no u=1
    rows = np.flatnonzero(redo)
    if rows.size:
        sub = edge[rows]
        for j in range(3):
            llr[rows, j] = (
                _logsumexp2(np.where(mask[:, 2 * j] > 0, sub, -np.inf))
                - _logsumexp2(np.where(mask[:, 2 * j + 1] > 0, sub, -np.inf)))
    llr = llr.reshape(B, n_steps, 3)
    posterior = llr[:, :, :2].reshape(Lc.shape)
    info_posterior = llr[:, :n_info, 2].reshape(La.shape)
    return BcjrResult(extrinsic=posterior - Lc, posterior=posterior,
                      info_posterior=info_posterior)


def _logsumexp2(x):
    """Row-wise exact log-sum-exp tolerating -inf entries."""
    m = np.max(x, axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.sum(np.exp(x - safe[:, None]), axis=1))
    return np.where(np.isfinite(m), out, -np.inf)


def user_permutations(n, K, master_seed):
    """Per-user interleaver permutations, seeded from (master_seed, user)."""
    return [np.random.default_rng([master_seed, k]).permutation(n)
            for k in range(K)]


@dataclass(frozen=True)
class LlrFrame:
    """One turbo iteration's message exchange for a whole block.

    Arrays are (T, K): detector extrinsics (llr_mud), decoder
    extrinsics (llr_dec) and their sum, the posterior.  Per-user
    info-bit posteriors ride along for error counting when a real
    decoder is in the loop.
    """

    llr_mud: np.ndarray
    llr_dec: np.ndarray
    llr_post: np.ndarray
    info_posterior: list = field(default=None, repr=False)

    @classmethod
    def from_exchange(cls, llr_mud, llr_dec, info_posterior=None):
        return cls(llr_mud=np.asarray(llr_mud, dtype=float),
                   llr_dec=np.asarray(llr_dec, dtype=float),
                   llr_post=np.asarray(llr_mud, dtype=float)
                   + np.asarray(llr_dec, dtype=float),
                   info_posterior=info_posterior)

    @property
    def T(self):
        return self.llr_mud.shape[0]


class IdentityDecoder:
    """Pass-through decoder: LLR_dec = LLR_mud (no code constraint)."""

    def decode_user(self, k, llr_mud):
        """``ConvTurboDecoder.decode_user`` contract; no info posteriors."""
        llr = np.asarray(llr_mud, dtype=float)
        return llr, None if llr.ndim == 1 else [None] * llr.shape[1]


class ConvTurboDecoder:
    """Per-user convolutional chains behind the detector.

    Owns the code, block length and per-user interleavers (rows of one
    ``(K, n_coded)`` array); encodes the transmit block and decodes
    users' channel-domain LLRs back to channel-domain extrinsics.
    """

    def __init__(self, code, K, n_info, master_seed=0):
        self.code = code
        self.K = K
        self.n_info = n_info
        self.n_coded = code.n_coded(n_info)
        self.perms = np.array(user_permutations(self.n_coded, K, master_seed))
        self._inverse = np.argsort(self.perms, axis=1)

    def encode_block(self, info_bits):
        """(n_info, K) 0/1 bits -> (n_coded, K) interleaved +/-1 symbols."""
        coded = encode(self.code, np.asarray(info_bits).T)
        return np.take_along_axis(coded, self.perms, -1).T.copy()

    def decode_user(self, k, llr_mud):
        """Channel-domain extrinsics in, channel-domain extrinsics out.

        ``k`` is one user with ``(F n_coded,)`` LLRs, or an index over
        users (``slice(None)``, a list, an array) with an
        ``(F n_coded, |k|)`` block: F >= 1 frames stacked along the first
        axis, each interleaved by the same per-user permutation.  Every
        frame of every user is decoded in one batched pass.  Extrinsics
        keep the input shape; info posteriors are ``(F n_info,)`` or
        ``(|k|, F n_info)``, frames in input order.
        """
        llr = np.asarray(llr_mud, dtype=float)
        perms = self.perms[k]
        frames, rem = divmod(llr.shape[0], self.n_coded)
        if llr.T.shape[:-1] != perms.shape[:-1] or rem or not frames:
            raise LengthMismatch(f"LLRs {llr.shape} do not fit users {k!r}")
        # (|k|, F, n_coded): one row per frame of each user
        blocks = llr.T.reshape(perms.shape[:-1] + (frames, self.n_coded))
        res = bcjr_decode(self.code, np.take_along_axis(
            blocks, self._inverse[k][..., None, :], -1)
            .reshape(-1, self.n_coded))
        ext = np.take_along_axis(res.extrinsic.reshape(blocks.shape),
                                 perms[..., None, :], -1)
        return (ext.reshape(llr.T.shape).T,
                res.info_posterior.reshape(perms.shape[:-1] + (-1,)))
