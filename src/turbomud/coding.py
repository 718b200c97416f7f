"""Per-user error-control chain for the turbo loop.

Rate-1/2 feedforward convolutional encoding, per-user pseudo-random
interleaving, and an exact forward/backward APP decoder (BCJR) that
advances M = max(memory, 1) trellis steps per matmul.  The bit-to-symbol
map is fixed globally as 0 -> +1, 1 -> -1, and every LLR in the package
is log p(b = +1) / p(b = -1); the decoder consumes coded-symbol LLRs from
the detector and returns coded-symbol extrinsic LLRs (posterior minus the
channel input at the same position), plus info-bit posteriors for error
counting.  Every code is terminated and the decoder sees channel LLRs
only.  ``bcjr_decode`` takes a batch of rows; ``decode_user`` takes one
user or all users, frames stacked along its rows, decoded in one pass.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DomainError, LengthMismatch

# A +1 or -1 mass below this floor may be made of subnormal or zero
# probability-domain terms, so its row is decoded again in the log domain.
SUM_FLOOR = 1e-250
# Largest input LLR magnitude: a block's path metric adds 3 M of them at
# half weight, which past about 1e307 can overflow to inf.
LLR_LIMIT = 1e300
# Nats the probability-domain recursion may span.  With inputs of magnitude
# at most L, an M-step transfer-matrix entry lies in exp(+/-1.5 L M) and a
# state-0-scaled alpha or beta in exp(+/-3 L M), so every product stays a
# normal double while 4.5 L M <= BLOCK_NATS (the 9.8 nats left below
# log(DBL_MAX) hold the sum over 2^M states for M <= 14).  Rows past
# L = BLOCK_NATS / (4.5 M), 38.9 at M = 4 (above the detectors' 30-nat
# clamp), are decoded in the log domain.
BLOCK_NATS = 700.0


@dataclass(frozen=True)
class ConvCode:
    """Rate-1/2 convolutional code from two binary generator strings.

    Generators are MSB first: the leading character multiplies the
    current input bit.  The encoder is flushed back to the zero state
    with ``memory`` tail bits.
    """

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(gens) != 2:
            raise ValueError("rate-1/2 code needs exactly two generators")
        if any(set(g) - {"0", "1"} or int(g, 2) == 0 for g in gens):
            raise ValueError(f"bad generator strings {gens}")
        if len(gens[0]) != len(gens[1]):
            raise ValueError("generators must share one constraint length")
        object.__setattr__(self, "generators", gens)

    @property
    def memory(self):
        return len(self.generators[0]) - 1

    @property
    def n_states(self):
        return 1 << self.memory

    def n_coded(self, n_info):
        """Coded symbols produced for n_info information bits."""
        return 2 * (n_info + self.memory)

    @property
    @cache  # one build per equal code, shared by all of them
    def _tables(self):
        """next_state[s, u] and coded symbols out_pm[s, u, 2] in {+1, -1}
        from the register window w = (u << m) | s: the next state is w >> 1
        and coded bit j the parity of w masked by generator j."""
        window = np.arange(2 * self.n_states).reshape(2, -1).T
        taps = [int(g, 2) for g in self.generators]
        parity = np.vectorize(lambda w: bin(w).count("1") & 1)
        out_pm = 1.0 - 2.0 * parity(window[..., None] & taps)
        next_state = window >> 1
        for table in (next_state, out_pm):
            table.flags.writeable = False  # shared by every call on the code
        return next_state, out_pm

    @property
    @cache
    def _blocks(self):
        """Block-trellis tables.  The block state is the last M = max(memory,
        1) inputs, the newest in bit M - 1, so M steps join each state s to
        each state s' (their inputs, the first in bit 0) by one path, flat
        index s S + s'.  ``signs`` (3 M, S^2) is half the +/-1 value of c1,
        c2 and u (u = 0 -> +1) at each step of each path; ``mask``
        (S^2, 6 M) marks the +1 and the -1 group of each.
        """
        next_state, out_pm = self._tables
        M = max(self.memory, 1)
        c, inputs = np.divmod(np.arange(1 << 2 * M), 1 << M)
        c >>= M - self.memory  # the code's state: the newest inputs
        pm = []
        for i in range(M):
            u = (inputs >> i) & 1
            pm += [out_pm[c, u, 0], out_pm[c, u, 1], 1.0 - 2.0 * u]
            c = next_state[c, u]
        signs = 0.5 * np.array(pm)
        mask = (signs.T[..., None] * [1, -1] > 0).reshape(c.size, -1) * 1.0
        for table in (signs, mask):
            table.flags.writeable = False
        return signs, mask


def encode(code, info_bits):
    """Encode 0/1 information bits, one block (n,) or rows (B, n), into
    +/-1 symbols [c1_0, c2_0, c1_1, c2_1, ...], plus the flushing tail.
    Coded bit j at step t is the XOR of u_{t-i} over the taps i of
    generator j (tap 0 leads; u = 0 outside the block): one shifted XOR
    per tap over all rows.
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
    return (1.0 - 2.0 * parity).reshape(bits.shape[:-1] + (2 * steps,))


@dataclass(frozen=True)
class BcjrResult:
    extrinsic: np.ndarray       # coded positions
    posterior: np.ndarray       # coded positions
    info_posterior: np.ndarray  # information positions only


class BcjrWork:
    """The probability domain's transfer matrices q, alpha/beta v, step
    buffer w, and step and halving views for the batch shape last run,
    rebuilt when it changes.  No result shares them; a pickle is empty."""

    shape = None

    def __reduce__(self):
        return BcjrWork, ()

    def buffers(self, *shape):
        if self.shape != shape:
            B, nb, S = self.shape = shape
            self.q, self.w = np.empty((2, nb, B, S, S)), np.empty((2, B, 1, S))
            self.v = v = np.empty((nb + 1, 2, B, 1, S))
            self.steps = list(zip(v[:-1], self.q.swapaxes(0, 1), v[1:]))
            # np.maximum (a, b, out): v's rows, then each out, halved
            r, h = v.reshape(-1, S), S // 2
            self.halves = [(r[:, :h], r[:, h:], np.empty((len(r), h)))]
            while h > 1:
                top, h = self.halves[-1][2], h // 2
                self.halves.append((top[:, :h], top[:, h:], top[:, :h]))
        return self.q, self.v, self.w, self.steps, self.halves


def bcjr_decode(code, channel_llrs, *, work=None):
    """Exact APP decoding, M = max(memory, 1) trellis steps per block.

    ``channel_llrs`` holds one LLR per coded symbol of the terminated
    code, one block ``(n,)`` or a batch ``(B, n)``, B >= 0, and results
    keep that leading shape; the information bits carry no prior.  Every
    input LLR must lie in +/-``LLR_LIMIT`` (else ``DomainError``).
    ``work`` is a ``BcjrWork`` that the probability domain reuses across
    calls (None allocates per call).

    In M steps every state reaches every state by one path (a look-ahead
    trellis, Black & Meng 1992), so block k is the S x S transfer matrix
    P_k = exp(G_k), G_k[s, s'] the path's summed branch metrics: one
    matmul of the block's inputs with ``code._blocks`` signs.  Input-0
    steps pad the front so that blocks tile the trellis; alpha starts in
    state 0, and beta ends there after the tail's input-0 steps (a
    memory-0 code has no tail and ends in any state).  Per block, one
    matmul and one divide by the state-0 entry advance alpha and beta
    together.  The joints alpha_k P_k beta_{k+1} (alpha and beta scaled to
    a largest entry of 1) times the blocks' sign mask, one matmul per
    row, give the +1 and -1 mass of c1, c2 and u at every step.

    A row with an input past ``BLOCK_NATS / (4.5 M)`` in magnitude, or a
    used mass below ``SUM_FLOOR``, runs the same block recursion in the
    log domain: log-sum-exp over states and masked log-sum-exp per mass,
    so large LLRs stay exact.  Each row takes one path whatever the rest
    of the batch holds, so it decodes bit for bit like a single-row call.
    """
    Lc = np.asarray(channel_llrs, dtype=float)
    if Lc.ndim not in (1, 2) or Lc.shape[-1] % 2 != 0:
        raise LengthMismatch("channel LLRs must pair up per trellis step")
    n_steps = Lc.shape[-1] // 2
    tail = code.memory
    n_info = n_steps - tail
    if n_info < 1:
        raise LengthMismatch("no information positions in channel LLR array")
    signs, mask = code._blocks
    M = mask.shape[1] // 6
    pad = -n_steps % M
    nb, B = (n_steps + pad) // M, Lc.size // (2 * n_steps)
    # x[b, t] = (Lc1, Lc2, 0) at step t - pad of row b, 0 on the pad; the
    # u column keeps the branch-metric product's (B, nb, 3 M) shape
    x = np.zeros((B, nb * M, 3))
    x[:, pad:, :2] = Lc.reshape(B, n_steps, 2)
    size = np.abs(Lc.reshape(B, 2 * n_steps)).max(axis=1)
    # NaN fails every comparison, so NaN and +/-inf are rejected too
    if not np.all(size <= LLR_LIMIT):
        raise DomainError(f"channel LLRs must lie in +/-{LLR_LIMIT:g}")
    x = x.reshape(B, nb, 3 * M)
    llr = np.empty((B, nb * M, 3))
    redo = size > BLOCK_NATS / (4.5 * M)
    if not redo.all():
        rows = ~redo if redo.any() else slice(None)
        mass = _block_masses(x[rows], signs, mask, pad, tail, work)
        # the per-row test runs only if some mass is low; fmin skips NaN
        coded, info = mass[:, pad:, :4], mass[:, pad:pad + n_info, 4:]
        if any(np.fmin.reduce(m, None) < SUM_FLOOR for m in (coded, info)):
            redo[rows] = ((coded < SUM_FLOOR).any(axis=(1, 2))
                          | (info < SUM_FLOOR).any(axis=(1, 2)))
        with np.errstate(divide="ignore"):
            np.log(mass, out=mass)
        llr[rows] = mass[..., 0::2] - mass[..., 1::2]
    if redo.any():
        mass = _block_masses(x[redo], signs, mask, pad, tail, None, log=True)
        llr[redo] = mass[..., 0::2] - mass[..., 1::2]
    posterior = llr[:, pad:, :2].reshape(Lc.shape)
    info_posterior = llr[:, pad:pad + n_info, 2].reshape(*Lc.shape[:-1],
                                                         n_info)
    return BcjrResult(extrinsic=posterior - Lc, posterior=posterior,
                      info_posterior=info_posterior)


def _block_masses(x, signs, mask, pad, tail, work, log=False):
    """(B, N, 6) +1 and -1 masses of c1, c2 and u at every step of the
    blocks x (B, nb, 3 M), from the block recursion in the probability
    domain, or their logs from the same recursion in the log domain."""
    B, nb, _ = x.shape
    S = 1 << (signs.shape[0] // 3)
    # q[:, k] = [P_k | P_{nb-1-k}^T], step-major: one step advances alpha
    # and beta over contiguous memory.  Each product below keeps its
    # per-row (or per-matrix) shape, because OpenBLAS picks its kernel by
    # size and a merged product would move ulps.
    q, v, w, steps, halves = (work or BcjrWork()).buffers(B, nb, S)
    p = q[0]
    np.matmul(x, signs, out=p.reshape(nb, B, S * S).swapaxes(0, 1))
    if pad:
        p[0, ..., np.arange(S) % (1 << pad) > 0] = -np.inf  # pad inputs are 0
    if tail:
        p[-1, ..., 1:] = -np.inf  # and so are the tail's
    if not log:
        np.exp(p, out=p)
    q[1] = p[::-1].swapaxes(-1, -2)
    # v[k] = [alpha_k | beta_{nb-k}], state 0 scaled to 1 (shifted to 0)
    v[0] = -np.inf if log else 0.0  # the steps below write v[1:]
    v[0, 0, :, 0, 0] = v[0, 1, :, 0, :1 if tail else S] = 0.0 if log else 1.0
    w0, scale = w[..., :1], np.subtract if log else np.divide
    for vk, qk, vnext in steps:
        if log:
            np.logaddexp.reduce(vk.swapaxes(-1, -2) + qk, axis=-2,
                                keepdims=True, out=w)
        else:
            np.matmul(vk, qk, out=w)
        scale(w, w0, out=vnext)
    if not log:  # v over its largest state, so that no joint overflows
        for a, b, out in halves:  # exact, and one call per halving
            np.maximum(a, b, out=out)
        v /= out.reshape(v.shape[:-1] + (1,))
    alpha = v[:-1, 0, :, 0]
    beta = v[-2::-1, 1, :, 0]  # beta_{k+1}
    if log:
        joint = alpha[..., :, None] + p + beta[..., None, :]
        joint = joint.swapaxes(0, 1).reshape(B, nb, S * S)
        mass = np.stack([np.logaddexp.reduce(np.where(c > 0, joint, -np.inf),
                                             axis=-1) for c in mask.T], -1)
    else:
        joint = q[1]  # the beta half is spent
        np.multiply(alpha[..., :, None], beta[..., None, :], out=joint)
        joint *= p
        mass = np.matmul(joint.reshape(nb, B, S * S).swapaxes(0, 1), mask)
    return mass.reshape(B, -1, 6)


def user_permutations(n, K, master_seed):
    """Per-user interleaver permutations, seeded from (master_seed, user)."""
    return [np.random.default_rng([master_seed, k]).permutation(n)
            for k in range(K)]


@dataclass(frozen=True)
class LlrFrame:
    """One turbo iteration's message exchange for a whole block.

    Arrays are (T, K): detector extrinsics (llr_mud), decoder
    extrinsics (llr_dec) and their sum, the posterior.  Per-user
    info-bit posteriors ride along for error counting.
    """

    llr_mud: np.ndarray
    llr_dec: np.ndarray
    llr_post: np.ndarray
    info_posterior: list = field(repr=False)


def _one_or_all(k, llr_mud, K=np.inf):
    """``llr_mud`` as floats if ``k`` is one user, an int in 0..K-1 (not a
    bool), with 1-D LLRs, or ``slice(None)``, all users, with 2-D LLRs;
    any other index or rank raises ``LengthMismatch``.  Both decoders
    check here."""
    llr = np.asarray(llr_mud, dtype=float)
    one = isinstance(k, (int, np.integer)) and not isinstance(k, bool) \
        and 0 <= k < K
    if not (one or isinstance(k, slice) and k == slice(None)):
        raise LengthMismatch(f"users {k!r} are neither one nor all")
    if llr.ndim != (1 if one else 2):
        raise LengthMismatch(f"LLRs {llr.shape} do not fit users {k!r}")
    return llr


class IdentityDecoder:
    """Pass-through decoder: LLR_dec = LLR_mud (no code constraint)."""

    def decode_user(self, k, llr_mud):
        """``ConvTurboDecoder.decode_user`` contract; the info bits are
        the symbols, so the info posteriors are the input LLRs."""
        llr = _one_or_all(k, llr_mud)
        return llr, llr.T


class ConvTurboDecoder:
    """Per-user convolutional chains behind the detector.

    Owns the code, block length and per-user interleavers (rows of one
    ``(K, n_coded)`` array); encodes the transmit block and decodes
    users' channel-domain LLRs back to channel-domain extrinsics.
    """

    def __init__(self, code, K, n_info, master_seed=0):
        if K < 1 or n_info < 1:
            raise ValueError(f"need K >= 1 and n_info >= 1, got {K}, {n_info}")
        self.code = code
        self.K = K
        self.n_info = n_info
        self.n_coded = code.n_coded(n_info)
        self.perms = np.array(user_permutations(self.n_coded, K, master_seed))
        self._inverse = np.argsort(self.perms, axis=1)
        # flat gathers between a frame's (n_coded, K) channel-order block
        # and its users' (K, n_coded) code-order rows, both raveled: the
        # first deinterleaves, the second interleaves back
        users = np.arange(K)[:, None]
        self._gathers = ((self._inverse * K + users).ravel(),
                         (self.perms + self.n_coded * users).T.ravel())
        self._work = BcjrWork()  # pool workers build their own

    def encode_block(self, info_bits):
        """(n_info, K) 0/1 bits -> (n_coded, K) interleaved +/-1 symbols."""
        coded = encode(self.code, np.asarray(info_bits).T)
        return coded.reshape(-1)[self._gathers[1]].reshape(self.n_coded, -1)

    def decode_user(self, k, llr_mud):
        """Channel-domain extrinsics in, channel-domain extrinsics out.

        ``k`` is one user (an int in 0..K-1) with ``(F n_coded,)`` LLRs,
        or ``slice(None)``, all K users, with an ``(F n_coded, K)`` block;
        ``_one_or_all`` refuses any other index or rank.  F >= 1 frames are
        stacked along the first axis, each interleaved by the same
        per-user permutation.  Every frame of every user is decoded in one
        batched pass.  Extrinsics keep the input shape; info posteriors
        are ``(F n_info,)`` or ``(K, F n_info)``, frames in input order.
        """
        llr = _one_or_all(k, llr_mud, self.K)
        if llr.ndim == 2:
            perms, (deinterleave, interleave) = self.perms, self._gathers
        else:
            perms = self.perms[k]
            deinterleave, interleave = self._inverse[k], perms
        n = self.n_coded
        frames, rem = divmod(llr.shape[0], n)
        if llr.T.shape[:-1] != perms.shape[:-1] or rem or not frames:
            raise LengthMismatch(f"LLRs {llr.shape} do not fit users {k!r}")
        # each frame's (1 or K, n_coded) rows in code order, frame-major
        rows = np.take(llr.reshape(frames, perms.size), deinterleave, axis=1)
        res = bcjr_decode(self.code, rows.reshape(-1, n), work=self._work)
        ext = np.take(res.extrinsic.reshape(rows.shape), interleave, axis=1)
        info = res.info_posterior.reshape(frames, perms.size // n, self.n_info)
        return ext.reshape(llr.shape), info.swapaxes(0, 1).reshape(
            perms.shape[:-1] + (frames * self.n_info,))
