import pickle
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turbomud import coding
from turbomud.coding import (BLOCK_NATS, LLR_LIMIT, ConvCode,
                             ConvTurboDecoder, IdentityDecoder, bcjr_decode,
                             encode, user_permutations)
from turbomud.errors import DomainError, LengthMismatch

import references
from references import frozen_bcjr_decode

# The fused decoder shifts each recursion step by its state-0 entry, which
# can sit 100s of nats from the best state, and sums edge masses by
# matmul; its worst gap to scatter_bcjr in these tests, relative to
# max(1, |LLR|), is 3.0e-14.
SCATTER_TOL = 4e-14

SCENARIO_CODES = [ConvCode(generators=("10011", "11101")),
                  ConvCode(generators=("111", "101"))]


def exhaustive_map(code, channel_llrs):
    """Brute-force APP decoding by codeword enumeration (test oracle).

    Weighs every information word by exp(sum c_i Lc_i / 2) and
    marginalizes coded and info positions.
    """
    Lc = np.asarray(channel_llrs, dtype=float)
    n_info = Lc.size // 2 - code.memory
    words = np.array(list(product((0, 1), repeat=n_info)))
    symbols = np.array([encode(code, w) for w in words])
    upm = 1.0 - 2.0 * words
    logw = symbols @ Lc / 2.0
    logw -= np.max(logw)

    def marginal(pm_table):
        pos = np.full(pm_table.shape[1], -np.inf)
        neg = np.full(pm_table.shape[1], -np.inf)
        for i, lw in enumerate(logw):
            sel = pm_table[i] > 0
            pos[sel] = np.logaddexp(pos[sel], lw)
            neg[~sel] = np.logaddexp(neg[~sel], lw)
        return pos - neg

    return marginal(symbols), marginal(upm)


def masked_logsumexp(rows, keep):
    """log sum exp of each row over the entries where ``keep`` holds;
    -inf for a row with no finite kept entry."""
    out = np.full(len(rows), -np.inf)
    for i, row in enumerate(rows):
        vals = row[keep & np.isfinite(row)]
        if vals.size:
            top = np.max(vals)
            out[i] = top + np.log(np.sum(np.exp(vals - top)))
    return out


def scatter_bcjr(code, Lc):
    """One-block log-MAP with separate forward and backward passes that
    scatter-add each edge into its next state, and a per-row masked
    log-sum-exp for every LLR (test reference for the batched fused
    decoder)."""
    next_state, out_pm = code._tables
    S, n_steps = code.n_states, Lc.size // 2
    n_info = n_steps - code.memory
    Lc2 = Lc.reshape(n_steps, 2)
    gamma = 0.5 * (out_pm[None, :, :, 0] * Lc2[:, None, None, 0]
                   + out_pm[None, :, :, 1] * Lc2[:, None, None, 1])
    gamma[n_info:, :, 1] = -np.inf
    alpha = np.full((n_steps + 1, S), -np.inf)
    alpha[0, 0] = 0.0
    for t in range(n_steps):
        nxt = np.full(S, -np.inf)
        cand = alpha[t][:, None] + gamma[t]
        np.logaddexp.at(nxt, next_state.ravel(), cand.ravel())
        alpha[t + 1] = nxt - np.max(nxt)
    beta = np.full((n_steps + 1, S), -np.inf)
    beta[n_steps, 0] = 0.0
    for t in range(n_steps - 1, -1, -1):
        cand = gamma[t] + beta[t + 1][next_state]
        b = np.logaddexp(cand[:, 0], cand[:, 1])
        beta[t] = b - np.max(b)
    edge = alpha[:-1, :, None] + gamma
    edge += beta[1:, :][:, next_state.ravel()].reshape(n_steps, S, 2)

    def llr(sign):
        rows = edge.reshape(n_steps, -1)
        sign = np.broadcast_to(sign, (S, 2)).ravel()
        return (masked_logsumexp(rows, sign > 0)
                - masked_logsumexp(rows, sign < 0))

    posterior = np.stack([llr(out_pm[:, :, 0]), llr(out_pm[:, :, 1])],
                         axis=1).ravel()
    return posterior, llr(np.array([1.0, -1.0]))[:n_info]


def trellis_walk_encode(code, info_bits):
    """The encoder as a walk over the trellis tables (test reference)."""
    next_state, out_pm = code._tables
    bits = list(info_bits) + [0] * (code.n_coded(len(info_bits)) // 2
                                    - len(info_bits))
    out, s = [], 0
    for u in bits:
        out.extend(out_pm[s, u])
        s = next_state[s, u]
    return np.array(out)


WALK_GENERATORS = [("111", "101"), ("10011", "11101"), ("1", "1"),
                   ("11", "10"), ("1101", "1011"), ("0111", "1001")]


def test_equal_codes_share_read_only_tables():
    # every run builds its own code; the tables are built once per process
    a = ConvCode(generators=("10011", "11101"))
    b = ConvCode(generators=["10011", "11101"])
    assert a is not b and a == b
    for x, y in zip(a._tables + a._blocks, b._tables + b._blocks,
                    strict=True):
        assert x is y and not x.flags.writeable


class TestEncode:
    def test_all_zero_info_all_plus_one(self):
        for code in SCENARIO_CODES:
            out = encode(code, np.zeros(6, dtype=int))
            np.testing.assert_array_equal(out, np.ones(code.n_coded(6)))

    def test_hand_traced_shift_register(self):
        # generators 111/101, input 1 0 0 with two tail zeros
        code = ConvCode(generators=("111", "101"))
        out = encode(code, [1, 0, 0])
        expected = [-1, -1, -1, 1, -1, -1, 1, 1, 1, 1]
        np.testing.assert_array_equal(out, expected)

    def test_terminated_length(self):
        code = ConvCode(generators=("10011", "11101"))
        assert encode(code, np.ones(10, dtype=int)).size == 2 * (10 + 4)

    @pytest.mark.parametrize("gens", WALK_GENERATORS)
    def test_matches_the_trellis_walk(self, gens):
        code = ConvCode(generators=gens)
        rng = np.random.default_rng(len(gens[0]))
        for n in (1, 2, 3, 7, 64):
            for _ in range(4):
                info = rng.integers(0, 2, size=n)
                np.testing.assert_array_equal(
                    encode(code, info), trellis_walk_encode(code, info))
        dec = ConvTurboDecoder(code, K=5, n_info=33, master_seed=2)
        info = rng.integers(0, 2, size=(33, 5))
        want = np.array([trellis_walk_encode(code, u) for u in info.T])
        np.testing.assert_array_equal(
            dec.encode_block(info),
            np.take_along_axis(want, dec.perms, -1).T)

    @pytest.mark.parametrize("gens", WALK_GENERATORS)
    def test_empty_batch(self, gens):
        code = ConvCode(generators=gens)
        out = encode(code, np.zeros((0, 40), dtype=int))
        assert out.shape == (0, code.n_coded(40))

    @pytest.mark.parametrize("gens", WALK_GENERATORS)
    def test_tail_flushes_the_register(self, gens):
        # memory tail bits leave the register empty: further input-0
        # steps emit +1 symbols only
        code = ConvCode(generators=gens)
        m = len(gens[0]) - 1
        info = np.random.default_rng(m).integers(0, 2, size=9)
        out = encode(code, info)
        assert out.size == code.n_coded(9) == 2 * (9 + m)
        longer = encode(code, np.concatenate([info, np.zeros(m, dtype=int)]))
        np.testing.assert_array_equal(longer[:out.size], out)
        np.testing.assert_array_equal(longer[out.size:], np.ones(2 * m))

    def test_non_binary_info_bits_raise(self):
        code = ConvCode(generators=("111", "101"))
        for bad in ([0, 2, 1], [-1, 0]):
            with pytest.raises(ValueError):
                encode(code, bad)

    def test_roundtrip_with_confident_llrs(self):
        rng = np.random.default_rng(0)
        for code in SCENARIO_CODES:
            info = rng.integers(0, 2, size=24)
            tx = encode(code, info)
            res = bcjr_decode(code, 30.0 * tx)
            decoded = (res.info_posterior < 0).astype(int)
            np.testing.assert_array_equal(decoded, info)


class TestBcjr:
    def test_zero_inputs_zero_extrinsics(self):
        code = ConvCode(generators=("111", "101"))
        res = bcjr_decode(code, np.zeros(2 * (8 + 2)))
        np.testing.assert_allclose(res.extrinsic, 0.0, atol=1e-12)

    @pytest.mark.parametrize("code", SCENARIO_CODES)
    def test_matches_exhaustive_map(self, code):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n_info = 8
            Lc = rng.standard_normal(2 * (n_info + code.memory)) * 3.0
            res = bcjr_decode(code, Lc)
            post_ref, info_ref = exhaustive_map(code, Lc)
            np.testing.assert_allclose(res.posterior, post_ref, atol=1e-9)
            np.testing.assert_allclose(res.info_posterior, info_ref,
                                       atol=1e-9)

    @pytest.mark.parametrize("gens", [("1", "1"), ("11", "10"), ("111", "101"),
                                      ("1101", "1011"), ("10011", "11101"),
                                      ("0111", "0101")])
    def test_every_block_offset_matches_exhaustive_map(self, gens):
        # n_info = 1..9 gives every front pad 0..M-1 of the block trellis,
        # and memory 0 and 1 codes run on blocks of one step
        code = ConvCode(generators=gens)
        rng = np.random.default_rng(12)
        for n_info in range(1, 10):
            Lc = rng.standard_normal(code.n_coded(n_info)) * 3.0
            res = bcjr_decode(code, Lc)
            post_ref, info_ref = exhaustive_map(code, Lc)
            np.testing.assert_allclose(res.posterior, post_ref, atol=1e-9)
            np.testing.assert_allclose(res.info_posterior, info_ref,
                                       atol=1e-9)

    @pytest.mark.parametrize("code", SCENARIO_CODES)
    def test_matches_exhaustive_map_len10(self, code):
        rng = np.random.default_rng(2)
        n_info = 10
        Lc = rng.standard_normal(2 * (n_info + code.memory)) * 2.0
        res = bcjr_decode(code, Lc)
        post_ref, info_ref = exhaustive_map(code, Lc)
        np.testing.assert_allclose(res.posterior, post_ref, atol=1e-9)
        np.testing.assert_allclose(res.info_posterior, info_ref, atol=1e-9)

    def test_huge_correct_llrs_give_correct_signs(self):
        # each step's losing sign groups lie over 575 nats under its best
        # edge, so every step is decoded again by masked log-sum-exp
        code = ConvCode(generators=("10011", "11101"))
        rng = np.random.default_rng(3)
        info = rng.integers(0, 2, size=16)
        tx = encode(code, info)
        res = bcjr_decode(code, 200.0 * tx)
        np.testing.assert_array_equal(np.sign(res.posterior), tx)
        assert np.all(np.isfinite(res.extrinsic))
        posterior, info_posterior = scatter_bcjr(code, 200.0 * tx)
        assert np.all(np.abs(posterior) > 745.0)  # past a tiny-floored sum
        np.testing.assert_allclose(res.posterior, posterior,
                                   rtol=SCATTER_TOL, atol=SCATTER_TOL)
        np.testing.assert_allclose(res.info_posterior, info_posterior,
                                   rtol=SCATTER_TOL, atol=SCATTER_TOL)

    @pytest.mark.parametrize("gens", [("10011", "11101"), ("1101", "1011"),
                                      ("111", "101")])
    def test_llrs_at_the_limit_give_correct_signs(self, gens):
        # channel LLRs of magnitude LLR_LIMIT, a few symbols flipped: the
        # branch metrics stay finite
        code = ConvCode(generators=gens)
        rng = np.random.default_rng(5)
        info = rng.integers(0, 2, size=(3, 40))
        tx = np.array([encode(code, u) for u in info])
        flips = np.zeros(tx.shape, dtype=bool)
        flips[:, [3, 30, 61]] = True
        Lc = np.where(flips, -LLR_LIMIT, LLR_LIMIT) * tx
        res = bcjr_decode(code, Lc)
        for out in (res.posterior, res.info_posterior):
            assert not np.any(np.isnan(out))
        np.testing.assert_array_equal(np.sign(res.posterior), tx)
        np.testing.assert_array_equal(np.sign(res.info_posterior),
                                      1.0 - 2.0 * info)

    def test_saturated_block_matches_scatter_reference(self):
        code = ConvCode(generators=("10011", "11101"))
        rng = np.random.default_rng(11)
        n_info, B = 256, 4
        info = rng.integers(0, 2, size=(B, n_info))
        tx = np.array([encode(code, u) for u in info])
        flips = rng.random(tx.shape) < 0.03
        Lc = np.where(flips, -30.0, 30.0) * tx
        res = bcjr_decode(code, Lc)
        assert flips.sum() > 20
        for out in (res.extrinsic, res.posterior, res.info_posterior):
            assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(np.sign(res.extrinsic), tx)
        for b in range(B):
            posterior, info_posterior = scatter_bcjr(code, Lc[b])
            np.testing.assert_allclose(res.posterior[b], posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)
            np.testing.assert_allclose(res.info_posterior[b], info_posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308, -1e308])
    @pytest.mark.parametrize("pos", [4, 22], ids=["info", "tail"])
    def test_non_finite_input_raises(self, pos, bad):
        code = ConvCode(generators=("111", "101"))
        Lc = np.ones((3, code.n_coded(10)))  # the tail is symbols 20 to 23
        Lc[2, pos] = bad
        with pytest.raises(DomainError):  # one row of a batch
            bcjr_decode(code, Lc)
        with pytest.raises(DomainError):  # that row as one block
            bcjr_decode(code, Lc[2])

    def test_extrinsic_identity(self):
        code = ConvCode(generators=("111", "101"))
        rng = np.random.default_rng(4)
        Lc = rng.standard_normal(2 * 12) * 2
        res = bcjr_decode(code, Lc)
        np.testing.assert_allclose(res.posterior, res.extrinsic + Lc,
                                   atol=1e-12)

    def test_length_mismatch(self):
        code = ConvCode(generators=("111", "101"))
        with pytest.raises(LengthMismatch):
            bcjr_decode(code, np.zeros(7))

    def test_work_is_keyword_only(self):
        # a third positional argument is not taken as the workspace
        code = ConvCode(generators=("111", "101"))
        with pytest.raises(TypeError):
            bcjr_decode(code, np.zeros(20), np.zeros(8))


class TestBatchedBcjr:
    """A (B, n) batch decodes bit for bit like its rows one at a time."""

    @pytest.mark.parametrize("gens", [c.generators for c in SCENARIO_CODES]
                             + [("11", "10"), ("1", "1")])
    def test_batch_equals_rows(self, gens):
        code = ConvCode(generators=gens)
        rng = np.random.default_rng(7)
        n_info = 40
        for B, scale in [(1, 2.0), (3, 0.5), (4, 30.0), (32, 300.0)]:
            Lc = np.clip(rng.standard_normal((B, code.n_coded(n_info)))
                         * scale, -30.0, 30.0)
            Lc[0, :6] = [30.0, -30.0, 30.0, 30.0, -30.0, -30.0]
            batch = bcjr_decode(code, Lc)
            assert batch.extrinsic.shape == Lc.shape
            assert batch.info_posterior.shape == (B, n_info)
            for b in range(B):
                row = bcjr_decode(code, Lc[b])
                np.testing.assert_array_equal(batch.extrinsic[b],
                                              row.extrinsic)
                np.testing.assert_array_equal(batch.posterior[b],
                                              row.posterior)
                np.testing.assert_array_equal(batch.info_posterior[b],
                                              row.info_posterior)

    @pytest.mark.parametrize("gens", [("10011", "11101"), ("111", "101"),
                                      ("1101", "1011"), ("11", "01"),
                                      ("1", "1")])
    def test_equals_scatter_reference(self, gens):
        code = ConvCode(generators=gens)
        rng = np.random.default_rng(9)
        n_info = 30
        Lc = np.clip(rng.standard_normal((5, code.n_coded(n_info)))
                     * [[0.5], [3.0], [30.0], [300.0], [3.0]], -30.0, 30.0)
        res = bcjr_decode(code, Lc)
        for b in range(5):
            posterior, info_posterior = scatter_bcjr(code, Lc[b])
            np.testing.assert_allclose(res.posterior[b], posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)
            np.testing.assert_allclose(res.info_posterior[b], info_posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)

    @pytest.mark.parametrize("floor", [None, 1e-30])
    def test_each_row_takes_its_own_path(self, floor, monkeypatch):
        # ordinary rows, a saturated row, a row at LLR_LIMIT, and saturated
        # rows just under and just over the probability-domain bound: each
        # row decodes as it does alone, whatever path the others take.  A
        # floor of 1e-30 also sends the decided rows (|LLR| past ~69) to
        # the log domain from the probability domain.
        if floor is not None:
            monkeypatch.setattr("turbomud.coding.SUM_FLOOR", floor)
        code = ConvCode(generators=("10011", "11101"))
        bound = BLOCK_NATS / (4.5 * code.memory)
        rng = np.random.default_rng(13)
        n_info = 256
        info = rng.integers(0, 2, size=(6, n_info))
        tx = encode(code, info)
        flips = np.where(rng.random(tx.shape) < 0.03, -1.0, 1.0)
        scale = np.array([30.0, LLR_LIMIT, bound * (1 - 1e-9),
                          bound * (1 + 1e-9)])[:, None]
        Lc = np.concatenate([tx[:2] + rng.standard_normal((2, tx.shape[1])),
                             scale * flips[2:] * tx[2:]])
        res = bcjr_decode(code, Lc)
        for b in range(6):
            row = bcjr_decode(code, Lc[b])
            for got, want in ((res.extrinsic[b], row.extrinsic),
                              (res.posterior[b], row.posterior),
                              (res.info_posterior[b], row.info_posterior)):
                np.testing.assert_array_equal(got, want)
            posterior, info_posterior = scatter_bcjr(code, Lc[b])
            np.testing.assert_allclose(row.posterior, posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)
            np.testing.assert_allclose(row.info_posterior, info_posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)

    @pytest.mark.parametrize("gens", [("10011", "11101"), ("111", "101"),
                                      ("11", "10"), ("1", "1")])
    def test_empty_batch(self, gens):
        # memory 0 has no tail, so its recursion ends in any state
        code = ConvCode(generators=gens)
        n = code.n_coded(12)
        res = bcjr_decode(code, np.zeros((0, n)))
        assert res.extrinsic.shape == res.posterior.shape == (0, n)
        assert res.info_posterior.shape == (0, 12)

    def test_batch_length_mismatch(self):
        code = ConvCode(generators=("111", "101"))
        with pytest.raises(LengthMismatch):
            bcjr_decode(code, np.zeros((3, 7)))
        with pytest.raises(LengthMismatch):
            bcjr_decode(code, np.zeros((2, 3, 20)))

    def test_strided_read_only_inputs(self):
        # the turbo loop passes column views such as llr_mud[:, k]: rows in
        # the probability domain, in the log domain, and a mixed batch
        code = ConvCode(generators=("10011", "11101"))
        rng = np.random.default_rng(21)
        n_info = 20
        n = code.n_coded(n_info)
        Lc = rng.standard_normal((3, n)) * [[3.0], [100.0], [0.5]]
        base = np.zeros((n, 7))
        base[:, 1:7:2] = Lc.T
        before = base.tobytes()
        for lc in (base[:, 1], base[:, 3], base[:, 1:7:2].T):
            lc.flags.writeable = False
            got = bcjr_decode(code, lc)
            want = bcjr_decode(code, lc.copy())
            for a, b in ((got.extrinsic, want.extrinsic),
                         (got.posterior, want.posterior),
                         (got.info_posterior, want.info_posterior)):
                np.testing.assert_array_equal(a, b)
        assert base.tobytes() == before

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), L=st.integers(1, 4), n_info=st.integers(1, 6),
           B=st.integers(1, 3))
    def test_batch_matches_exhaustive_map(self, data, L, n_info, B):
        nonzero = st.integers(1, 2**L - 1).map(lambda g: format(g, f"0{L}b"))
        code = ConvCode(generators=(data.draw(nonzero), data.draw(nonzero)))
        llrs = st.floats(-30.0, 30.0, allow_nan=False)
        n = code.n_coded(n_info)
        Lc = np.array(data.draw(st.lists(llrs, min_size=B * n,
                                         max_size=B * n))).reshape(B, n)
        res = bcjr_decode(code, Lc)
        for b in range(B):
            post_ref, info_ref = exhaustive_map(code, Lc[b])
            np.testing.assert_allclose(res.posterior[b], post_ref, atol=1e-9)
            np.testing.assert_allclose(res.info_posterior[b], info_ref,
                                       atol=1e-9)


class TestFrozenBcjr:
    """``bcjr_decode`` equals its frozen form in ``references`` bit for
    bit: the halving normalisation, the screen that runs per row only
    when some mass is low, the log of the masses and the size check read
    from the unpadded input change no output."""

    CODES = [("1", "1"), ("111", "101"), ("10011", "11101")]

    @staticmethod
    def assert_same(code, Lc, work=None):
        got = bcjr_decode(code, Lc, work=work)
        for a, b in zip((got.extrinsic, got.posterior, got.info_posterior),
                        frozen_bcjr_decode(code, Lc), strict=True):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("gens", CODES)
    def test_equals_frozen_form(self, gens):
        # scales 60 and 1e3 send rows to the log domain; one workspace
        # serves every batch shape in turn
        code = ConvCode(generators=gens)
        rng = np.random.default_rng(31)
        work = coding.BcjrWork()
        for n_info, B, scale in product((1, 5, 40), (0, 1, 3, 32),
                                        (0.5, 4.0, 30.0, 60.0, 1e3)):
            Lc = rng.standard_normal((B, code.n_coded(n_info))) * scale
            self.assert_same(code, Lc, work)
            if B:
                self.assert_same(code, Lc[-1])

    @pytest.fixture
    def log_rows(self, monkeypatch):
        """The rows that each decoder sends to the log domain."""
        seen = {"new": [], "frozen": []}

        def spy(masses, key):
            def wrapped(x, *args, log=False):
                if log:
                    seen[key].append(x.copy())
                return masses(x, *args, log=log)
            return wrapped

        monkeypatch.setattr(coding, "_block_masses",
                            spy(coding._block_masses, "new"))
        monkeypatch.setattr(references, "frozen_block_masses",
                            spy(references.frozen_block_masses, "frozen"))
        return seen

    def test_low_masses_take_the_log_domain(self, monkeypatch, log_rows):
        # with a floor of 1e-30 the decided rows' losing masses fall below
        # it, and only the screen can send them to the log domain
        monkeypatch.setattr(coding, "SUM_FLOOR", 1e-30)
        code = ConvCode(generators=("10011", "11101"))
        rng = np.random.default_rng(32)
        tx = encode(code, rng.integers(0, 2, size=(4, 30)))
        Lc = tx * [[0.5], [30.0], [3.0], [30.0]]
        self.assert_same(code, Lc)
        for key in ("new", "frozen"):
            [x] = log_rows[key]
            assert len(x) == 2
        np.testing.assert_array_equal(*(log_rows[k][0] for k in log_rows))

    @pytest.mark.parametrize("case", ["nan", "nan-row", "nan-and-zero",
                                      "all-nan", "zero-outside"])
    def test_nan_masses_give_the_same_redo_set(self, monkeypatch, log_rows,
                                               case):
        # fmin skips NaN and the per-row test reads mass < floor as False
        # on NaN: both screens send the same rows to the log domain
        n_info = 21  # pad 1 at M = 2; the last two steps are the tail

        def poison(masses):
            def wrapped(x, signs, mask, pad, tail, *args, log=False):
                m = masses(x, signs, mask, pad, tail, *args, log=log)
                if not log:
                    if case in ("nan", "nan-and-zero"):
                        m[0, pad + 1, 0] = np.nan
                    if case == "nan-row":
                        m[1] = np.nan
                    if case == "nan-and-zero":
                        m[2, pad + 2, 4] = 0.0
                    if case == "all-nan":
                        m[:] = np.nan
                    if case == "zero-outside":  # the tail's u, unscreened
                        m[1, pad + n_info, 5] = 0.0
                return m
            return wrapped

        monkeypatch.setattr(coding, "_block_masses",
                            poison(coding._block_masses))
        monkeypatch.setattr(references, "frozen_block_masses",
                            poison(references.frozen_block_masses))
        code = ConvCode(generators=("111", "101"))
        rng = np.random.default_rng(33)
        Lc = rng.standard_normal((3, code.n_coded(n_info))) * 3.0
        self.assert_same(code, Lc)
        new, frozen = log_rows["new"], log_rows["frozen"]
        assert len(new) == len(frozen) == (case == "nan-and-zero")
        for a, b in zip(new, frozen):
            np.testing.assert_array_equal(a, b)


class TestInterleaving:
    def test_seeded_user_perms(self):
        a = user_permutations(64, 3, master_seed=9)
        b = user_permutations(64, 3, master_seed=9)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)
        assert not np.array_equal(a[0], a[1])


class TestConvTurboDecoder:
    def test_block_roundtrip(self):
        code = ConvCode(generators=("111", "101"))
        dec = ConvTurboDecoder(code, K=3, n_info=20, master_seed=1)
        rng = np.random.default_rng(6)
        info = rng.integers(0, 2, size=(20, 3))
        tx = dec.encode_block(info)
        assert tx.shape == (dec.n_coded, 3)
        for k in range(3):
            _, info_post = dec.decode_user(k, 30.0 * tx[:, k])
            np.testing.assert_array_equal((info_post < 0).astype(int),
                                          info[:, k])

    @pytest.mark.parametrize("gens", [c.generators for c in SCENARIO_CODES])
    def test_all_users_equal_per_user(self, gens):
        dec = ConvTurboDecoder(ConvCode(generators=gens), K=4, n_info=30,
                               master_seed=3)
        rng = np.random.default_rng(8)
        block = np.clip(rng.standard_normal((dec.n_coded, 4)) * 4.0,
                        -30.0, 30.0)
        ext, info = dec.decode_user(slice(None), block)
        assert ext.shape == block.shape and info.shape == (4, 30)
        for k in range(4):
            ext_k, info_k = dec.decode_user(k, block[:, k])
            np.testing.assert_array_equal(ext[:, k], ext_k)
            np.testing.assert_array_equal(info[k], info_k)

    @pytest.mark.parametrize("gens", [c.generators for c in SCENARIO_CODES])
    def test_stacked_frames_equal_single_frames(self, gens):
        dec = ConvTurboDecoder(ConvCode(generators=gens), K=3, n_info=30,
                               master_seed=5)
        rng = np.random.default_rng(9)
        frames = np.clip(rng.standard_normal((4, dec.n_coded, 3)) * 4.0,
                         -30.0, 30.0)
        stacked = frames.reshape(-1, 3)
        ext, info = dec.decode_user(slice(None), stacked)
        assert ext.shape == stacked.shape and info.shape == (3, 4 * 30)
        for k in (0, np.int64(2)):  # a numpy int is one user too
            ext_k, info_k = dec.decode_user(k, stacked[:, k])
            np.testing.assert_array_equal(ext_k, ext[:, k])
            np.testing.assert_array_equal(info_k, info[k])
        for f, frame in enumerate(frames):
            ext_f, info_f = dec.decode_user(slice(None), frame)
            np.testing.assert_array_equal(
                ext[f * dec.n_coded:(f + 1) * dec.n_coded], ext_f)
            np.testing.assert_array_equal(info[:, f * 30:(f + 1) * 30], info_f)

    def test_strided_read_only_inputs(self):
        dec = ConvTurboDecoder(ConvCode(generators=("10011", "11101")), K=3,
                               n_info=20, master_seed=2)
        rng = np.random.default_rng(12)
        # two frames; user 1's LLRs are large enough for the log domain
        base = rng.standard_normal((2 * dec.n_coded, 6)) * [3, 1, 100, 1, 9, 1]
        before = base.tobytes()
        for k, llr in ((slice(None), base[:, ::2]), (1, base[:, 2])):
            llr.flags.writeable = False
            got = dec.decode_user(k, llr)
            want = dec.decode_user(k, llr.copy())
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        assert base.tobytes() == before

    def test_workspace_equals_fresh_buffers(self, monkeypatch):
        # the decoder's one BCJR workspace over calls that change the batch
        # shape: one user, all users on two frames in turn, 4 stacked
        # frames, a short last group of 3 frames, a batch whose user 1
        # takes the log domain (so 2 probability-domain rows), then one
        # user again
        dec = ConvTurboDecoder(ConvCode(generators=("10011", "11101")), K=3,
                               n_info=20, master_seed=4)
        n = dec.n_coded
        rng = np.random.default_rng(14)
        llr = np.clip(rng.standard_normal((4 * n, 3)) * 4.0, -30.0, 30.0)
        redo = llr[:n] * [1.0, 100.0, 1.0]
        calls = [(0, llr[:n, 0]), (slice(None), llr[:n]),
                 (slice(None), llr[n:2 * n]), (slice(None), llr),
                 (slice(None), llr[:3 * n]), (slice(None), redo),
                 (1, llr[:n, 1])]
        decode, buffers = coding.bcjr_decode, []

        def spy(code, channel_llrs, *, work=None):
            got = decode(code, channel_llrs, work=work)
            want = decode(code, channel_llrs)
            for field in ("extrinsic", "posterior", "info_posterior"):
                out = getattr(got, field)
                np.testing.assert_array_equal(out, getattr(want, field))
                assert not any(np.shares_memory(out, buf)
                               for buf in (work.q, work.v, work.w))
            buffers.append((work, work.shape, work.q))
            return got

        monkeypatch.setattr(coding, "bcjr_decode", spy)
        results = [dec.decode_user(k, block) for k, block in calls]
        assert all(work is dec._work for work, _, _ in buffers)
        assert [shape[0] for _, shape, _ in buffers] == [1, 3, 3, 12, 9, 2, 1]
        # a batch of the last call's shape reuses its buffers
        assert buffers[2][2] is buffers[1][2]
        assert buffers[3][2] is not buffers[2][2]

        restored = pickle.loads(pickle.dumps(dec))
        assert vars(restored._work) == {}
        for (k, block), (ext, info) in zip(calls, results):
            got = restored.decode_user(k, block)
            np.testing.assert_array_equal(got[0], ext)
            np.testing.assert_array_equal(got[1], info)

    def test_decode_user_length_mismatch(self):
        dec = ConvTurboDecoder(ConvCode(generators=("111", "101")), K=2,
                               n_info=10)
        with pytest.raises(LengthMismatch):
            dec.decode_user(slice(None), np.zeros((dec.n_coded - 2, 2)))
        with pytest.raises(LengthMismatch):
            dec.decode_user(0, np.zeros(dec.n_coded + 2))
        with pytest.raises(LengthMismatch):
            dec.decode_user(slice(None), np.zeros((dec.n_coded, 1)))
        with pytest.raises(LengthMismatch):  # ragged: 2.5 frames
            dec.decode_user(slice(None), np.zeros((5 * dec.n_coded // 2, 2)))
        with pytest.raises(LengthMismatch):
            dec.decode_user(1, np.zeros(3 * dec.n_coded + 2))
        with pytest.raises(LengthMismatch):
            dec.decode_user(0, np.zeros(0))
        # checked before any shape is read: a 0-d LLR, a user past K - 1
        # and a negative user, which numpy would take as user K - 1
        with pytest.raises(LengthMismatch):
            dec.decode_user(0, 5.0)
        with pytest.raises(LengthMismatch):
            dec.decode_user(2, np.zeros(dec.n_coded))
        with pytest.raises(LengthMismatch):
            dec.decode_user(-1, np.zeros(dec.n_coded))
        with pytest.raises(LengthMismatch):  # one user, a 2-D block
            dec.decode_user(0, np.zeros((dec.n_coded, 1)))
        with pytest.raises(LengthMismatch):  # all users, one column
            dec.decode_user(slice(None), np.zeros(2 * dec.n_coded))

    @pytest.mark.parametrize("k", [[3, 1], [], np.array([0, 1]),
                                   slice(0, 2), [2], (0, 1), slice(0, 4),
                                   slice(None, None, -1), True],
                             ids=["list", "empty", "array", "slice", "one",
                                  "tuple", "every", "reversed", "bool"])
    def test_decode_user_rejects_user_subsets(self, k):
        # one user or all users: any other index is refused, even with
        # LLRs shaped for it, as an index before any shape is read
        dec = ConvTurboDecoder(ConvCode(generators=("111", "101")), K=4,
                               n_info=10)
        block = np.zeros((dec.n_coded, 4))[:, k]
        with pytest.raises(LengthMismatch, match="neither one nor all"):
            dec.decode_user(k, block)

    @pytest.mark.parametrize("frames", [1, 3])
    def test_all_of_one_user_equals_that_user(self, frames):
        # with K = 1, all users is user 0 with a trailing user axis
        dec = ConvTurboDecoder(ConvCode(generators=("111", "101")), K=1,
                               n_info=10, master_seed=3)
        llr = np.random.default_rng(frames).standard_normal(
            (frames * dec.n_coded, 1)) * 4.0
        ext, info = dec.decode_user(slice(None), llr)
        assert ext.shape == llr.shape and info.shape == (1, frames * 10)
        ext_0, info_0 = dec.decode_user(0, llr[:, 0])
        np.testing.assert_array_equal(ext[:, 0], ext_0)
        np.testing.assert_array_equal(info[0], info_0)

    @pytest.mark.parametrize("K, n_info", [(0, 10), (-1, 10), (2, 0), (2, -3)])
    def test_constructor_rejects_empty_sizes(self, K, n_info):
        with pytest.raises(ValueError):
            ConvTurboDecoder(ConvCode(generators=("111", "101")), K=K,
                             n_info=n_info)

    def test_identity_decoder_user_index(self):
        block = np.arange(6.0).reshape(3, 2)
        ext, info = IdentityDecoder().decode_user(slice(None), block)
        np.testing.assert_array_equal(ext, block)
        # the identity code's info bits are its symbols
        np.testing.assert_array_equal(info, block.T)
        np.testing.assert_array_equal(
            IdentityDecoder().decode_user(1, block[:, 1])[1], block[:, 1])
        # one user or all, as ConvTurboDecoder: an int with 1-D LLRs or
        # slice(None) with a 2-D block; a list, a partial slice, an array,
        # an int with a 2-D or 0-d block, all users with 1-D LLRs, a
        # negative user, a float user and a bool user are refused
        for k, shape in (([3, 1], (3, 2)), (slice(0, 2), (3, 2)),
                         (np.array([0, 1]), (3, 2)), (0, (3, 2)),
                         (slice(None), (3,)), (0, ()), (-1, (3,)),
                         (1.0, (3,)), (True, (3,))):
            with pytest.raises(LengthMismatch):
                IdentityDecoder().decode_user(k, np.zeros(shape))
