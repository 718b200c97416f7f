from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turbomud.coding import (BLOCK_NATS, LLR_LIMIT, TERMINATED, TRUNCATED,
                             ConvCode, ConvTurboDecoder, IdentityDecoder,
                             bcjr_decode, encode, user_permutations)
from turbomud.errors import DomainError, LengthMismatch

# The fused decoder shifts each recursion step by its state-0 entry, which
# can sit 100s of nats from the best state, and sums edge masses by
# matmul; its worst gap to scatter_bcjr in these tests, relative to
# max(1, |LLR|), is 3.0e-14.
SCATTER_TOL = 4e-14

SCENARIO_CODES = [ConvCode(generators=("10011", "11101")),
                  ConvCode(generators=("111", "101"))]


def exhaustive_map(code, channel_llrs, prior_info_llrs=None):
    """Brute-force APP decoding by codeword enumeration (test oracle).

    Weighs every information word by exp(sum c_i Lc_i / 2
    + sum u_t La_t / 2) and marginalizes coded and info positions.
    """
    Lc = np.asarray(channel_llrs, dtype=float)
    n_info = Lc.size // 2 - (code.memory if code.termination == TERMINATED
                             else 0)
    La = np.zeros(n_info) if prior_info_llrs is None else prior_info_llrs
    words = np.array(list(product((0, 1), repeat=n_info)))
    symbols = np.array([encode(code, w) for w in words])
    upm = 1.0 - 2.0 * words
    logw = symbols @ Lc / 2.0 + upm @ La / 2.0
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


def scatter_bcjr(code, Lc, La):
    """One-block log-MAP with separate forward and backward passes that
    scatter-add each edge into its next state, and a per-row masked
    log-sum-exp for every LLR (test reference for the batched fused
    decoder)."""
    next_state, out_pm = code._tables
    S, n_steps = code.n_states, Lc.size // 2
    n_info = La.size
    Lc2 = Lc.reshape(n_steps, 2)
    gamma = 0.5 * (out_pm[None, :, :, 0] * Lc2[:, None, None, 0]
                   + out_pm[None, :, :, 1] * Lc2[:, None, None, 1])
    upm = np.array([1.0, -1.0])
    gamma[:n_info] += 0.5 * upm[None, None, :] * La[:, None, None]
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
    if code.termination == TRUNCATED:
        beta[n_steps] = 0.0
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
    return posterior, llr(upm)[:n_info]


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

    @pytest.mark.parametrize("termination", [TERMINATED, TRUNCATED])
    @pytest.mark.parametrize("gens", WALK_GENERATORS)
    def test_matches_the_trellis_walk(self, gens, termination):
        code = ConvCode(generators=gens, termination=termination)
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

    @pytest.mark.parametrize("termination", [TERMINATED, TRUNCATED])
    def test_empty_batch(self, termination):
        code = ConvCode(generators=("10011", "11101"),
                        termination=termination)
        out = encode(code, np.zeros((0, 40), dtype=int))
        assert out.shape == (0, code.n_coded(40))

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
            La = rng.standard_normal(n_info)
            res = bcjr_decode(code, Lc, La)
            post_ref, info_ref = exhaustive_map(code, Lc, La)
            np.testing.assert_allclose(res.posterior, post_ref, atol=1e-9)
            np.testing.assert_allclose(res.info_posterior, info_ref,
                                       atol=1e-9)

    @pytest.mark.parametrize("termination", [TERMINATED, TRUNCATED])
    @pytest.mark.parametrize("gens", [("1", "1"), ("11", "10"), ("111", "101"),
                                      ("1101", "1011"), ("10011", "11101")])
    def test_every_block_offset_matches_exhaustive_map(self, gens,
                                                       termination):
        # n_info = 1..9 gives every front pad 0..M-1 of the block trellis,
        # and memory 0 and 1 codes run on blocks of one step
        code = ConvCode(generators=gens, termination=termination)
        rng = np.random.default_rng(12)
        for n_info in range(1, 10):
            Lc = rng.standard_normal(code.n_coded(n_info)) * 3.0
            La = rng.standard_normal(n_info)
            res = bcjr_decode(code, Lc, La)
            post_ref, info_ref = exhaustive_map(code, Lc, La)
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
        posterior, info_posterior = scatter_bcjr(code, 200.0 * tx,
                                                 np.zeros(16))
        assert np.all(np.abs(posterior) > 745.0)  # past a tiny-floored sum
        np.testing.assert_allclose(res.posterior, posterior,
                                   rtol=SCATTER_TOL, atol=SCATTER_TOL)
        np.testing.assert_allclose(res.info_posterior, info_posterior,
                                   rtol=SCATTER_TOL, atol=SCATTER_TOL)

    @pytest.mark.parametrize("termination", [TERMINATED, TRUNCATED])
    def test_llrs_at_the_limit_give_correct_signs(self, termination):
        # channel and prior LLRs of magnitude LLR_LIMIT, a few channel
        # symbols flipped: the branch metrics stay finite
        code = ConvCode(generators=("10011", "11101"),
                        termination=termination)
        rng = np.random.default_rng(5)
        info = rng.integers(0, 2, size=(3, 40))
        tx = np.array([encode(code, u) for u in info])
        flips = np.zeros(tx.shape, dtype=bool)
        flips[:, [3, 30, 61]] = True
        Lc = np.where(flips, -LLR_LIMIT, LLR_LIMIT) * tx
        La = np.where(rng.random(info.shape) < 0.3, LLR_LIMIT, 0.0) \
            * (1.0 - 2.0 * info)
        res = bcjr_decode(code, Lc, La)
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
        # rows 2 and 3 also get saturated info priors, 3 % of them flipped
        La = np.where(rng.random((B, n_info)) < 0.03, -30.0, 30.0) \
            * (1.0 - 2.0 * info)
        La[:2] = 0.0
        res = bcjr_decode(code, Lc, La)
        assert flips.sum() > 20
        for out in (res.extrinsic, res.posterior, res.info_posterior):
            assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(np.sign(res.extrinsic), tx)
        for b in range(B):
            posterior, info_posterior = scatter_bcjr(code, Lc[b], La[b])
            np.testing.assert_allclose(res.posterior[b], posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)
            np.testing.assert_allclose(res.info_posterior[b], info_posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308, -1e308])
    @pytest.mark.parametrize("where", ["Lc", "La"])
    def test_non_finite_input_raises(self, where, bad):
        code = ConvCode(generators=("111", "101"))
        llrs = {"Lc": np.ones((3, code.n_coded(10))), "La": np.zeros((3, 10))}
        llrs[where][2, 4] = bad
        with pytest.raises(DomainError):  # one row of a batch
            bcjr_decode(code, llrs["Lc"], llrs["La"])
        with pytest.raises(DomainError):  # that row as one block
            bcjr_decode(code, llrs["Lc"][2], llrs["La"][2])

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
        with pytest.raises(LengthMismatch):
            bcjr_decode(code, np.zeros(20), np.zeros(3))


class TestBatchedBcjr:
    """A (B, n) batch decodes bit for bit like its rows one at a time."""

    @pytest.mark.parametrize("termination", [TERMINATED, TRUNCATED])
    @pytest.mark.parametrize("gens", [c.generators for c in SCENARIO_CODES])
    @pytest.mark.parametrize("with_prior", [False, True])
    def test_batch_equals_rows(self, gens, termination, with_prior):
        code = ConvCode(generators=gens, termination=termination)
        rng = np.random.default_rng(7)
        n_info = 40
        for B, scale in [(1, 2.0), (3, 0.5), (4, 30.0), (32, 300.0)]:
            Lc = np.clip(rng.standard_normal((B, code.n_coded(n_info)))
                         * scale, -30.0, 30.0)
            Lc[0, :6] = [30.0, -30.0, 30.0, 30.0, -30.0, -30.0]
            La = rng.standard_normal((B, n_info)) * 3.0 if with_prior \
                else None
            batch = bcjr_decode(code, Lc, La)
            assert batch.extrinsic.shape == Lc.shape
            assert batch.info_posterior.shape == (B, n_info)
            for b in range(B):
                row = bcjr_decode(code, Lc[b], None if La is None else La[b])
                np.testing.assert_array_equal(batch.extrinsic[b],
                                              row.extrinsic)
                np.testing.assert_array_equal(batch.posterior[b],
                                              row.posterior)
                np.testing.assert_array_equal(batch.info_posterior[b],
                                              row.info_posterior)

    @pytest.mark.parametrize("termination", [TERMINATED, TRUNCATED])
    @pytest.mark.parametrize("gens", [("10011", "11101"), ("111", "101"),
                                      ("1101", "1011"), ("11", "01")])
    def test_equals_scatter_reference(self, gens, termination):
        code = ConvCode(generators=gens, termination=termination)
        rng = np.random.default_rng(9)
        n_info = 30
        Lc = np.clip(rng.standard_normal((5, code.n_coded(n_info)))
                     * [[0.5], [3.0], [30.0], [300.0], [3.0]], -30.0, 30.0)
        La = rng.standard_normal((5, n_info)) * 2.0
        La[4] = 0.0
        res = bcjr_decode(code, Lc, La)
        for b in range(5):
            posterior, info_posterior = scatter_bcjr(code, Lc[b], La[b])
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
        La = np.zeros(info.shape)
        La[0] = rng.standard_normal(n_info)
        res = bcjr_decode(code, Lc, La)
        for b in range(6):
            row = bcjr_decode(code, Lc[b], La[b])
            for got, want in ((res.extrinsic[b], row.extrinsic),
                              (res.posterior[b], row.posterior),
                              (res.info_posterior[b], row.info_posterior)):
                np.testing.assert_array_equal(got, want)
            posterior, info_posterior = scatter_bcjr(code, Lc[b], La[b])
            np.testing.assert_allclose(row.posterior, posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)
            np.testing.assert_allclose(row.info_posterior, info_posterior,
                                       rtol=SCATTER_TOL, atol=SCATTER_TOL)

    @pytest.mark.parametrize("termination", [TERMINATED, TRUNCATED])
    def test_empty_batch(self, termination):
        code = ConvCode(generators=("10011", "11101"),
                        termination=termination)
        n = code.n_coded(12)
        for La in (None, np.zeros((0, 12))):
            res = bcjr_decode(code, np.zeros((0, n)), La)
            assert res.extrinsic.shape == res.posterior.shape == (0, n)
            assert res.info_posterior.shape == (0, 12)

    def test_batch_length_mismatch(self):
        code = ConvCode(generators=("111", "101"))
        with pytest.raises(LengthMismatch):
            bcjr_decode(code, np.zeros((3, 7)))
        with pytest.raises(LengthMismatch, match=r"\(3, 8\)"):
            bcjr_decode(code, np.zeros((3, 20)), np.zeros(8))
        with pytest.raises(LengthMismatch):
            bcjr_decode(code, np.zeros((3, 20)), np.zeros((2, 8)))
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
        La = rng.standard_normal((3, n_info)) * 2.0
        base_c, base_a = np.zeros((n, 7)), np.zeros((n_info, 7))
        base_c[:, 1:7:2], base_a[:, 1:7:2] = Lc.T, La.T
        cases = [(base_c[:, 1], base_a[:, 1]), (base_c[:, 3], None),
                 (base_c[:, 1:7:2].T, base_a[:, 1:7:2].T)]
        before = base_c.tobytes() + base_a.tobytes()
        for lc, la in cases:
            lc.flags.writeable = False
            if la is not None:
                la.flags.writeable = False
            got = bcjr_decode(code, lc, la)
            want = bcjr_decode(code, lc.copy(), None if la is None
                               else la.copy())
            for a, b in ((got.extrinsic, want.extrinsic),
                         (got.posterior, want.posterior),
                         (got.info_posterior, want.info_posterior)):
                np.testing.assert_array_equal(a, b)
        assert base_c.tobytes() + base_a.tobytes() == before

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), L=st.integers(1, 4),
           termination=st.sampled_from([TERMINATED, TRUNCATED]),
           n_info=st.integers(1, 6), B=st.integers(1, 3))
    def test_batch_matches_exhaustive_map(self, data, L, termination,
                                          n_info, B):
        nonzero = st.integers(1, 2**L - 1).map(lambda g: format(g, f"0{L}b"))
        code = ConvCode(generators=(data.draw(nonzero), data.draw(nonzero)),
                        termination=termination)
        llrs = st.floats(-30.0, 30.0, allow_nan=False)
        n = code.n_coded(n_info)
        Lc = np.array(data.draw(st.lists(llrs, min_size=B * n,
                                         max_size=B * n))).reshape(B, n)
        La = np.array(data.draw(st.lists(llrs, min_size=B * n_info,
                                         max_size=B * n_info)))
        La = La.reshape(B, n_info)
        res = bcjr_decode(code, Lc, La)
        for b in range(B):
            post_ref, info_ref = exhaustive_map(code, Lc[b], La[b])
            np.testing.assert_allclose(res.posterior[b], post_ref, atol=1e-9)
            np.testing.assert_allclose(res.info_posterior[b], info_ref,
                                       atol=1e-9)


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
        sub_ext, sub_info = dec.decode_user([3, 1], block[:, [3, 1]])
        np.testing.assert_array_equal(sub_ext, ext[:, [3, 1]])
        np.testing.assert_array_equal(sub_info, info[[3, 1]])

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
        for k in (0, 2):
            ext_k, info_k = dec.decode_user(k, stacked[:, k])
            np.testing.assert_array_equal(ext_k, ext[:, k])
            np.testing.assert_array_equal(info_k, info[k])
        for f, frame in enumerate(frames):
            ext_f, info_f = dec.decode_user(slice(None), frame)
            np.testing.assert_array_equal(
                ext[f * dec.n_coded:(f + 1) * dec.n_coded], ext_f)
            np.testing.assert_array_equal(info[:, f * 30:(f + 1) * 30], info_f)

    @pytest.mark.parametrize("gens", [c.generators for c in SCENARIO_CODES])
    def test_user_subset_over_stacked_frames(self, gens):
        dec = ConvTurboDecoder(ConvCode(generators=gens), K=3, n_info=30,
                               master_seed=5)
        rng = np.random.default_rng(11)
        frames = np.clip(rng.standard_normal((3, dec.n_coded, 3)) * 4.0,
                         -30.0, 30.0)
        stacked = frames.reshape(-1, 3)
        for k in ([2, 0], np.array([2, 0]), np.int64(1)):
            ext, info = dec.decode_user(k, stacked[:, k])
            assert ext.shape == stacked[:, k].shape
            ext = ext.reshape(3, dec.n_coded, -1)  # (frame, position, user)
            info = info.reshape(-1, 3, 30)  # (user, frame, bit)
            for i, user in enumerate(np.atleast_1d(k)):
                for f, frame in enumerate(frames):
                    ext_f, info_f = dec.decode_user(user, frame[:, user])
                    np.testing.assert_array_equal(ext[f, :, i], ext_f)
                    np.testing.assert_array_equal(info[i, f], info_f)

    def test_strided_read_only_inputs(self):
        dec = ConvTurboDecoder(ConvCode(generators=("10011", "11101")), K=3,
                               n_info=20, master_seed=2)
        rng = np.random.default_rng(12)
        # two frames; user 1's LLRs are large enough for the log domain
        base = rng.standard_normal((2 * dec.n_coded, 6)) * [3, 1, 100, 1, 9, 1]
        before = base.tobytes()
        for k, llr in ((slice(None), base[:, ::2]), (1, base[:, 2]),
                       ([2, 1], base[:, 4:1:-2])):
            llr.flags.writeable = False
            got = dec.decode_user(k, llr)
            want = dec.decode_user(k, llr.copy())
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        assert base.tobytes() == before

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

    @pytest.mark.parametrize("frames", [1, 3])
    def test_no_users(self, frames):
        dec = ConvTurboDecoder(ConvCode(generators=("111", "101")), K=2,
                               n_info=10)
        ext, info = dec.decode_user([], np.zeros((frames * dec.n_coded, 0)))
        assert ext.shape == (frames * dec.n_coded, 0)
        assert info.shape == (0, frames * 10)

    @pytest.mark.parametrize("K, n_info", [(0, 10), (-1, 10), (2, 0), (2, -3)])
    def test_constructor_rejects_empty_sizes(self, K, n_info):
        with pytest.raises(ValueError):
            ConvTurboDecoder(ConvCode(generators=("111", "101")), K=K,
                             n_info=n_info)

    def test_identity_decoder_user_index(self):
        block = np.arange(6.0).reshape(3, 2)
        ext, info = IdentityDecoder().decode_user(slice(None), block)
        np.testing.assert_array_equal(ext, block)
        assert info == [None, None]
        assert IdentityDecoder().decode_user(1, block[:, 1])[1] is None
