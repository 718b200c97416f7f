"""The fused mean-field update kernel against the per-column formula.

Every mean-field caller (the turbo-loop sweeps, ``tanh_sic_block``,
``serial_update`` and ``ddf_pass_block``) runs the ``_sweeps`` kernel on
a users-major (K, T) block with the half-LLR constants folded once: the
turbo loop on rows it builds once per outer iteration (checked bit for
bit against one ``_fold`` and ``_sweep_block`` per call below),
``tanh_sic_block`` on one kernel for all its sweeps, the others through
``_sweep_block``.  Every caller is pinned bit for bit to the kernel's
first, frozen form (``references.frozen_sweep_block``).  The
references below keep the earlier per-column update on a (T, K) block,

    LLR_pos = LLR_prior + (2/sigma2)(eta^T r - beta_k^T m),
    m_k = clamp_mean(tanh(LLR_pos / 2)),

and the earlier DDF forward loop.  Folding 1/sigma2 and the 1/2 into
the constants changes rounding only.  Within a sweep each update feeds
the next through the coupling, so rounding grows with K and with
1/sigma2; both forms drift alike from an extended-precision evaluation
(on one K = 32, T = 64 case the reference sits 8.9e-13 from it, the
fused kernel 1.2e-12).
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from turbomud.channel import (ChannelInstance, Observation, SymbolBlock,
                              make_equicorrelated, make_random_spreading,
                              transmit)
from turbomud import siso_ddf, varem
from turbomud.coding import ConvCode, ConvTurboDecoder, IdentityDecoder
from turbomud.linalg import factor_FtF
from turbomud.siso_ddf import (DdfPrecompute, bind_ddf_hook, ddf_pass_block,
                               detection_order)
from turbomud.siso_discrete import (MEAN_CLEARANCE, DiscreteBelief,
                                    DiscreteTurboLoop, _fold, _sweep_block,
                                    serial_update, tanh_sic_block)
from turbomud.siso_gaussian import SCHEDULES
from turbomud.varem import EmState, run_varem

from references import clamp_mean, frozen_sweep_block

# Tolerance per K, on LLRs relative to max(1, |LLR|) and on means.  The
# worst gaps measured over these cases, 20 instances each: 4.6e-14 (LLR)
# and 1.9e-14 (mean) for K <= 4; 2.1e-11 and 9.5e-12 for K = 32.  The
# DDF pass starts from zero means and feeds back only detected users:
# 3.5e-14 and 1.7e-14 at K = 32, so DDF_TOL holds for every K.
TOL = {1: 1e-13, 2: 1e-13, 4: 1e-13, 32: 1e-10}
DDF_TOL = 1e-13
CASES = [(K, T) for K in (1, 2, 4, 32) for T in (1, 64)]


def reference_sweep(ch, eta_r, llr_prior, M, order):
    """The per-column update on a (T, K) block, in place on M."""
    beta = ch.hollow_gram
    llr_pos = np.full_like(llr_prior, np.nan)
    for k in order:
        metric = eta_r[:, k] - M @ beta[:, k]
        llr_pos[:, k] = llr_prior[:, k] + (2.0 / ch.sigma2) * metric
        M[:, k] = clamp_mean(np.tanh(llr_pos[:, k] / 2.0))
    return llr_pos


def reference_ddf(ch, ybar, prior_llr, pre):
    """The DDF forward loop in the permuted domain, natural order out."""
    T = ybar.shape[0]
    m_p = np.zeros((T, ch.K))
    pos_p = np.empty((T, ch.K))
    prior_p = prior_llr[:, pre.order]
    for k in range(ch.K):
        metric = pre.diag_gain[k] * ybar[:, k] - m_p @ pre.feedback[:, k]
        pos_p[:, k] = prior_p[:, k] + (2.0 / ch.sigma2) * metric
        m_p[:, k] = clamp_mean(np.tanh(pos_p[:, k] / 2.0))
    inverse = np.argsort(pre.order)
    return m_p[:, inverse], pos_p[:, inverse]


def tanh_sic_history(ch, r_block, sweeps, m0):
    """The earlier recording form of ``tanh_sic_block``: a zero prior
    folded in explicitly and a copy of the means after every sweep."""
    H, Bh = _fold(0.0, np.atleast_2d(r_block) @ ch.SA, ch.hollow_gram,
                  ch.sigma2)
    Mt = np.array(m0, dtype=float, order="C")
    history = []
    for _ in range(sweeps):
        _sweep_block(Mt, range(ch.K), H, Bh)
        history.append(Mt.copy())
    return history


def whiten(ch, y):
    """The whitening filter ybar_t = F^{-T} y_t on the rows of y, by
    scipy's triangular solver: an independent check of the DDF pass's
    own back-substitution."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return solve_triangular(factor_FtF(ch.R).T, y.T, lower=False).T


def whiten_in_order(ch, y, order):
    """ybar of the users taken in ``order``: ``whiten`` on the same
    channel with its users permuted."""
    permuted = ChannelInstance(N=ch.N, K=ch.K, S=ch.S[:, order],
                               a=ch.a[order], sigma2=ch.sigma2)
    return whiten(permuted, y[:, order])


def random_case(rng, K, T):
    """(channel, r, prior LLRs, start means) with saturated entries."""
    amps = rng.uniform(0.5, 2.0, K)
    sigma2 = float(rng.uniform(0.05, 1.0))
    if rng.integers(2):
        ch = make_equicorrelated(K, float(rng.uniform(0.0, 0.8)),
                                 amplitudes=amps, sigma2=sigma2)
    else:
        ch = make_random_spreading(K + int(rng.integers(0, 5)), K,
                                   seed=int(rng.integers(2**31)),
                                   amplitudes=amps, sigma2=sigma2)
    b = np.where(rng.standard_normal((T, K)) > 0, 1.0, -1.0)
    r = (b * ch.a) @ ch.S.T + rng.standard_normal((T, ch.N)) * np.sqrt(sigma2)
    prior = rng.standard_normal((T, K)) * 3.0
    prior[rng.random((T, K)) < 0.2] = 30.0
    prior[rng.random((T, K)) < 0.2] = -30.0
    M0 = rng.uniform(-1.0, 1.0, (T, K))
    lim = 1.0 - MEAN_CLEARANCE
    M0[rng.random((T, K)) < 0.2] = lim
    M0[rng.random((T, K)) < 0.2] = -lim
    return ch, r, prior, M0


def assert_close(got_llr, want_llr, got_m, want_m, tol):
    scale = np.maximum(np.abs(want_llr), 1.0)
    assert np.max(np.abs(got_llr - want_llr) / scale) < tol
    assert np.max(np.abs(got_m - want_m)) < tol


@pytest.mark.parametrize("K,T", CASES)
def test_sweeps_match_the_per_column_formula(K, T):
    rng = np.random.default_rng(1000 * K + T)
    for _ in range(5):
        ch, r, prior, M0 = random_case(rng, K, T)
        eta_r = r @ ch.SA
        for first in {0, K // 2, K - 1}:
            order = list(range(first, K)) + list(range(first))
            M_ref = M0.copy()
            for _ in range(3):
                want = reference_sweep(ch, eta_r, prior, M_ref, order)
            Mt = np.ascontiguousarray(M0.T)
            X = _sweep_block(Mt, order * 3,
                             *_fold(prior, eta_r, ch.hollow_gram, ch.sigma2))
            assert_close(2.0 * X.T, want, Mt.T, M_ref, TOL[K])


@pytest.mark.parametrize("K,T", CASES)
def test_tanh_sic_and_serial_update_match_the_formula(K, T):
    rng = np.random.default_rng(7 * K + T)
    ch, r, prior, M0 = random_case(rng, K, T)
    M_ref = M0.copy()
    for _ in range(2):
        reference_sweep(ch, r @ ch.SA, np.zeros((T, K)), M_ref, range(K))
    got = tanh_sic_block(ch, r, 2, m0=M0.T)
    assert np.max(np.abs(got.T - M_ref)) < TOL[K]
    order = list(rng.permutation(K))
    M_ref = M0[:1].copy()
    want = reference_sweep(ch, r[:1] @ ch.SA, prior[:1], M_ref, order)
    belief, llr = serial_update(ch, r[0], prior[0], DiscreteBelief(M0[0]),
                                order=order)
    assert_close(llr, want[0], belief.m, M_ref[0], TOL[K])


@pytest.mark.parametrize("K,T", CASES)
def test_ddf_pass_matches_the_forward_loop(K, T):
    rng = np.random.default_rng(31 * K + T)
    for policy in ("amplitude_descending", "as_given", "reversed"):
        ch, r, prior, _ = random_case(rng, K, T)
        order = np.arange(K)[::-1] if policy == "reversed" else \
            detection_order(ch, policy)
        pre = DdfPrecompute.from_channel(ch, order)
        y = r @ ch.S
        m_want, pos_want = reference_ddf(ch, whiten_in_order(ch, y, order),
                                         prior, pre)
        m_got, pos_got = ddf_pass_block(ch, y, prior, pre)
        assert_close(pos_got.T, pos_want, m_got.T, m_want, DDF_TOL)


@pytest.mark.parametrize("K,T", CASES)
def test_ddf_pass_without_a_prior_is_the_zero_prior_pass(K, T):
    rng = np.random.default_rng(53 * K + T)
    for policy in ("amplitude_descending", "as_given"):
        ch, r, _, _ = random_case(rng, K, T)
        pre = DdfPrecompute.from_channel(ch, detection_order(ch, policy))
        y = r @ ch.S
        m_zero, pos_zero = ddf_pass_block(ch, y, np.zeros((T, K)), pre)
        m_none, pos_none = ddf_pass_block(ch, y, None, pre)
        assert np.array_equal(m_none, m_zero)
        assert np.array_equal(pos_none, pos_zero)


@pytest.mark.parametrize("K,T", CASES)
def test_tanh_sic_signs_match_the_recorded_history(K, T):
    rng = np.random.default_rng(59 * K + T)
    ch, r, _, M0 = random_case(rng, K, T)
    sweeps = 3
    signs = np.empty((sweeps, K, T), dtype=bool)
    Mt = tanh_sic_block(ch, r, sweeps, m0=M0.T, signs=signs)
    history = tanh_sic_history(ch, r, sweeps, M0.T)
    np.testing.assert_array_equal(signs, np.array(history) < 0)
    np.testing.assert_array_equal(Mt, history[-1])


def test_serial_update_leaves_users_outside_the_order_nan():
    ch = make_equicorrelated(3, 0.5, sigma2=0.5)
    for _ in range(3):
        np.full(3, 7.77e77)  # leave junk in freed memory
        _, llr = serial_update(ch, np.array([0.3, -0.2, 0.1]), np.zeros(3),
                               DiscreteBelief(np.zeros(3)), order=[0])
        assert np.isfinite(llr[0]) and np.all(np.isnan(llr[1:]))


def test_ddf_hook_writes_the_users_major_state():
    ch = make_equicorrelated(4, 0.7, amplitudes=[1.0, 1.5, 0.7, 1.2],
                             sigma2=0.3)
    rng = np.random.default_rng(5)
    b = np.where(rng.standard_normal((40, 4)) > 0, 1.0, -1.0)
    obs = transmit(ch, SymbolBlock(b=b), rng_seed=6)
    loop = DiscreteTurboLoop(obs, IdentityDecoder(), "flooding",
                             first_iteration_hook=bind_ddf_hook(obs))
    loop.iterate(ch)
    pre = DdfPrecompute.from_channel(ch, detection_order(ch))
    m_ddf, _ = ddf_pass_block(ch, obs.y, np.zeros((40, 4)), pre)
    assert loop.Mt.shape == (4, 40)
    np.testing.assert_array_equal(loop.Mt, m_ddf)
    assert np.any(m_ddf != 0.0)


@pytest.mark.parametrize("schedule", ["flooding", "sequential", "hybrid"])
def test_ddf_seed_runs_in_outer_iteration_1_only(schedule):
    """The DDF pass replaces the sweeps of every posterior call of outer
    iteration 1 (one under flooding, one per user otherwise), then never
    runs again."""
    ch = make_equicorrelated(3, 0.7, amplitudes=[1.0, 1.5, 0.7], sigma2=0.3)
    rng = np.random.default_rng(9)
    b = np.where(rng.standard_normal((20, 3)) > 0, 1.0, -1.0)
    obs = transmit(ch, SymbolBlock(b=b), rng_seed=10)
    seed, calls = bind_ddf_hook(obs), []  # calls per outer iteration

    def counting_seed(*args):
        calls[-1] += 1
        return seed(*args)

    loop = DiscreteTurboLoop(obs, IdentityDecoder(), schedule,
                             first_iteration_hook=counting_seed)
    for _ in range(3):
        calls.append(0)
        loop.iterate(ch)
    assert calls == [1 if schedule == "flooding" else ch.K, 0, 0]


@pytest.mark.parametrize("detector", ["discrete", "ddf_aided"])
@pytest.mark.parametrize("I", [0, -1])
def test_fewer_than_one_inner_sweep_is_rejected(detector, I):
    ch = make_equicorrelated(2, 0.5, sigma2=0.5)
    obs = transmit(ch, SymbolBlock(b=np.ones((3, 2))), rng_seed=1)
    with pytest.raises(ValueError, match="I must be >= 1"):
        run_varem(ch, obs, detector, "flooding", 1, IdentityDecoder(), I=I)


class PerCallFoldLoop(DiscreteTurboLoop):
    """The earlier composition of ``DiscreteTurboLoop.iterate``: one
    ``_fold`` and one ``sweep_block`` call per posterior call, each
    dividing by sigma2 and allocating H and X again."""

    sweep_block = staticmethod(_sweep_block)

    def iterate(self, ch):
        eta_r = self.r @ ch.SA
        K = self.Mt.shape[0]

        def posterior(dec, order):
            return 2.0 * self.sweep_block(self.Mt, order * self.I, *_fold(
                dec, eta_r, ch.hollow_gram, ch.sigma2))

        return self._exchange(
            lambda dec: posterior(dec, list(range(K))).T - dec,
            lambda work, k: posterior(
                work, list(range(k, K)) + list(range(k)))[k])


def turbo_case(coded):
    """(channel, observation, decoder): K = 32 at rho 0.7 uncoded, where
    the loop amplifies rounding most, or K = 5 with the default code."""
    K = 5 if coded else 32
    ch = make_equicorrelated(K, 0.7, amplitudes=np.linspace(0.8, 1.3, K),
                             sigma2=0.2)
    rng = np.random.default_rng(K)
    if coded:
        decoder = ConvTurboDecoder(ConvCode(("10011", "11101")), K, 24,
                                   master_seed=3)
        b = decoder.encode_block(rng.integers(0, 2, (24, K)))
    else:
        decoder = IdentityDecoder()
        b = np.where(rng.standard_normal((64, K)) > 0, 1.0, -1.0)
    return ch, transmit(ch, SymbolBlock(b=b), rng_seed=K + 1), decoder


def assert_same_frames(want, got):
    for f_want, f_got in zip(want, got, strict=True):
        assert np.all(np.isfinite(f_want.llr_dec))
        assert np.array_equal(f_got.llr_mud, f_want.llr_mud)
        assert np.array_equal(f_got.llr_dec, f_want.llr_dec)


@pytest.mark.parametrize("coded", [False, True])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_turbo_loop_equals_the_per_call_fold_bit_for_bit(schedule, coded):
    ch, obs, decoder = turbo_case(coded)
    loops = [cls(obs, decoder, schedule, I=3)
             for cls in (PerCallFoldLoop, DiscreteTurboLoop)]
    for _ in range(2):
        assert_same_frames(*([loop.iterate(ch)] for loop in loops))
        assert np.array_equal(loops[1].Mt, loops[0].Mt)


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_em_turbo_loop_equals_the_per_call_fold_bit_for_bit(schedule,
                                                             monkeypatch):
    """sigma2 EM changes the channel between iterations; each iteration
    folds the channel it is given."""
    ch, obs, decoder = turbo_case(coded=True)
    state0 = EmState(a_hat=ch.a, sigma2_hat=2.0 * ch.sigma2, a_tilde=ch.a,
                     varsigma2=0.0, estimate_sigma2=True)
    runs, loops = [], []
    for cls in (PerCallFoldLoop, DiscreteTurboLoop):
        class Recorded(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                loops.append(self)

        monkeypatch.setattr(varem, "DiscreteTurboLoop", Recorded)
        runs.append(run_varem(ch, obs, "discrete", schedule, 3, decoder,
                              state0, I=3))
    (want, want_traj), (got, got_traj) = runs
    assert len({s.sigma2_hat for s in want_traj}) == len(want_traj)
    assert [s.sigma2_hat for s in got_traj] == \
        [s.sigma2_hat for s in want_traj]
    assert_same_frames(want, got)
    assert np.array_equal(loops[1].Mt, loops[0].Mt)


# ---------------------------------------------------------------------
# bit for bit against the frozen five-call form
# ---------------------------------------------------------------------

BIT_CASES = [(K, T) for K in (4, 32) for T in (1, 64, 4096)]
CLAMPED = 1.0 - MEAN_CLEARANCE


class FrozenKernelLoop(PerCallFoldLoop):
    """``PerCallFoldLoop`` on the frozen kernel."""

    sweep_block = staticmethod(frozen_sweep_block)


def bit_cases(seed, K, T):
    """random_case inputs, enough of them that both clamp bounds fire
    in every test below."""
    rng = np.random.default_rng(seed)
    return [random_case(rng, K, T) for _ in range(max(1, 64 // T))]


def assert_both_bounds_fire(means):
    means = np.concatenate([np.ravel(m) for m in means])
    assert np.any(means == CLAMPED) and np.any(means == -CLAMPED)


@pytest.mark.parametrize("K,T", BIT_CASES)
def test_sweep_block_equals_the_frozen_form(K, T):
    finals = []
    for ch, r, prior, M0 in bit_cases(61 * K + T, K, T):
        H, Bh = _fold(prior, r @ ch.SA, ch.hollow_gram, ch.sigma2)
        order = list(range(K // 2, K)) + list(range(K // 2))
        Mt_want, Mt_got = np.array(M0.T, order="C"), np.array(M0.T, order="C")
        want = frozen_sweep_block(Mt_want, order * 2, H, Bh)
        got = _sweep_block(Mt_got, order * 2, H, Bh)
        assert np.array_equal(got, want)
        assert np.array_equal(Mt_got, Mt_want)
        finals.append(Mt_got)
    assert_both_bounds_fire(finals)


@pytest.mark.parametrize("K,T", BIT_CASES)
def test_tanh_sic_equals_the_frozen_form(K, T):
    finals, sweeps = [], 3
    for ch, r, _, M0 in bit_cases(67 * K + T, K, T):
        H, Bh = _fold(None, r @ ch.SA, ch.hollow_gram, ch.sigma2)
        Mt = np.array(M0.T, order="C")
        want_signs = []
        for _ in range(sweeps):
            frozen_sweep_block(Mt, range(K), H, Bh)
            want_signs.append(Mt < 0)
        signs = np.empty((sweeps, K, T), dtype=bool)
        got = tanh_sic_block(ch, r, sweeps, m0=M0.T, signs=signs)
        assert np.array_equal(got, Mt)
        assert np.array_equal(signs, np.array(want_signs))
        finals.append(got)
    assert_both_bounds_fire(finals)


@pytest.mark.parametrize("K,T", BIT_CASES)
def test_ddf_pass_equals_the_frozen_form(K, T, monkeypatch):
    finals = []
    for ch, r, prior, _ in bit_cases(71 * K + T, K, T):
        pre = DdfPrecompute.from_channel(ch, detection_order(ch))
        y = r @ ch.S
        with monkeypatch.context() as patched:
            patched.setattr(siso_ddf, "_sweep_block", frozen_sweep_block)
            m_want, pos_want = ddf_pass_block(ch, y, prior, pre)
        m_got, pos_got = ddf_pass_block(ch, y, prior, pre)
        assert np.array_equal(m_got, m_want)
        assert np.array_equal(pos_got, pos_want)
        finals.append(m_got)
    assert_both_bounds_fire(finals)


@pytest.mark.parametrize("K,T", [(K, T) for K, T in BIT_CASES
                                 if (K, T) != (32, 4096)])  # runtime
@pytest.mark.parametrize("schedule", ["sequential", "flooding"])
def test_turbo_iteration_equals_the_frozen_form(schedule, K, T):
    """One outer iteration from the case's means, with its priors as the
    decoder LLRs."""
    finals = []
    for ch, r, prior, M0 in bit_cases(73 * K + T, K, T):
        loops = []
        for cls in (FrozenKernelLoop, DiscreteTurboLoop):
            loop = cls(Observation(r=r, y=r @ ch.S), IdentityDecoder(),
                       schedule, I=2)
            loop.llr_dec, loop.Mt = prior.copy(), np.array(M0.T, order="C")
            loops.append(loop)
        assert_same_frames(*([loop.iterate(ch)] for loop in loops))
        assert np.array_equal(loops[1].Mt, loops[0].Mt)
        finals.append(loops[1].Mt)
    assert_both_bounds_fire(finals)
