"""Properties every detector kernel must have, on random instances.

Row independence: symbol intervals never couple, so a (T, .) block
gives the rows of T single-interval calls.  Sign convention: an LLR is
log p(b = +1) / p(b = -1), so negating the observation and the priors
negates every extrinsic exactly.
"""

import numpy as np
import pytest

from turbomud.channel import make_equicorrelated, make_random_spreading
from turbomud.siso_ddf import DdfPrecompute, ddf_pass_block, detection_order
from turbomud.siso_discrete import ext_one_shot, tanh_sic_block
from turbomud.siso_gaussian import flooding_ext_block, loo_ext_block

INSTANCES = 100


def random_instance(rng):
    """(channel, r block, matched-filter block, prior LLR block)."""
    K = int(rng.choice([1, 2, 4, 8]))
    amps = rng.uniform(0.5, 2.0, K)
    sigma2 = float(rng.uniform(0.1, 1.0))
    if rng.integers(2):
        ch = make_equicorrelated(K, float(rng.uniform(0.0, 0.8)),
                                 amplitudes=amps, sigma2=sigma2)
    else:
        ch = make_random_spreading(K + int(rng.integers(0, 5)), K,
                                   seed=int(rng.integers(2**31)),
                                   amplitudes=amps, sigma2=sigma2)
    T = int(rng.integers(1, 7))
    r = rng.standard_normal((T, ch.N)) * 1.5
    return ch, r, r @ ch.S, rng.standard_normal((T, K)) * 3.0


def kernels(ch, r, y, prior_llr):
    """name -> (T, .) output of each kernel on the given block."""
    btilde = np.tanh(prior_llr / 2.0)
    pre = DdfPrecompute.from_channel(ch, detection_order(ch))
    m_ddf, pos_ddf = ddf_pass_block(ch, y, prior_llr, pre)  # users-major
    out = {"flooding_ext_block": flooding_ext_block(ch, y, btilde),
           "tanh_sic_block": tanh_sic_block(ch, r, 3).T,
           "ddf_pass_block means": m_ddf.T,
           "ddf_pass_block extrinsics": pos_ddf.T - prior_llr}
    for k in range(ch.K):
        out[f"loo_ext_block user {k}"] = loo_ext_block(ch, y, btilde, k)
    return out


def test_rows_are_independent():
    rng = np.random.default_rng(2024)
    for _ in range(INSTANCES):
        ch, r, y, prior = random_instance(rng)
        block = kernels(ch, r, y, prior)
        rows = [kernels(ch, r[t:t + 1], y[t:t + 1], prior[t:t + 1])
                for t in range(r.shape[0])]
        for name, got in block.items():
            want = np.concatenate([row[name] for row in rows])
            scale = np.maximum(np.abs(want), 1.0)
            assert np.max(np.abs(got - want) / scale) < 1e-12, name


@pytest.mark.parametrize("seed", [0, 1])
def test_negation_negates_extrinsics(seed):
    rng = np.random.default_rng(seed)
    for _ in range(INSTANCES):
        ch, r, y, prior = random_instance(rng)
        plus = kernels(ch, r, y, prior)
        minus = kernels(ch, -r, -y, -prior)
        for name in plus:
            np.testing.assert_array_equal(minus[name], -plus[name],
                                          err_msg=name)
        np.testing.assert_array_equal(ext_one_shot(ch, -r[0], -prior[0]),
                                      -ext_one_shot(ch, r[0], prior[0]))


@pytest.mark.parametrize("K", [1, 4, 33])
def test_empty_block_gives_empty_outputs(K):
    # T = 0 intervals: every kernel returns its output with no rows
    # (K = 33 runs the inverse factors' full blocks and their tail)
    ch = make_random_spreading(K + 2, K, seed=K)
    r, prior = np.zeros((0, ch.N)), np.zeros((0, K))
    one = kernels(ch, np.ones((1, ch.N)), np.ones((1, ch.N)) @ ch.S,
                  np.zeros((1, K)))
    for name, got in kernels(ch, r, r @ ch.S, prior).items():
        assert got.shape == (0,) + one[name].shape[1:], name
