"""Soft-in-soft-out detection and the three message-passing schedules.

A SISO detector consumes the decoder's soft bits as priors and emits
extrinsic LLRs.  The Gaussian family solves its free energy exactly
(the classical soft-IC + MMSE two-stage detector drops out of the
leave-one-out prior); the discrete family runs mean-field coordinate
descent.  The schedule decides who talks to whom and when: sequential
(one user at a time), flooding (shared solve, parallel decode), hybrid
(leave-one-out, parallel decode).  For Gaussian beliefs hybrid and
flooding give the same extrinsics: the own prior moves only one
diagonal entry of the filter matrix, which leaves the LLR unchanged.
"""

import numpy as np

from turbomud.channel import SymbolBlock, make_equicorrelated, transmit
from turbomud.coding import ConvCode, ConvTurboDecoder
from turbomud.siso_discrete import ext_one_shot
from turbomud.siso_gaussian import ext_flooding, ext_hybrid, wang_poor_oracle
from turbomud.varem import run_varem


def main():
    rng = np.random.default_rng(3)
    ch = make_equicorrelated(4, rho=0.7, sigma2=0.3)
    r = rng.standard_normal(4)
    y = ch.S.T @ r
    btilde = np.array([0.6, -0.2, 0.0, 0.8])  # decoder soft bits tanh(L/2)

    # single-interval forms: the block kernels called with T = 1, on the
    # soft bits as a plain array (the one-shot detector takes the LLRs)
    hyb = ext_hybrid(ch, y, btilde)
    two_stage, _ = wang_poor_oracle(ch, y, btilde)
    flood = ext_flooding(ch, y, btilde)
    osh = ext_one_shot(ch, r, 2 * np.arctanh(btilde))

    print("extrinsic LLRs for one symbol interval, informative priors:")
    print(f"  hybrid (free-energy path) : {np.round(hyb, 4)}")
    print(f"  two-stage soft-IC + MMSE  : {np.round(two_stage, 4)}")
    print(f"  flooding (shared solve)   : {np.round(flood, 4)}")
    print(f"  one-shot cancellation     : {np.round(osh, 4)}")
    print(f"  hybrid vs two-stage max diff: "
          f"{np.max(np.abs(hyb - two_stage)):.2e}")
    print(f"  hybrid vs flooding max diff : "
          f"{np.max(np.abs(hyb - flood)):.2e}")

    # a short coded turbo run under each schedule
    code = ConvCode(generators=("10011", "11101"))
    n_info = 128
    decoder = ConvTurboDecoder(code, K=4, n_info=n_info, master_seed=7)
    info = rng.integers(0, 2, size=(n_info, 4))
    blk = SymbolBlock(b=decoder.encode_block(info))
    ch_run = make_equicorrelated(4, rho=0.7, sigma2=10 ** (-4.5 / 10))
    obs = transmit(ch_run, blk, rng_seed=11)
    truth = 1.0 - 2.0 * info

    print(f"\ncoded turbo run (4 users, rho 0.7, {n_info} info bits/user):")
    print("schedule    " + "  ".join(f"iter{j}" for j in range(1, 6)))
    for schedule in ("sequential", "flooding", "hybrid"):
        frames, _ = run_varem(ch_run, obs, "gaussian", schedule, 5, decoder)
        rates = []
        for f in frames:
            hard = np.sign(np.stack(f.info_posterior, axis=1))
            rates.append(np.mean(hard != truth))
        print(f"{schedule:<11} " + "  ".join(f"{r:.4f}" for r in rates))


if __name__ == "__main__":
    main()
