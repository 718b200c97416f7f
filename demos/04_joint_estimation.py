"""Joint amplitude / noise-variance estimation inside the turbo loop.

The receiver starts with no noise-variance knowledge and amplitude
estimates corrupted by 30% relative measurement error, drawn as the
harness draws them: a_tilde_k = a_k (1 + varsigma n_k).  Each outer
iteration re-detects with the current parameter estimates and then
updates them in closed form from the decoder-informed posteriors; the
per-iteration trajectory shows both estimates settling onto the truth.
"""

import numpy as np

from turbomud.channel import SymbolBlock, make_random_spreading, transmit
from turbomud.coding import ConvCode, ConvTurboDecoder
from turbomud.varem import EmState, initial_sigma2, run_varem


def main():
    rng = np.random.default_rng(9)
    N, K, n_info = 16, 8, 256
    snr_db = 4.0
    sigma2 = 10 ** (-snr_db / 10.0)
    ch = make_random_spreading(N, K, seed=42, sigma2=sigma2)

    code = ConvCode(generators=("111", "101"))
    decoder = ConvTurboDecoder(code, K=K, n_info=n_info, master_seed=13)
    info = rng.integers(0, 2, size=(n_info, K))
    obs = transmit(ch, SymbolBlock(b=decoder.encode_block(info)), rng_seed=17)

    varsigma = 0.3
    a_tilde = ch.a * (1.0 + varsigma * rng.standard_normal(K))
    state0 = EmState(a_hat=a_tilde,
                     sigma2_hat=initial_sigma2(obs, a_tilde, N),
                     a_tilde=a_tilde, varsigma2=varsigma**2,
                     estimate_sigma2=True)

    frames, traj = run_varem(ch, obs, "gaussian", "flooding", J=10,
                             decoder=decoder, state0=state0)

    truth = 1.0 - 2.0 * info
    print(f"true sigma2 = {sigma2:.4f}; amplitude prior error "
          f"rms = {np.sqrt(np.mean((a_tilde - ch.a) ** 2)):.3f}")
    print("iter   sigma2_hat   amp rmse   info-bit errors")
    for j, frame in enumerate(frames, start=1):
        st = traj[j]
        hard = np.sign(np.stack(frame.info_posterior, axis=1))
        errs = int(np.sum(hard != truth))
        rmse = np.sqrt(np.mean((st.a_hat - ch.a) ** 2))
        print(f"{j:4d}   {st.sigma2_hat:.4f}       {rmse:.4f}     {errs}")


if __name__ == "__main__":
    main()
