"""Decision-feedback detection and the near-far problem.

Two users, cross-correlation 0.7, the weak user pinned at 11 dB while
the strong user's SNR grows.  Detecting the strong user first keeps the
weak user pinned near its single-user floor; detecting the weak user
first breaks the feedback chain, and a few mean-field refinement
sweeps repair it.

The DDF pass alone is ``ddf_aided`` at one outer iteration, and it is
iteration 1 of every longer ``ddf_aided`` run: one weak-first run at
J = 5 gives both the weak-first pass and its refinement.
"""

from turbomud.harness import config_from_dict, run_scenario


def sweep(order, outer_iterations):
    cfg = config_from_dict(dict(
        channel="equicorrelated", users=2, rho=0.7, coded=False,
        info_bits=4096, detector="ddf_aided",
        outer_iterations=outer_iterations, ddf_order=order,
        snr_db="11,13,15,17,19", snr_fixed="2:11",
        seed=5, max_frames=40, frame_cap=40, min_error_events=1))
    return run_scenario(cfg)


def main():
    strong_first = sweep("amplitude_descending", 1)
    weak_first = sweep("custom:2,1", 5)  # iteration 1: the DDF pass alone

    print("weak user (11 dB) error rate vs interferer SNR:")
    print("snr1    strong-first   weak-first   weak-first+4 sweeps")
    for s in (11.0, 13.0, 15.0, 17.0, 19.0):
        print(f"{s:4.0f}    {strong_first.ber(s, 1, user=2):.3e}      "
              f"{weak_first.ber(s, 1, user=2):.3e}    "
              f"{weak_first.ber(s, 5, user=2):.3e}")
    print("\nsingle-user reference at 11 dB: "
          "Q(sqrt(10^1.1)) ~ 1.9e-04")
    print("strong-first stays near the floor as the interferer grows; "
          "weak-first alone plateaus an order of magnitude above it.")


if __name__ == "__main__":
    main()
