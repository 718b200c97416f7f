"""Driving the Monte-Carlo harness from code (a scaled scenario run).

The same machinery backs the `turbomud` command line; here the
four-user equal-correlation benchmark preset is scaled down, run over
a small SNR grid, compared against the simulated single-user bound and
written out as CSV.
"""

from dataclasses import replace

from turbomud.harness import resolve_config, run_scenario, single_user_bound


def main():
    cfg = replace(resolve_config("scenario-i"),
                  snr_db=(3.0, 4.0, 5.0), max_frames=30, frame_cap=30,
                  min_error_events=1, seed=2)
    report = run_scenario(cfg)
    bound = single_user_bound(cfg)

    print("four users, cross-correlation 0.7, rate-1/2 code, 5 iterations")
    print("snr   iter1      iter5      single-user")
    for s in cfg.snr_db:
        print(f"{s:3.0f}   {report.ber(s, 1):.2e}   {report.ber(s, 5):.2e}"
              f"   {bound.ber(s, 5):.2e}")

    report.to_csv("scenario_i_demo.csv")
    print("\nper-iteration, per-user counts written to scenario_i_demo.csv")
    print("equivalent command line:")
    print("  turbomud simulate presets/scenario-i --seed 2 --out out.csv")


if __name__ == "__main__":
    main()
