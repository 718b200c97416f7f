"""Command-line front end for the simulation harness.

Subcommands:
  simulate <config|preset>   full scenario run, CSV out
  sweep    <config|preset>   same with the SNR grid overridden
  detect   <config>          one-shot detector on a supplied instance
  presets                    list the built-in scenario names

Exit codes: 0 ok, 1 runtime error, 2 usage or config error.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .channel import make_equicorrelated
from .errors import ConfigError, TurbomudError
from .harness import (OUT_DIR_ENV, PRESETS, read_kv_file, resolve_config,
                      run_scenario)
from .siso_ddf import DdfPrecompute, ddf_pass, detection_order
from .siso_discrete import ext_one_shot
from .siso_gaussian import GaussianPrior, ext_flooding, ext_hybrid

_DETECT_ONE_SHOT = {
    "gaussian-hybrid": lambda ch, r, y, pl: ext_hybrid(
        ch, GaussianPrior(np.tanh(pl / 2.0)), y=y).llr_mud,
    "gaussian-flooding": lambda ch, r, y, pl: ext_flooding(
        ch, y, GaussianPrior(np.tanh(pl / 2.0))).llr_mud,
    "one-shot": lambda ch, r, y, pl: ext_one_shot(ch, r, pl).llr_mud,
    "ddf": lambda ch, r, y, pl: _ddf_llrs(ch, y, pl),
}


def _ddf_llrs(ch, y, prior_llr):
    pre = DdfPrecompute.from_channel(ch, detection_order(ch))
    _, ext = ddf_pass(ch, pre.whiten(ch, y)[0], prior_llr, pre)
    return ext.llr_mud


def _build_parser():
    p = argparse.ArgumentParser(prog="turbomud",
                                description="multiuser detection simulator")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="config file path or preset name")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=None, help="CSV output path")
    common.add_argument("--schedule", default=None,
                        choices=["flooding", "sequential", "hybrid"])
    common.add_argument("--detector", default=None)
    common.add_argument("--trials", type=int, default=None,
                        help="frame budget override")

    sim = sub.add_parser("simulate", parents=[common],
                         help="run a full scenario")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="run with an overridden SNR grid")
    sweep.add_argument("--snr", required=True,
                       help="comma separated SNR grid in dB")
    det = sub.add_parser("detect", help="one-shot detection of one instance")
    det.add_argument("config", help="instance description file")
    sub.add_parser("presets", help="list built-in scenario presets")
    return p


def _apply_overrides(cfg, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.schedule is not None:
        updates["schedule"] = args.schedule
    if args.detector is not None:
        updates["detector"] = args.detector
    if args.trials is not None:
        # a hard budget: no error-event top-up past the requested trials
        updates["max_frames"] = args.trials
        updates["frame_cap"] = args.trials
    if getattr(args, "snr", None) is not None:
        updates["snr_db"] = tuple(float(s) for s in args.snr.split(","))
    return replace(cfg, **updates).validate() if updates else cfg


def _out_path(args):
    if args.out is not None:
        return args.out
    stem = os.path.basename(str(args.config)).replace("/", "-") or "run"
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{stem}.csv")


def _floats(kv, key, n):
    """Comma-separated float list of exactly n entries."""
    vals = np.array([float(s) for s in kv[key].split(",")])
    if len(vals) != n:
        raise ConfigError(f"{key}: expected {n} values, got {len(vals)}")
    return vals


def _cmd_detect(args):
    """Instance file keys: users, rho, sigma2, amps, r, priors, detector."""
    kv = read_kv_file(args.config)
    try:
        K = int(kv.get("users", 1))
        rho = float(kv.get("rho", 0.0))
        sigma2 = float(kv.get("sigma2", 1.0))
        amps = _floats(kv, "amps", K) if "amps" in kv else None
        ch = make_equicorrelated(K, rho, amplitudes=amps, sigma2=sigma2)
        r = _floats(kv, "r", ch.N)
        priors = _floats(kv, "priors", K) if "priors" in kv else np.zeros(K)
        kind = kv.get("detector", "gaussian-hybrid")
        fn = _DETECT_ONE_SHOT[kind]
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad instance description: {exc}") from None
    y = ch.S.T @ r
    llrs = fn(ch, r, y, priors)
    for k, llr in enumerate(llrs, start=1):
        print(f"user {k}: LLR = {llr:+.6f}")
    return 0


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "presets":
            for name in sorted(PRESETS):
                print(name)
            return 0
        if args.command == "detect":
            return _cmd_detect(args)
        cfg = _apply_overrides(resolve_config(args.config), args)
        report = run_scenario(cfg)
        out = _out_path(args)
        report.to_csv(out)
        if report.em:
            report.em_to_csv(os.path.splitext(out)[0] + "_em.csv")
        for snr in cfg.snr_db:
            ber = report.ber(snr, cfg.outer_iterations)
            print(f"snr {snr:g} dB: final-iteration BER = {ber:.3e}")
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TurbomudError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())
