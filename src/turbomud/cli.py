"""Command-line front end for the simulation harness.

Subcommands:
  simulate <config|preset>   full scenario run, CSV out; --snr, --seed,
                             --schedule, --detector, --trials override
                             the config and are checked as config keys
  detect   <instance>        one-shot detector on a supplied instance
  presets                    list the built-in scenario names

Without --out, the CSV goes to $TURBOMUD_OUT_DIR (default ".").
Exit codes: 0 ok, 1 runtime error, 2 usage or config error.
"""

import argparse
import errno
import os
import sys
from dataclasses import replace

import numpy as np

from .channel import make_equicorrelated
from .errors import ConfigError, TurbomudError
from .harness import (PRESETS, keyed_channel_errors, parse_as, parse_value,
                      read_kv_file, resolve_config, run_scenario)
from .siso_ddf import AMPLITUDE_DESCENDING, DdfPrecompute, ddf_pass
from .siso_discrete import ext_one_shot
from .siso_gaussian import GaussianPrior, ext_flooding, ext_hybrid

OUT_DIR_ENV = "TURBOMUD_OUT_DIR"

_DETECT_ONE_SHOT = {
    "gaussian-hybrid": lambda ch, r, y, pl: ext_hybrid(
        ch, y, GaussianPrior(np.tanh(pl / 2.0))),
    "gaussian-flooding": lambda ch, r, y, pl: ext_flooding(
        ch, y, GaussianPrior(np.tanh(pl / 2.0))),
    "one-shot": lambda ch, r, y, pl: ext_one_shot(ch, r, pl),
    "ddf": lambda ch, r, y, pl: ddf_pass(
        ch, y, pl, DdfPrecompute.from_channel(ch, AMPLITUDE_DESCENDING))[1],
}
_INSTANCE_KEYS = ("users", "rho", "sigma2", "amps", "r", "priors", "detector")


def _build_parser():
    p = argparse.ArgumentParser(prog="turbomud",
                                description="multiuser detection simulator")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a full scenario")
    sim.add_argument("config", help="config file path or preset name")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None, help="CSV output path")
    sim.add_argument("--schedule", default=None)
    sim.add_argument("--detector", default=None)
    sim.add_argument("--trials", type=int, default=None,
                     help="frame budget override")
    sim.add_argument("--snr", default=None,
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
    if args.snr is not None:
        updates["snr_db"] = parse_value("snr_db", args.snr)
    return replace(cfg, **updates).validate() if updates else cfg


def _out_path(args):
    if args.out is not None:
        return args.out
    stem = os.path.basename(str(args.config)) or "run"
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{stem}.csv")


def _check_out(out):
    """Fail before the run, creating nothing, where writing ``out`` must
    fail: it is empty, names a directory (by its last component too: a
    trailing separator, ``.`` or ``..``), or its nearest existing
    ancestor is not a directory."""
    if not out:
        raise TurbomudError(f"cannot write '': {os.strerror(errno.ENOENT)}")
    if os.path.isdir(out) or \
            os.path.basename(out) in ("", os.curdir, os.pardir):
        raise TurbomudError(f"cannot write {out}: "
                            f"{os.strerror(errno.EISDIR)}")
    parent = os.path.dirname(os.path.abspath(out))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise TurbomudError(f"cannot write {out}: "
                            f"{os.strerror(errno.ENOTDIR)}")


def _floats(kv, key, n, default=None):
    """n comma-separated finite floats; n copies of ``default`` if absent
    (no default: a required key)."""
    if key not in kv:
        if default is None:
            raise ConfigError(f"{key}: missing required key")
        return np.full(n, float(default))
    vals = np.array([parse_as(float, key, s) for s in kv[key].split(",")])
    if len(vals) != n:
        raise ConfigError(f"{key}: expected {n} values, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{key}: values must be finite")
    return vals


def _cmd_detect(args):
    """Instance file keys: ``_INSTANCE_KEYS``; any other key is an error.

    Numbers must be finite and sigma2 > 0; overflowing LLRs are errors.
    """
    kv = read_kv_file(args.config)
    for key in kv:
        if key not in _INSTANCE_KEYS:
            raise ConfigError(f"{key}: unknown config key")
    kind = kv.get("detector", "gaussian-hybrid")
    fn = _DETECT_ONE_SHOT.get(kind)
    if fn is None:
        raise ConfigError(f"detector: unknown detector {kind!r}")
    K = parse_as(int, "users", kv.get("users", "1"))
    if K < 1:
        raise ConfigError("users: must be >= 1")
    rho = _floats(kv, "rho", 1, 0.0)[0]
    sigma2 = _floats(kv, "sigma2", 1, 1.0)[0]
    if sigma2 <= 0:
        raise ConfigError("sigma2: must be > 0")
    r = _floats(kv, "r", K)  # N = K; bounds K before any K-sized array
    amps = _floats(kv, "amps", K, 1.0)
    priors = _floats(kv, "priors", K, 0.0)
    # an overflowing instance is reported once below, not warned about
    with np.errstate(all="ignore"):
        with keyed_channel_errors():
            ch = make_equicorrelated(K, rho, amplitudes=amps, sigma2=sigma2)
        y = ch.S.T @ r
        # an overflowed y is reported as such, not passed to the whitening
        llrs = fn(ch, r, y, priors) if np.all(np.isfinite(y)) else y
    if not np.all(np.isfinite(llrs)):
        raise TurbomudError("instance overflows double precision")
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
        out = _out_path(args)
        _check_out(out)
        report = run_scenario(cfg)
        try:
            report.to_csv(out)
            if report.em:
                report.em_to_csv(os.path.splitext(out)[0] + "_em.csv")
        except OSError as exc:
            raise TurbomudError(f"cannot write {exc.filename}: "
                                f"{exc.strerror}") from None
        for snr in cfg.snr_db:
            ber = report.ber(snr, cfg.outer_iterations)
            print(f"snr {snr:g} dB: final-iteration BER = {ber:.3e}")
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TurbomudError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it refused
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())
