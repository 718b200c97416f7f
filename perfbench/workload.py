"""One benchmark workload in a fresh process.

Run by ``run.py``; not meant to be started by hand.  The process pins
BLAS/OpenMP to one thread before numpy loads, imports turbomud from
the checkout's ``src/``, resolves and validates the workload's
configs, warms up on a tiny copy of each, prints ``READY`` and then
runs repetitions ("reps") of the workload through the public
``turbomud.harness.run_scenario``.  A rep runs every config of the
workload once, with a fixed frame count per SNR point, so every rep
does the same work.  The last stdout line is a JSON result.

    python3 perfbench/workload.py --workload em-k32 --seed 1 --seconds 20 --check
"""

import os

# Before numpy is imported: one thread everywhere, so the numbers
# measure the program rather than the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
REFERENCE_DIR = os.path.join(HERE, "reference")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

DEFAULT_SEED = 1  # seed of the stored reference outputs

# Reference gate tolerance.  Batched or reordered float arithmetic may
# move LLRs by a few ulp, which can at most flip a decision sitting on
# zero; a wrong decoder or detector moves error counts by tens.
ERROR_COUNT_TOL = 1      # |errors - reference| per (snr, iteration, user)
EM_REL_TOL = 1e-8        # relative, on sigma2_hat and a_hat_rmse
EM_ABS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    preset: str
    common: dict         # overrides applied to the preset
    variants: tuple      # (label, overrides) per config, run in order
    frames: int          # frames per SNR point per rep
    max_final_ber: float  # ceiling on the final BER at the highest SNR
    trace_reps: int      # reps of a traced run (fixed, so counts repeat)


WORKLOADS = {
    # scenario-i geometry; 3 dB sits inside the turbo waterfall, 5 dB past it
    "turbo-k4": Workload(
        preset="scenario-i", common=dict(snr_db="3,5"),
        variants=(("gaussian-flooding",
                   dict(detector="gaussian", schedule="flooding")),
                  ("discrete-sequential",
                   dict(detector="discrete", schedule="sequential")),
                  ("ddf_aided-hybrid",
                   dict(detector="ddf_aided", schedule="hybrid"))),
        frames=1, max_final_ber=0.1, trace_reps=4),
    # scenario-ii: K=32 random spreading, sigma2 and amplitude EM.  The
    # K=32 workloads use 64 info bits per frame: a config then takes a
    # second or less, so HostClock brackets it closely (see there).
    "em-k32": Workload(
        preset="scenario-ii", common=dict(snr_db="5", info_bits="64"),
        variants=(("gaussian-flooding-em", {}),),
        frames=1, max_final_ber=0.1, trace_reps=8),
    # scenario-ii geometry uncoded, J=5: detector kernels only
    "mud-k32": Workload(
        preset="scenario-ii",
        common=dict(snr_db="6", info_bits="64", coded="false",
                    estimate_sigma2="false", varsigma="0",
                    outer_iterations="5"),
        variants=(("gaussian-hybrid",
                   dict(detector="gaussian", schedule="hybrid")),
                  ("discrete-sequential",
                   dict(detector="discrete", schedule="sequential"))),
        frames=1, max_final_ber=0.4, trace_reps=8),
    # ddf-two-user preset: tiny frames, so per-frame overhead dominates
    "near-far-k2": Workload(
        preset="ddf-two-user", common={}, variants=(("ddf_aided", {}),),
        frames=16, max_final_ber=0.05, trace_reps=16),
}


def import_turbomud():
    """Import turbomud from this checkout's ``src/``, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "turbomud", "harness.py")):
        raise ImportError(f"no turbomud sources under {src}")
    sys.path.insert(0, src)
    import turbomud.harness
    if not os.path.abspath(turbomud.harness.__file__).startswith(src):
        raise ImportError(f"turbomud resolved outside {src}")


def workload_configs(name):
    """[(label, ScenarioConfig)] of a workload, validated; reps set the seed."""
    from turbomud.harness import PRESETS, config_from_dict

    wl = WORKLOADS[name]
    fixed = dict(min_error_events="0", max_frames=str(wl.frames),
                 frame_cap=str(wl.frames), workers="1")
    return [(label, config_from_dict({**PRESETS[wl.preset], **wl.common,
                                      **over, **fixed}))
            for label, over in wl.variants]


def rep_seed(seed, index):
    """cfg.seed of rep ``index`` of a run with workload seed ``seed``."""
    h = hashlib.sha256(f"turbomud-perfbench:{seed}:{index}".encode())
    return int.from_bytes(h.digest()[:7], "little")


def with_seed(configs, seed):
    return [(label, replace(cfg, seed=seed)) for label, cfg in configs]


class HostClock:
    """Wall time rescaled to the speed of a reference host.

    On a shared 2-vCPU virtual machine the speed of one pinned thread
    was measured to drift by 15-30 % over tens of seconds, and by up to
    2x, with no steal time recorded.  Over ten 20 s runs per workload,
    the median of raw reps had a quartile spread of 0.09-0.24 of its
    median, and longer runs did not shrink it.  A fixed calibration mix
    (a Python loop, small-array numpy calls, batched 32 x 32 inverses,
    like the program's own) runs between configs; a config's wall time
    is scaled by CAL_REF_S over the mean of the calibrations just
    before and after it, which brought that spread to 0.02-0.10.
    """

    CAL_REF_S = 0.02  # calibration time of the reference host

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._v = rng.standard_normal(16)
        g = rng.standard_normal((64, 32, 32))
        self._spd = g @ g.transpose(0, 2, 1) + 32.0 * np.eye(32)
        self._last = self._calibrate()

    def _calibrate(self):
        import numpy as np

        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(3):
                acc = 0
                for i in range(20000):
                    acc += i * i % 7
                x = self._v.copy()
                for _ in range(400):
                    x = np.logaddexp(x, self._v) - np.max(x)
                np.linalg.inv(self._spd)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def rescale(self, seconds):
        """``seconds`` just measured, at the reference host's speed."""
        cal = self._calibrate()
        scaled = seconds * 2.0 * self.CAL_REF_S / (self._last + cal)
        self._last = cal
        return scaled


@dataclass
class Rep:
    """Outputs and timing of one rep."""

    outputs: dict = field(default_factory=dict)  # label -> (error CSV, EM CSV)
    bits: int = 0          # info bits whose decisions were counted
    points: int = 0        # SNR points attempted
    failed: int = 0        # SNR points failed
    seconds: float = 0.0   # wall time inside run_scenario
    host_seconds: float = 0.0  # the same at reference host speed


def run_rep(configs, scratch, clock=None):
    """Run each config once through ``run_scenario``.

    Outputs are the ``BerReport`` CSVs (EM CSV "" when there is none).
    A config that raises adds its SNR points to ``failed`` and no
    output.  With a ``clock``, ``host_seconds`` is filled in.
    """
    import turbomud.harness

    rep = Rep()
    for label, cfg in configs:
        rep.points += len(cfg.snr_db)
        t0 = time.perf_counter()
        try:
            report = turbomud.harness.run_scenario(cfg)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            report = None
        dt = time.perf_counter() - t0
        rep.seconds += dt
        if clock is not None:
            rep.host_seconds += clock.rescale(dt)
        if report is None:
            rep.failed += len(cfg.snr_db)
            continue
        rep.bits += sum(report.bits(s, 1) for s in cfg.snr_db)
        rep.outputs[label] = _report_csvs(report, scratch)
    return rep


def _report_csvs(report, scratch):
    path = os.path.join(scratch, "out.csv")
    report.to_csv(path)
    with open(path, encoding="utf-8") as fh:
        err_csv = fh.read()
    em_csv = ""
    if report.em:
        report.em_to_csv(path)
        with open(path, encoding="utf-8") as fh:
            em_csv = fh.read()
    return err_csv, em_csv


def digest(outputs):
    h = hashlib.sha256()
    for label in sorted(outputs):
        err_csv, em_csv = outputs[label]
        h.update(f"{label}\0{err_csv}\0{em_csv}\0".encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------

def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def sanity_failures(cfg, err_csv, max_final_ber):
    """SNR points of one output that break seed-independent invariants.

    Every cell counts frames x info_bits bits with errors in [0, bits],
    every point reports its final iteration, and at the highest SNR
    point the final iteration's BER over all users stays under the
    workload's ceiling.  Lower points are not bounded: a frame inside
    the turbo waterfall may fail to converge on some seeds.
    """
    expected_bits = cfg.frame_cap * cfg.info_bits
    top = f"{max(cfg.snr_db):g}"
    bad = set()
    finished = set()
    top_bits = top_errors = 0
    for snr, it, _user, bits, errors, *_ in _rows(err_csv):
        bits, errors = int(bits), int(errors)
        if bits != expected_bits or not 0 <= errors <= bits:
            bad.add(snr)
        if int(it) == cfg.outer_iterations:
            finished.add(snr)
            if snr == top:
                top_bits += bits
                top_errors += errors
    bad |= {f"{s:g}" for s in cfg.snr_db} - finished
    if top_errors > max_final_ber * top_bits:
        bad.add(top)
    return bad


def reference_mismatches(err_csv, em_csv, ref_err_csv, ref_em_csv):
    """SNR points (as CSV strings) where an output leaves the reference.

    Bits must match exactly, error counts within ERROR_COUNT_TOL per
    cell, EM trajectories within EM_REL_TOL relative (EM_ABS_TOL
    absolute); a missing or extra row marks its point.
    """
    bad = set()
    got = {tuple(r[:3]): r for r in _rows(err_csv)}
    ref = {tuple(r[:3]): r for r in _rows(ref_err_csv)}
    for key in got.keys() ^ ref.keys():
        bad.add(key[0])
    for key in got.keys() & ref.keys():
        g, r = got[key], ref[key]
        if g[3] != r[3] or abs(int(g[4]) - int(r[4])) > ERROR_COUNT_TOL:
            bad.add(key[0])
    got = {tuple(r[:2]): r for r in _rows(em_csv)}
    ref = {tuple(r[:2]): r for r in _rows(ref_em_csv)}
    for key in got.keys() ^ ref.keys():
        bad.add(key[0])
    for key in got.keys() & ref.keys():
        for g, r in zip(got[key][2:], ref[key][2:]):
            g, r = float(g), float(r)
            if not math.isclose(g, r, rel_tol=EM_REL_TOL, abs_tol=EM_ABS_TOL):
                bad.add(key[0])
    return bad


def reference_paths(name, label):
    base = os.path.join(REFERENCE_DIR, name, label)
    return base + ".csv", base + "_em.csv"


def read_reference(name, label):
    err_path, em_path = reference_paths(name, label)
    with open(err_path, encoding="utf-8") as fh:
        err_csv = fh.read()
    em_csv = ""
    if os.path.exists(em_path):
        with open(em_path, encoding="utf-8") as fh:
            em_csv = fh.read()
    return err_csv, em_csv


def reference_check(name, configs, scratch):
    """Run one rep at the default seed and compare with the stored outputs.

    Returns (points attempted, points failed, messages).
    """
    rep = run_rep(with_seed(configs, rep_seed(DEFAULT_SEED, 0)), scratch)
    messages = []
    for label, outputs in rep.outputs.items():
        bad = reference_mismatches(*outputs, *read_reference(name, label))
        if bad:
            messages.append(f"{label}: reference mismatch at snr {sorted(bad)}")
        rep.failed += len(bad)
    return rep.points, rep.failed, messages


# ----------------------------------------------------------------------
# process entry
# ----------------------------------------------------------------------

def warm_up(configs):
    """Tiny copy of each config: lazy imports and first BLAS calls finish."""
    import turbomud.harness

    for _, cfg in configs:
        tiny = replace(cfg, info_bits=8, snr_db=cfg.snr_db[:1], max_frames=1,
                       frame_cap=1, outer_iterations=min(2, cfg.outer_iterations),
                       seed=rep_seed(DEFAULT_SEED, "warm-up"))
        turbomud.harness.run_scenario(tiny)


def versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}: "
                    f"{blas.get('openblas configuration', '')}".strip(),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run reps until this much time has passed")
    ap.add_argument("--reps", type=int, default=0, help="run exactly this many")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="compare a default-seed rep with the references")
    args = ap.parse_args(argv)

    import_turbomud()
    wl = WORKLOADS[args.workload]
    configs = workload_configs(args.workload)
    warm_up(configs)
    tracer = None
    if args.traced:
        from spans import Tracer
        tracer = Tracer().install()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(RUN_DIR, exist_ok=True)
    reps = []
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as scratch:
        clock = HostClock()
        start = time.perf_counter()
        i = 0
        while (i < args.reps if args.reps else
               time.perf_counter() - start < args.seconds):
            rep_configs = with_seed(configs, rep_seed(args.seed, i))
            rep = run_rep(rep_configs, scratch, clock)
            for label, cfg in rep_configs:
                if label in rep.outputs:
                    rep.failed += len(sanity_failures(
                        cfg, rep.outputs[label][0], wl.max_final_ber))
            reps.append({"seconds": rep.seconds,
                         "host_seconds": rep.host_seconds, "bits": rep.bits,
                         "points": rep.points, "failed": rep.failed,
                         "digest": digest(rep.outputs)})
            i += 1
        if tracer is not None:
            tracer.uninstall()
        check = None
        if args.check:
            points, failed, messages = reference_check(args.workload, configs,
                                                       scratch)
            check = {"points": points, "failed": failed, "messages": messages}
    result = {
        "reps": reps, "check": check,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": versions(),
        "layers": (tracer.metrics(sum(r["seconds"] for r in reps))
                   if tracer is not None else None),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
