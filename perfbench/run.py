"""turbomud throughput benchmark: the one command that runs it.

    python3 perfbench/run.py --workload turbo-k4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Every measurement runs in a fresh process (``workload.py``) with
BLAS/OpenMP pinned to one thread.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same fixed reps
untraced and traced, checks that both produce identical outputs and
prints the per-layer metrics.  ``--workload all`` does both for every
workload.  The last stdout line is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and run
metadata are also written to ``.perfbench_run/``.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

from workload import DEFAULT_SEED, HERE, ROOT, RUN_DIR, WORKLOADS

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SETUP_SAMPLES = 5        # fresh processes per run whose set-up is timed
CHILD_TIMEOUT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Child:
    """One ``workload.py`` process; times its start-up until ``READY``."""

    def __init__(self, *args, deadline):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py"), *args],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            first = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - t0
            if first.strip() != "READY":
                raise BenchError(f"workload process failed to start: "
                                 f"{first.strip()!r}")
        except BaseException:
            self.kill()
            raise

    def result(self):
        """Wait for the process; its last stdout line parsed as JSON."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise BenchError(f"workload process exited with "
                             f"{self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def kill(self):
        self.proc.kill()
        self.proc.communicate()


def git_commit():
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_untraced(name, seed, seconds, deadline):
    """End-to-end metrics of one workload (tracing off)."""
    wl = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        child = Child(*wl, "--setup-only", deadline=deadline)
        setups.append(child.setup_s)
        child.result()
    child = Child(*wl, "--seconds", str(seconds), "--check", deadline=deadline)
    setups.append(child.setup_s)
    res = child.result()
    reps = res["reps"]
    if not reps:
        raise BenchError("no rep completed")
    rates = [r["bits"] / r["host_seconds"] for r in reps]
    metrics = {
        "info_bits_per_s": (statistics.median(rates), "bit/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    attempted = sum(r["points"] for r in reps) + res["check"]["points"]
    failed = sum(r["failed"] for r in reps) + res["check"]["failed"]
    notes = list(res["check"]["messages"])
    rep_s = sorted(r["seconds"] for r in reps)
    info = {"reps": len(reps), "rep_s_median": statistics.median(rep_s),
            "rep_s_min": rep_s[0], "rep_s_max": rep_s[-1],
            "wall_setup_s": setups,
            "wall_info_bits_per_s": statistics.median(
                r["bits"] / r["seconds"] for r in reps)}
    return metrics, attempted, failed, notes, info, res["versions"]


def run_traced(name, seed, deadline):
    """Per-layer metrics: the same fixed reps untraced, then traced."""
    reps = str(WORKLOADS[name].trace_reps)
    wl = ["--workload", name, "--seed", str(seed), "--reps", reps]
    base = Child(*wl, "--check", deadline=deadline).result()
    traced = Child(*wl, "--traced", deadline=deadline).result()
    attempted = failed = 0
    notes = list(base["check"]["messages"])
    for i, (a, b) in enumerate(zip(base["reps"], traced["reps"])):
        attempted += a["points"] + b["points"]
        failed += a["failed"] + b["failed"]
        if a["digest"] != b["digest"]:
            failed += b["points"]
            notes.append(f"rep {i}: traced outputs differ from untraced")
    attempted += base["check"]["points"]
    failed += base["check"]["failed"]
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    untraced_s = sum(r["host_seconds"] for r in base["reps"])
    traced_s = sum(r["host_seconds"] for r in traced["reps"])
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    info = {"reps": len(base["reps"]), "untraced_s": untraced_s,
            "traced_s": traced_s}
    return metrics, attempted, failed, notes, info, traced["versions"]


def run_one(spec, name, seed, seconds, trace):
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if trace:
        out = run_traced(name, seed, deadline)
        declared = spec["per_layer"]
    else:
        out = run_untraced(name, seed, seconds, deadline)
        declared = spec["end_to_end"]
    produced = {k: unit for k, (_, unit) in out[0].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    if produced != expected:
        raise BenchError(f"metrics {produced} do not match "
                         f"BENCHMARK.json {expected}")
    return out


def report(name, seed, trace, out):
    """Print one workload's metrics and save them with the run metadata."""
    metrics, attempted, failed, notes, info, versions = out
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"{name:12s} {key:32s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"{name:12s} FAILED {note}")
    meta = {"workload": name, "seed": seed, "trace": trace,
            "git_commit": git_commit(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), **versions}
    print(f"{name:12s} meta {json.dumps(meta)}")
    print(f"{name:12s} info {json.dumps(info)}")
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "info": info, "attempted": attempted,
                   "failed": failed, "notes": notes,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}},
                  fh, indent=1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}, the "
                    "reference seed; 97 is held out for re-checking claims)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        with open(SPEC_PATH, encoding="utf-8") as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        if args.workload == "all":
            runs = [(n, t) for n in names for t in (0, 1)]
        elif args.workload in names:
            runs = [(args.workload, args.trace)]
        else:
            ap.error(f"unknown workload {args.workload!r}; one of {names}")
        combined = {}
        attempted = failed = 0
        for name, trace in runs:
            out = run_one(spec, name, args.seed, seconds, trace)
            report(name, args.seed, trace, out)
            attempted += out[1]
            failed += out[2]
            prefix = f"{name}/" if args.workload == "all" else ""
            combined.update({prefix + k: {"value": v, "unit": u}
                             for k, (v, u) in out[0].items()})
    except (OSError, ValueError, KeyError, BenchError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
