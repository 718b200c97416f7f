"""SHA-256 digests of the CSVs of a fixed matrix of small seeded runs.

Every config below is a small fixed-seed harness run.  The script runs
them all and prints one ``sha256  name`` line per BER CSV and per EM
trajectory CSV (``_em.csv``), then one ``sha256  bcjr-<case>`` line per
case of a fixed seeded ``bcjr_decode`` corpus, over the shapes and bytes
of its extrinsic, posterior and info posterior.  No harness run reaches the
decoder's log domain (the detectors clamp LLRs at 30, below the
probability-domain bound); the corpus does.  Last come the
``llr-<detector>-<schedule>-<coded|uncoded>[-em[-reordered]]`` lines,
one per ``run_varem`` case, over the bytes of every frame's detector,
decoder and posterior LLRs and info posteriors and of the EM
trajectory: these see LLR moves that no decision flips.  A change that
must not move any result gives the same output under the old and the
new ``src/``:

    PYTHONPATH=src python3 scripts/csv_digests.py > new.txt
    PYTHONPATH=/path/to/old/src python3 scripts/csv_digests.py > old.txt
    diff old.txt new.txt

Without PYTHONPATH the package next to this script is used; the
directory it was imported from goes to stderr.  BLAS runs on one thread.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import turbomud  # noqa: E402
from turbomud.channel import (SymbolBlock,  # noqa: E402
                              make_equicorrelated, transmit)
from turbomud.coding import (BLOCK_NATS, LLR_LIMIT, ConvCode,  # noqa: E402
                             ConvTurboDecoder, IdentityDecoder, bcjr_decode,
                             encode)
from turbomud.harness import config_from_dict, run_scenario  # noqa: E402
from turbomud.siso_gaussian import SCHEDULES  # noqa: E402
from turbomud.varem import DETECTORS, EmState, run_varem  # noqa: E402

# K = 4 at rho 0.7 (scenario-i's geometry and code); the 5 frames of a
# point run as two stacked groups of 2 and a remainder.  20 dB is in the
# mean-field high-SNR collapse, where decisions sit at LLR ties.
BASE = dict(channel="equicorrelated", users=4, rho=0.7,
            generators="10011,11101", outer_iterations=3,
            inner_iterations=3, snr_db="2,5,20", seed=11, max_frames=5,
            min_error_events=0, frame_cap=5)
CODED = dict(coded=True, info_bits=256)
UNCODED = dict(coded=False, info_bits=1500)
EM = dict(estimate_sigma2=True, varsigma=0.3, max_frames=2, frame_cap=2)


def configs():
    """(name, config overrides of BASE) of every run, in output order."""
    for det in ("gaussian", "discrete", "ddf_aided"):
        for sched in ("flooding", "sequential", "hybrid"):
            for kind, over in (("coded", CODED), ("uncoded", UNCODED)):
                yield f"{det}-{sched}-{kind}", dict(
                    over, detector=det, schedule=sched)
    # the DDF pass alone; unequal amplitudes, so the two orders differ
    for order in ("amplitude_descending", "as_given"):
        yield f"ddf-{order}", dict(UNCODED, detector="ddf_aided",
                                   outer_iterations=1, ddf_order=order,
                                   snr_db="6,10", snr_fixed="2:12,3:9")
    # DDF then tanh-SIC in a custom order, neither the labels' nor the
    # amplitudes': the whitening reads y's columns in that order
    yield "ddf_aided-custom-uncoded", dict(
        UNCODED, detector="ddf_aided", ddf_order="custom:3,1,4,2",
        snr_db="6,10", snr_fixed="2:12,3:9")
    for det, sched in (("gaussian", "hybrid"), ("discrete", "flooding"),
                       ("ddf_aided", "sequential")):
        yield f"em-{det}-{sched}", dict(CODED, **EM, detector=det,
                                        schedule=sched, snr_db="3,30",
                                        info_bits=96)
    # sigma2-only EM: varsigma = 0 pins the amplitudes to a_tilde
    for det, sched in (("gaussian", "sequential"), ("discrete", "hybrid"),
                       ("ddf_aided", "flooding")):
        yield f"em-sigma2-{det}-{sched}", dict(
            CODED, **dict(EM, varsigma=0.0), detector=det, schedule=sched,
            snr_db="3,30", info_bits=96)
    yield "pinned-discrete-hybrid", dict(CODED, detector="discrete",
                                         schedule="hybrid", snr_fixed="1:8")
    # EM with a pinned user, whose start amplitude is the pinned one
    for name, em in (("sigma2", dict(EM, varsigma=0.0)), ("sigma2-amp", EM)):
        yield f"pinned-em-{name}-gaussian-flooding", dict(
            CODED, **em, users=2, detector="gaussian", schedule="flooding",
            snr_fixed="2:8", snr_db="14,20")
    yield "random-k6-n8-gaussian-sequential", dict(
        CODED, channel="random", users=6, spreading_gain=8,
        detector="gaussian", schedule="sequential")
    # K = 10 random spreading: the Gaussian factors invert by two full
    # blocks of 4 rows and a two-row tail, shared and leave-one-out
    for sched in ("flooding", "sequential"):
        yield f"random-k10-n12-gaussian-{sched}", dict(
            CODED, channel="random", users=10, spreading_gain=12,
            detector="gaussian", schedule=sched)
    # scenario-ii's geometry: the K = 32 Gaussian kernels, flooding and
    # (sequential) leave-one-out, under sigma2 + amplitude EM
    for sched in ("flooding", "sequential"):
        yield f"random-k32-gaussian-{sched}-em", dict(
            CODED, **EM, channel="random", users=32, spreading_gain=32,
            generators="111,101", info_bits=64, snr_db="3,30",
            detector="gaussian", schedule=sched)
    # mud-k32's geometry uncoded: the K = 32 mean-field sweeps (sequential)
    # and the shared Gaussian solve (hybrid runs it as flooding)
    for det, sched in (("discrete", "sequential"), ("gaussian", "hybrid")):
        yield f"random-k32-{det}-{sched}-uncoded", dict(
            UNCODED, channel="random", users=32, spreading_gain=32,
            info_bits=64, outer_iterations=5, snr_db="6",
            detector=det, schedule=sched)
    # and the uncoded DDF pass then tanh-SIC on it: 31 back-substitution rows
    yield "random-k32-ddf_aided-uncoded", dict(
        UNCODED, channel="random", users=32, spreading_gain=32, info_bits=64,
        snr_db="6", detector="ddf_aided")
    # near-far-k2's regime: K = 2 with user 2 pinned at 11 dB, so the
    # DDF means sit at the clamp; groups of 2 and a remainder
    yield "near-far-ddf_aided", dict(UNCODED, detector="ddf_aided", users=2,
                                     snr_fixed="2:11", snr_db="11,17")
    # snr_db = inf is noiseless: user 2, pinned at -10 dB against the
    # detection floor, is sent without chip noise and decodes error-free
    yield "noiseless-pinned-gaussian-flooding", dict(
        CODED, detector="gaussian", schedule="flooding", users=2,
        snr_fixed="2:-10", snr_db="inf")
    # on a pool of two: 7 frames make groups of 2, 2, 2 and a short 1
    yield "pooled-ddf_aided-uncoded", dict(UNCODED, detector="ddf_aided",
                                           workers=2, max_frames=7,
                                           frame_cap=7)
    # coded on a pool of two: the run's decoder and the shared geometry
    # go to the workers by pickling
    yield "pooled-gaussian-flooding-coded", dict(CODED, detector="gaussian",
                                                 schedule="flooding",
                                                 workers=2)
    # EM on a pool of two: the 5 single-frame groups of a point split
    # unevenly, and the EM rows still reach the report in trial order
    yield "pooled-em-gaussian-hybrid", dict(
        dict(CODED, **EM), detector="gaussian", schedule="hybrid", workers=2,
        max_frames=5, frame_cap=5)


def bcjr_cases():
    """(name, code, channel LLRs) of every BCJR case.

    Terminated codes of memory 1 to 4, B = 0, 1, 3 and 32 rows of 40 info
    bits.  Rows cycle through scales: a codeword with 3 % of its signs
    flipped, every LLR just over and just under the probability-domain
    bound BLOCK_NATS / (4.5 M) and at LLR_LIMIT, then Gaussian LLRs of
    standard deviation 0.5, 3 and 30.
    """
    rng = np.random.default_rng(20)
    n_info = 40
    for gens in (("11", "01"), ("111", "101"), ("1101", "1011"),
                 ("10011", "11101")):
        code = ConvCode(generators=gens)
        bound = BLOCK_NATS / (4.5 * max(code.memory, 1))
        scales = np.array([bound * (1 + 1e-9), LLR_LIMIT,
                           bound * (1 - 1e-9), 0.5, 3.0, 30.0])
        for B in (0, 1, 3, 32):
            tx = encode(code, rng.integers(0, 2, size=(32, n_info)))[:B]
            flips = np.where(rng.random(tx.shape) < 0.03, -1.0, 1.0)
            rows = np.arange(B) % 6
            Lc = rng.standard_normal(tx.shape)
            Lc[rows < 3] = (flips * tx)[rows < 3]
            Lc *= scales[rows, None]
            yield f"bcjr-m{code.memory}-b{B}", code, Lc


def llr_cases():
    """(name, ``run_varem`` positional arguments) of every LLR-level case.

    K = 4 at rho 0.7 with unequal amplitudes, so the DDF order is not the
    labels', and sigma2 = 0.4; J = 3 outer iterations (I = 2 inner ones
    is the caller's).  Every detector and schedule runs coded (40 info
    bits of the 10011,11101 code, master seed 2) and uncoded (40 symbols
    through ``IdentityDecoder``), with the true parameters and with
    sigma2 + amplitude EM from a_tilde = 1.1 a, sigma2_hat = 2 sigma2
    and varsigma^2 = 0.09.  Last, ``ddf_aided`` runs coded under each
    schedule with that EM from a_tilde = a [1.5, 0.7, 1.0, 1.2], whose
    amplitude order is not the true one: the DDF seed of iteration 1
    detects in the estimated channel's order.
    """
    ch = make_equicorrelated(4, 0.7, amplitudes=[0.8, 1.2, 1.0, 0.9],
                             sigma2=0.4)
    bits = np.random.default_rng(21).integers(0, 2, size=(40, 4))
    coder = ConvTurboDecoder(ConvCode(generators=("10011", "11101")), 4, 40,
                             master_seed=2)
    em = EmState(a_hat=1.1 * ch.a, a_tilde=1.1 * ch.a, varsigma2=0.09,
                 sigma2_hat=2.0 * ch.sigma2, estimate_sigma2=True)
    for kind, decoder, b in (("coded", coder, coder.encode_block(bits)),
                             ("uncoded", IdentityDecoder(), 1.0 - 2.0 * bits)):
        obs = transmit(ch, SymbolBlock(b=b), rng_seed=22)
        for det in DETECTORS:
            for sched in SCHEDULES:
                for tag, state0 in (("", None), ("-em", em)):
                    yield (f"llr-{det}-{sched}-{kind}{tag}",
                           (ch, obs, det, sched, 3, decoder, state0))
    obs = transmit(ch, SymbolBlock(b=coder.encode_block(bits)), rng_seed=22)
    a_tilde = ch.a * np.array([1.5, 0.7, 1.0, 1.2])
    reordered = EmState(a_hat=a_tilde, a_tilde=a_tilde, varsigma2=0.09,
                        sigma2_hat=2.0 * ch.sigma2, estimate_sigma2=True)
    for sched in SCHEDULES:
        yield (f"llr-ddf_aided-{sched}-coded-em-reordered",
               (ch, obs, "ddf_aided", sched, 3, coder, reordered))


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    print(f"# turbomud from {Path(turbomud.__file__).parent}",
          file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name, over in configs():
            report = run_scenario(config_from_dict(dict(BASE, **over)))
            csv = Path(tmp, f"{name}.csv")
            report.to_csv(csv)
            print(f"{_sha256(csv)}  {csv.name}")
            if report.em:
                em = Path(tmp, f"{name}_em.csv")
                report.em_to_csv(em)
                print(f"{_sha256(em)}  {em.name}")
    for name, code, Lc in bcjr_cases():
        res = bcjr_decode(code, Lc)
        out = (res.extrinsic, res.posterior, res.info_posterior)
        # the shapes first, so that the empty batches differ by code
        data = repr([a.shape for a in out]).encode() \
            + b"".join(a.tobytes() for a in out)
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    for name, args in llr_cases():
        frames, trajectory = run_varem(*args, I=2)
        out = [a for f in frames for a in (f.llr_mud, f.llr_dec, f.llr_post,
                                           np.stack(f.info_posterior))]
        out += [np.append(st.a_hat, st.sigma2_hat) for st in trajectory]
        data = b"".join(a.tobytes() for a in out)
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
