"""Seeded Monte-Carlo BER simulation of coded and uncoded scenarios.

A scenario is a flat key = value config (channel geometry, code,
detector family, schedule, SNR grid, estimation settings, trial
budget).  Frames are simulated independently with per-trial seeds
derived from (master seed, SNR index, trial index), so results are
reproducible bit-for-bit regardless of how many workers split the
trials.  Error counts are recorded per (SNR, outer iteration, user)
and written as CSV; joint-estimation runs also emit the per-iteration
noise-variance and amplitude-error trajectories.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (ChannelInstance, SymbolBlock, make_equicorrelated,
                      make_random_spreading, transmit)
from .coding import ConvCode, ConvTurboDecoder, IdentityDecoder
from .errors import ConfigError
from .siso_ddf import (AMPLITUDE_DESCENDING, DdfPrecompute, ddf_aided_discrete,
                       ddf_pass_block, detection_order)
from .siso_discrete import run_schedule_disc, tanh_sic_block
from .siso_gaussian import run_schedule_gauss
from .varem import DISCRETE, GAUSSIAN, EmState, initial_sigma2, run_varem

OUT_DIR_ENV = "TURBOMUD_OUT_DIR"

_ROUND_FRAMES = 16  # stop conditions are checked between rounds

DETECTORS = ("gaussian", "discrete", "ddf", "ddf_aided")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a simulation run needs, parseable from flat text."""

    channel: str = "equicorrelated"      # equicorrelated | random
    users: int = 4
    rho: float = 0.7
    spreading_gain: int = 32             # random spreading only
    coded: bool = True
    generators: str = "10011,11101"
    info_bits: int = 256                 # per user per frame
    detector: str = "gaussian"
    schedule: str = "flooding"
    outer_iterations: int = 5            # J
    inner_iterations: int = 6            # I (discrete families)
    ddf_order: str = AMPLITUDE_DESCENDING
    snr_db: tuple = (4.0, 5.0, 6.0)
    snr_fixed: dict = field(default_factory=dict)  # 1-based user -> dB pin
    varsigma: float = 0.0                # 0 disables amplitude estimation
    estimate_sigma2: bool = False
    seed: int = 1
    max_frames: int = 100
    min_error_events: int = 100
    frame_cap: int = 400
    workers: int = 1

    def validate(self):
        if self.channel not in ("equicorrelated", "random"):
            raise ConfigError(f"channel: unknown kind {self.channel!r}")
        if self.users < 1:
            raise ConfigError("users: must be >= 1")
        if self.channel == "equicorrelated" and not 0 <= self.rho < 1:
            raise ConfigError(f"rho: {self.rho} outside [0, 1)")
        if self.channel == "random" and self.users > self.spreading_gain:
            raise ConfigError("spreading_gain: must be >= users")
        if self.detector not in DETECTORS:
            raise ConfigError(f"detector: unknown detector {self.detector!r}")
        if self.schedule not in ("flooding", "sequential", "hybrid"):
            raise ConfigError(f"schedule: unknown schedule {self.schedule!r}")
        if self.outer_iterations < 1:
            raise ConfigError("outer_iterations: must be >= 1")
        if len(self.snr_db) == 0:
            raise ConfigError("snr_db: grid must be nonempty")
        if self.info_bits < 1:
            raise ConfigError("info_bits: must be >= 1")
        if self.max_frames < 1 or self.frame_cap < self.max_frames:
            raise ConfigError("max_frames/frame_cap: need cap >= budget >= 1")
        if self.coded:
            gens = tuple(self.generators.split(","))
            try:
                ConvCode(generators=gens)
            except ValueError as exc:
                raise ConfigError(f"generators: {exc}") from None
        for k in self.snr_fixed:
            if not 1 <= k <= self.users:
                raise ConfigError(f"snr_fixed: user {k} out of range")
        if self.detector == "ddf" and self.coded:
            raise ConfigError("detector: plain ddf is supported uncoded only")
        if self.detector == "ddf" and self.outer_iterations != 1:
            raise ConfigError("outer_iterations: plain ddf is a single pass")
        _order_policy(self.ddf_order, self.users)
        return self


def _order_policy(order_str, users):
    """Config detection order -> policy accepted by ``detection_order``.

    Named policies pass through; ``custom:2,1`` lists 1-based user
    indices in detection order.
    """
    if order_str.startswith("custom:"):
        try:
            perm = [int(s) - 1 for s in order_str[len("custom:"):].split(",")]
        except ValueError:
            raise ConfigError(f"ddf_order: bad permutation {order_str!r}") \
                from None
        if sorted(perm) != list(range(users)):
            raise ConfigError(f"ddf_order: {order_str!r} is not a "
                              f"permutation of 1..{users}")
        return np.asarray(perm)
    if order_str not in (AMPLITUDE_DESCENDING, "as_given"):
        raise ConfigError(f"ddf_order: unknown policy {order_str!r}")
    return order_str


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def parse_kv_text(text):
    """Flat ``key = value`` lines with # comments -> dict of value strings."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val
    return values


def read_kv_file(path):
    """``parse_kv_text`` of a file; unreadable files are config errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_kv_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def parse_config_text(text):
    """Flat ``key = value`` lines with # comments -> ScenarioConfig."""
    return config_from_dict(parse_kv_text(text))


def config_from_dict(values):
    kwargs = {}
    valid = {f.name: f.type for f in fields(ScenarioConfig)}
    for key, val in values.items():
        if key not in valid:
            raise ConfigError(f"{key}: unknown config key")
        if key == "snr_db":
            try:
                kwargs[key] = tuple(float(s) for s in str(val).split(","))
            except ValueError:
                raise ConfigError(f"snr_db: bad grid {val!r}") from None
        elif key == "snr_fixed":
            pins = {}
            try:
                for part in str(val).split(","):
                    if not part.strip():
                        continue
                    user, db = part.split(":")
                    pins[int(user)] = float(db)
            except ValueError:
                raise ConfigError(f"snr_fixed: bad pin list {val!r}") from None
            kwargs[key] = pins
        elif key in ("coded", "estimate_sigma2"):
            try:
                kwargs[key] = _BOOL[str(val).strip().lower()]
            except KeyError:
                raise ConfigError(f"{key}: not a boolean: {val!r}") from None
        elif key in ("rho", "varsigma"):
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ConfigError(f"{key}: not a number: {val!r}") from None
        elif key in ("users", "spreading_gain", "info_bits", "seed",
                     "outer_iterations", "inner_iterations", "max_frames",
                     "min_error_events", "frame_cap", "workers"):
            try:
                kwargs[key] = int(val)
            except ValueError:
                raise ConfigError(f"{key}: not an integer: {val!r}") from None
        else:
            kwargs[key] = str(val)
    try:
        return ScenarioConfig(**kwargs).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path):
    return config_from_dict(read_kv_file(path))


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

PRESETS = {
    "scenario-i": dict(
        channel="equicorrelated", users=4, rho=0.7, coded=True,
        generators="10011,11101", info_bits=256, detector="gaussian",
        schedule="flooding", outer_iterations=5,
        snr_db="1,2,3,4,5,6", max_frames=50, frame_cap=200),
    "scenario-ii": dict(
        channel="random", spreading_gain=32, users=32, coded=True,
        generators="111,101", info_bits=256, detector="gaussian",
        schedule="flooding", outer_iterations=10, estimate_sigma2=True,
        varsigma=0.3, snr_db="3,4,5,6,7", max_frames=30, frame_cap=120),
    "ddf-two-user": dict(
        channel="equicorrelated", users=2, rho=0.7, coded=False,
        info_bits=2048, detector="ddf_aided", schedule="flooding",
        outer_iterations=5, ddf_order=AMPLITUDE_DESCENDING,
        snr_db="11,12,13,14,15,16,17,18,19,20", snr_fixed="2:11",
        max_frames=50, frame_cap=200),
}


def preset_config(name):
    key = name.removeprefix("presets/")
    if key not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; try one of "
                          + ", ".join(sorted(PRESETS)))
    return config_from_dict(PRESETS[key])


def resolve_config(path_or_preset):
    name = str(path_or_preset)
    key = name.removeprefix("presets/")
    if key in PRESETS:
        return preset_config(key)
    if os.path.exists(name):
        return load_config(name)
    raise ConfigError(f"no config file or preset named {name!r}")


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

class BerReport:
    """Error counts per (snr_db, iteration, user) plus EM trajectories."""

    def __init__(self):
        self.cells = {}
        self.em = {}

    def add_errors(self, snr_db, iteration, user, bits, errors):
        cell = self.cells.setdefault((snr_db, iteration, user), [0, 0])
        cell[0] += int(bits)
        cell[1] += int(errors)

    def add_em(self, snr_db, iteration, sigma2_hat, a_rmse):
        row = self.em.setdefault((snr_db, iteration), [0.0, 0.0, 0])
        row[0] += float(sigma2_hat)
        row[1] += float(a_rmse)
        row[2] += 1

    def bits(self, snr_db, iteration, user=None):
        return sum(v[0] for (s, i, u), v in self.cells.items()
                   if s == snr_db and i == iteration
                   and (user is None or u == user))

    def errors(self, snr_db, iteration, user=None):
        return sum(v[1] for (s, i, u), v in self.cells.items()
                   if s == snr_db and i == iteration
                   and (user is None or u == user))

    def ber(self, snr_db, iteration, user=None):
        bits = self.bits(snr_db, iteration, user)
        return self.errors(snr_db, iteration, user) / bits if bits else np.nan

    def ci95(self, snr_db, iteration, user=None):
        bits = self.bits(snr_db, iteration, user)
        if not bits:
            return np.nan
        p = self.ber(snr_db, iteration, user)
        return 1.96 * np.sqrt(max(p * (1.0 - p), 0.0) / bits)

    def stderr(self, snr_db, iteration, user=None):
        return self.ci95(snr_db, iteration, user) / 1.96

    def to_csv(self, path):
        lines = ["snr_db,iteration,user,bits,errors,ber,ci95"]
        for (s, i, u) in sorted(self.cells):
            bits, errors = self.cells[(s, i, u)]
            ber = errors / bits if bits else float("nan")
            ci = 1.96 * np.sqrt(max(ber * (1 - ber), 0.0) / bits) if bits \
                else float("nan")
            lines.append(f"{s:g},{i},{u},{bits},{errors},{ber:.10e},{ci:.10e}")
        _write_text(path, "\n".join(lines) + "\n")

    def em_to_csv(self, path):
        lines = ["snr_db,iteration,sigma2_hat,a_hat_rmse"]
        for (s, i) in sorted(self.em):
            tot_s2, tot_rmse, n = self.em[(s, i)]
            lines.append(f"{s:g},{i},{tot_s2 / n:.10e},{tot_rmse / n:.10e}")
        _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text):
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ----------------------------------------------------------------------
# per-frame simulation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _PointContext:
    """Immutable per-SNR-point context shipped to worker processes."""

    cfg: ScenarioConfig
    ch: ChannelInstance
    snr_db: float
    snr_index: int


def _build_spreading(cfg):
    if cfg.channel == "equicorrelated":
        return make_equicorrelated(cfg.users, cfg.rho).S
    return make_random_spreading(cfg.spreading_gain, cfg.users,
                                 seed=[cfg.seed, 0xC0DE]).S


_NOISELESS_FLOOR = 1e-9  # detector-side variance when the grid says "inf"


def _point_channel(cfg, S, snr_db):
    """Channel at one SNR grid point: swept users at snr_db, pins fixed.

    SNR_k = A_k^2 / sigma2; swept users have unit amplitude and the
    noise variance realizes snr_db, pinned users get the amplitude that
    holds their SNR at the pinned value.  snr_db = inf means a noiseless
    channel; detection then runs at a tiny variance floor so LLR scale
    factors stay finite.
    """
    sigma2 = max(10.0 ** (-snr_db / 10.0), _NOISELESS_FLOOR)
    amps = np.ones(cfg.users)
    for user, db in cfg.snr_fixed.items():
        amps[user - 1] = np.sqrt(10.0 ** (db / 10.0) * sigma2)
    return ChannelInstance(N=S.shape[0], K=S.shape[1], S=S, a=amps,
                           sigma2=sigma2)


def _frame_decisions(ctx, obs, decoder, rng):
    """Run the configured detector; per-iteration symbol/info decisions.

    Returns (decisions, em_rows) where decisions has shape
    (J, n_counted, K) in +/-1 and em_rows is a list of
    (iteration, sigma2_hat, a_rmse) or None.
    """
    cfg = ctx.cfg
    ch = ctx.ch
    J = cfg.outer_iterations
    if cfg.estimate_sigma2 or cfg.varsigma > 0:
        a_tilde = np.ones(ch.K) if cfg.varsigma == 0 else \
            1.0 + rng.standard_normal(ch.K) * cfg.varsigma
        state0 = EmState(
            a_hat=a_tilde.copy(),
            sigma2_hat=initial_sigma2(obs, a_tilde, ch.N)
            if cfg.estimate_sigma2 else ch.sigma2,
            a_tilde=a_tilde, varsigma2=cfg.varsigma**2, T=obs.r.shape[0])
        family = GAUSSIAN if cfg.detector == "gaussian" else DISCRETE
        frames, traj = run_varem(
            ch, obs, family, cfg.schedule, J, decoder, state0,
            update_amplitudes=cfg.varsigma > 0,
            update_sigma2=cfg.estimate_sigma2, I=cfg.inner_iterations,
            ddf_seed=cfg.detector == "ddf_aided",
            order_policy=_order_policy(cfg.ddf_order, ch.K))
        em_rows = [(j + 1, traj[j + 1].sigma2_hat,
                    float(np.sqrt(np.mean((traj[j + 1].a_hat - ch.a) ** 2))))
                   for j in range(J)]
        return _decisions_from_frames(cfg, frames), em_rows

    if cfg.detector == "gaussian":
        frames = run_schedule_gauss(ch, obs, decoder, cfg.schedule, J)
    elif cfg.detector == "discrete":
        frames = run_schedule_disc(ch, obs, decoder, cfg.schedule, J,
                                   I=cfg.inner_iterations)
    elif cfg.detector == "ddf_aided" and cfg.coded:
        frames = ddf_aided_discrete(ch, obs, decoder, cfg.schedule, J,
                                    I=cfg.inner_iterations,
                                    order_policy=_order_policy(cfg.ddf_order, ch.K))
    else:
        return _uncoded_ddf_decisions(cfg, ch, obs), None
    return _decisions_from_frames(cfg, frames), None


def _decisions_from_frames(cfg, frames):
    if cfg.coded:
        return np.array([np.sign(np.stack(f.info_posterior, axis=1))
                         for f in frames])
    return np.array([np.sign(f.llr_post) for f in frames])


def _uncoded_ddf_decisions(cfg, ch, obs):
    """Plain DDF pass, then optional mean-field sweeps (ddf_aided)."""
    order = detection_order(ch, _order_policy(cfg.ddf_order, ch.K))
    pre = DdfPrecompute.from_channel(ch, order)
    ybar = pre.whiten(ch, obs.y)
    T = obs.r.shape[0]
    M, _ = ddf_pass_block(ch, ybar, np.zeros((T, ch.K)), pre)
    out = [np.sign(M)]
    if cfg.detector == "ddf_aided":
        hist = tanh_sic_block(ch, obs.r, cfg.outer_iterations - 1, m0=M,
                              record=True)
        out.extend(np.sign(m) for m in hist)
    return np.array(out)


def _simulate_point_frames(ctx, trial_indices):
    """Simulate the given trials at one SNR point; integer error counts.

    Returns (errors[J, K], bits_per_user, per-trial EM rows).  EM rows
    stay keyed by trial so the caller can reduce them in trial order
    (float sums must not depend on how trials were chunked).
    """
    cfg = ctx.cfg
    ch = ctx.ch
    J = cfg.outer_iterations
    errors = np.zeros((J, ch.K), dtype=np.int64)
    em_acc = {}
    bits = 0
    for trial in trial_indices:
        rng = np.random.default_rng([cfg.seed, ctx.snr_index, trial])
        if cfg.coded:
            code = ConvCode(generators=tuple(cfg.generators.split(",")))
            decoder = ConvTurboDecoder(code, ch.K, cfg.info_bits,
                                       master_seed=cfg.seed)
            info = rng.integers(0, 2, size=(cfg.info_bits, ch.K))
            blk = SymbolBlock(b=decoder.encode_block(info))
            truth = 1.0 - 2.0 * info
        else:
            decoder = IdentityDecoder()
            truth = rng.integers(0, 2, size=(cfg.info_bits, ch.K)) * 2.0 - 1.0
            blk = SymbolBlock(b=truth)
        obs = transmit(ch, blk, rng_seed=[cfg.seed, ctx.snr_index, trial, 1])
        decisions, em_rows = _frame_decisions(ctx, obs, decoder, rng)
        errors += np.sum(decisions != truth[None, :, :], axis=1)
        bits += truth.shape[0]
        if em_rows:
            em_acc[trial] = em_rows
    return errors, bits, em_acc


def run_scenario(cfg):
    """Monte-Carlo BER of one scenario over its SNR grid.

    Per SNR point, frames run in fixed-size rounds until the trial
    budget is reached and every iteration has collected the requested
    error events (or the frame cap stops the point).  Deterministic in
    (config, seed) regardless of worker count.
    """
    cfg.validate()
    S = _build_spreading(cfg)
    report = BerReport()
    pool = ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else None
    try:
        for si, snr in enumerate(cfg.snr_db):
            ctx = _PointContext(cfg=cfg, ch=_point_channel(cfg, S, snr),
                                snr_db=snr, snr_index=si)
            _run_point(ctx, report, pool)
    finally:
        if pool is not None:
            pool.shutdown()
    return report


def _run_point(ctx, report, pool):
    cfg = ctx.cfg
    done = 0
    errors = np.zeros((cfg.outer_iterations, ctx.ch.K), dtype=np.int64)
    em_by_trial = {}
    while True:
        if done >= cfg.frame_cap:
            break
        enough_errors = np.min(np.sum(errors, axis=1)) >= cfg.min_error_events
        if done >= cfg.max_frames and enough_errors:
            break
        n = min(_ROUND_FRAMES, cfg.frame_cap - done)
        trials = list(range(done, done + n))
        if pool is None:
            batches = [_simulate_point_frames(ctx, trials)]
        else:
            chunks = [c.tolist() for c in
                      np.array_split(np.asarray(trials), cfg.workers)]
            batches = list(pool.map(_simulate_point_frames,
                                    [ctx] * len(chunks), chunks))
        for err, bits, em_acc in batches:
            # integer counts: exact under any summation order
            errors += err
            for j in range(cfg.outer_iterations):
                for k in range(ctx.ch.K):
                    report.add_errors(ctx.snr_db, j + 1, k + 1, bits,
                                      err[j, k])
            em_by_trial.update(em_acc)
        done += n
    # float reductions in trial order, independent of worker chunking
    for trial in sorted(em_by_trial):
        for (iteration, s2, rmse) in em_by_trial[trial]:
            report.add_em(ctx.snr_db, iteration, s2, rmse)


def single_user_bound(cfg):
    """Same code and SNR grid with a single user and perfect knowledge."""
    solo = replace(cfg, users=1, channel="equicorrelated", rho=0.0,
                   snr_fixed={}, varsigma=0.0, estimate_sigma2=False,
                   detector="gaussian", schedule="flooding",
                   outer_iterations=1 if not cfg.coded else
                   cfg.outer_iterations)
    return run_scenario(solo)
