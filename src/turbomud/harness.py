"""Seeded Monte-Carlo BER simulation of coded and uncoded scenarios.

A scenario is a flat key = value config (channel geometry, code,
detector family, schedule, SNR grid, estimation settings, trial
budget).  Frames draw bits and noise from per-trial seeds derived
from (master seed, SNR index, trial index) and run in fixed groups of
consecutive trials, each group one ``receive`` and one stacked
detector pass.  A round
maps one group function over its groups, in process or on a pool, so
results are bit-for-bit the same for any worker count.  One record
per SNR point holds its (iteration, user) error counts, written as CSV;
joint-estimation runs also emit the per-iteration noise-variance and
amplitude-error trajectories.

``detector`` and ``coded`` alone choose a group's pipeline: the uncoded
DDF pass, or one ``varem.run_varem`` turbo run whose joint estimation,
when off, starts from the true parameters and updates none of them.
"""

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (ChannelInstance, SymbolBlock, make_equicorrelated,
                      make_random_spreading, receive)
from .coding import ConvCode, ConvTurboDecoder, IdentityDecoder
from .errors import ConfigError
from .siso_ddf import (AMPLITUDE_DESCENDING, AS_GIVEN, DdfPrecompute,
                       ddf_pass_block)
from .siso_discrete import DEFAULT_INNER_ITERS, tanh_sic_block
from .siso_gaussian import SCHEDULES
from .varem import (DDF_AIDED, DETECTORS, SIGMA2_FLOOR, EmState,
                    initial_sigma2, run_varem)

OUT_DIR_ENV = "TURBOMUD_OUT_DIR"

_ROUND_FRAMES = 16  # stop conditions are checked between rounds

# A group of frames runs as one stacked block of at most this many symbol
# intervals: the largest power-of-two frame count within it that divides
# _ROUND_FRAMES.  Past it the group arrays outgrow what the allocator
# reuses, and fresh pages cost more than the per-call overhead saved.
_GROUP_INTERVALS = 4096

# |dB| bound of finite SNRs and pins: every amplitude and noise variance
# it implies is a finite positive double
DB_LIMIT = 300.0


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
    schedule: str = "flooding"           # unused by uncoded ddf_aided
    outer_iterations: int = 5            # J
    # I (discrete families); unused by uncoded ddf_aided, one sweep per J
    inner_iterations: int = DEFAULT_INNER_ITERS
    ddf_order: str = AMPLITUDE_DESCENDING
    snr_db: tuple = (4.0, 5.0, 6.0)
    snr_fixed: dict = field(default_factory=dict)  # 1-based user -> dB pin
    varsigma: float = 0.0                # relative amplitude error; 0: known
    estimate_sigma2: bool = False
    seed: int = 1
    max_frames: int = 100
    min_error_events: int = 100
    frame_cap: int = 400
    workers: int = 1

    @property
    def estimates(self):
        """Whether the run estimates sigma2 or the amplitudes (EM)."""
        return self.estimate_sigma2 or self.varsigma > 0

    @property
    def uncoded_ddf(self):
        """DDF + tanh-SIC: the runs without a turbo loop."""
        return not self.coded and self.detector == DDF_AIDED

    def validate(self):
        if not all(s == np.inf or abs(s) <= DB_LIMIT for s in self.snr_db):
            raise ConfigError(f"snr_db: values must lie within "
                              f"+/-{DB_LIMIT:g} dB or be +inf")
        if not all(abs(db) <= DB_LIMIT for db in self.snr_fixed.values()):
            raise ConfigError(f"snr_fixed: pins must lie within "
                              f"+/-{DB_LIMIT:g} dB")
        if not np.isfinite(self.rho):
            raise ConfigError("rho: must be finite")
        if not (np.isfinite(self.varsigma) and self.varsigma >= 0):
            raise ConfigError("varsigma: must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
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
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule: unknown schedule {self.schedule!r}")
        if self.outer_iterations < 1:
            raise ConfigError("outer_iterations: must be >= 1")
        if self.inner_iterations < 1:
            raise ConfigError("inner_iterations: must be >= 1")
        if len(self.snr_db) == 0:
            raise ConfigError("snr_db: grid must be nonempty")
        # 0 and -0 are one point; 4 and 4.0000001 are one CSV label
        if len(set(self.snr_db)) != len(self.snr_db) or \
                len({f"{s:g}" for s in self.snr_db}) != len(self.snr_db):
            raise ConfigError("snr_db: grid repeats a value or CSV label")
        if self.info_bits < 1:
            raise ConfigError("info_bits: must be >= 1")
        if self.max_frames < 1 or self.frame_cap < self.max_frames:
            raise ConfigError("max_frames/frame_cap: need cap >= budget >= 1")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")
        if self.coded:
            gens = tuple(self.generators.split(","))
            try:
                ConvCode(generators=gens)
            except ValueError as exc:
                raise ConfigError(f"generators: {exc}") from None
        for k in self.snr_fixed:
            if not 1 <= k <= self.users:
                raise ConfigError(f"snr_fixed: user {k} out of range")
        if self.uncoded_ddf and self.estimates:
            raise ConfigError("estimate_sigma2/varsigma: the uncoded "
                              "ddf_aided pass estimates nothing")
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
        if len(perm) != users or sorted(perm) != list(range(users)):
            raise ConfigError(f"ddf_order: {order_str!r} is not a "
                              f"permutation of 1..{users}")
        return np.asarray(perm)
    if order_str not in (AMPLITUDE_DESCENDING, AS_GIVEN):
        raise ConfigError(f"ddf_order: unknown policy {order_str!r}")
    return order_str


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def parse_kv_text(text):
    """Flat ``key = value`` lines with # comments -> dict of value strings.
    A repeated key is an error: keeping only the last would hide a typo."""
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in lines:
            raise ConfigError(f"line {lineno}: {key} repeats line "
                              f"{lines[key]}")
        values[key], lines[key] = val, lineno
    return values


def read_kv_file(path):
    """``parse_kv_text`` of a UTF-8 file (a leading byte-order mark is
    dropped); unreadable files are config errors."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_kv_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _grid(val):
    return tuple(float(s) for s in val.split(","))


def _pins(val):
    pins = {}
    for part in val.split(","):
        if part.strip():
            user, db = part.split(":")
            if int(user) in pins:  # pinned twice
                raise ValueError
            pins[int(user)] = float(db)
    return pins


# config field type -> (conversion of the value string, error wording)
_PARSERS = {tuple: (_grid, "bad grid"), dict: (_pins, "bad pin list"),
            bool: (lambda v: _BOOL[v.strip().lower()], "not a boolean"),
            float: (float, "not a number"), int: (int, "not an integer"),
            str: (str, "not a string")}


def parse_as(kind, key, val):
    """One value string -> a ``kind`` (a config field type); a value
    that does not parse is a config error naming ``key``."""
    parse, what = _PARSERS[kind]
    try:
        return parse(str(val))
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: {what}: {val!r}") from None


def parse_value(key, val):
    """One config value string -> the typed value of config key ``key``."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"{key}: unknown config key")
    return parse_as(_FIELD_TYPES[key], key, val)


def config_from_dict(values):
    kwargs = {key: parse_value(key, val) for key, val in values.items()}
    return ScenarioConfig(**kwargs).validate()


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
    if name.removeprefix("presets/") in PRESETS:
        return preset_config(name)
    if os.path.exists(name):
        return config_from_dict(read_kv_file(name))
    raise ConfigError(f"no config file or preset named {name!r}")


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def _ber_ci95(bits, errors):
    """BER and the half-width of its normal-approximation 95 % interval."""
    if not bits:
        return np.nan, np.nan
    ber = errors / bits
    return ber, 1.96 * np.sqrt(max(ber * (1.0 - ber), 0.0) / bits)


class BerReport:
    """Per SNR point, bits per user and errors (J, K); EM sums by point."""

    def __init__(self):
        self.points = {}
        self.em = {}

    def add_point(self, snr_db, bits, errors, em_rows):
        """Record one SNR point; its EM rows are summed in the order given."""
        self.points[snr_db] = int(bits), np.array(errors, dtype=np.int64)
        for iteration, sigma2_hat, a_rmse in em_rows:
            row = self.em.setdefault((snr_db, iteration), [0.0, 0.0, 0])
            row[0] += float(sigma2_hat)
            row[1] += float(a_rmse)
            row[2] += 1

    def _totals(self, snr_db, iteration, user):
        """(bits, errors) of one user's cell, or summed over all users;
        (0, 0) for an SNR, iteration or user the report does not hold."""
        bits, errors = self.points.get(snr_db, (0, ()))
        row = errors[int(iteration) - 1] \
            if iteration in range(1, len(errors) + 1) else ()
        hits = [int(e) for u, e in enumerate(row, 1) if user in (None, u)]
        return bits * len(hits), sum(hits)

    def bits(self, snr_db, iteration, user=None):
        return self._totals(snr_db, iteration, user)[0]

    def errors(self, snr_db, iteration, user=None):
        return self._totals(snr_db, iteration, user)[1]

    def ber(self, snr_db, iteration, user=None):
        return _ber_ci95(*self._totals(snr_db, iteration, user))[0]

    def ci95(self, snr_db, iteration, user=None):
        return _ber_ci95(*self._totals(snr_db, iteration, user))[1]

    def stderr(self, snr_db, iteration, user=None):
        return self.ci95(snr_db, iteration, user) / 1.96

    def to_csv(self, path):
        lines = ["snr_db,iteration,user,bits,errors,ber,ci95"]
        for s, (bits, errors) in sorted(self.points.items()):
            for (j, k), err in np.ndenumerate(errors):
                ber, ci = _ber_ci95(bits, int(err))
                lines.append(f"{s:g},{j + 1},{k + 1},{bits},{err},"
                             f"{ber:.10e},{ci:.10e}")
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
    """Immutable per-SNR-point context shipped to worker processes.

    The decoder, frame length and detection order are the run's, built
    once by ``run_scenario``; the channel shares the run's geometry, and
    the DDF factors are built once per point for its groups.
    """

    cfg: ScenarioConfig
    ch: ChannelInstance
    snr_index: int
    decoder: object  # ConvTurboDecoder coded, IdentityDecoder uncoded
    T: int           # symbol intervals of one frame
    order: object    # parsed ddf_order: a policy name or a permutation
    ddf_pre: object  # DdfPrecompute of the uncoded DDF pass, else None


def _build_spreading(cfg):
    """The run's channel at unit amplitudes; points copy its geometry."""
    if cfg.channel == "equicorrelated":
        return make_equicorrelated(cfg.users, cfg.rho)
    return make_random_spreading(cfg.spreading_gain, cfg.users,
                                 seed=[cfg.seed, 0xC0DE])


def _point_channel(cfg, base, snr_db):
    """Channel at one SNR grid point: swept users at snr_db, pins fixed.

    SNR_k = A_k^2 / sigma2; swept users have unit amplitude and the
    noise variance realizes snr_db, pinned users get the amplitude that
    holds their SNR at the pinned value.  snr_db = inf means a noiseless
    channel; detection then runs at the EM variance floor SIGMA2_FLOOR so
    LLR scale factors stay finite.  A finite snr_db above
    10 log10(1 / SIGMA2_FLOOR) = 90 dB is sent and detected at that floor,
    the same channel as 90 dB.
    """
    sigma2 = max(10.0 ** (-snr_db / 10.0), SIGMA2_FLOOR)
    amps = np.ones(cfg.users)
    for user, db in cfg.snr_fixed.items():
        amps[user - 1] = np.sqrt(10.0 ** (db / 10.0) * sigma2)
    return base.with_params(a=amps, sigma2=sigma2)


def _group_size(cfg, T):
    """Frames per group, from the symbol intervals T of one frame.

    EM runs use single frames: the M step and the amplitude prior draw
    are per frame.
    """
    if cfg.estimates:
        return 1
    G = 1
    while _ROUND_FRAMES % (2 * G) == 0 and 2 * G * T <= _GROUP_INTERVALS:
        G *= 2
    return G


def _group_decisions(ctx, obs, rng):
    """Run the configured detector over a block of stacked frames.

    Returns (decisions, em_rows): decisions (J, K, n_counted) is True
    where the sign of the final LLR or belief mean decides -1 (bit 1),
    and a tie at exactly 0 decides +1 (bit 0); em_rows is a list of
    (iteration, sigma2_hat, a_rmse), empty without EM.  Uncoded ddf_aided
    runs are one DDF pass, then J - 1 mean-field sweeps.
    Every turbo run is one ``run_varem`` call from one EmState built
    from the point's channel: prior a (1 + varsigma n), n drawn from
    ``rng`` (an EM group's one frame's), and ``initial_sigma2`` when
    sigma2 is estimated; without EM, the true parameters, none updated.
    """
    cfg, ch = ctx.cfg, ctx.ch
    J = cfg.outer_iterations
    if cfg.uncoded_ddf:
        M, _ = ddf_pass_block(ch, obs.y, None, ctx.ddf_pre, llr=False)
        decisions = np.empty((J,) + M.shape, dtype=bool)
        np.less(M, 0, out=decisions[0])
        if J > 1:  # at J = 1, tanh_sic_block would still fold H
            tanh_sic_block(ch, obs.r, J - 1, m0=M, signs=decisions[1:])
        return decisions, []
    a_tilde = ch.a * (1.0 + rng.standard_normal(ch.K) * cfg.varsigma)
    state0 = EmState(
        a_hat=a_tilde, a_tilde=a_tilde, varsigma2=cfg.varsigma**2,
        sigma2_hat=initial_sigma2(obs, a_tilde, ch.N)
        if cfg.estimate_sigma2 else ch.sigma2,
        estimate_sigma2=cfg.estimate_sigma2)
    frames, traj = run_varem(
        ch, obs, cfg.detector, cfg.schedule, J, ctx.decoder, state0,
        I=cfg.inner_iterations, order_policy=ctx.order)
    em_rows = [(j + 1, traj[j + 1].sigma2_hat,
                float(np.sqrt(np.mean((traj[j + 1].a_hat - ch.a) ** 2))))
               for j in range(J)] if cfg.estimates else []
    soft = [np.stack(f.info_posterior) for f in frames]
    return np.array(soft) < 0, em_rows


def _simulate_group(ctx, trials):
    """Simulate one group of consecutive trials at one SNR point.

    Each trial draws its bits and chip noise (none at snr_db = inf, a
    noiseless point) from its own seeds into its rows of the group's
    blocks; one ``receive`` forms the observation for a single detector
    pass and batched decodes.  Returns (errors[J, K], bits per user, EM
    rows); EM groups hold one trial.
    """
    cfg, ch, T, n, F = ctx.cfg, ctx.ch, ctx.T, ctx.cfg.info_bits, len(trials)
    b = np.empty((F * T, ch.K))
    noise = None if cfg.snr_db[ctx.snr_index] == np.inf \
        else np.empty((F * T, ch.N))
    truth = np.empty((ch.K, F * n), dtype=bool)  # is bit 1
    for f, trial in enumerate(trials):
        rows, cols = slice(f * T, (f + 1) * T), slice(f * n, (f + 1) * n)
        rng = np.random.default_rng([cfg.seed, ctx.snr_index, trial])
        draw = rng.integers(0, 2, size=(n, ch.K))
        if cfg.coded:  # the info bits
            b[rows] = ctx.decoder.encode_block(draw)
            truth[:, cols] = draw.T
        else:  # 1 is bit 0, the symbol +1
            np.subtract(np.multiply(draw, 2.0, out=b[rows]), 1.0,
                        out=b[rows])
            truth[:, cols] = (draw == 0).T
        if noise is not None:
            np.random.default_rng([cfg.seed, ctx.snr_index, trial, 1]) \
                .standard_normal(out=noise[rows])
    obs = receive(ch, SymbolBlock(b=b), noise, frames=F)
    decisions, em_rows = _group_decisions(ctx, obs, rng)
    # rows are contiguous, so the count is one pass per (j, k)
    errors = np.count_nonzero(decisions != truth, axis=2)
    return errors, truth.shape[1], em_rows


def run_scenario(cfg):
    """Monte-Carlo BER of one scenario over its SNR grid.

    Per SNR point, frames run in fixed-size rounds until the trial
    budget is reached and every iteration has collected the requested
    error events (or the frame cap stops the point).  Deterministic in
    (config, seed) regardless of worker count.
    """
    cfg.validate()
    base = _build_spreading(cfg)
    decoder = ConvTurboDecoder(
        ConvCode(generators=tuple(cfg.generators.split(","))),
        cfg.users, cfg.info_bits, master_seed=cfg.seed) \
        if cfg.coded else IdentityDecoder()
    T = decoder.n_coded if cfg.coded else cfg.info_bits
    order = _order_policy(cfg.ddf_order, cfg.users)
    report = BerReport()
    group = _group_size(cfg, T)
    # a round never holds more than _ROUND_FRAMES // group groups
    size = min(cfg.workers, _ROUND_FRAMES // group)
    pool = None
    if size > 1:  # the import costs start-up time serial runs never use
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(size)
    try:
        for si, snr in enumerate(cfg.snr_db):
            ch = _point_channel(cfg, base, snr)
            ddf_pre = DdfPrecompute.from_channel(ch, order) \
                if cfg.uncoded_ddf else None
            _run_point(_PointContext(cfg, ch, si, decoder, T, order, ddf_pre),
                       group, report, pool)
    finally:
        if pool is not None:
            pool.shutdown()
    return report


def _run_point(ctx, group, report, pool):
    """Run one SNR point in rounds; its totals go to ``report`` once."""
    cfg = ctx.cfg
    done = bits = 0
    errors = np.zeros((cfg.outer_iterations, ctx.ch.K), dtype=np.int64)
    em_rows = []
    while done < cfg.frame_cap and not (
            done >= cfg.max_frames
            and np.min(np.sum(errors, axis=1)) >= cfg.min_error_events):
        end = min(done + _ROUND_FRAMES, cfg.frame_cap)
        groups = [range(t, min(t + group, end))
                  for t in range(done, end, group)]
        # both maps yield in submission order and groups go in trial
        # order, so the float EM sums do not depend on the worker count
        for err, n, em in (pool.map if pool else map)(
                _simulate_group, [ctx] * len(groups), groups):
            errors += err  # integer counts: exact under any summation order
            bits += n
            em_rows.extend(em)
        done = end
    report.add_point(cfg.snr_db[ctx.snr_index], bits, errors, em_rows)


def single_user_bound(cfg):
    """Same code and SNR grid with a single user and perfect knowledge."""
    solo = replace(cfg, users=1, channel="equicorrelated", rho=0.0,
                   snr_fixed={}, varsigma=0.0, estimate_sigma2=False,
                   detector="gaussian", schedule="flooding",
                   ddf_order=AMPLITUDE_DESCENDING,
                   outer_iterations=1 if not cfg.coded else
                   cfg.outer_iterations)
    return run_scenario(solo)
