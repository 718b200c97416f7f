import concurrent.futures
import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from turbomud import harness
from turbomud.errors import ConfigError, DegeneratePrior
from turbomud.harness import (ScenarioConfig, _build_spreading, _group_size,
                              _point_channel, config_from_dict,
                              parse_kv_text, preset_config,
                              resolve_config, run_scenario, single_user_bound)
from turbomud.siso_gaussian import SCHEDULES
from turbomud.varem import run_varem


def tiny_coded_cfg(**over):
    base = dict(channel="equicorrelated", users=2, rho=0.5, coded=True,
                generators="111,101", info_bits=64, detector="gaussian",
                schedule="flooding", outer_iterations=2, snr_db="4",
                seed=7, max_frames=2, min_error_events=1, frame_cap=2)
    base.update(over)
    return config_from_dict(base)


class TestConfigParsing:
    def test_flat_text_roundtrip(self):
        cfg = config_from_dict(parse_kv_text("""
            # scenario
            channel = equicorrelated
            users = 4
            rho = 0.7
            generators = 10011,11101
            snr_db = 1,2,3
            snr_fixed = 2:11
            estimate_sigma2 = true
        """))
        assert cfg.users == 4
        assert cfg.snr_db == (1.0, 2.0, 3.0)
        assert cfg.snr_fixed == {2: 11.0}
        assert cfg.estimate_sigma2 is True

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict(parse_kv_text("flux_capacitance = 11"))

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: users repeats line 1"):
            parse_kv_text("users = 4\n# comment\nusers = 8")

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="rho"):
            config_from_dict(dict(rho=1.5))
        with pytest.raises(ConfigError, match="detector"):
            config_from_dict(dict(detector="psychic"))
        with pytest.raises(ConfigError, match="generators"):
            config_from_dict(dict(generators="111"))
        with pytest.raises(ConfigError, match="boolean"):
            config_from_dict(dict(coded="maybe"))
        # one numeric policy: finite numbers, +inf allowed only in snr_db
        for values, match in [
                (dict(snr_db="3,nan"), "snr_db"),
                (dict(snr_db="-inf"), "snr_db"),
                (dict(varsigma="inf"), "varsigma"),
                (dict(varsigma="nan"), "varsigma"),
                (dict(varsigma="-0.1"), "varsigma"),
                (dict(snr_fixed="2:nan"), "snr_fixed"),
                (dict(snr_fixed="2:inf"), "snr_fixed"),
                # dB values beyond +/-300 over- or underflow the channel
                (dict(snr_db="-4000"), "snr_db"),
                (dict(snr_db="3,300.5"), "snr_db"),
                (dict(snr_fixed="2:5000"), "snr_fixed"),
                (dict(snr_fixed="2:-4000"), "snr_fixed"),
                (dict(seed="-1"), "seed"),
                (dict(rho="nan", channel="random"), "rho"),
                (dict(inner_iterations="0"), "inner_iterations"),
                (dict(workers="0"), "workers"),
                (dict(workers="-3"), "workers"),
                # a repeated point would run twice into one CSV row, and a
                # repeated pin would keep only the last
                (dict(snr_db="3,3"), "snr_db"),
                (dict(snr_db="3,4,3.0"), "snr_db"),
                # 0 and -0 are one point, though %g prints them apart
                (dict(snr_db="0,-0"), "repeats a value"),
                # two points the CSV would label alike (%g: both "4")
                (dict(snr_db="4,4.0000001"), "CSV label"),
                (dict(snr_db="inf,299.9999,300"), "CSV label"),
                (dict(snr_fixed="2:11,2:15"), "snr_fixed"),
                # the length check comes before list(range(users))
                (dict(users="1000000000000", ddf_order="custom:2,1"),
                 "ddf_order"),
                # EM never switches the uncoded DDF path to another pipeline
                (dict(detector="ddf_aided", coded="false",
                      outer_iterations="1", estimate_sigma2="true"),
                 "estimate_sigma2"),
                (dict(detector="ddf_aided", coded="false", varsigma="0.3"),
                 "varsigma"),
                # the DDF pass alone is uncoded ddf_aided at J = 1
                (dict(detector="ddf"), "detector: unknown detector 'ddf'")]:
            with pytest.raises(ConfigError, match=match):
                config_from_dict(values)

    def test_presets_resolve(self):
        for name in ("scenario-i", "scenario-ii", "ddf-two-user"):
            cfg = preset_config(name)
            assert cfg.validate() is cfg
        cfg = resolve_config("presets/scenario-i")
        assert cfg.users == 4 and cfg.rho == 0.7
        assert cfg.generators == "10011,11101"
        cfg2 = resolve_config("presets/scenario-ii")
        assert (cfg2.spreading_gain, cfg2.users) == (32, 32)
        assert cfg2.generators == "111,101"

    def test_missing_config(self):
        with pytest.raises(ConfigError, match="no config file or preset"):
            resolve_config("/nonexistent/path.cfg")

    def test_db_limits_give_finite_positive_channels(self):
        cfg = tiny_coded_cfg(snr_db="-300,300,inf", snr_fixed="2:-300")
        for pin in (-300.0, 300.0):
            cfg = replace(cfg, snr_fixed={2: pin}).validate()
            base = _build_spreading(cfg)
            for snr in cfg.snr_db:
                ch = _point_channel(cfg, base, snr)
                assert np.isfinite(ch.sigma2) and ch.sigma2 > 0
                assert np.all(np.isfinite(ch.a)) and np.all(ch.a > 0)


_EXTREME = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e308",
                     "-1e308", "-1", "-1000000000000", "1000000000000"]),
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
_JUNK = st.sampled_from(["", "x", "1,x", "true", "custom:", "2:", ":", ",",
                         "1:2:3", "2.5", "0"])
# keys whose numbers the finite-number policy covers are corrupted more often
_POLICY_KEYS = ["rho", "seed", "snr_db", "snr_fixed", "varsigma"]
_KEY_VALUES = {
    "channel": st.sampled_from(["equicorrelated", "random"]),
    "users": st.sampled_from(["1", "2", "4"]),
    "rho": st.sampled_from(["0", "0.5", "0.99"]),
    "spreading_gain": st.sampled_from(["16", "32"]),
    "coded": st.sampled_from(["true", "yes", "false"]),
    "generators": st.sampled_from(["111,101", "10011,11101", "1,1"]),
    "info_bits": st.sampled_from(["1", "64"]),
    "detector": st.sampled_from(["gaussian", "discrete", "ddf_aided"]),
    "schedule": st.sampled_from(["flooding", "sequential", "hybrid"]),
    "outer_iterations": st.sampled_from(["1", "5"]),
    "inner_iterations": st.sampled_from(["1", "6"]),
    "ddf_order": st.sampled_from(["amplitude_descending", "as_given",
                                  "custom:2,1"]),
    "snr_db": st.lists(st.sampled_from(["2", "5", "inf", "-3", "1e6"]),
                       min_size=1, max_size=3).map(",".join),
    "snr_fixed": st.lists(st.sampled_from(["1:4", "1:-130", "1:11"]),
                          max_size=1).map(",".join),
    "varsigma": st.sampled_from(["0", "0.3"]),
    "estimate_sigma2": st.sampled_from(["true", "false"]),
    "seed": st.sampled_from(["0", "1", "97"]),
    "max_frames": st.sampled_from(["1", "100"]),
    "min_error_events": st.sampled_from(["0", "100"]),
    "frame_cap": st.sampled_from(["100", "400"]),
    "workers": st.sampled_from(["1", "2"]),
}


@st.composite
def _config_texts(draw):
    """Config texts over every key: mostly plausible values, plus up to
    three keys set to junk, nan, +-inf, huge or negative values."""
    values = {key: draw(gen) for key, gen in _KEY_VALUES.items()
              if draw(st.integers(0, 3))}
    keys = sorted(_KEY_VALUES) + 3 * _POLICY_KEYS
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        val = draw(st.one_of(_EXTREME, _JUNK))
        if key in ("snr_db", "snr_fixed") and draw(st.booleans()):
            val = ("2," if key == "snr_db" else "1:") + val
        values[key] = val
    lines = [f"{key} = {val}" for key, val in values.items()]
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["bogus_key = 1", "no equals sign",
                                           "# comment only"])))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None)
@given(text=_config_texts())
def test_config_parser_fuzz(text):
    """Every text is rejected or yields a valid config of finite numbers."""
    try:
        cfg = config_from_dict(parse_kv_text(text))
    except ConfigError:
        return
    assert cfg.validate() is cfg
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if f.name == "snr_db":
            assert all(math.isfinite(s) or s == math.inf for s in val)
        elif f.name == "snr_fixed":
            assert all(math.isfinite(db) for db in val.values())
        elif isinstance(val, (int, float)):
            assert math.isfinite(val)


# Frames of 1204 (coded) or 1500 (uncoded) symbol intervals run in groups
# of 2; 7 frames leave a last group of one and split unevenly over 3
# workers.  The near-far entry is the ddf-two-user regime: user 2 pinned
# at 11 dB on a rho = 0.7 pair, where the DDF means sit at the clamp.
GROUPED = [dict(info_bits=600, detector=det, schedule=sch, snr_db="2,4",
                max_frames=7, frame_cap=7)
           for det, sch in (("gaussian", "flooding"), ("discrete", "sequential"),
                            ("ddf_aided", "hybrid"))] \
    + [dict(info_bits=1500, coded=False, detector="ddf_aided", users=2,
            rho=0.7, outer_iterations=5, snr_fixed="2:11", snr_db="11,17",
            max_frames=7, frame_cap=7),
       dict(info_bits=1500, coded=False, detector="ddf_aided",
            outer_iterations=3, snr_db="2,4", max_frames=7, frame_cap=7)]


def _grouped_id(over):
    kind = "near-far" if "snr_fixed" in over else \
        over.get("schedule", "uncoded")
    return f"{over['detector']}-{kind}"


def test_grouped_configs_stack_frames():
    for over in GROUPED:
        cfg = tiny_coded_cfg(**over)
        assert _group_size(cfg, 1204 if cfg.coded else 1500) == 2


class TestRunScenario:
    # user 2 pinned at -10 dB gets its amplitude against the detection
    # floor SIGMA2_FLOOR, so chip noise at that floor would bury it
    @pytest.mark.parametrize("over", [
        dict(),
        dict(rho=0.7, snr_fixed="2:-10", coded=False, info_bits=512,
             detector="ddf_aided"),
        dict(rho=0.7, snr_fixed="2:-10", coded=False, info_bits=512),
        dict(rho=0.7, snr_fixed="2:-10", info_bits=512)])
    def test_noiseless_channel_zero_errors(self, over):
        cfg = tiny_coded_cfg(snr_db="inf", **over)
        report = run_scenario(cfg)
        for it in (1, 2):
            assert report.errors(float("inf"), it) == 0
            assert report.bits(float("inf"), it) == 2 * 2 * cfg.info_bits

    def test_error_accounting_exact(self):
        cfg = tiny_coded_cfg(snr_db="2")
        report = run_scenario(cfg)
        # total bits per cell = info_bits * frames for each user
        for user in (1, 2):
            assert report.bits(2.0, 1, user) == 64 * 2

    def test_absent_cells_hold_no_bits(self):
        # an SNR off the grid, an iteration outside 1..J and a user
        # outside 1..K hold no bits, so their BER and interval are nan
        report = run_scenario(tiny_coded_cfg(snr_db="2,3"))
        assert report.bits(3.0, 2, 2) == 64 * 2  # J = K = 2
        assert report.bits(3.0, np.int64(2), np.int64(1)) == 64 * 2
        for snr_db, iteration, user in ((4.0, 1, None), (4.0, 1, 1),
                                        (3.0, 3, None), (3.0, 3, 1),
                                        (3.0, 0, None), (3.0, -1, 1),
                                        (3.0, 1, 0), (3.0, 2, 3),
                                        (3.0, 1, -1)):
            assert report.bits(snr_db, iteration, user) == 0
            assert report.errors(snr_db, iteration, user) == 0
            assert math.isnan(report.ber(snr_db, iteration, user))
            assert math.isnan(report.ci95(snr_db, iteration, user))

    def test_deterministic_csv(self, tmp_path):
        cfg = tiny_coded_cfg(snr_db="3")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_scenario(cfg).to_csv(p1)
        run_scenario(cfg).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        """7 single-frame EM groups split unevenly over 2 and 3 workers."""
        cfg = tiny_coded_cfg(snr_db="3", estimate_sigma2=True,
                             max_frames=7, frame_cap=7)
        csvs = []
        for workers in (1, 2, 3):
            report = run_scenario(replace(cfg, workers=workers))
            ber, em = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.em"
            report.to_csv(ber)
            report.em_to_csv(em)
            csvs.append((ber.read_bytes(), em.read_bytes()))
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    @pytest.mark.parametrize("over", GROUPED, ids=_grouped_id)
    def test_grouped_worker_count_invariance(self, over, tmp_path):
        cfg = tiny_coded_cfg(**over)
        csvs = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            run_scenario(replace(cfg, workers=workers)).to_csv(path)
            csvs.append(path.read_bytes())
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    def test_pool_is_capped_at_the_chunks_of_a_round(self, tmp_path,
                                                     monkeypatch):
        """A round splits into at most _ROUND_FRAMES // group chunks, so
        no larger pool is started; results still follow ``workers``."""
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self):
                pass

        # run_scenario imports the pool class only when it builds a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlineExecutor)
        cfg = tiny_coded_cfg(**GROUPED[-1])  # groups of 2: 8 per round
        csvs = []
        for workers in (1, 64, 3):
            path = tmp_path / f"w{workers}.csv"
            run_scenario(replace(cfg, workers=workers)).to_csv(path)
            csvs.append(path.read_bytes())
        assert sizes == [8, 3]
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]
        whole_round = tiny_coded_cfg(coded=False, info_bits=64, workers=4)
        assert _group_size(whole_round, 64) == 16
        run_scenario(whole_round)  # one chunk per round: no pool
        assert sizes == [8, 3]

    @pytest.mark.parametrize("over", GROUPED, ids=_grouped_id)
    def test_single_frame_groups_give_identical_csv(self, over, tmp_path,
                                                    monkeypatch):
        cfg = tiny_coded_cfg(**over)
        grouped, single = tmp_path / "grouped.csv", tmp_path / "single.csv"
        run_scenario(cfg).to_csv(grouped)
        monkeypatch.setattr(harness, "_GROUP_INTERVALS", 0)
        assert _group_size(cfg, 1204 if cfg.coded else 1500) == 1
        run_scenario(cfg).to_csv(single)
        assert single.read_bytes() == grouped.read_bytes()

    def test_uncoded_ddf_preset_runs(self):
        cfg = preset_config("ddf-two-user")
        cfg = replace(cfg, snr_db=(14.0,), info_bits=256, max_frames=2,
                      frame_cap=2, min_error_events=1)
        report = run_scenario(cfg)
        assert report.bits(14.0, 1) == 2 * 2 * 256
        # five iterations recorded: DDF pass plus four refinement sweeps
        assert report.bits(14.0, 5) == report.bits(14.0, 1)

    def test_scenario_ii_preset_full_size_smoke(self):
        # one frame at the real 32x32 random-spreading size with joint
        # noise/amplitude estimation wired in
        cfg = replace(preset_config("scenario-ii"), snr_db=(6.0,),
                      max_frames=1, frame_cap=1, min_error_events=1)
        report = run_scenario(cfg)
        assert report.bits(6.0, cfg.outer_iterations) == 32 * 256
        assert (6.0, cfg.outer_iterations) in report.em

    def test_em_trajectory_recorded(self):
        cfg = tiny_coded_cfg(snr_db="4", estimate_sigma2=True)
        report = run_scenario(cfg)
        assert (4.0, 1) in report.em and (4.0, 2) in report.em

    def test_min_error_events_extends_past_budget(self):
        cfg = tiny_coded_cfg(snr_db="2", max_frames=1, frame_cap=40,
                             min_error_events=30)
        report = run_scenario(cfg)
        # ran more than the 1-frame budget to gather error events
        assert report.bits(2.0, 1) > 2 * 64 or \
            report.errors(2.0, 1) >= 30 or \
            report.bits(2.0, 1) == 40 * 2 * 64

    def test_uncoded_ddf_aided_ignores_schedule_and_inner_iterations(
            self, tmp_path):
        """Uncoded ddf_aided is one DDF pass and then one tanh-SIC sweep
        per outer iteration: both keys validate and change nothing."""
        csvs = set()
        for schedule in SCHEDULES:
            for inner in (1, 4):
                cfg = tiny_coded_cfg(
                    coded=False, info_bits=256, detector="ddf_aided",
                    outer_iterations=3, schedule=schedule,
                    inner_iterations=inner, snr_db="2,6", max_frames=3,
                    frame_cap=3)
                report = run_scenario(cfg)
                assert report.errors(2.0, 3) > 0
                path = tmp_path / f"{schedule}-{inner}.csv"
                report.to_csv(path)
                csvs.add(path.read_bytes())
        assert len(csvs) == 1

    @pytest.mark.parametrize("order", ["amplitude_descending",
                                       "custom:2,1"])
    def test_uncoded_ddf_aided_at_one_iteration_is_the_ddf_pass(
            self, order, tmp_path):
        """ddf_aided at J = 1, the DDF pass alone, writes the rows of
        iteration 1 of the same run at J = 5, on 1 and 2 workers: 5
        frames run as groups of 2, 2 and 1."""
        cfg = tiny_coded_cfg(coded=False, info_bits=1500, rho=0.7,
                             detector="ddf_aided", ddf_order=order,
                             snr_fixed="2:11", snr_db="11,16,inf",
                             max_frames=5, frame_cap=5)
        rows = {}
        for J in (1, 5):
            for workers in (1, 2):
                path = tmp_path / f"{J}-{workers}.csv"
                report = run_scenario(replace(cfg, outer_iterations=J,
                                              workers=workers))
                report.to_csv(path)
                rows[J, workers] = [
                    row for row in path.read_text().splitlines()[1:]
                    if row.split(",")[1] == "1"]
        assert len(rows[1, 1]) == 3 * 2 and report.errors(11.0, 1, 2) > 0
        assert rows[1, 2] == rows[1, 1]
        assert rows[5, 1] == rows[1, 1] and rows[5, 2] == rows[1, 1]

    @pytest.mark.parametrize("over", [
        dict(info_bits=600, detector="gaussian"),
        dict(coded=False, info_bits=512, detector="ddf_aided")])
    def test_geometry_decoder_and_order_built_once_per_run(self, over,
                                                           monkeypatch):
        """Two SNR points of 32 frames each run two rounds apiece, yet
        the run builds one channel geometry, one decoder and one parsed
        detection order; only the DDF factors are built per point, and
        every point's channel shares the base channel's R and R^-1."""
        built, bases, contexts = [], [], []

        def counting(cls):
            class Counting(cls):
                def __init__(self, *args, **kwargs):
                    built.append(cls.__name__)
                    super().__init__(*args, **kwargs)
            return Counting

        from_channel = harness.DdfPrecompute.from_channel

        def counting_from_channel(*args, **kwargs):
            built.append("DdfPrecompute")
            return from_channel(*args, **kwargs)

        for name in ("ConvTurboDecoder", "IdentityDecoder"):
            monkeypatch.setattr(harness, name,
                                counting(getattr(harness, name)))
        monkeypatch.setattr(harness.DdfPrecompute, "from_channel",
                            staticmethod(counting_from_channel))
        build_spreading = harness._build_spreading
        order_policy = harness._order_policy
        simulate_group = harness._simulate_group

        def recording_build_spreading(cfg):
            bases.append(build_spreading(cfg))
            return bases[-1]

        def counting_order_policy(*args):
            built.append("order")
            return order_policy(*args)

        def recording_simulate_group(ctx, trials):
            contexts.append(ctx)
            return simulate_group(ctx, trials)

        monkeypatch.setattr(harness, "_build_spreading",
                            recording_build_spreading)
        monkeypatch.setattr(harness, "_order_policy", counting_order_policy)
        monkeypatch.setattr(harness, "_simulate_group",
                            recording_simulate_group)
        cfg = tiny_coded_cfg(snr_db="3,5", max_frames=32, frame_cap=32,
                             workers=1, **over)
        assert _group_size(cfg, 1204 if cfg.coded else 512) \
            < harness._ROUND_FRAMES
        built.clear()
        report = run_scenario(cfg)
        assert report.bits(3.0, 1, 1) == 32 * cfg.info_bits
        # one of the two parses is the validation at the top of run_scenario
        expected = dict(order=2, ConvTurboDecoder=1) if cfg.coded else \
            dict(order=2, IdentityDecoder=1, DdfPrecompute=2)
        assert Counter(built) == expected
        assert len(bases) == 1
        points = {ctx.snr_index: ctx for ctx in contexts}
        assert sorted(points) == [0, 1] and len(contexts) > 2
        for ctx in contexts:
            assert ctx is points[ctx.snr_index]  # one context per point
            assert ctx.decoder is contexts[0].decoder
            for name in ("R", "Rinv"):
                assert getattr(ctx.ch, name) is getattr(bases[0], name)


def assert_sane_report(cfg, report):
    """Every (point, iteration, user) cell counts each info bit of every
    frame once, at a BER in [0, 1]."""
    frames = cfg.max_frames  # == frame_cap: every point runs them all
    for snr_db in cfg.snr_db:
        for j in range(1, cfg.outer_iterations + 1):
            for k in range(1, cfg.users + 1):
                assert report.bits(snr_db, j, k) == frames * cfg.info_bits
                assert 0.0 <= report.ber(snr_db, j, k) <= 1.0


# Codes whose trellis fixes some coded symbol, where BCJR rightly returns
# an infinite LLR: the last tail step of 11,10 and 111,110 sees only
# zeros, the first step of 11,01 the zero start state; the default code
# fixes symbols at 2 info bits.
FIXED_SYMBOL_CODES = [("11,10", 32), ("111,110", 32), ("11,01", 32),
                      ("10011,11101", 2)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("detector", ["discrete", "ddf_aided"])
@pytest.mark.parametrize("generators,info_bits", FIXED_SYMBOL_CODES)
def test_flooding_mean_field_takes_infinite_decoder_llrs(generators,
                                                         info_bits, detector):
    """The flooding extrinsic LLR_pos - LLR_dec is 0 where the decoder LLR
    is infinite, not inf - inf = NaN, which the next decode rejects."""
    cfg = config_from_dict(dict(
        users=4, rho=0.7, generators=generators, info_bits=info_bits,
        detector=detector, schedule="flooding", outer_iterations=3,
        snr_db="3", seed=1, max_frames=2, min_error_events=0, frame_cap=2))
    assert_sane_report(cfg, run_scenario(cfg))


_DB = st.one_of(st.sampled_from([-300.0, -30.0, 0.0, 3.0, 12.0, 60.0,
                                 300.0]),
                st.floats(-300.0, 300.0))


@st.composite
def _runnable_configs(draw):
    """Small valid configs over every detector, schedule, channel and
    code (trailing-zero generators included), with extreme SNRs and pins
    and both kinds of EM."""
    users = draw(st.integers(1, 6))
    detector = draw(st.sampled_from(harness.DETECTORS))
    coded = draw(st.booleans())
    length = draw(st.integers(1, 5))
    gens = draw(st.one_of(
        st.sampled_from([g for g, _ in FIXED_SYMBOL_CODES] + ["111,101"]),
        st.lists(st.integers(1, 2**length - 1), min_size=2, max_size=2)
        .map(lambda g: ",".join(f"{v:0{length}b}" for v in g))))
    order = draw(st.one_of(
        st.sampled_from(["amplitude_descending", "as_given"]),
        st.permutations(range(1, users + 1))
        .map(lambda p: "custom:" + ",".join(map(str, p)))))
    # the uncoded DDF pipeline estimates nothing
    em_allowed = coded or detector != "ddf_aided"
    return ScenarioConfig(
        channel=draw(st.sampled_from(["equicorrelated", "random"])),
        users=users, rho=draw(st.sampled_from([0.0, 0.5, 0.9])),
        spreading_gain=draw(st.integers(users, 8)), coded=coded,
        generators=gens, info_bits=draw(st.integers(1, 20)),
        detector=detector, schedule=draw(st.sampled_from(SCHEDULES)),
        outer_iterations=draw(st.integers(1, 3)),
        inner_iterations=draw(st.integers(1, 3)), ddf_order=order,
        snr_db=tuple(draw(st.lists(st.one_of(_DB, st.just(math.inf)),
                                   min_size=1, max_size=2, unique=True))),
        snr_fixed=draw(st.dictionaries(st.integers(1, users), _DB,
                                       max_size=2)),
        varsigma=draw(st.sampled_from([0.0, 0.3])) if em_allowed else 0.0,
        estimate_sigma2=em_allowed and draw(st.booleans()),
        seed=draw(st.integers(0, 99)), max_frames=2, min_error_events=0,
        frame_cap=2).validate()


# A fixed example set: the run is reproducible and its cost bounded.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(cfg=_runnable_configs())
def test_run_scenario_fuzz(cfg):
    """Every small valid config runs to a sane report; the one documented
    runtime error is a Gaussian prior too confident to resolve."""
    try:
        report = run_scenario(cfg)
    except DegeneratePrior:
        return
    assert_sane_report(cfg, report)


# Mean-field detectors lock onto wrong decisions at high SNR: on
# scenario-i their final BER reads 0 at 8 and 14 dB, then 0.12-0.14 at
# 17 dB and 0.25-0.27 at 20 and 30 dB.  Deterministic annealing of
# sigma2 is the planned fix; until it lands these cells fail.
MEAN_FIELD_COLLAPSE = pytest.mark.xfail(
    strict=True, reason="mean-field sweeps collapse above 14 dB")


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("detector", [
    "gaussian", pytest.param("discrete", marks=MEAN_FIELD_COLLAPSE),
    "ddf_aided"])
def test_final_ber_does_not_rise_with_snr(detector, schedule):
    """Scenario-i, 4 frames per point: the final-iteration BER may rise
    by at most 0.01 from one SNR point to the next."""
    cfg = replace(preset_config("scenario-i"), detector=detector,
                  schedule=schedule, snr_db=(8.0, 14.0, 17.0, 20.0, 30.0),
                  seed=1, max_frames=4, frame_cap=4).validate()
    report = run_scenario(cfg)
    ber = [report.ber(snr_db, cfg.outer_iterations) for snr_db in cfg.snr_db]
    assert all(b <= a + 0.01 for a, b in zip(ber, ber[1:])), ber


@pytest.mark.parametrize("detector", [
    "gaussian", pytest.param("discrete", marks=MEAN_FIELD_COLLAPSE),
    "ddf_aided"])
def test_em_first_iteration_at_high_snr(detector):
    """The collapse with sigma2 and amplitude EM: K = 4, 30 dB, 8 frames.
    Mean-field BER per iteration reads 0.188, 0.038, 0.031, 0.0026 and
    0.001, and the first M step starts from those wrong decisions;
    gaussian and ddf_aided read 0 throughout.  Iteration 1 may err on
    1 % of bits."""
    cfg = replace(preset_config("scenario-i"), detector=detector,
                  info_bits=96, snr_db=(30.0,), varsigma=0.3,
                  estimate_sigma2=True, seed=7, max_frames=8,
                  frame_cap=8).validate()
    assert run_scenario(cfg).ber(30.0, 1) <= 0.01


def pinned_em_cfg(**over):
    """K = 2 at rho 0.7, user 2 pinned at 8 dB, sigma2-only EM."""
    base = dict(users=2, rho=0.7, coded=True, info_bits=256,
                detector="gaussian", schedule="flooding", snr_fixed="2:8",
                snr_db="14,20", estimate_sigma2=True, seed=3, max_frames=4,
                frame_cap=4, min_error_events=0)
    base.update(over)
    return config_from_dict(base)


def test_sigma2_em_with_a_pinned_user_finds_sigma2():
    """EM starts from the point's amplitudes, the pinned user's included,
    so sigma2-only EM ends within 10 % of the true sigma2.  A start at
    a = 1 for the pinned user ends 4x above it at 14 dB, 29x at 20 dB."""
    cfg = pinned_em_cfg()
    report = run_scenario(cfg)
    for snr_db in cfg.snr_db:
        s2, _, n = report.em[(snr_db, cfg.outer_iterations)]
        assert s2 / n == pytest.approx(10.0 ** (-snr_db / 10.0), rel=0.1)


def test_amplitude_prior_error_is_relative_for_pinned_users(monkeypatch):
    """a_tilde_k = a_k (1 + varsigma n_k): a pinned user's a_tilde / a is
    the draw 1 + varsigma n_k of the same run without pins."""
    ratios = []

    def spy(ch, obs, detector, schedule, J, decoder, state0, **kwargs):
        ratios.append(state0.a_tilde / ch.a)
        return run_varem(ch, obs, detector, schedule, J, decoder, state0,
                         **kwargs)

    monkeypatch.setattr(harness, "run_varem", spy)
    for pins in ("2:8", ""):
        run_scenario(pinned_em_cfg(snr_fixed=pins, varsigma=0.3,
                                   snr_db="14", max_frames=1, frame_cap=1))
    pinned, unpinned = ratios
    assert not np.allclose(unpinned, 1.0)
    np.testing.assert_allclose(pinned, unpinned, rtol=1e-15, atol=0)


class TestSingleUserBound:
    def test_uncoded_matches_gaussian_tail(self):
        # SNR = A^2/sigma2: uncoded BPSK error rate is Q(sqrt(snr))
        snr_db = 6.0
        cfg = config_from_dict(dict(
            channel="equicorrelated", users=1, rho=0.0, coded="false",
            info_bits=4096, detector="gaussian", schedule="flooding",
            outer_iterations=1, snr_db=str(snr_db), seed=3,
            max_frames=30, min_error_events=50, frame_cap=60))
        report = single_user_bound(cfg)
        ber = report.ber(snr_db, 1)
        expected = norm.sf(np.sqrt(10 ** (snr_db / 10.0)))
        assert abs(ber - expected) < 4 * report.stderr(snr_db, 1)

    def test_coded_high_snr_error_free(self):
        cfg = tiny_coded_cfg(snr_db="12", max_frames=2)
        report = single_user_bound(cfg)
        assert report.errors(12.0, cfg.outer_iterations) == 0

    def test_deterministic(self, tmp_path):
        cfg = tiny_coded_cfg(snr_db="5")
        a = single_user_bound(cfg)
        b = single_user_bound(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_custom_ddf_order_does_not_reach_the_solo_run(self, tmp_path):
        # a permutation of 1..K is no permutation of the solo run's 1..1;
        # its Gaussian detector reads no detection order at all
        cfg = config_from_dict(dict(
            users=2, coded="false", detector="ddf_aided",
            ddf_order="custom:2,1", snr_db="4", seed=5, max_frames=2,
            min_error_events=1, frame_cap=2))
        paths = tmp_path / "custom.csv", tmp_path / "default.csv"
        single_user_bound(cfg).to_csv(paths[0])
        single_user_bound(replace(cfg, ddf_order="amplitude_descending")
                          ).to_csv(paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_runtime_imports_no_scipy():
    # a fresh interpreter, since pytest itself has loaded scipy: the
    # package and a DDF run, coded and uncoded, need numpy only
    src = Path(__file__).resolve().parents[1] / "src"
    script = textwrap.dedent("""
        import sys
        import turbomud, turbomud.cli
        from turbomud.harness import config_from_dict, run_scenario
        base = dict(channel="equicorrelated", users=2, rho=0.5,
                    generators="111,101", info_bits=16, detector="ddf_aided",
                    schedule="sequential", outer_iterations=2, snr_db="4",
                    seed=7, max_frames=1, min_error_events=0, frame_cap=1)
        for coded in ("false", "true"):
            run_scenario(config_from_dict(dict(base, coded=coded)))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
