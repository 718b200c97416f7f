import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turbomud import channel as channel_module
from turbomud import cli
from turbomud.cli import _DETECT_ONE_SHOT, OUT_DIR_ENV, cli_main


@pytest.fixture(autouse=True)
def _out_dir_in_tmp_path(tmp_path, monkeypatch):
    """Runs without ``--out`` write under tmp_path: a config a test
    expects to be rejected that is accepted after all must not leave a
    CSV in the working directory."""
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))


def test_presets_listing(capsys):
    assert cli_main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("scenario-i", "scenario-ii", "ddf-two-user"):
        assert name in out


def test_missing_config_exit_code(capsys):
    assert cli_main(["simulate", "/no/such/file.cfg"]) == 2
    assert "config" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("users = twelve\n")
    assert cli_main(["simulate", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_non_utf8_config_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"\xff\xfeusers = 2\nr = 0.3,-0.9\n")
    assert cli_main([command, str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


MINI_CFG = ("users = 1\nrho = 0.0\ncoded = false\ninfo_bits = 16\n"
            "outer_iterations = 1\nsnr_db = 8\nmax_frames = 1\n"
            "frame_cap = 1\n")
INSTANCE = "users = 2\nrho = 0.7\nr = 0.3,-0.9\ndetector = one-shot\n"


def test_byte_order_mark_is_not_part_of_the_first_key(tmp_path, capsys):
    # a UTF-8 file that starts with EF BB BF reads as the file without it
    bom = b"\xef\xbb\xbf"
    for name, text in (("mini", MINI_CFG), ("instance", INSTANCE)):
        (tmp_path / f"{name}.cfg").write_text(text)
        (tmp_path / f"{name}-bom.cfg").write_bytes(bom + text.encode())
    runs = {}
    for tag in ("", "-bom"):
        assert cli_main(["simulate", str(tmp_path / f"mini{tag}.cfg"),
                         "--out", str(tmp_path / f"run{tag}.csv")]) == 0
        assert cli_main(["detect", str(tmp_path / f"instance{tag}.cfg")]) == 0
        runs[tag] = capsys.readouterr()
        assert runs[tag].err == ""
    assert runs["-bom"].out == runs[""].out.replace("run.csv", "run-bom.csv")
    assert (tmp_path / "run-bom.csv").read_bytes() == \
        (tmp_path / "run.csv").read_bytes()


@pytest.mark.parametrize("body", [
    "users = 1000000000\n",  # the K x K correlation matrix, 6.9 EiB
    # the interleaver permutation of 2e14 coded bits, 1.4 PiB
    "users = 2\ncoded = true\ninfo_bits = 100000000000000\n",
])
def test_an_allocation_numpy_refuses_is_one_error_line(tmp_path, capsys,
                                                        body):
    # sizes past any address space, so numpy refuses them at once
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(body + "snr_db = 8\nmax_frames = 1\nframe_cap = 1\n")
    assert cli_main(["simulate", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert len(err.splitlines()) == 1


def test_repeated_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("users = 4\nrho = 0.5\nusers = 8\n")
    assert cli_main(["simulate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "line 3" in err and "line 1" in err


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("""
        channel = equicorrelated
        users = 2
        rho = 0.5
        coded = true
        generators = 111,101
        info_bits = 32
        detector = gaussian
        schedule = flooding
        outer_iterations = 2
        snr_db = 4
        max_frames = 2
        frame_cap = 2
        min_error_events = 1
    """)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["simulate", str(cfg), "--seed", "7",
                     "--out", str(out1)]) == 0
    assert cli_main(["simulate", str(cfg), "--seed", "7",
                     "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "snr_db,iteration,user,bits,errors,ber,ci95"


def test_simulate_preset_deterministic(tmp_path):
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for out in (out1, out2):
        code = cli_main(["simulate", "presets/scenario-i", "--seed", "7",
                         "--trials", "2", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_overrides_grid(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("""
        channel = equicorrelated
        users = 2
        rho = 0.3
        coded = false
        info_bits = 64
        detector = gaussian
        outer_iterations = 1
        snr_db = 4,5,6
        max_frames = 1
        frame_cap = 1
        min_error_events = 1
    """)
    out = tmp_path / "sweep.csv"
    assert cli_main(["simulate", str(cfg), "--snr", "9", "--out",
                     str(out)]) == 0
    body = out.read_text()
    assert "9," in body and "4," not in body.replace("64,", "")


@pytest.mark.parametrize("grid", ["1,x", "", "3,3"])
def test_sweep_bad_snr_grid_exit_code(capsys, grid):
    assert cli_main(["simulate", "presets/scenario-i", "--snr", grid]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--snr", "nan"],
                                   ["--snr", "3,-inf"], ["--snr=-4000"],
                                   ["--snr=3,4000"]])
def test_overrides_follow_the_numeric_policy(capsys, flags):
    argv = ["simulate", "presets/scenario-i", "--snr", "3"] + flags
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_sweep_is_not_a_subcommand(capsys):
    # the SNR grid override is simulate's --snr
    assert cli_main(["sweep", "presets/scenario-i", "--snr", "3"]) == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


def test_schedule_override_is_checked_as_a_config_key(capsys):
    assert cli_main(["simulate", "presets/scenario-i", "--schedule",
                     "bogus"]) == 2
    assert capsys.readouterr().err == \
        "config error: schedule: unknown schedule 'bogus'\n"


_SMALL_RUN = """
channel = equicorrelated
users = 2
rho = 0.5
generators = 111,101
info_bits = 32
snr_db = 4
max_frames = 1
frame_cap = 1
"""


@pytest.mark.parametrize("pins", ["2:5000", "2:-4000"])
def test_pins_beyond_the_db_limit_exit_code(tmp_path, capsys, pins):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUN + f"snr_fixed = {pins}\n")
    assert cli_main(["simulate", str(cfg), "--out",
                     str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_overflowing_varsigma_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUN + "varsigma = 1e200\n")
    assert cli_main(["simulate", str(cfg), "--out",
                     str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: varsigma:")


@pytest.mark.parametrize("channel, key", [
    ("channel = equicorrelated\nrho = 0.9999999999999\n", "rho"),
    ("channel = random\nspreading_gain = 4\n", "users/spreading_gain")])
def test_singular_channel_exit_code(tmp_path, capsys, monkeypatch, channel,
                                    key):
    # the random channel's resampling gives up before its first draw
    monkeypatch.setattr(channel_module, "_RESAMPLE_CAP", 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUN.replace("channel = equicorrelated\n", "")
                   .replace("rho = 0.5\n", "") + channel)
    assert cli_main(["simulate", str(cfg), "--out",
                     str(tmp_path / "run.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_zero_llrs_decide_bit_zero(tmp_path, capsys):
    """At -300 dB nearly every LLR is exactly 0; a tie decides +1, so
    the BER is about 1/2, not near 1 as when ties count as errors."""
    argv = ["simulate", "presets/scenario-i", "--snr=-300", "--trials", "1",
            "--out", str(tmp_path / "run.csv")]
    assert cli_main(argv) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("snr -300 dB: final-iteration BER = ")
    assert 0.4 <= float(line.rsplit("=", 1)[1]) <= 0.6


def test_plain_ddf_is_not_a_scenario_detector(tmp_path, capsys):
    """The DDF pass alone is uncoded ddf_aided at one outer iteration;
    ``ddf`` names only the one-shot detector of ``detect``."""
    cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    for extra, flags in (("detector = ddf\n", []),
                         ("", ["--detector", "ddf"])):
        cfg.write_text(_SMALL_RUN + "coded = false\nouter_iterations = 1\n"
                       + extra)
        argv = ["simulate", str(cfg), "--out", str(out)] + flags
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == \
            "config error: detector: unknown detector 'ddf'\n"
    assert not out.exists()


def test_em_settings_keep_the_ddf_pipeline(tmp_path, capsys, monkeypatch):
    """EM on the uncoded DDF path exits 2; coded ddf_aided with EM runs
    and still seeds its first iteration with a DDF pass."""
    import turbomud.varem as varem

    calls = []
    original = varem.ddf_pass_block

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return original(*args, **kwargs)

    # run_varem binds the seed from its module's name at call time
    monkeypatch.setattr(varem, "ddf_pass_block", counting)
    cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    for extra in ("detector = ddf_aided\ncoded = false\n"
                  "outer_iterations = 1\nestimate_sigma2 = true\n",
                  "detector = ddf_aided\ncoded = false\nvarsigma = 0.3\n"):
        cfg.write_text(_SMALL_RUN + extra)
        assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists() and not calls
    cfg.write_text(_SMALL_RUN + "detector = ddf_aided\ncoded = true\n"
                   "outer_iterations = 2\nestimate_sigma2 = true\n"
                   "varsigma = 0.3\n")
    assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 0
    assert len(calls) == 1  # one frame, one seeding pass
    assert (tmp_path / "run_em.csv").exists()


def test_detect_single_user_matched_filter(tmp_path, capsys):
    inst = tmp_path / "instance.cfg"
    inst.write_text("""
        users = 1
        rho = 0.0
        sigma2 = 0.5
        r = 0.4
        priors = 0.0
        detector = gaussian-hybrid
    """)
    assert cli_main(["detect", str(inst)]) == 0
    out = capsys.readouterr().out
    # single-user LLR = 2 A y / sigma2 = 2 * 0.4 / 0.5
    assert "user 1" in out
    val = float(out.split("=")[1])
    assert abs(val - 1.6) < 1e-6


def test_detect_two_user_one_shot(tmp_path, capsys):
    inst = tmp_path / "instance.cfg"
    inst.write_text("""
        users = 2
        rho = 0.7
        sigma2 = 0.4
        amps = 1.0,2.0
        r = 0.3,-0.9
        priors = 0.5,-0.5
        detector = one-shot
    """)
    assert cli_main(["detect", str(inst)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_out_dir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TURBOMUD_OUT_DIR", str(tmp_path))
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("""
        channel = equicorrelated
        users = 1
        rho = 0.0
        coded = false
        info_bits = 16
        detector = gaussian
        outer_iterations = 1
        snr_db = 8
        max_frames = 1
        frame_cap = 1
        min_error_events = 1
    """)
    assert cli_main(["simulate", str(cfg)]) == 0
    assert (tmp_path / "mini.cfg.csv").exists()


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("""
        channel = equicorrelated
        users = 1
        rho = 0.0
        coded = false
        info_bits = 16
        outer_iterations = 1
        snr_db = 8
        max_frames = 1
        frame_cap = 1
    """)
    assert cli_main(["simulate", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("out", ["a_dir", "a_file/x.csv",
                                 "a_file/sub/x.csv"])
def test_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                             out):
    # an existing directory, or a path under a regular file, where
    # _write_text's makedirs fails
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")

    def no_run(cfg):
        raise AssertionError("run_scenario started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    path = tmp_path / out
    assert cli_main(["simulate", "scenario-i", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("out", ["", "newdir/", "newdir2/sub/", "newdir3/.",
                                 "newdir4/.."])
def test_directory_out_path_fails_before_the_run_and_creates_nothing(
        tmp_path, capsys, monkeypatch, out):
    # an empty path or one whose last component names a directory: the
    # write would fail after the run, once makedirs had made its parents
    monkeypatch.chdir(tmp_path)

    def no_run(cfg):
        raise AssertionError("run_scenario started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert cli_main(["simulate", "scenario-i", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_unwritable_em_csv_is_one_error_line_after_the_run(tmp_path,
                                                           capsys):
    # the pre-run check covers --out only; the EM trajectory's path is
    # reported by the post-run handler
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("users = 1\nrho = 0.0\ncoded = false\ninfo_bits = 16\n"
                   "outer_iterations = 1\nsnr_db = 8\nmax_frames = 1\n"
                   "frame_cap = 1\nestimate_sigma2 = true\n")
    (tmp_path / "run_em.csv").mkdir()
    out = tmp_path / "run.csv"
    assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'run_em.csv'}:")
    assert len(err.splitlines()) == 1
    assert out.exists()


@pytest.mark.parametrize("body", [
    "users = 2\nrho 0.5\nr = 0.3,-0.9\n",           # line without '='
    "users = 2\nr = 0.3,-0.9,0.1\n",                # r longer than N
    "users = 2\nr = 0.3,-0.9\npriors = 1\n",        # one prior for two users
    "users = 2\nrho = 1.5\nr = 0.3,-0.9\n",          # rho outside [0, 1)
    # in [0, 1), but R's last Cholesky pivot is below linalg's floor
    "users = 2\nrho = 0.9999999999999\nr = 0.3,-0.9\n",
    "users = 0\nr = 0.3\n",                         # no users
    "users = 2\nsigma2 = 0\nr = 0.3,-0.9\ndetector = one-shot\n",
    "users = 2\nsigma2 = 0\nr = 0.3,-0.9\ndetector = ddf\n",
    "users = 2\nr = nan,1\ndetector = ddf\n",
    "users = 2\nsigma2 = nan\nr = 0.3,-0.9\n",
    "users = 2\nr = nan,1\n",
    "users = 2\nr = 0.3,-0.9\npriors = nan,0\n",
    "users = 2\nrho = inf\nr = 0.3,-0.9\n",
    "users = 2\namps = 1,inf\nr = 0.3,-0.9\n",
    "users = 1000000000\nr = 0.3,-0.9\n",          # counts before K x K
    "users = 2\nr = 0.3,-0.9\nr = 0.1,0.2\n",       # r given twice
    "users = 2\nrho = 0.5\nsigma = 0.01\nr = 0.3,-0.9\n",  # sigma2 typo
    "users = 2\nr = 0.3,-0.9\ndetector = nope\n",
])
def test_detect_malformed_instance_exit_code(tmp_path, capsys, body):
    inst = tmp_path / "instance.cfg"
    inst.write_text(body)
    assert cli_main(["detect", str(inst)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("body, message", [
    ("users = 2\nrho = 0.5\nsigma = 0.01\nr = 0.3,-0.9\n",
     "sigma: unknown config key"),
    # the first unknown key in file order, before any value is read
    ("users = 2\nsnr = x\nr = 0.3\nsigma = 0.01\n",
     "snr: unknown config key"),
    ("users = 2\nr = 0.3,-0.9\ndetector = nope\n",
     "detector: unknown detector 'nope'"),
    # a missing required key, and values in the scenario parser's wording
    ("users = 2\n", "r: missing required key"),
    ("users = x\nr = 0.3\n", "users: not an integer: 'x'"),
    ("users = 2\nrho = abc\nr = 0.3,-0.9\n", "rho: not a number: 'abc'"),
    ("users = 2\nr = 0.3,nope\n", "r: not a number: 'nope'"),
    # channel-construction errors name their key as ``simulate``'s do
    ("users = 2\nrho = 0.9999999999999\nr = 0.3,-0.9\n",
     "rho: singular channel: pivot 2.001e-13 at or below 1e-12"),
    ("users = 2\nrho = 1.5\nr = 0.3,-0.9\n", "rho: 1.5 outside [0, 1)"),
    ("users = 2\namps = 0,1\nr = 0.3,-0.9\n",
     "amps: amplitudes must be positive"),
])
def test_detect_names_unknown_keys_and_detectors(tmp_path, capsys, body,
                                                 message):
    inst = tmp_path / "instance.cfg"
    inst.write_text(body)
    assert cli_main(["detect", str(inst)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_detect_overflow_is_one_error_line(tmp_path, capsys):
    # amplitudes whose Gram matrix overflows warn nothing on the way, and
    # every detector reports them alike
    inst = tmp_path / "instance.cfg"
    for detector in sorted(_DETECT_ONE_SHOT):
        inst.write_text("users = 2\namps = 1e200,1\nr = 0.3,-0.9\n"
                        f"detector = {detector}\n")
        assert cli_main(["detect", str(inst)]) == 1
        assert capsys.readouterr().err == \
            "error: instance overflows double precision\n"


@pytest.mark.parametrize("body", [
    # 1 - alpha below the floor raises DegeneratePrior on the block path
    "users = 2\nsigma2 = 1e-16\nr = 0.3,-0.1\ndetector = gaussian-hybrid\n",
    "users = 2\nsigma2 = 1e-16\nr = 0.3,-0.1\ndetector = gaussian-flooding\n",
    # finite r whose matched-filter output overflows
    "users = 2\nrho = 0.5\nr = 1.7e308,1.7e308\ndetector = ddf\n",
])
def test_detect_runtime_error_exit_code(tmp_path, capsys, body):
    inst = tmp_path / "instance.cfg"
    inst.write_text(body)
    assert cli_main(["detect", str(inst)]) == 1
    assert capsys.readouterr().err.startswith("error:")


_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300",
                     "5e-324", "1"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
_TOKEN = st.one_of(_NUMBER, st.text(alphabet="abx,.-+eE019 ", max_size=6))


@st.composite
def _instances(draw):
    """Instance files over the documented keys, mostly of the right shape."""
    K = draw(st.integers(1, 3))  # small: detect allocates K x K matrices

    def numbers(n):
        return ",".join(draw(st.one_of(
            st.lists(_NUMBER, min_size=n, max_size=n),
            st.lists(_TOKEN, max_size=5))))

    keys = {"users": draw(st.one_of(st.just(str(K)), _TOKEN)),
            "rho": draw(st.one_of(st.just("0.5"), _TOKEN)),
            "sigma2": draw(_TOKEN), "amps": numbers(K), "r": numbers(K),
            "priors": numbers(K),
            "detector": draw(st.sampled_from(sorted(_DETECT_ONE_SHOT)
                                             + ["bogus"]))}
    drop = draw(st.sets(st.sampled_from(sorted(keys))))
    return {k: v for k, v in keys.items() if k not in drop}


@settings(max_examples=300, deadline=None)
@given(instance=_instances())
def test_detect_fuzzed_instance_contract(tmp_path_factory, instance):
    """Exit code 0/1/2, no escaping exception, finite LLRs on success."""
    inst = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    inst.write_text("".join(f"{k} = {v}\n" for k, v in instance.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["detect", str(inst)])
    assert code in (0, 1, 2)
    if code == 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == int(instance.get("users", 1))
        for line in lines:
            assert math.isfinite(float(line.split("=")[1]))
    else:
        prefix = "config error:" if code == 2 else "error:"
        assert err.getvalue().startswith(prefix)
