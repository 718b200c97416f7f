import pytest

from turbomud.cli import cli_main


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
    assert cli_main(["sweep", str(cfg), "--snr", "9", "--out",
                     str(out)]) == 0
    body = out.read_text()
    assert "9," in body and "4," not in body.replace("64,", "")


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


@pytest.mark.parametrize("body", [
    "users = 2\nrho 0.5\nr = 0.3,-0.9\n",           # line without '='
    "users = 2\nr = 0.3,-0.9,0.1\n",                # r longer than N
    "users = 2\nr = 0.3,-0.9\npriors = 1\n",        # one prior for two users
    "users = 2\nrho = 1.5\nr = 0.3,-0.9\n",          # rho outside [0, 1)
    "users = 0\nr = 0.3\n",                         # no users
])
def test_detect_malformed_instance_exit_code(tmp_path, capsys, body):
    inst = tmp_path / "instance.cfg"
    inst.write_text(body)
    assert cli_main(["detect", str(inst)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
