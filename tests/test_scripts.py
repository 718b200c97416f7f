"""The digest gate in ``scripts/`` runs to completion on this checkout."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from turbomud.harness import config_from_dict

ROOT = Path(__file__).resolve().parents[1]
CSV_DIGESTS = ROOT / "scripts" / "csv_digests.py"


def test_csv_digests_prints_one_digest_per_output_of_its_matrix():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(CSV_DIGESTS)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert str(ROOT / "src" / "turbomud") in proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ")[1] for line in lines]
    assert len(set(names)) == len(names)
    # one BER CSV per config, one EM trajectory per EM config, one line
    # per BCJR case and one per LLR-level run_varem case
    spec = importlib.util.spec_from_file_location("csv_digests", CSV_DIGESTS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    runs = [config_from_dict(dict(script.BASE, **over))
            for _, over in script.configs()]
    expected = sum(1 + cfg.estimates for cfg in runs) \
        + len(list(script.bcjr_cases())) + len(list(script.llr_cases()))
    assert len(lines) == expected
