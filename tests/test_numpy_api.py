"""The library uses the public numpy API only.

``pyproject.toml`` promises numpy >= 1.24, and the private modules
(``numpy.core`` before 2.0, ``numpy._core`` after) moved between those
versions; code that reaches into them breaks on one side or the other.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PRIVATE = re.compile(r"\b(?:numpy|np)\s*\.\s*_?core\b"
                     r"|from\s+numpy\s+import\s+[^\n]*\b_?core\b")


def test_src_references_no_private_numpy_module():
    hits = [f"{path.relative_to(SRC)}:{n}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if PRIVATE.search(line)]
    assert not hits, "private numpy modules referenced:\n" + "\n".join(hits)


def test_the_pattern_catches_each_spelling():
    for line in ("import numpy._core.umath as um", "np.core.umath.clip(x)",
                 "from numpy.core import multiarray", "np._core.umath",
                 "from numpy import _core", "import numpy.core"):
        assert PRIVATE.search(line), line
    for line in ("np.clip(m, lo, hi)", "import numpy as np",
                 "score = np.corrcoef(x)", "from numpy import linalg"):
        assert not PRIVATE.search(line), line
