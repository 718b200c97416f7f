"""The library uses the public numpy API of every version it supports.

``pyproject.toml`` promises numpy >= 1.24, and the private modules
(``numpy.core`` before 2.0, ``numpy._core`` after) moved between those
versions; code that reaches into them breaks on one side or the other.
Names that numpy added after 1.24 break on the old side: ``vecdot``,
``linalg.vecdot`` and ``cholesky(..., upper=...)`` came in 2.0,
``unstack`` and ``cumulative_sum`` in 2.1, ``matvec`` and ``vecmat`` in
2.2.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PRIVATE = re.compile(r"\b(?:numpy|np)\s*\.\s*_?core\b"
                     r"|from\s+numpy\s+import\s+[^\n]*\b_?core\b")
_NEW_NAMES = r"(?:matvec|vecmat|vecdot|unstack|cumulative_sum)\b"
NEWER = re.compile(r"\b(?:numpy|np)\s*\.\s*(?:linalg\s*\.\s*)?" + _NEW_NAMES
                   + r"|from\s+numpy(?:\.linalg)?\s+import\s+[^\n]*\b"
                   + _NEW_NAMES + r"|\bcholesky\s*\([^)]*\bupper\s*=")


def hits(pattern):
    """``file:line: text`` of every match in the package's sources; a
    match may span lines, as a call's keywords can."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for m in pattern.finditer(text):
            n = text.count("\n", 0, m.start()) + 1
            line = text.splitlines()[n - 1].strip()
            found.append(f"{path.relative_to(SRC)}:{n}: {line}")
    return found


def test_src_references_no_private_numpy_module():
    found = hits(PRIVATE)
    assert not found, "private numpy modules referenced:\n" + "\n".join(found)


def test_src_uses_no_numpy_name_newer_than_the_floor():
    found = hits(NEWER)
    assert not found, "numpy names newer than 1.24:\n" + "\n".join(found)


def test_the_pattern_catches_each_spelling():
    for line in ("import numpy._core.umath as um", "np.core.umath.clip(x)",
                 "from numpy.core import multiarray", "np._core.umath",
                 "from numpy import _core", "import numpy.core"):
        assert PRIVATE.search(line), line
    for line in ("np.clip(m, lo, hi)", "import numpy as np",
                 "score = np.corrcoef(x)", "from numpy import linalg"):
        assert not PRIVATE.search(line), line


def test_the_newer_names_pattern_catches_each_spelling():
    for line in ("np.matvec(A, x)", "numpy.vecmat(x, A)", "np.vecdot(a, b)",
                 "np.linalg.vecdot(a, b)", "np.unstack(x, axis=1)",
                 "np.cumulative_sum(x)", "from numpy import vecmat, dot",
                 "from numpy.linalg import vecdot",
                 "np.linalg.cholesky(C, upper=True)",
                 "X = cholesky(C,\n             upper=False)"):
        assert NEWER.search(line), line
    for line in ("np.matmul(X, V[..., None])", "np.linalg.cholesky(C)",
                 "np.cumsum(x)", "np.vdot(a, b)", "np.stack(x)",
                 "upper = np.triu(L)", "from numpy import linalg",
                 "matvec = X @ v"):
        assert not NEWER.search(line), line
