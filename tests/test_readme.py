"""README's Numeric limits table names tests that exist."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pinned_ids(readme):
    """(row limit, file, [class,] test) of every ``pinned by`` entry.

    Each backticked id in a row's last cell is ``file::[Class::]test``;
    a bare ``Class::test`` or ``test`` continues the previous id's file,
    and a ``[params]`` suffix is dropped (a bare ``[params]`` names a
    further cell of the previous test).
    """
    section = readme.split("### Numeric limits", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines()
            if line.startswith("| `")]
    out = []
    for row in rows:
        cells = [c.strip() for c in row.strip("|").split("|")]
        limit, path = cells[0].strip("`"), None
        for entry in re.findall(r"`([^`]+)`", cells[-1]):
            parts = re.sub(r"\[.*\]$", "", entry).split("::")
            if parts == [""]:
                continue
            if parts[0].endswith(".py"):
                path, parts = parts[0], parts[1:]
            out.append((limit, path, tuple(parts)))
    return out


def defined_tests(path):
    """Every ``test`` and ``Class::test`` defined in a test file."""
    tree = ast.parse((ROOT / "tests" / path).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add((node.name,))
        elif isinstance(node, ast.ClassDef):
            names.update((node.name, item.name) for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_numeric_limits_pins_name_existing_tests():
    ids = pinned_ids((ROOT / "README.md").read_text(encoding="utf-8"))
    assert ids
    missing = [f"{limit}: {path}::{'::'.join(parts)}"
               for limit, path, parts in ids
               if path is None or parts not in defined_tests(path)]
    assert not missing
