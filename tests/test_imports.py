"""Every name a `plifs` module imports is used in that module."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "plifs"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports (``from __future__`` aside)
    that no expression of the module loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_unused_imports_finds_a_stale_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .errors import AmbiguousContainment, ToleranceViolation\n"
        "def f(x: np.ndarray):\n"
        "    raise AmbiguousContainment(math.pi)\n"
    )
    assert unused_imports(source) == ["ToleranceViolation"]


LEDGER = [SRC, SRC.parent.parent / "tests", SRC.parent.parent / "perfbench"]


def defined_names(source: str) -> list[str]:
    """Every function and class the source defines, at any depth, and every
    name its module level assigns; dunder names aside."""
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = [n.name for n in ast.walk(tree) if isinstance(n, defs)]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def named_names(source: str) -> set[str]:
    """Every name the source uses apart from a definition: names read,
    attributes, imported names, keyword arguments, and the parts of
    strings that are dotted names (``monkeypatch.setattr`` targets)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                out.update(node.value.split("."))
    return out


def orphans(source: str, sources: list[str]) -> list[str]:
    """Names that ``source`` defines and none of ``sources`` names."""
    named = set().union(*(named_names(s) for s in sources))
    return [name for name in defined_names(source) if name not in named]


def test_every_defined_name_is_named_elsewhere():
    files = {root: sorted(root.glob("*.py")) for root in LEDGER}
    assert all(files.values())
    sources = [p.read_text(encoding="utf-8") for paths in files.values() for p in paths]
    found = {m: orphans((SRC / m).read_text(encoding="utf-8"), sources) for m in MODULES}
    assert {m: names for m, names in found.items() if names} == {}


def test_orphans_finds_a_name_nothing_names():
    source = (
        "LIMIT = 3\n"
        "def used(x):\n"
        "    return x < LIMIT\n"
        "def _unused():\n"
        "    return used(1)\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.ok = used(2)\n"
    )
    assert orphans(source, [source, "Box()\n"]) == ["_unused"]
