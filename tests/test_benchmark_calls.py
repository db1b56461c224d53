"""Every plifs name the benchmark uses must exist, so that a deletion that
would break the benchmark run fails the test suite first.  The names are
read from the benchmark's own source: its traced functions
(``perfbench/tracing.py``'s ``LAYER_CALLS``), every ``from plifs... import
X`` and every attribute read off a plifs module in ``perfbench/*.py``."""

import ast
import hashlib
import json
import math
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# sha256 of the deep-sweep answers as JSON, tiny and full size, from the
# carried cylinder lengths
DEEP_SWEEP_ANSWERS = {True: "485193260ceaaf81e1d40a192655e482e00cca01c75197c29a9b32c753b768dd",
                      False: "bf9f7a6b15fa0e21361144b92dda5dbd63818da9e0211083dd95be234bf5c0fc"}


def tracing_module() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def layer_calls() -> set[tuple[str, str]]:
    return {(f"plifs.{layer}", name) for layer, names in tracing_module().LAYER_CALLS.items()
            for name in names}


def source_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each ``from <module> import name`` of a plifs
    module in the file, and for each ``<alias>.<attr>...name`` where the
    alias is bound to a plifs name by an import anywhere in the file and
    ``<alias>.<attr>...`` is a plifs module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "plifs":
            for a in node.names:
                names.add((node.module, a.name))
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "plifs":
                    # `import plifs.cli` binds plifs; `import plifs.cli as c` binds c
                    aliases[a.asname or "plifs"] = a.name if a.asname else "plifs"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = _dotted(node.value, aliases)
            if module is not None and _is_module(module):
                names.add((module, node.attr))
    return names


def _dotted(node: ast.expr, aliases: dict) -> str | None:
    """The plifs path that a name or a chain of attributes on a name spells."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _is_module(dotted: str) -> bool:
    try:
        return isinstance(importlib.import_module(dotted), types.ModuleType)
    except ImportError:
        return False


def benchmark_names() -> set[tuple[str, str]]:
    names = layer_calls()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= source_names(path)
    return names


def test_benchmark_calls_exist():
    # each name is a function, a class or a module
    missing = sorted(
        f"{module}.{name}"
        for module, name in benchmark_names()
        if not callable(obj := getattr(importlib.import_module(module), name, None))
        and not isinstance(obj, types.ModuleType)
    )
    assert not missing


def test_benchmark_names_are_read_from_its_source():
    names = benchmark_names()
    for expected in [
        ("plifs", "build_fixed_point_family"),
        ("plifs", "check_iosc"),
        ("plifs", "BreakCode"),
        ("plifs", "Cplifs"),
        ("plifs", "PLMap"),
        ("plifs.errors", "PlifsError"),
        ("plifs", "parse_spec_file"),
        ("plifs.core", "invariant_interval"),
        ("plifs.gdifs", "auto_codes"),
        ("plifs.gdifs", "detect_fixed_point_family"),
        ("plifs.pressure", "solve_level_root"),
        ("plifs.cli", "main"),
    ]:
        assert expected in names


def test_benchmark_work_counts_read_the_call_results():
    # the traced run counts the work of some calls off what they return
    # (``COUNTS``: words of a level, samples of a chaos game), so a change
    # to what they return must fail here before it breaks the traced run
    from plifs import core, oracle

    from helpers import paper_example

    F = paper_example()
    calls = {"core.cylinder_arrays": (lambda: core.cylinder_arrays(F, 3), 8),
             "oracle.chaos_game": (lambda: oracle.chaos_game(F, 50), 50)}
    counts = tracing_module().COUNTS
    assert set(counts) == set(calls)
    for name, (call, words) in calls.items():
        assert counts[name](call()) == words


def test_traced_probe_reads_the_call_results(monkeypatch, tmp_path):
    # the traced run reads values off what some calls return (the edges,
    # spectral matrix and SCC size of a punctured level, the zero count of a
    # level root), so a change to those results must fail here before it
    # breaks the traced run: its probe runs once, at the tiny deep-sweep size
    from plifs import format_spec

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import tracing
    import workloads as wl

    systems = []
    for name, F in wl.make_systems("deep-sweep", 0, tiny=True):
        path = tmp_path / f"{name}.plifs"
        path.write_text(format_spec(F), encoding="utf-8")
        systems.append({"name": name, "file": str(path)})
    _, S = child.setup({"systems": systems})
    primary, family = wl.probe_systems("deep-sweep", list(S))
    files = {s["name"]: s["file"] for s in systems}
    tracer = tracing.Tracer()
    with tracing.traced_layers(tracer):
        counts = child.run_probe(tracer, S, files, primary, family,
                                 wl.WORKLOADS["deep-sweep"].tiny_probe)
    # t_4 of the paper example: 15 of its 16 level-4 cylinders kept, an SCC
    # of 13 of them with 24 edges
    assert counts == {"pressure.zero_lengths": 0, "gdifs.scc_nodes": 13, "gdifs.edges": 24}
    metrics = child.layer_metrics(tracer.spans)
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
def test_deep_sweep_answers_pass_their_checks_and_are_pinned(monkeypatch, tiny):
    # one pass of the deep-sweep ops, built as the benchmark builds them:
    # every check passes, and the answers (roots and bounds as JSON floats,
    # which round-trip) are those of the carried lengths, to the bit; the
    # full size walks many blocks past the base level
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads as wl

    S = dict(wl.make_systems("deep-sweep", 0, tiny))
    ops = wl.build_ops("deep-sweep", S, {}, tiny)
    answers = {op.name: op.call() for op in ops}
    assert [op.check(answers[op.name], answers) for op in ops] == [None] * len(ops)
    text = json.dumps(answers, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == DEEP_SWEEP_ANSWERS[tiny]
