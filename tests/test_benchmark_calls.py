"""Every plifs function the benchmark calls must exist, so that a deletion
that would break the traced benchmark run fails the test suite first."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Called by the benchmark's probe (perfbench/child.py) without a span.
PROBE_ONLY = {
    "core": ("invariant_interval",),
    "gdifs": ("auto_codes", "detect_fixed_point_family"),
    "pressure": ("solve_level_root",),
}


def test_benchmark_calls_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = {
        (layer, name)
        for table in (tracing.LAYER_CALLS, PROBE_ONLY)
        for layer, names in table.items()
        for name in names
    }
    missing = sorted(
        f"{layer}.{name}"
        for layer, name in calls
        if not callable(getattr(importlib.import_module(f"plifs.{layer}"), name, None))
    )
    assert not missing
