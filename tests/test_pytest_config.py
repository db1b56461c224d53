"""The repository's pytest settings report a failing Hypothesis property
as a test failure, not as an internal error that ends the run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]

PROPERTY_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_is_reported_as_a_failure(tmp_path):
    settings = tomllib.loads((ROOT / "pyproject.toml").read_text())
    filters = settings["tool"]["pytest"]["ini_options"]["filterwarnings"]
    (tmp_path / "pyproject.toml").write_text(
        f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
