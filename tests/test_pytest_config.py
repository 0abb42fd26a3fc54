"""The pytest settings of ``pyproject.toml``, run on a module of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """``filterwarnings = error`` must not turn a warning the hypothesis
    plugin raises while it reports a failure into an INTERNALERROR, which
    would stop the session before the next test runs."""
    (tmp_path / "test_module.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
