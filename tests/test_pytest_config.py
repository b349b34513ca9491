"""The repository's pytest settings, checked on a run of their own."""

import shutil
import subprocess
import sys
from pathlib import Path

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_example(x):
    assert x != 0


def test_after_the_failure():
    pass
'''


def test_a_failing_hypothesis_example_lets_later_tests_run(tmp_path):
    """Reporting a falsifying example must not end the run: the tests after
    it still run and are counted."""
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
