"""The pytest settings of pyproject.toml, run on a session of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: a failing property first, then a deprecation the code hits, then a
#: test that passes only if the session is still running
SESSION = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_deprecation_fails():
    warnings.warn("removed in the next release", DeprecationWarning)


def test_runs_after_them():
    pass
'''


def test_failing_property_fails_only_its_own_test(tmp_path):
    # hypothesis imports libcst to report a failing property, and that
    # import warns of a deprecation; as an error it would abort the
    # session before the falsifying example is printed
    (tmp_path / "test_session.py").write_text(SESSION)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    report = run.stdout + run.stderr
    assert run.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "Falsifying example: test_property_fails(" in run.stdout
    assert "2 failed, 1 passed" in run.stdout
