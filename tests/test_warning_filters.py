"""pyproject.toml's warning filters, as both test suites run under them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_deprecation():
    warnings.warn("deprecated", DeprecationWarning)
'''


def test_a_failing_property_test_fails_without_aborting_the_session(tmp_path):
    # hypothesis' failure report raises a third-party deprecation, which the
    # filters exempt; any other DeprecationWarning still fails its test
    (tmp_path / "test_failing.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing.py"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "2 failed" in out.stdout
