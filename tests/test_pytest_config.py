"""The pytest settings in ``pyproject.toml`` let a failing property test be
reported like any other failure.

``filterwarnings = ["error"]`` turns every warning into an error. A failing
``@given`` test makes hypothesis build its report, which imports libcst, and
libcst warns on import; raised from pytest's teardown, that warning would end
the run with INTERNALERROR and hide the falsifying example and every later
result.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREE_TESTS = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st

    def test_before():
        pass

    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_property_fails(x):
        assert x < 0

    def test_after():
        pass
""")


def test_failing_property_test_leaves_the_run_intact(tmp_path):
    (tmp_path / "test_three.py").write_text(THREE_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    report = run.stdout + run.stderr
    assert "INTERNALERROR" not in report
    assert "1 failed, 2 passed" in report
    assert "Falsifying example: test_property_fails(" in report
