"""The suite's own configuration reports every failing test and runs the rest.

With ``filterwarnings = ["error"]``, a failing ``@given`` test once ended
the whole session: Hypothesis' pytest plugin imports
``hypothesis.extra._patching`` to report the failure, that import can raise
a third-party ``DeprecationWarning``, the warning became an error inside a
pytest hook, and pytest stopped with an internal error.  ``conftest.py``
imports the module once with that warning ignored.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 3))
def test_planted_failure(x):
    assert x < 0


def test_planted_pass():
    assert True
'''


def test_a_failing_given_test_leaves_the_session_running(tmp_path):
    """pytest, run with the suite's configuration and ``conftest.py`` on a
    folder holding one failing ``@given`` test and one passing test, runs
    both, reports the failure, and raises no internal error."""
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(tmp_path)]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "-rA", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "PASSED test_planted.py::test_planted_pass" in out, out
    assert "FAILED test_planted.py::test_planted_failure" in out, out
    assert "1 failed, 1 passed" in out and run.returncode == 1, out
