"""The suite's own setup: a failing property test is reported as one
failure, and the tests after it still run; and the solver counter the
count tests read."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import count_solvers

TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # the conftest marks the tests of its own directory, so a copy of it
    # applies the suite's warning filter to these two
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_count_solvers_records_whether_each_cholesky_completed(monkeypatch):
    real = np.linalg.cholesky
    calls = count_solvers(monkeypatch, "eigvalsh", "cholesky")
    definite, indefinite = np.eye(3)[None], np.diag([1.0, -1.0])[None]
    assert np.array_equal(np.linalg.cholesky(definite), real(definite))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(indefinite)
    np.linalg.eigvalsh(definite)
    assert calls == {"eigvalsh": [(1, 3, 3)],
                     "cholesky": [(1, 3, 3), (1, 2, 2)]}
    assert calls.completed == [True, False]
