"""The test suite's own pytest configuration (pyproject.toml)."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_one_failure(tmp_path):
    """Under the suite's ``filterwarnings = ["error"]``, a failing
    ``hypothesis`` test is reported as one failed test (exit 1, with a
    summary), not as an INTERNALERROR that ends the session (exit 3)."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout[-3000:]
    assert "1 failed" in result.stdout
