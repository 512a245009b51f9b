"""The test run itself: a failing test fails alone, under the repository's
pytest settings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_hypothesis_test_fails_alone(tmp_path):
    # reporting a falsifying example imports third-party code that warns on
    # import; under filterwarnings = error that used to end the run with an
    # INTERNALERROR (exit 3) before the next test ran
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n\n\n"
        "def test_after():\n"
        "    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
