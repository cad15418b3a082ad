"""The benchmark harness's own self-test runs clean."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
