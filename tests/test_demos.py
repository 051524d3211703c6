"""The demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 04_monte_carlo_verification.py is left out: it takes about 17 s
@pytest.mark.parametrize("demo", ["01_walk_basics.py", "02_exact_small_laws.py",
                                  "03_phase_transition.py", "05_delayed_and_zeros.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
