"""The demos run to completion against the package in src/."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of a demo's stdout.  Demo 01's was taken when it printed the step
# law from a scalar copy of it; it prints the law from _cut_points now.
_STDOUT_PINS = {
    "01_walk_basics.py": "dab716c21edf51cde8fb4cb539532cca11d82b94cf5c3d71227d71c205d7f70f",
}


# 04_monte_carlo_verification.py is left out: it takes about 17 s
@pytest.mark.parametrize("demo", ["01_walk_basics.py", "02_exact_small_laws.py",
                                  "03_phase_transition.py", "05_delayed_and_zeros.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    if demo in _STDOUT_PINS:
        assert hashlib.sha256(done.stdout).hexdigest() == _STDOUT_PINS[demo]
