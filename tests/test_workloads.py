"""The determinism contract on the benchmark's workloads and on delayed walks.

Each workload in bench/workloads.json pins the exit status and the report's
sha256 at its pinned seed.  Running it through cli.main with the workload's
thread count must reproduce both, byte for byte, whatever the kernel's
chunking or fill strategy.

Those workloads are all r = 0 walks, whose steps are never 0.  The small
delayed (r > 0) reports pinned below cover the kernel's nonzero counts: a
streamed frozen tail, a window ring and a growing block that hold zero
steps, and a block plus a window.
"""

import hashlib
import json
from pathlib import Path

import pytest

from erwlab import cli

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "bench" / "workloads.json")
                   .read_text())


# (args, exit status, sha256 of the report) at seed 12345 and one thread
_DELAYED_PINS = [
    ("zeros --schedule first-fixed --m 50 --p 0.5 --r 0.3 --n 3000 --runs 2000", 0,
     "84a5c477c5a2d1db12833db1e6fb6b275d532f863ce89949028035dfa0d90212"),
    ("conjecture-probe --schedule last-fixed --m 10 --p 0.6 --r 0.2 --n 2000 --runs 2000", 1,
     "6f348b85401eac17c62bb98b639415f857b436b0d03b243b359061cd3acc36ae"),
    ("delayed --schedule first-increasing --p 0.5 --r 0.3 --n 2000 --runs 1000", 1,
     "e24ae4a113736bb4805d186b4c38945af11cb429cf6b1d4e26eeb03c27627a47"),
    ("recent-augmented --schedule first-plus-recent --m 20 --k 5 --p 0.5 --r 0.3 "
     "--n 2000 --runs 1000", 1,
     "93f99cde6b9eed4da4e08c77b5193cac09873f23957971da6c3d389579f7980e"),
]


@pytest.mark.parametrize("name", sorted(_SPEC["workloads"]))
def test_workload_reproduces_its_pinned_report(tmp_path, name):
    workload = _SPEC["workloads"][name]
    report = tmp_path / "report"
    status = cli.main([*workload["args"], "--seed", str(_SPEC["pinned_seed"]),
                       "--threads", str(workload["threads"]), "--out", str(report)])
    assert status == workload["exit_status"]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == workload["sha256"]


@pytest.mark.parametrize("args, exit_status, sha256", _DELAYED_PINS,
                         ids=[args.split()[0] for args, _, _ in _DELAYED_PINS])
def test_delayed_report_reproduces_its_pin(tmp_path, args, exit_status, sha256):
    report = tmp_path / "report"
    status = cli.main([*args.split(), "--seed", "12345", "--threads", "1",
                       "--out", str(report)])
    assert status == exit_status
    assert hashlib.sha256(report.read_bytes()).hexdigest() == sha256
