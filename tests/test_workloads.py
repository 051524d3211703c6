"""The determinism contract on the benchmark's workloads.

Each workload in bench/workloads.json pins the exit status and the report's
sha256 at its pinned seed.  Running it through cli.main with the workload's
thread count must reproduce both, byte for byte, whatever the kernel's
chunking or fill strategy.
"""

import hashlib
import json
from pathlib import Path

import pytest

from erwlab import cli

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "bench" / "workloads.json")
                   .read_text())


@pytest.mark.parametrize("name", sorted(_SPEC["workloads"]))
def test_workload_reproduces_its_pinned_report(tmp_path, name):
    workload = _SPEC["workloads"][name]
    report = tmp_path / "report"
    status = cli.main([*workload["args"], "--seed", str(_SPEC["pinned_seed"]),
                       "--threads", str(workload["threads"]), "--out", str(report)])
    assert status == workload["exit_status"]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == workload["sha256"]
