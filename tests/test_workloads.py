"""The determinism contract on the benchmark's workloads and on delayed walks.

Each workload in bench/workloads.json pins the exit status and the report's
sha256 at its pinned seed.  Running it through cli.main with the workload's
thread count must reproduce both, byte for byte, whatever the kernel's
chunking or fill strategy.

Those workloads are all r = 0 walks, whose steps are never 0.  The small
delayed (r > 0) reports pinned below cover the kernel's counts of -1 steps:
a streamed frozen tail, a growing block that holds zero steps, and a block
plus a window.  An r > 0 trailing window is pinned one layer down, as the
sha256 of a chunk's (S, N*): conjecture-probe, whose report pinned it
before, checks a target of the two-valued walk and refuses r > 0.

The benchmark's tracer wraps the kernel's entry points with positional
arguments, so a test runs it on tiny window experiments as well.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from erwlab import MemorySchedule, WalkParams, cli
from erwlab.ensemble import _simulate_chunk

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = json.loads((_ROOT / "bench" / "workloads.json").read_text())


# (args, exit status, sha256 of the report) at seed 12345 and one thread
_DELAYED_PINS = [
    ("zeros --schedule first-fixed --m 50 --p 0.5 --r 0.3 --n 3000 --runs 2000", 0,
     "84a5c477c5a2d1db12833db1e6fb6b275d532f863ce89949028035dfa0d90212"),
    ("delayed --schedule first-increasing --p 0.5 --r 0.3 --n 2000 --runs 1000", 1,
     "bc904c254caf3af1a75ad75f93268bf0ac2215dc79387ce3acb9608e654edfa0"),
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


def test_delayed_window_chunk_reproduces_its_pin():
    # last_fixed(10) at (p, r) = (.6, .2): windows of ten steps that hold
    # zeros, S and N* of 2000 runs at 8 checkpoints, hashed as int64
    grid = (15, 31, 62, 125, 250, 500, 1000, 2000)
    chunk = _simulate_chunk(WalkParams(p=0.6, r=0.2), MemorySchedule.last_fixed(10), grid,
                            12345, 0, 2000)
    digest = hashlib.sha256()
    for n in grid:
        for sample in chunk[n]:
            digest.update(sample.astype("<i8").tobytes())
    assert digest.hexdigest() == ("78681d8c14d35443937521a09be38629"
                                  "b59cbbc29d439c8852c4d48482f67a50")


def test_conjecture_probe_refuses_a_delayed_walk(capsys):
    # its verdict's window variance is that of the two-valued walk
    with pytest.raises(SystemExit) as exc:
        cli.main("conjecture-probe --schedule last-fixed --m 10 --p 0.6 --r 0.2 "
                 "--n 2000 --runs 2000".split())
    assert exc.value.code == 2
    assert "conjecture-probe experiment needs r = 0, got r=0.2" in capsys.readouterr().err


# The runs of each walk.cut_points span, one span per _cut_points call.  The
# two-valued probe walks last_fixed(5): steps 2..6 read memories of 1..5
# steps over the 20 runs, and step 7, whose memory size held, builds the
# table of counts 0..5 that steps 7..40 read.  The delayed experiment walks
# first_plus_recent(m=3, recent=4) for 39 steps, then first_fixed(3) up to
# its freeze step 4; a memory of 7 steps that may hold zeros would need a
# table of 8 x 8 entries, more than the 20 runs, so every call is direct.
@pytest.mark.parametrize("args, cut_point_runs", [
    ("conjecture-probe --m 5 --n 40 --runs 20", [20] * 5 + [6]),
    ("recent-augmented --schedule first-plus-recent --m 3 --k 4 --p 0.5 --r 0.3 "
     "--n 40 --runs 20", [20] * (39 + 3)),
], ids=["two-valued", "delayed"])
def test_benchmark_tracer_records_the_kernel_layers(tmp_path, args, cut_point_runs):
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(_ROOT / "bench" / "launch.py"), "trace", str(record), "--",
         *args.split(), "--seed", "1", "--out", str(tmp_path / "report")],
        capture_output=True, text=True, env=env, timeout=300)
    assert "Traceback" not in done.stderr, done.stderr
    traced = json.loads(record.read_text())
    assert traced["status"] == done.returncode in (0, 1)
    spans = {}
    for name, _, _, _, info in traced["spans"]:
        spans.setdefault(name, []).append(info)
    assert {"walk.cut_points", "ensemble.fill", "ensemble.chunk"} <= set(spans)
    assert [info["runs"] for info in spans["walk.cut_points"]] == cut_point_runs
