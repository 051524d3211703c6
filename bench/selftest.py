"""The benchmark's own tests, on a tiny workload that runs in about a second.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's test suite, which collects
``test_*.py`` only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = run.load_workloads()["pinned_seed"]

# two chunks (4096 + 904 runs), so two workers really split the ensemble
TINY = {
    "args": ["oracle-compare", "--schedule", "first-increasing", "--p", "0.7",
             "--n", "6", "--runs", "5000", "--tolerance", "0.05"],
    "threads": 2,
    "exit_status": 0,
}


@pytest.fixture(scope="module")
def tiny_digest(tmp_path_factory):
    """The tiny report's sha256 at the pinned seed, with one and two workers."""
    workdir = tmp_path_factory.mktemp("invoke")
    digests = {}
    for threads in (1, 2):
        inv = run.invoke("plain", run.cli_args(TINY, SEED, threads), workdir, f"w{threads}")
        assert inv.status == 0, inv.stderr
        digests[threads] = inv.digest
    return digests


def test_report_digest_same_with_one_and_two_workers(tiny_digest):
    assert tiny_digest[1] is not None
    assert tiny_digest[1] == tiny_digest[2]


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_present_with_its_unit(trace, tiny_digest):
    workload = dict(TINY, sha256=tiny_digest[1])
    result = run.run_workload("tiny", workload, SEED, 0.1, trace, SEED)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted >= 1
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace else "end_to_end"]
    line = run.result_line(result, run.metric_units(trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]} for m in declared}
    if trace:
        # layer times that read 0 where a workload never calls the layer are
        # measured and printed, but not declared
        assert {"ensemble.ks_s", "ensemble.tv_s", "oracle.enumerate_s",
                "oracle.exact_s"} <= set(result.metrics) - set(line["metrics"])
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_wrong_pinned_digest_fails_every_invocation():
    workload = dict(TINY, sha256="0" * 64)
    result = run.run_workload("tiny", workload, SEED, 0.1, False, SEED)
    assert not result.correct
    assert result.failed == result.attempted >= 1
    assert result.detail["failed_fraction"] == 1.0
    assert all("differs from the pinned" in p for p in result.problems)


def test_unexpected_exit_status_fails():
    workload = dict(TINY, sha256="0" * 64, exit_status=1)
    result = run.run_workload("tiny", workload, SEED + 1, 0.1, False, SEED)
    assert result.failed == result.attempted >= 1
    assert "exit status 0, expected 1" in result.problems[0]


def test_workloads_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.load_workloads()["workloads"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "window-walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
