"""Flag parsing, config files, validation errors, and end-to-end reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from erwlab import GrowthRule, MemorySchedule, WalkParams
from erwlab.cli import main, parse_and_validate, run_experiment
from erwlab.experiments import ExperimentSpec


def test_parse_basic_clt_check():
    spec = parse_and_validate(
        "clt-check --p 0.6 --beta 0.5 --n 10000 --runs 20000 --seed 42".split())
    assert spec.experiment == "clt-check"
    assert spec.params.p == 0.6
    assert spec.params.q == pytest.approx(0.4)
    assert spec.schedule.variant == "first-increasing"
    assert spec.schedule.growth.beta == 0.5
    assert (spec.n, spec.runs, spec.seed) == (10000, 20000, 42)


@pytest.mark.parametrize("argv, fragment", [
    (["clt-check", "--p", "1.0"], "0 < p < 1"),
    (["clt-check", "--p", "0.0"], "0 < p < 1"),
    (["zeros", "--r", "0"], "0 < r < 1"),
    (["delayed", "--r", "0"], "0 < r < 1"),
    (["clt-check", "--p", "0.5", "--q", "0.2", "--r", "0.4"], "p + q + r = 1"),
    (["alpha-regime", "--p", "0.6"], "alpha"),
    (["clt-check", "--p", "0.85"], "moments experiment"),
    (["clt-check", "--runs", "0"], "runs >= 1"),
    (["clt-check", "--n", "0"], "n >= 1"),
    ([], "no experiment"),
    (["moments", "--schedule", "first-plus-recent", "--r", "0.3"], "needs r = 0"),
    (["oracle-compare", "--n", "40"], "enumeration cap 16"),
    (["oracle-compare", "--r", "0.3", "--n", "11"], "enumeration cap 10"),
    (["clt-check", "--schedule", "first-fixed", "--m", "100", "--n", "10000",
      "--runs", "1000000"], "over the budget 5e+09"),
    # a schedule the experiment's verdict is not about
    (["moments", "--schedule", "last-fixed"], "moments runs the schedules"),
    (["clt-check", "--schedule", "last-fixed", "--m", "10"], "not last-fixed"),
    (["clt-check", "--schedule", "full"], "not full"),
    (["delayed", "--schedule", "last-fixed", "--m", "10", "--r", "0.3"], "not last-fixed"),
    (["zeros", "--schedule", "last-fixed", "--r", "0.3"], "not last-fixed"),
    (["recent-augmented", "--schedule", "last-increasing"], "not last-increasing"),
    (["conjecture-probe", "--schedule", "first-increasing"], "not first-increasing"),
    (["alpha-regime", "--alpha", "0.5", "--schedule", "last-increasing"],
     "not last-increasing"),
    # a schedule flag the chosen variant does not read
    (["clt-check", "--k", "3"], "first-increasing schedules do not read recent"),
    (["clt-check", "--schedule", "full", "--m", "5"], "full schedules do not read m"),
    (["clt-check", "--schedule", "first-fixed", "--m", "5", "--beta", "0.7"],
     "first-fixed schedules do not read growth"),
    # a block growing as m_n = alpha n where the experiment checks the alpha = 0 limits
    (["clt-check", "--alpha", "0.5"], "clt-check checks the alpha = 0 limits"),
    (["delayed", "--r", "0.3", "--alpha", "0.5"], "m_n/n -> 0.5"),
    (["zeros", "--r", "0.3", "--beta", "1", "--c", "0.5"], "zeros checks the alpha = 0"),
    (["recent-augmented", "--beta", "1", "--c", "2"], "m_n/n -> 1"),
])
def test_rejections_name_the_constraint(argv, fragment, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_and_validate(argv)
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_a_spec_built_in_python_is_refused_like_the_command_line(capsys):
    with pytest.raises(SystemExit):
        parse_and_validate(["moments", "--schedule", "last-fixed", "--m", "10"])
    message = capsys.readouterr().err.strip().splitlines()[-1]
    with pytest.raises(ValueError) as exc:
        ExperimentSpec("moments", WalkParams(p=0.6), MemorySchedule.last_fixed(10),
                       n=1_000_000, runs=10_000, seed=12345)
    assert message.endswith(str(exc.value))


@pytest.mark.parametrize("argv, schedule", [
    (["clt-check"], MemorySchedule.first_increasing(GrowthRule(c=1.0, beta=0.5))),
    (["clt-check", "--beta", "0.7"], MemorySchedule.first_increasing(GrowthRule(beta=0.7))),
    (["alpha-regime", "--alpha", "0.5", "--beta", "0.7"],
     MemorySchedule.first_increasing(GrowthRule(c=0.5, beta=1.0))),
    (["oracle-compare", "--schedule", "first-plus-recent"],
     MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=1)),
    (["oracle-compare", "--schedule", "first-plus-recent", "--m", "4"],
     MemorySchedule.first_plus_recent(m=4, recent=1)),
    (["oracle-compare", "--schedule", "last-fixed"], MemorySchedule.last_fixed(10)),
    (["oracle-compare", "--schedule", "first-fixed"], MemorySchedule.first_fixed(10)),
    (["conjecture-probe"], MemorySchedule.last_fixed(10)),
    (["conjecture-probe", "--m", "20"], MemorySchedule.last_fixed(20)),
    (["oracle-compare", "--schedule", "full"], MemorySchedule.full()),
])
def test_absent_schedule_flags_take_their_defaults(argv, schedule):
    assert parse_and_validate(argv).schedule == schedule


# what each benchmark workload (bench/workloads.json) must keep parsing to:
# experiment, (p, q, r, s), schedule, n, runs, workers
_BENCH_SPECS = {
    "window-walk": ("conjecture-probe", (0.6, 0.4, 0.0, 0.6), MemorySchedule.last_fixed(10),
                    10_000, 4096, 1),
    "frozen-clt": ("clt-check", (0.6, 0.4, 0.0, 0.6), MemorySchedule.first_fixed(100),
                   10_000, 16384, 2),
    "short-many": ("oracle-compare", (0.7, 1.0 - 0.7, 0.0, 0.7),
                   MemorySchedule.first_increasing(GrowthRule(c=1.0, beta=0.5)),
                   12, 500_000, 2),
}


def test_benchmark_invocations_keep_their_specs():
    root = Path(__file__).resolve().parents[1]
    workloads = json.loads((root / "bench" / "workloads.json").read_text())
    assert workloads["pinned_seed"] == 12345
    assert set(workloads["workloads"]) == set(_BENCH_SPECS)
    for name, wl in workloads["workloads"].items():
        spec = parse_and_validate(
            wl["args"] + ["--seed", "12345", "--threads", str(wl["threads"])])
        p = spec.params
        got = (spec.experiment, (p.p, p.q, p.r, p.s), spec.schedule, spec.n, spec.runs,
               spec.workers)
        assert got == _BENCH_SPECS[name], name
        assert spec.seed == 12345


def test_moments_runs_no_ensemble_so_has_no_step_budget():
    spec = parse_and_validate(["moments"])
    assert spec.runs * spec.n > spec.max_steps


def test_unknown_flag_and_unknown_experiment():
    with pytest.raises(SystemExit) as exc:
        parse_and_validate(["clt-check", "--bogus", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        parse_and_validate(["not-an-experiment"])


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "experiment=oracle-compare\np=0.7\nn=6\nruns=4000\nseed=9\nformat=json\n")
    spec = parse_and_validate(["--config", str(cfg)])
    assert spec.experiment == "oracle-compare"
    assert spec.params.p == 0.7
    assert spec.fmt == "json"
    spec = parse_and_validate(["--config", str(cfg), "--p", "0.65", "--format", "csv"])
    assert spec.params.p == 0.65
    assert spec.fmt == "csv"


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zeta=1\n")
    with pytest.raises(SystemExit):
        parse_and_validate(["--config", str(cfg), "clt-check"])


@pytest.mark.parametrize("line, fragment", [
    ("schedule=bogus", "invalid choice: 'bogus'"),
    ("schedule=last-fixd", "invalid choice: 'last-fixd'"),
    ("format=xml", "invalid choice: 'xml'"),
    ("zeta=1", "unknown config key 'zeta'"),
    ("thread=2", "unknown config key 'thread'"),
    ("config=other.cfg", "unknown config key 'config'"),
    ("n=ten", "invalid int value: 'ten'"),
])
def test_config_values_are_checked_like_flags(line, fragment, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experiment=clt-check\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        parse_and_validate(["--config", str(cfg)])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_command_line_flags_win_over_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment=oracle-compare\nmax_steps=100\nn=4\n")
    spec = parse_and_validate(["--config", str(cfg), "--runs", "25"])
    assert (spec.experiment, spec.max_steps, spec.n) == ("oracle-compare", 100, 4)
    spec = parse_and_validate(["clt-check", "--config", str(cfg), "--max-steps", "1000000"])
    assert (spec.experiment, spec.max_steps) == ("clt-check", 1_000_000)


def test_oracle_compare_end_to_end_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    status = main(["oracle-compare", "--p", "0.7", "--n", "8", "--runs", "20000",
                   "--seed", "4", "--tolerance", "0.02", "--out", str(out)])
    captured = capsys.readouterr().out
    assert status == 0
    assert "PASS pmf-total-mass" in captured
    assert "PASS tv-empirical-vs-exact" in captured
    text = out.read_text()
    assert text.startswith("# experiment=oracle-compare")
    assert "s,nstar,mass,empirical_s" in text


def test_json_report_parses(tmp_path):
    out = tmp_path / "report.json"
    status = main(["moments", "--p", "0.6", "--n", "1000000", "--format", "json",
                   "--out", str(out)])
    assert status == 0
    data = json.loads(out.read_text())
    assert data["experiment"] == "moments"
    assert data["passed"] is True
    assert data["rows"][-1]["limit_var"] == pytest.approx(1 / 15)


def test_recent_augmented_row_carries_exact_value(tmp_path):
    out = tmp_path / "aug.json"
    main(["recent-augmented", "--schedule", "first-plus-recent", "--m", "20",
          "--k", "2", "--p", "0.6", "--n", "400", "--runs", "2000", "--format", "json",
          "--out", str(out)])
    data = json.loads(out.read_text())
    row, verdict = data["rows"][0], data["verdicts"][0]
    assert row["mc_standard_error"] > 0.0
    assert verdict["target"] == row["exact_scaled_var"] != row["limit_var"]
    assert verdict["tolerance"] == pytest.approx(3.0 * row["mc_standard_error"])
    main(["recent-augmented", "--r", "0.3", "--n", "400", "--runs", "2000",
          "--format", "json", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["rows"][0]["exact_scaled_var"].startswith("none")
    assert data["verdicts"][0]["target"] == data["rows"][0]["limit_var"]


def test_report_bytes_reproducible(tmp_path):
    args = ["clt-check", "--p", "0.6", "--n", "500", "--runs", "2000", "--seed", "11",
            "--tolerance", "0.2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_failing_target_gives_exit_one(capsys):
    # absurdly tight tolerance forces a FAIL verdict and exit status 1
    status = main(["clt-check", "--p", "0.6", "--n", "200", "--runs", "500",
                   "--seed", "3", "--tolerance", "1e-9"])
    assert status == 1
    assert "FAIL" in capsys.readouterr().out


def test_console_entry_point_runs():
    # the child imports erwlab from this checkout's src, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "erwlab.cli", "oracle-compare", "--p", "0.7",
         "--n", "4", "--runs", "2000", "--seed", "1", "--tolerance", "0.05"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
