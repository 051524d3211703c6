"""Command-line surface: desk-scale verification experiments with reports.

Usage:  erwlab EXPERIMENT [flags]   or   erwlab --config FILE [flags]

Flags override config-file values; the config file is flat key=value text
with the same names as the long flags.  Every run is reproducible from its
flags plus the seed, prints one PASS/FAIL line per verification target, and
exits 0 only if every target passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .ensemble import BudgetError, check_budget
from .experiments import EXPERIMENTS, ExperimentReport, ExperimentSpec, run_experiment_by_name
from .oracle import check_enumerable
from .walk import GrowthRule, MemorySchedule, WalkParams

__all__ = ["build_parser", "parse_and_validate", "run_experiment", "main"]

_SCHEDULES = (
    "full",
    "first-fixed",
    "first-increasing",
    "first-plus-recent",
    "last-fixed",
    "last-increasing",
)

_DEFAULTS = {
    "p": None,
    "q": None,
    "r": 0.0,
    "s": None,
    "beta": 0.5,
    "c": 1.0,
    "alpha": 0.0,
    "m": 0,
    "k": 1,
    "n": None,
    "runs": None,
    "seed": 12345,
    "schedule": "first-increasing",
    "format": "csv",
    "threads": 1,
    "tolerance": None,
    "max_steps": 5_000_000_000,
}

# desk-scale defaults per experiment: (horizon, runs)
_SCALES = {
    "oracle-compare": (10, 1_000_000),
    "moments": (1_000_000, 10_000),
    "clt-check": (10_000, 20_000),
    "delayed": (10_000, 10_000),
    "zeros": (10_000, 10_000),
    "alpha-regime": (100_000, 10_000),
    "recent-augmented": (10_000, 20_000),
    "conjecture-probe": (100_000, 10_000),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erwlab",
        description="Verification experiments for memory-limited elephant random walks.",
    )
    parser.add_argument("experiment", nargs="?", choices=sorted(EXPERIMENTS),
                        help="experiment to run (or set experiment= in the config file)")
    parser.add_argument("--experiment", dest="experiment_flag", choices=sorted(EXPERIMENTS),
                        help="alternative to the positional experiment name")
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    parser.add_argument("--p", type=float,
                        help="repeat probability, 0 < p < 1 (default 0.6, or (1-r)/2 "
                             "for delayed runs)")
    parser.add_argument("--q", type=float, help="flip probability (default 1 - p - r)")
    parser.add_argument("--r", type=float, help="stay-put probability (default 0)")
    parser.add_argument("--s", type=float, help="P(first step = +1) when r = 0 (default p)")
    parser.add_argument("--beta", type=float, help="memory growth exponent (0 < beta <= 1)")
    parser.add_argument("--c", type=float, help="memory growth prefactor (> 0)")
    parser.add_argument("--alpha", type=float,
                        help="target of m/n; sets beta=1, c=alpha for alpha-regime runs")
    parser.add_argument("--m", type=int, help="fixed block or window size")
    parser.add_argument("--k", type=int, help="number of recent steps in the augmented memory")
    parser.add_argument("--n", type=int, help="horizon")
    parser.add_argument("--runs", type=int, help="number of independent runs")
    parser.add_argument("--seed", type=int, help="master seed (64-bit)")
    parser.add_argument("--schedule", choices=_SCHEDULES, help="memory schedule variant")
    parser.add_argument("--out", type=Path, help="report file (defaults to stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="report format (default csv)")
    parser.add_argument("--threads", type=int, help="worker processes for ensembles")
    parser.add_argument("--tolerance", type=float, help="override the main verdict tolerance")
    parser.add_argument("--max-steps", type=int, dest="max_steps",
                        help="ensemble step budget (refuse larger requests)")
    return parser


def _read_config(path: Path) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


_CONFIG_TYPES = {
    "p": float, "q": float, "r": float, "s": float, "beta": float, "c": float,
    "alpha": float, "m": int, "k": int, "n": int, "runs": int, "seed": int,
    "threads": int, "tolerance": float, "max_steps": int,
    "schedule": str, "experiment": str, "format": str, "out": str,
}


def _build_schedule(experiment: str, settings: dict) -> MemorySchedule:
    variant = settings["schedule"]
    alpha = settings["alpha"]
    if alpha:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"need 0 < alpha <= 1, got alpha={alpha}")
        settings = dict(settings, beta=1.0, c=alpha)
    growth = GrowthRule(kind="power", c=settings["c"], beta=settings["beta"])
    if variant == "full":
        return MemorySchedule.full()
    if variant == "first-fixed":
        return MemorySchedule.first_fixed(settings["m"])
    if variant == "first-increasing":
        return MemorySchedule.first_increasing(growth)
    if variant == "first-plus-recent":
        if settings["m"]:
            return MemorySchedule.first_plus_recent(m=settings["m"], recent=settings["k"])
        return MemorySchedule.first_plus_recent(growth=growth, recent=settings["k"])
    if variant == "last-fixed":
        return MemorySchedule.last_fixed(settings["m"] or 10)
    return MemorySchedule.last_increasing(growth)


def parse_and_validate(
    argv: Optional[Sequence[str]] = None,
    parser: Optional[argparse.ArgumentParser] = None,
) -> ExperimentSpec:
    """Resolve flags, config file, and defaults into a validated spec.

    Exits with status 2 through argparse for anything invalid, naming the
    violated constraint in the message.  That includes a horizon above the
    enumeration cap and an ensemble over the step budget, which would
    otherwise fail only once the experiment runs.
    """
    parser = parser or build_parser()
    args = parser.parse_args(argv)
    settings = dict(_DEFAULTS)
    out_path = None
    try:
        if args.config is not None:
            for key, raw in _read_config(args.config).items():
                if key == "out":
                    out_path = Path(raw)
                    continue
                if key not in _CONFIG_TYPES:
                    raise ValueError(f"unknown config key {key!r}")
                settings[key] = _CONFIG_TYPES[key](raw)
        for key in ("p", "q", "r", "s", "beta", "c", "alpha", "m", "k", "n", "runs",
                    "seed", "schedule", "threads", "tolerance", "max_steps"):
            val = getattr(args, key)
            if val is not None:
                settings[key] = val
        if args.fmt is not None:
            settings["format"] = args.fmt
        if args.out is not None:
            out_path = args.out
        experiment = args.experiment_flag or args.experiment or settings.get("experiment")
        if not experiment:
            raise ValueError("no experiment given (positional, --experiment, or config)")
        if experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {experiment!r}")
        scale_n, scale_runs = _SCALES[experiment]
        if settings["n"] is None:
            settings["n"] = scale_n
        if settings["runs"] is None:
            settings["runs"] = scale_runs
        if settings["p"] is None:
            # split the moving probability evenly for delayed runs
            settings["p"] = (1.0 - settings["r"]) / 2.0 if settings["r"] > 0.0 else 0.6
        if settings["n"] < 1:
            raise ValueError(f"need n >= 1, got n={settings['n']}")
        if settings["runs"] < 1:
            raise ValueError(f"need runs >= 1, got runs={settings['runs']}")
        if settings["threads"] < 1:
            raise ValueError(f"need threads >= 1, got threads={settings['threads']}")
        params = WalkParams(
            p=settings["p"],
            q=-1.0 if settings["q"] is None else settings["q"],
            r=settings["r"],
            s=-1.0 if settings["s"] is None else settings["s"],
        )
        if experiment in ("zeros", "delayed") and not params.delayed:
            raise ValueError(f"{experiment} experiment needs 0 < r < 1, got r={params.r}")
        if experiment == "clt-check" and params.drift > 0.5:
            raise ValueError(
                "clt-check needs a diffusive or critical regime (the limit law "
                "above the boundary has no closed form); run the moments experiment"
            )
        if experiment == "alpha-regime":
            if params.delayed:
                raise ValueError("alpha-regime supports r = 0 only")
            if not settings["alpha"]:
                raise ValueError("alpha-regime needs --alpha in (0, 1]")
        schedule = _build_schedule(experiment, settings)
        if (experiment == "moments" and schedule.variant == "first-plus-recent"
                and params.delayed):
            raise ValueError("moments experiment on first-plus-recent needs r = 0 "
                             "(the delayed block moments are idealised)")
        if experiment == "oracle-compare":
            check_enumerable(params, settings["n"])
        if experiment != "moments":
            # every other experiment simulates runs x n steps per ensemble;
            # moments only evaluates closed forms
            check_budget(settings["runs"], settings["n"], settings["max_steps"])
    except (ValueError, BudgetError) as exc:
        parser.error(str(exc))
    return ExperimentSpec(
        experiment=experiment,
        params=params,
        schedule=schedule,
        n=settings["n"],
        runs=settings["runs"],
        seed=settings["seed"],
        workers=settings["threads"],
        tolerance=settings["tolerance"],
        alpha=settings["alpha"],
        max_steps=settings["max_steps"],
        fmt=settings["format"],
        out=str(out_path) if out_path is not None else None,
    )


def run_experiment(spec: ExperimentSpec) -> tuple[ExperimentReport, int]:
    """Run the experiment, write the report, print verdicts; 0 iff all pass."""
    report = run_experiment_by_name(spec)
    for verdict in report.verdicts:
        print(verdict.line())
    if spec.out is not None:
        with open(spec.out, "w") as fh:
            report.write_json(fh) if spec.fmt == "json" else report.write_csv(fh)
        print(f"report written to {spec.out}")
    else:
        report.write_json(sys.stdout) if spec.fmt == "json" else report.write_csv(sys.stdout)
    return report, (0 if report.passed else 1)


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = parse_and_validate(argv)
    _, status = run_experiment(spec)
    return status


if __name__ == "__main__":
    sys.exit(main())
