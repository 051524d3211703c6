"""Command-line surface: desk-scale verification experiments with reports.

Usage:  erwlab EXPERIMENT [flags]   or   erwlab --config FILE [flags]

The config file is flat key=value text whose keys are the long-flag names
(max_steps may be written for max-steps).  Each line is read as the flag
--key=value in front of the command line, so config values are checked
exactly like flags, and a flag on the command line wins over the file.
What an experiment needs and its default scale come from its record in
experiments.EXPERIMENTS.  Every run is reproducible from its flags plus the
seed, prints one PASS/FAIL line per verification target, and exits 0 only
if every target passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .ensemble import BudgetError
from .experiments import EXPERIMENTS, ExperimentReport, ExperimentSpec, run_experiment_by_name
from .walk import GrowthRule, MemorySchedule, WalkParams

__all__ = ["build_parser", "parse_and_validate", "run_experiment", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erwlab",
        description="Verification experiments for memory-limited elephant random walks.",
        epilog="A --config file holds key=value lines whose keys are the long-flag "
               "names; they are checked like flags, and command-line flags win.",
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
    parser.add_argument("--r", type=float, default=0.0, help="stay-put probability (default 0)")
    parser.add_argument("--s", type=float, help="P(first step = +1) when r = 0 (default p)")
    parser.add_argument("--beta", type=float, help="memory growth exponent (0 < beta <= 1)")
    parser.add_argument("--c", type=float, help="memory growth prefactor (> 0)")
    parser.add_argument("--alpha", type=float,
                        help="target of m/n; sets beta=1, c=alpha for alpha-regime runs")
    parser.add_argument("--m", type=int, help="fixed block or window size")
    parser.add_argument("--k", type=int, help="number of recent steps in the augmented memory")
    parser.add_argument("--n", type=int, help="horizon")
    parser.add_argument("--runs", type=int, help="number of independent runs")
    parser.add_argument("--seed", type=int, default=12345, help="master seed (64-bit)")
    parser.add_argument("--schedule", choices=tuple(MemorySchedule._READS),
                        help="memory schedule variant")
    parser.add_argument("--out", type=Path, help="report file (defaults to stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt", default="csv",
                        help="report format (default csv)")
    parser.add_argument("--threads", type=int, default=1,
                        help="processes that simulate the ensemble, this one included")
    parser.add_argument("--tolerance", type=float, help="override the main verdict tolerance")
    parser.add_argument("--max-steps", type=int, dest="max_steps", default=5_000_000_000,
                        help="ensemble step budget (refuse larger requests)")
    return parser


def _config_flags(path: Path, parser: argparse.ArgumentParser) -> list[str]:
    """Each key=value line of a config file as the flag --key=value."""
    flags = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        # whole long-flag names only: no abbreviations, no nested config
        if flag == "--config" or flag not in parser._option_string_actions:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        flags.append(f"{flag}={val}")
    return flags


def _schedule(variant: str, given: dict) -> MemorySchedule:
    """MemorySchedule(variant, **the fields whose flags were given).

    A field the variant reads and no flag gave takes its default: one recent
    step; the growth rule c = 1, beta = 0.5 unless m was given; otherwise a
    block or window of m = 10.
    """
    reads = MemorySchedule._READS[variant]
    fields = {name: value for name, value in given.items() if value is not None}
    if "recent" in reads:
        fields.setdefault("recent", 1)
    if "growth" in reads and "m" not in fields:
        fields.setdefault("growth", GrowthRule())
    elif "m" in reads:
        fields.setdefault("m", 10)
    return MemorySchedule(variant, **fields)


def parse_and_validate(
    argv: Optional[Sequence[str]] = None,
    parser: Optional[argparse.ArgumentParser] = None,
) -> ExperimentSpec:
    """Resolve flags, config file, and defaults into a validated spec.

    Exits with status 2 through argparse for anything invalid, naming the
    violated constraint in the message.  That includes every need the
    experiment's record declares (ExperimentSpec checks them), a horizon
    above the enumeration cap and an ensemble over the step budget, which
    would otherwise fail only once the experiment runs.
    """
    parser = parser or build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    # on the command line --experiment wins over the positional name
    experiment = args.experiment_flag or args.experiment
    try:
        if args.config is not None:
            args = parser.parse_args(_config_flags(args.config, parser) + argv)
            experiment = experiment or args.experiment_flag
        if not experiment:
            raise ValueError("no experiment given (positional, --experiment, or config)")
        need = EXPERIMENTS[experiment]
        r = args.r
        params = WalkParams(
            # split the moving probability evenly for delayed runs
            p=args.p if args.p is not None else ((1.0 - r) / 2.0 if r > 0.0 else 0.6),
            q=-1.0 if args.q is None else args.q,
            r=r,
            s=-1.0 if args.s is None else args.s,
        )
        alpha, growth = args.alpha or 0.0, None
        if alpha > 0.0:
            growth = GrowthRule(c=alpha, beta=1.0)
        elif args.c is not None or args.beta is not None:
            growth = GrowthRule(c=1.0 if args.c is None else args.c,
                                beta=0.5 if args.beta is None else args.beta)
        schedule = _schedule(args.schedule or need.schedules[0],
                             {"m": args.m, "recent": args.k, "growth": growth})
        return ExperimentSpec(
            experiment=experiment,
            params=params,
            schedule=schedule,
            n=need.n if args.n is None else args.n,
            runs=need.runs if args.runs is None else args.runs,
            seed=args.seed,
            workers=args.threads,
            tolerance=args.tolerance,
            alpha=alpha,
            max_steps=args.max_steps,
            fmt=args.fmt,
            out=None if args.out is None else str(args.out),
        )
    except (ValueError, BudgetError) as exc:
        parser.error(str(exc))


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
