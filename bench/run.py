"""erwlab benchmark: pinned CLI experiments, timed end to end or traced by layer.

Run from the root of a checkout (numpy and the standard library only):

    python3 bench/run.py --workload window-walk --seed 12345 --seconds 30 --trace 0

Each workload in ``workloads.json`` is one ``erwlab`` experiment.  This script
spawns it in a fresh interpreter through ``launch.py``, one invocation at a
time (a closed loop with a single client), until ``--seconds`` are spent.
Every report is checked: the exit status must be the pinned one, all reports
of a run must be byte-identical (whatever the worker count or tracing), and
with the pinned seed the report's sha256 must equal the pinned digest.

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a separate traced invocation run with one worker; see README.md.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with provenance and report digests, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = BENCH / "launch.py"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"
SETUP_PROBES_PER_CYCLE = 3


def load_workloads() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------


class TreeRss:
    """Largest summed RSS of a process and all its descendants, polled.

    The descendant set is rescanned from /proc every few polls, so pool
    workers are counted from shortly after they start.
    """

    PAGE = os.sysconf("SC_PAGE_SIZE")
    INTERVAL_S = 0.02
    RESCAN_EVERY = 5

    def __init__(self, pid: int):
        self.pid = pid
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _tree(self) -> list[int]:
        children: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rpartition(")")[2].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
        tree, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(children.get(pid, ()))
        return tree

    def _poll(self) -> None:
        pids: list[int] = []
        polls = 0
        while not self._stop.is_set():
            if polls % self.RESCAN_EVERY == 0:
                pids = self._tree()
            polls += 1
            total = 0
            for pid in pids:
                try:
                    with open(f"/proc/{pid}/statm") as fh:
                        total += int(fh.read().split()[1]) * self.PAGE
                except (OSError, IndexError, ValueError):
                    continue
            self.peak_bytes = max(self.peak_bytes, total)
            self._stop.wait(self.INTERVAL_S)

    def stop(self) -> float:
        """Stop polling; return the peak in MB."""
        self._stop.set()
        self._thread.join()
        return self.peak_bytes / 2**20


@dataclass
class Invocation:
    """One spawned interpreter and everything measured about it."""

    mode: str
    args: list[str]
    status: int
    spawned: float            # CLOCK_MONOTONIC just before the spawn
    wall_s: float
    peak_rss_mb: float
    record: dict
    digest: Optional[str]
    stderr: str
    problem: Optional[str] = None

    @property
    def setup_s(self) -> Optional[float]:
        ready = self.record.get("spec_ready")
        return None if ready is None else ready - self.spawned

    @property
    def run_steps_per_s(self) -> Optional[float]:
        ready, written = self.record.get("spec_ready"), self.record.get("report_written")
        if ready is None or written is None or written <= ready:
            return None
        return self.record["run_steps"] / (written - ready)


def cli_args(workload: dict, seed: int, threads: int) -> list[str]:
    """The full erwlab argument list of one invocation of a workload."""
    return [*workload["args"], "--seed", str(seed), "--threads", str(threads)]


def invoke(mode: str, args: list[str], workdir: Path, tag: str) -> Invocation:
    """Run launch.py in a fresh interpreter and collect its record and report."""
    record_path = workdir / f"{tag}.record.json"
    report_path = workdir / f"{tag}.report"
    argv = [sys.executable, str(LAUNCH), mode, str(record_path), "--", *args]
    if mode != "setup":
        argv += ["--out", str(report_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    sampler = TreeRss(proc.pid)
    try:
        _, stderr = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        peak = sampler.stop()
    wall = time.monotonic() - spawned
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    peak = max(peak, record.get("self_maxrss_kb", 0) / 1024,
               record.get("children_maxrss_kb", 0) / 1024)
    digest = None
    if report_path.exists():
        digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    return Invocation(mode, args, proc.returncode, spawned, wall, peak, record, digest,
                      stderr[-2000:])


def check(inv: Invocation, workload: dict, seed: int, pinned_seed: int) -> None:
    """Set inv.problem to why the invocation counts as failed, if it does."""
    want = 0 if inv.mode == "setup" else workload["exit_status"]
    if inv.status != want:
        tail = inv.stderr.strip().splitlines()[-1:] or [""]
        inv.problem = f"exit status {inv.status}, expected {want}: {tail[0]}"
    elif "spec_ready" not in inv.record:
        inv.problem = "no timing record"
    elif inv.mode == "setup":
        return
    elif inv.digest is None or "report_written" not in inv.record:
        inv.problem = "no report written"
    elif seed == pinned_seed and inv.digest != workload["sha256"]:
        inv.problem = (f"report sha256 {inv.digest} differs from the pinned "
                       f"{workload['sha256']}")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass
class Layer:
    calls: int = 0
    inclusive_ns: int = 0     # outermost spans of this name only
    self_ns: int = 0
    info: dict = field(default_factory=dict)


def layer_table(spans: list) -> tuple[dict[str, Layer], int, int]:
    """Aggregate spans by name; return (layers, root_ns, self_sum_ns).

    A span's self time is its duration minus the part of it that its child
    spans cover.  The self times add up to the root span exactly when every
    child lies inside its parent and siblings do not overlap.
    """
    children: dict[int, list[int]] = {}
    roots = []
    for i, (_, parent, _, _, _) in enumerate(spans):
        (roots if parent < 0 else children.setdefault(parent, [])).append(i)
    layers: dict[str, Layer] = {}
    self_sum = 0
    for i, (name, parent, t0, t1, info) in enumerate(spans):
        covered, reach = 0, t0
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][2]):
            lo, hi = max(spans[c][2], reach), min(spans[c][3], t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        layer = layers.setdefault(name, Layer())
        layer.calls += 1
        layer.self_ns += t1 - t0 - covered
        self_sum += t1 - t0 - covered
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][1]
        if outer < 0:
            layer.inclusive_ns += t1 - t0
        for key, val in (info or {}).items():
            layer.info[key] = layer.info.get(key, 0) + val
    root_ns = spans[roots[0]][3] - spans[roots[0]][2] if len(roots) == 1 else -1
    return layers, root_ns, self_sum


def layer_metrics(layers: dict[str, Layer], pool_ensemble_s: float,
                  workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (units as in BENCHMARK.json)."""
    def get(name: str) -> Layer:
        return layers.get(name, Layer())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fill, cut, chunk = get("ensemble.fill"), get("walk.cut_points"), get("ensemble.chunk")
    run_steps = chunk.info.get("run_steps", 0)
    reduce_s = get("ensemble.run").self_ns / 1e9
    return {
        "ensemble.fill_ns_per_uniform": ratio(fill.inclusive_ns, fill.info.get("uniforms", 0)),
        "ensemble.fill_us_per_run": ratio(fill.inclusive_ns / 1e3, fill.info.get("streams", 0)),
        "walk.cut_points_ns_per_run": ratio(cut.inclusive_ns, cut.info.get("runs", 0)),
        "walk.cut_points_calls": cut.calls,
        "ensemble.step_self_ns_per_run_step": ratio(chunk.self_ns, run_steps),
        "ensemble.chunk_ns_per_run_step": ratio(chunk.inclusive_ns, run_steps),
        "ensemble.chunks": chunk.calls,
        "ensemble.reduce_s": reduce_s,
        "ensemble.ks_s": get("ensemble.ks").inclusive_ns / 1e9,
        "ensemble.ks_points": get("ensemble.ks").info.get("points", 0),
        "limits.cdf_calls": get("limits.cdf").calls,
        "ensemble.tv_s": get("ensemble.tv").inclusive_ns / 1e9,
        "oracle.enumerate_s": get("oracle.enumerate").inclusive_ns / 1e9,
        "oracle.exact_s": get("oracle.exact").inclusive_ns / 1e9,
        "cli.parse_s": get("cli.parse").inclusive_ns / 1e9,
        "experiments.self_s": get("experiments.run").self_ns / 1e9,
        "experiments.report_write_s": get("experiments.report_write").inclusive_ns / 1e9,
        # what the untraced ensemble at `workers` took beyond a perfect split
        # of the traced chunk time plus the traced reduction
        "ensemble.pool_overhead_s":
            pool_ensemble_s - chunk.inclusive_ns / 1e9 / workers - reduce_s,
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    samples: dict[str, int]
    problems: list[str]
    detail: dict


def _median(values: list) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool,
                 pinned_seed: int) -> RunResult:
    """Run one workload in a closed loop for `seconds` and compute its metrics."""
    workdir = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    threads = workload["threads"]
    args = cli_args(workload, seed, threads)
    args_1w = cli_args(workload, seed, 1)
    invocations: list[Invocation] = []
    probes: list[Invocation] = []

    def spawn(mode: str, argv: list[str]) -> None:
        inv = invoke(mode, argv, workdir, f"{len(invocations) + len(probes)}-{mode}")
        check(inv, workload, seed, pinned_seed)
        (probes if mode == "setup" else invocations).append(inv)

    try:
        # untimed: byte-compiles the package on a fresh checkout and warms the file cache
        warm = invoke("setup", args, workdir, "warm")
        check(warm, workload, seed, pinned_seed)
        start = time.monotonic()
        cycles: list[float] = []
        while True:
            t0 = time.monotonic()
            if trace:
                spawn("plain", args)
                if threads > 1:
                    spawn("plain", args_1w)
                spawn("trace", args_1w)
            else:
                # set-up is short and noisy, so it gets more samples than the run
                for _ in range(SETUP_PROBES_PER_CYCLE):
                    spawn("setup", args)
                spawn("plain", args)
            cycles.append(time.monotonic() - t0)
            if time.monotonic() + statistics.median(cycles) > start + seconds:
                break
        elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"warm-up set-up: {warm.problem}"] if warm.problem else []
    digests = [inv.digest for inv in invocations if inv.digest is not None]
    reference = max(set(digests), key=digests.count) if digests else None
    for inv in invocations:
        if inv.problem is None and inv.digest != reference:
            inv.problem = f"report sha256 {inv.digest} differs from this run's {reference}"
    for kind, group in (("set-up probe", probes), ("invocation", invocations)):
        for inv in group:
            if inv.problem:
                problems.append(f"{name} {kind} ({inv.mode}, {' '.join(inv.args)}): "
                                f"{inv.problem}")
    failed = sum(inv.problem is not None for inv in invocations)

    plain = [inv for inv in invocations if inv.mode == "plain" and inv.args == args]
    samples = {"invocations": len(plain), "setup": len(plain) + len(probes)}
    detail: dict = {}
    if not trace:
        metrics = {
            "wall_s": _median([inv.wall_s for inv in plain]),
            "setup_s": _median([inv.setup_s for inv in probes + plain]),
            "run_steps_per_s": _median([inv.run_steps_per_s for inv in plain]),
            "peak_rss_mb": _median([inv.peak_rss_mb for inv in plain]),
        }
    else:
        traced = [inv for inv in invocations if inv.mode == "trace" and "spans" in inv.record]
        plain_1w = [inv for inv in invocations if inv.mode == "plain" and inv.args == args_1w]
        pool_s = _median([inv.record.get("ensemble_s") for inv in plain])
        per_inv, tables = [], []
        for inv in traced:
            layers, root_ns, self_sum = layer_table(inv.record["spans"])
            if root_ns < 0 or self_sum != root_ns:
                problems.append(f"{name} traced invocation: span self times sum to "
                                f"{self_sum} ns, root span is {root_ns} ns")
            per_inv.append(layer_metrics(layers, pool_s, threads))
            tables.append((layers, max(root_ns, 1)))
        per_inv = per_inv or [layer_metrics({}, pool_s, threads)]
        metrics = {key: _median([m[key] for m in per_inv]) for key in per_inv[0]}
        untraced_wall = _median([inv.wall_s for inv in plain_1w])
        metrics["trace.overhead_pct"] = (
            100.0 * (_median([inv.wall_s for inv in traced]) / untraced_wall - 1.0)
            if untraced_wall else 0.0)
        samples = {"traced": len(traced), "untraced_1_worker": len(plain_1w),
                   "untraced": len(plain)}
        if tables:
            layers, root_ns = tables[-1]
            detail["layers"] = {
                k: {"calls": v.calls, "inclusive_s": v.inclusive_ns / 1e9,
                    "self_s": v.self_ns / 1e9, "self_share": v.self_ns / root_ns,
                    **v.info}
                for k, v in sorted(layers.items(), key=lambda kv: -kv[1].self_ns)}
            detail["root_s"] = root_ns / 1e9
    detail.update(
        elapsed_s=elapsed,
        failed_fraction=failed / len(invocations),
        digests=sorted(set(digests)),
        invocations=[{"mode": inv.mode, "args": inv.args, "status": inv.status,
                      "wall_s": inv.wall_s, "setup_s": inv.setup_s,
                      "run_steps_per_s": inv.run_steps_per_s,
                      "peak_rss_mb": inv.peak_rss_mb, "sha256": inv.digest,
                      "problem": inv.problem}
                     for inv in probes + invocations],
        versions={k: (invocations or probes)[0].record.get(k)
                  for k in ("python", "numpy", "erwlab")},
    )
    return RunResult(not problems, len(invocations), failed, metrics, samples, problems,
                     detail)


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def git_rev(root: Path) -> Optional[str]:
    """Commit of a git checkout at `root`, read from .git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(result: RunResult, args: list[str]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **result.detail["versions"],
        "git_rev": git_rev(ROOT),
        "argv": ["erwlab", *args],
    }


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(result: RunResult, units: dict[str, str]) -> dict:
    """The final line of output; a declared metric the run lacks is an error."""
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {key: {"value": result.metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "erwlab" / "cli.py").is_file():
        print(f"no erwlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_workloads()
    if opts.workload not in spec["workloads"]:
        parser.error(f"unknown workload {opts.workload!r}; "
                     f"choose from {sorted(spec['workloads'])}")
    workload = spec["workloads"][opts.workload]
    units = metric_units(bool(opts.trace))

    result = run_workload(opts.workload, workload, opts.seed, opts.seconds,
                          bool(opts.trace), spec["pinned_seed"])
    args = cli_args(workload, opts.seed, workload["threads"])
    prov = provenance(result, args)
    gated = "gated by the pinned digest" if opts.seed == spec["pinned_seed"] else (
        f"not gated: the pinned digest is for seed {spec['pinned_seed']}")

    print(f"workload {opts.workload}, seed {opts.seed}, trace {opts.trace}: "
          f"{result.attempted} invocations in {result.detail['elapsed_s']:.1f} s; "
          f"samples {result.samples}")
    for key, unit in units.items():
        print(f"  {key:40s} {result.metrics.get(key, float('nan')):14.6g} {unit}")
    for key in sorted(set(result.metrics) - set(units)):
        print(f"  {key:40s} {result.metrics[key]:14.6g} s (not declared: 0 on workloads "
              f"that never call the layer)")
    print(f"  failed_fraction {result.detail['failed_fraction']:.6g} "
          f"({result.failed} of {result.attempted})")
    print(f"  report sha256 {', '.join(result.detail['digests']) or 'none'} ({gated})")
    for layer, row in result.detail.get("layers", {}).items():
        print(f"  span {layer:26s} calls {row['calls']:8d}  self {row['self_s']:9.4f} s "
              f"({100 * row['self_share']:5.1f}%)  inclusive {row['inclusive_s']:9.4f} s")
    for problem in result.problems:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    out.write_text(json.dumps(
        {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
         "correct": result.correct, "attempted": result.attempted,
         "failed": result.failed, "metrics": result.metrics, "samples": result.samples,
         "problems": result.problems, "provenance": prov, **result.detail},
        indent=1, sort_keys=True))

    print(json.dumps(result_line(result, units)))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
