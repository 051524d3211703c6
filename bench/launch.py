"""Run one `erwlab` CLI invocation in this interpreter, timed from outside.

    python3 bench/launch.py MODE RECORD -- EXPERIMENT [FLAGS...]

MODE is one of:

- ``setup``: stop as soon as ``parse_and_validate`` returns (set-up time only);
- ``plain``: run the experiment with two boundary timers, the moment the spec
  is ready and the time spent in ``run_ensemble``;
- ``trace``: also record a span around each layer entry point listed in
  ``install_tracing``.

RECORD is a JSON file written at exit.  It holds CLOCK_MONOTONIC time stamps,
which the parent process shares, the versions of Python, numpy and erwlab,
the peak RSS of this process and of its reaped children, and in trace mode
every span as ``[name, parent_index, start_ns, end_ns, info]``.  Spans are
kept in memory and written only at exit.  The wrapping is done from here, on
module attributes, so the package itself carries no instrumentation.
"""

import sys
import time

import erwlab
from erwlab import cli


class Tracer:
    """Nested spans of one thread, kept in memory until the process ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, fn, name, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            extra = info(*args, **kwargs) if info is not None else None
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0, extra])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def patch(self, owner, attr, name, info=None):
        setattr(owner, attr, self.span(getattr(owner, attr), name, info))


def install_tracing(tracer):
    """Wrap each layer's entry points where their callers look them up."""
    import numpy as np
    from erwlab import ensemble, experiments, limits, oracle

    tracer.patch(cli, "parse_and_validate", "cli.parse")
    tracer.patch(cli, "run_experiment_by_name", "experiments.run")
    tracer.patch(experiments.ExperimentReport, "write_csv", "experiments.report_write")
    tracer.patch(experiments.ExperimentReport, "write_json", "experiments.report_write")
    tracer.patch(experiments, "run_ensemble", "ensemble.run")
    tracer.patch(ensemble, "_simulate_chunk", "ensemble.chunk",
                 lambda params, schedule, grid, seed, lo, hi, *rest:
                 {"run_steps": (hi - lo) * grid[-1]})
    tracer.patch(ensemble._ChunkStreams, "fill", "ensemble.fill",
                 lambda streams, out, nb:
                 {"streams": out.shape[0], "uniforms": out.shape[0] * nb})
    tracer.patch(ensemble, "_cut_points", "walk.cut_points",
                 lambda p, q, r, w, size, sm, nz: {"runs": int(np.size(sm))})
    tracer.patch(experiments, "ks_statistic", "ensemble.ks",
                 lambda sample, target: {"points": int(np.unique(sample).size)})
    tracer.patch(experiments, "total_variation", "ensemble.tv")
    tracer.patch(experiments, "enumerate_pmf", "oracle.enumerate")
    for module in (experiments, ensemble, oracle):
        for attr in ("exact_moments_full", "exact_moments_increasing",
                     "exact_mean_nonzeros", "growing_mean_profile"):
            if hasattr(module, attr):
                tracer.patch(module, attr, "oracle.exact")
    tracer.patch(limits.LimitCdf, "__call__", "limits.cdf")


def main(mode, record_path, argv):
    record = {"mode": mode, "ensemble_s": 0.0}
    parse = cli.parse_and_validate

    def timed_parse(*args, **kwargs):
        spec = parse(*args, **kwargs)
        record["spec_ready"] = time.monotonic()
        record["run_steps"] = spec.runs * spec.n
        return spec

    def timed_run_ensemble(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return run_ensemble(*args, **kwargs)
        finally:
            record["ensemble_s"] += time.perf_counter() - t0

    cli.parse_and_validate = timed_parse
    status = 1
    try:
        if mode == "setup":
            cli.parse_and_validate(argv)
            status = 0
            return status
        from erwlab import experiments

        run_ensemble = experiments.run_ensemble
        experiments.run_ensemble = timed_run_ensemble
        if mode == "trace":
            tracer = Tracer()
            install_tracing(tracer)
            record["spans"] = tracer.spans
            status = tracer.span(cli.main, "cli.main")(argv)
        else:
            status = cli.main(argv)
        record["report_written"] = time.monotonic()
        return status
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
        raise
    finally:
        import json
        import resource

        import numpy

        record.update(
            status=status,
            python="%d.%d.%d" % sys.version_info[:3],
            numpy=numpy.__version__,
            erwlab=erwlab.__version__,
            self_maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            children_maxrss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[1] not in ("setup", "plain", "trace") or sys.argv[3] != "--":
        sys.exit("usage: launch.py setup|plain|trace RECORD -- EXPERIMENT [FLAGS...]")
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[4:]))
