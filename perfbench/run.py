"""Benchmark of qags: whole runs end to end, and each layer of a run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both passes
    python3 perfbench/run.py --smoke             # one traced pass of each

NAME is one of tables, wide-lattice, compare, custom-objective.  With
``--trace 0`` it prints the end-to-end metrics (setup_s, pass_s, f_evals,
peak_bytes), with ``--trace 1`` the per-layer ones; the last line of
standard output is one JSON object.  The load is closed-loop: one process
and one thread run the workload's cases one after another.  Every run's
report is checked by ``checks.py``.  The timed end-to-end figures are
scaled to the reference host's speed by ``speed.py``'s probe, timed right
beside every measured run.  See README.md in this directory.
"""

import os

# one BLAS/OpenMP thread, set before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import checkout  # noqa: E402
import qags  # noqa: E402
import speed  # noqa: E402
from checks import check_run, is_known_fault, reference  # noqa: E402
from tracing import SELF_NAMES, SPAN_NAMES, Tracer, installed  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

SETUP_PROBES = 15
MIN_TIMED_PASSES = 3
SPAN_BALANCE_TOL = 1e-9
RUN_FNS = {"qags": qags.driver.run, "ags": qags.classical.run_ags}

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "f_evals": "count", "peak_bytes": "bytes"}
PER_LAYER_UNITS = {
    **{name + ".s": "s" for name in SPAN_NAMES + tuple(SELF_NAMES)},
    **{name: "s" for name in SELF_NAMES.values()},
    **dict.fromkeys(
        (
            "quantum.grid_values.states",
            "grid.decode_many.hull.rows",
            "objectives.evaluate_batch.rows",
            "contraction.selected_states",
            "refine.evals",
            "refine.budget_exhausted",
            "objectives.evaluate.calls",
            "driver.iterations",
            "driver.static_iterations",
            "classical.lattice_points",
        ),
        "count",
    ),
    "driver.contracting_share": "ratio",
    "driver.peak_model_bytes": "bytes",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_share": "ratio",
    "host.probe_s": "s",
}


def setup_seconds(workload, seed):
    """Median of SETUP_PROBES fresh-interpreter set-up times, each scaled
    to reference speed by the speed probe run in the same interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, probe = map(float, out.stdout.split()[-2:])
        times.append(speed.at_reference(seconds, probe))
    return statistics.median(times)


class Bench:
    """One workload's cases and the tally of their checked runs."""

    def __init__(self, workload, seed):
        self.cases = build(workload, seed)
        self.refs = [reference(case) for case in self.cases]
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failures other than the known fault

    def plain(self, case):
        return RUN_FNS[case.method](case.objective, case.box, case.config)

    def one_pass(self, call=None, scaled=False):
        """Run every case once, closed loop, then check each report.
        Returns (wall seconds of each run, reports).  With ``scaled`` the
        speed probe also runs before the first run and after each, and
        each run's seconds are scaled to reference speed by the faster of
        the probes on either side of it."""
        call = call or self.plain
        done = []
        probe = speed.probe_s() if scaled else None
        for case in self.cases:
            before = case.objective.eval_count
            started = time.perf_counter()
            report = call(case)
            elapsed = time.perf_counter() - started
            if scaled:
                after = speed.probe_s()
                elapsed = speed.at_reference(elapsed, min(probe, after))
                probe = after
            done.append((case, report, case.objective.eval_count - before, elapsed))
        for (case, report, delta, _), ref in zip(done, self.refs):
            failures = check_run(case, ref, report, delta)
            self.attempted += 1
            if failures:
                self.failed += 1
                if not is_known_fault(case, failures):
                    self.problems.append(f"{case.label}: {failures}")
        return [row[3] for row in done], [row[1] for row in done]

    def memory_pass(self):
        """Highest tracemalloc peak over the pass's runs, each counted
        from what was allocated when it started."""
        peaks = []

        def measured(case):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = self.plain(case)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return report

        tracemalloc.start()
        try:
            self.one_pass(measured)
        finally:
            tracemalloc.stop()
        return max(peaks)

    def traced_pass(self):
        """One pass with every layer call site wrapped; returns the
        pass's per-layer metrics, its runs' wall times and its spans."""
        tracer = Tracer()
        with installed(tracer):
            times, reports = self.one_pass(
                lambda case: tracer.run(
                    case.label, case.method, RUN_FNS[case.method],
                    case.objective, case.box, case.config,
                )
            )
        for label, wall, self_sum, lowest in tracer.run_balance():
            if abs(self_sum - wall) > SPAN_BALANCE_TOL or lowest < -SPAN_BALANCE_TOL:
                self.problems.append(
                    f"{label}: span self times sum to {self_sum!r} of wall {wall!r} "
                    f"(lowest {lowest!r})"
                )
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
        metrics.update(tracer.layer_seconds())
        metrics.update(tracer.counts)
        metrics.update(self.report_counts(reports))
        return metrics, times, tracer

    def report_counts(self, reports):
        """Per-layer counts read off the reports of one pass."""
        runs = list(zip(self.cases, reports, self.refs))
        iters = [rec for case, rep, _ in runs if case.method == "qags" for rec in rep.iterations]
        static = sum(rec.bounds_after == rec.bounds_before for rec in iters)
        return {
            "driver.iterations": len(iters),
            "driver.static_iterations": static,
            "driver.contracting_share": (len(iters) - static) / len(iters),
            "driver.peak_model_bytes": max(
                rep.peak_model_bytes for case, rep, _ in runs if case.method == "qags"
            ),
            "classical.lattice_points": sum(
                len(rep.iterations) * ref.lattice_size
                for case, rep, ref in runs if case.method == "ags"
            ),
        }


def fastest_pass(passes):
    """Time of a pass with no interference, from each pass's per-run
    times: every run's fastest time over the passes, summed.  Interference
    only ever adds time, so the minimum is the steadiest estimate of what
    the runs themselves cost (the convention of ``timeit``)."""
    return sum(min(run_times) for run_times in zip(*passes))


def end_to_end(bench, seconds):
    peak = bench.memory_pass()  # also warms caches before timing
    passes, evals = [], set()
    started = time.perf_counter()
    while len(passes) < MIN_TIMED_PASSES or time.perf_counter() - started < seconds:
        times, reports = bench.one_pass(scaled=True)
        passes.append(times)
        evals.add(sum(rep.total_f_evals for rep in reports))
    if len(evals) != 1:
        bench.problems.append(f"f_evals differ between passes: {sorted(evals)}")
    return {"pass_s": fastest_pass(passes), "f_evals": evals.pop(), "peak_bytes": peak}


def per_layer(bench, seconds):
    """Traced and untraced passes in turn, after an untraced warm-up."""
    bench.one_pass()
    samples, traced, untraced, probes = [], [], [], []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < seconds:
        metrics, times, tracer = bench.traced_pass()
        samples.append(metrics)
        traced.append(times)
        untraced.append(bench.one_pass()[0])
        probes.append(speed.probe_s())
    values = {name: statistics.median(s[name] for s in samples) for name in PER_LAYER_UNITS}
    values["trace.pass_s"] = fastest_pass(traced)
    values["trace.untraced_pass_s"] = fastest_pass(untraced)
    values["trace.overhead_share"] = values["trace.pass_s"] / values["trace.untraced_pass_s"] - 1.0
    values["host.probe_s"] = statistics.median(probes)
    return values, tracer


def measure(workload, seed, seconds, trace):
    if trace:
        bench = Bench(workload, seed)
        values, tracer = per_layer(bench, seconds)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{workload}-seed{seed}.spans.json").write_text(json.dumps(tracer.to_json()))
        units = PER_LAYER_UNITS
    else:
        setup_s = setup_seconds(workload, seed)
        bench = Bench(workload, seed)
        values = {"setup_s": setup_s, **end_to_end(bench, seconds)}
        units = END_TO_END_UNITS
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, bench.problems


def print_table(title, result, problems):
    print(f"== {title}: {result['attempted']} runs attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"   {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"   UNEXPECTED: {problem}")


def smoke(seed):
    """One traced pass of every workload, with every check."""
    ok = True
    for workload in WORKLOADS:
        bench = Bench(workload, seed)
        _, times, _ = bench.traced_pass()
        print(f"smoke {workload}: {bench.attempted} runs, {bench.failed} failed, "
              f"traced pass {sum(times):.3f} s")
        for problem in bench.problems:
            print(f"   UNEXPECTED: {problem}")
        ok = ok and not bench.problems
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if Path(qags.__file__).resolve().parent != checkout.SRC / "qags":
        parser.error(f"qags was imported from {qags.__file__}, not {checkout.SRC}")

    if args.smoke:
        return 0 if smoke(args.seed) else 1
    if args.workload == "all":
        results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, problems = measure(workload, args.seed, args.seconds, trace)
                print_table(f"{workload} --trace {trace}", result, problems)
                results[f"{workload}/trace{trace}"] = result
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1

    result, problems = measure(args.workload, args.seed, args.seconds, args.trace)
    print_table(args.workload, result, problems)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
