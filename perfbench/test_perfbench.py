"""Self-test of the benchmark: its checks reject corrupted reports, its
independent references agree with brute force, and its smoke mode passes.

Run with: python3 -m pytest perfbench -q
"""

import dataclasses
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from checks import check_run, is_known_fault, reference
from run import RUN_FNS, Bench

HERE = Path(__file__).resolve().parent


def case_named(workload, label, seed=0):
    return next(c for c in workloads.build(workload, seed) if c.label == label)


def run_case(case):
    before = case.objective.eval_count
    report = RUN_FNS[case.method](case.objective, case.box, case.config)
    return report, case.objective.eval_count - before


@pytest.fixture(scope="module")
def styblinski():
    case = case_named("tables", "t2 styblinski_tang d=2 q=5")
    report, delta = run_case(case)
    return case, reference(case), report, delta


def test_genuine_report_passes(styblinski):
    case, ref, report, delta = styblinski
    assert check_run(case, ref, report, delta) == {}


def test_perturbed_found_value_is_rejected(styblinski):
    case, ref, report, delta = styblinski
    bad = dataclasses.replace(report, found_value=report.found_value + 1e-6)
    assert "value_at_point" in check_run(case, ref, bad, delta)


def test_point_outside_box_is_rejected(styblinski):
    case, ref, report, delta = styblinski
    point = report.found_point.copy()
    point[0] = case.box.upper[0] + 1e-3
    bad = dataclasses.replace(report, found_point=point)
    assert "in_box" in check_run(case, ref, bad, delta)


def test_wrong_eval_count_is_rejected(styblinski):
    case, ref, report, delta = styblinski
    bad = dataclasses.replace(report, total_f_evals=report.total_f_evals + 1)
    assert "counter" in check_run(case, ref, bad, delta)
    assert "counter" in check_run(case, ref, report, delta - 1)
    no_refine = dataclasses.replace(report, total_f_evals=len(report.iterations) * ref.lattice_size)
    assert "refine_evals" in check_run(case, ref, no_refine, no_refine.total_f_evals)


def test_value_below_minimum_is_rejected(styblinski):
    case, ref, report, delta = styblinski
    bad = dataclasses.replace(report, found_value=ref.minimum - 1e-6)
    assert "above_minimum" in check_run(case, ref, bad, delta)


def test_value_worse_than_first_lattice_is_rejected(styblinski):
    case, ref, report, delta = styblinski
    corner = case.box.upper.copy()
    value, _ = checks.evaluate(case, corner)
    bad = dataclasses.replace(report, found_point=corner, found_value=value)
    failures = check_run(case, ref, bad, delta)
    assert "first_lattice" in failures and "value_at_point" not in failures


def test_box_growing_between_iterations_is_rejected(styblinski):
    case, ref, report, delta = styblinski
    records = list(report.iterations)
    last = records[-1]
    records[-1] = dataclasses.replace(last, bounds_after=last.bounds_before, bounds_before=case.box)
    bad = dataclasses.replace(report, iterations=records)
    assert "nested" in check_run(case, ref, bad, delta)


def test_trapped_rastrigin_row_is_the_known_fault():
    case = case_named("tables", "t1 rastrigin d=2 q=5")
    report, delta = run_case(case)
    failures = check_run(case, reference(case), report, delta)
    assert set(failures) == {"accuracy"}
    assert is_known_fault(case, failures)
    assert not is_known_fault(case, {"accuracy": "", "counter": ""})


def test_styblinski_minimum_from_the_cubic():
    x = checks._styblinski_axis_minimizer(-5.0, 5.0)
    assert abs(4 * x**3 - 32 * x + 5) < 1e-12
    assert 0.5 * (x**4 - 16 * x * x + 5 * x) == pytest.approx(-39.16616570377141, rel=1e-14)


def test_integer_root_at_exact_powers():
    assert checks.integer_root(10**7, 7) == 10
    assert checks.integer_root(10**7 - 1, 7) == 9
    assert checks.integer_root(10**7, 5) == 25


@pytest.mark.parametrize("formula,dim", [("rosenbrock", 3), ("styblinski_tang", 3),
                                         ("ellipsoid", 3), ("ackley", 2)])
def test_first_lattice_argmin_matches_brute_force(formula, dim):
    case = workloads.Case(
        label="probe", method="qags", objective=None,
        box=workloads.SearchBox.cube(dim, -4.0, 3.0),
        config=workloads.qags.QagsConfig(qubits_per_dim=3),
        formula=formula,
        params=workloads.ellipsoid_params(dim, 1) if formula == "ellipsoid" else {},
    )
    axes = [checks.axis_points(-4.0, 3.0, 8)] * dim
    brute = min(checks.evaluate(case, np.array(p))[0] for p in itertools.product(*axes))
    assert checks.evaluate(case, checks.first_lattice_argmin(case))[0] == pytest.approx(
        brute, rel=1e-12, abs=1e-12
    )


def test_traced_pass_balances_and_restores_call_sites():
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.CALL_SITES]
    bench = Bench("tables", 0)
    bench.cases, bench.refs = bench.cases[4:6], bench.refs[4:6]
    metrics, _, tracer = bench.traced_pass()
    assert bench.problems == []
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.CALL_SITES] == originals
    assert metrics["driver.run.s"] == pytest.approx(
        sum(metrics[name] for name in metrics
            if name.endswith(".s") and name not in ("driver.run.s", "classical.run_ags.s")),
        rel=1e-9,
    )
    assert metrics["refine.evals"] == metrics["objectives.evaluate.calls"]


def test_smoke_mode_passes():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count("smoke ") == len(workloads.WORKLOADS)


def test_scaled_pass_checks_every_run():
    bench = Bench("tables", 0)
    bench.cases, bench.refs = bench.cases[4:6], bench.refs[4:6]
    times, reports = bench.one_pass(scaled=True)
    assert len(times) == len(reports) == 2 and all(t > 0 for t in times)
    assert (bench.attempted, bench.failed, bench.problems) == (2, 0, [])


def test_setup_probe_prints_set_up_and_probe_seconds():
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "tables", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, probe = map(float, out.stdout.split())
    assert seconds > 0 and 0 < probe < seconds
