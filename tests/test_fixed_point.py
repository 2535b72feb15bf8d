"""Stopping at the contraction fixed point.

At exact readout an iteration is a pure function of its box, so the
driver stops at the first iteration that leaves the box unchanged
(verdict FIXED_POINT).  A reference loop built from the public layers
runs on to k_max; stopping early must move nothing but the iteration
list, its last verdict and the evaluation count.
"""

import numpy as np
import pytest

from qags.cli import _BENCH_PRESETS
from qags.contraction import (
    TerminationPolicy,
    Verdict,
    contract_bounds,
    select_region,
    should_terminate,
)
from qags.driver import IterationRecord, QagsConfig, run
from qags.grid import GridSpec, SearchBox, decode
from qags.objectives import ObjectiveFunction, get_objective, make_sphere
from qags.quantum import EncodingLaw, distribution_from_values, entropy_fraction, grid_values
from qags.refine import refine


def reference_run(f, box, cfg):
    """The loop without the fixed-point stop: three stopping rules only,
    then refinement from the final box as the driver's report does."""
    evals_at_start = f.eval_count
    records = []
    best_value, best_point = np.inf, None
    for k in range(1, cfg.termination.k_max + 1):
        spec = GridSpec(f.arity, cfg.qubits_per_dim, box)
        values = grid_values(f, spec)
        dist = distribution_from_values(spec, values, cfg.law)
        if float(values[dist.f_min_index]) < best_value:
            best_value = float(values[dist.f_min_index])
            best_point = decode(spec, dist.f_min_index)
        selection = select_region(dist, cfg.quantile)
        box_next = contract_bounds(spec, selection)
        verdict = should_terminate(box, box_next, entropy_fraction(dist), k, cfg.termination)
        records.append(
            IterationRecord(
                k=k,
                bounds_before=box,
                bounds_after=box_next,
                selected_count=int(selection.selected_indices.size),
                entropy_fraction=float(entropy_fraction(dist)),
                best_point_so_far=best_point.copy(),
                best_value_so_far=best_value,
                verdict=verdict,
            )
        )
        box = box_next
        if verdict is not Verdict.CONTINUE:
            break
    point, value, _ = refine(f, box, box.clip(best_point), cfg.refiner)
    if best_value < value:
        point, value = best_point.copy(), best_value
    return records, point, value, f.eval_count - evals_at_start


def box_bits(box):
    """A box compared bit for bit, so the sign of a zero bound counts."""
    return box.lower.tobytes(), box.upper.tobytes()


def record_bits(rec):
    return (
        rec.k,
        box_bits(rec.bounds_before),
        box_bits(rec.bounds_after),
        rec.selected_count,
        rec.entropy_fraction,
        rec.best_point_so_far.tobytes(),
        rec.best_value_so_far,
    )


def ackley_batch(pts):
    d = pts.shape[1]
    rms = np.sqrt(np.sum(pts * pts, axis=1) / d)
    mean_cos = np.sum(np.cos(2.0 * np.pi * pts), axis=1) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e


def batch_only_ackley(dim):
    return ObjectiveFunction(
        name="ackley",
        arity=dim,
        fn=lambda x: float(ackley_batch(np.asarray(x)[None, :])[0]),
        batch_fn=ackley_batch,
        kernel_kind=None,
    )


def negative_zero_case():
    # sphere centred in [-0.0, 10]^3: the 4-point hull is the whole box,
    # and the first lattice coordinate -0.0 + 0 * step is +0.0, so the
    # contracted box differs from its predecessor only in the sign of
    # its lower bounds
    box = SearchBox(np.full(3, -0.0), np.full(3, 10.0))
    return get_objective("sphere", 3, shift=np.full(3, 5.0)), box, 2


def equivalence_cases():
    cases = []
    for table, (name, (lo, hi), pairs) in sorted(_BENCH_PRESETS.items()):
        for dim, qubits in pairs:
            cases.append(
                pytest.param(
                    lambda name=name, dim=dim, lo=lo, hi=hi, q=qubits: (
                        get_objective(name, dim), SearchBox.cube(dim, lo, hi), q
                    ),
                    id=f"{table}-{name}-d{dim}-q{qubits}",
                )
            )
    cases.append(
        pytest.param(
            lambda: (batch_only_ackley(2), SearchBox.cube(2, -32.768, 32.768), 6),
            id="batch-only-ackley-d2-q6",
        )
    )
    cases.append(pytest.param(negative_zero_case, id="negative-zero-bound"))
    return cases


@pytest.mark.parametrize("law", list(EncodingLaw), ids=lambda law: law.value)
@pytest.mark.parametrize("make_case", equivalence_cases())
def test_run_equals_reference_loop_to_k_max(make_case, law):
    f, box, qubits = make_case()
    cfg = QagsConfig(qubits_per_dim=qubits, law=law)
    ref_records, ref_point, ref_value, ref_evals = reference_run(f, box, cfg)
    report = run(f, box, cfg)
    records = report.iterations

    assert report.found_point.tobytes() == np.asarray(ref_point, dtype=np.float64).tobytes()
    assert report.found_value == ref_value
    assert box_bits(records[-1].bounds_after) == box_bits(ref_records[-1].bounds_after)

    n = len(records)
    assert n <= len(ref_records)
    assert [record_bits(r) for r in records] == [record_bits(r) for r in ref_records[:n]]
    assert [r.verdict for r in records[:-1]] == [r.verdict for r in ref_records[: n - 1]]
    if n < len(ref_records):
        assert records[-1].verdict is Verdict.FIXED_POINT
        assert ref_records[n - 1].verdict is Verdict.CONTINUE
        assert records[-1].bounds_after == records[-1].bounds_before
    else:
        assert records[-1].verdict is ref_records[-1].verdict
    dropped = len(ref_records) - n
    assert report.total_f_evals == ref_evals - dropped * report.grid_points_per_iteration


def test_negative_zero_bound_stops_on_the_next_start():
    f, box, qubits = negative_zero_case()
    report = run(f, box, QagsConfig(qubits_per_dim=qubits))
    (rec,) = report.iterations
    assert rec.verdict is Verdict.FIXED_POINT
    # equal as boxes, different in the sign bit: the stopped box is the
    # one the next iteration would have started from
    assert np.all(np.signbit(rec.bounds_before.lower))
    assert not np.any(np.signbit(rec.bounds_after.lower))


@pytest.mark.parametrize("law", list(EncodingLaw), ids=lambda law: law.value)
def test_one_more_iteration_from_a_fixed_point_returns_its_box(law):
    f = get_objective("rastrigin", 5)
    cfg = QagsConfig(qubits_per_dim=3, law=law)
    report = run(f, SearchBox.cube(5, -5.12, 5.12), cfg)
    assert report.iterations[-1].verdict is Verdict.FIXED_POINT
    final = report.iterations[-1].bounds_after
    spec = GridSpec(f.arity, cfg.qubits_per_dim, final)
    dist = distribution_from_values(spec, grid_values(f, spec), cfg.law)
    again = contract_bounds(spec, select_region(dist, cfg.quantile))
    assert box_bits(again) == box_bits(final)


def test_finite_shots_never_stop_at_a_fixed_point():
    # 4 points per axis on a centred sphere: the sampled hull keeps the
    # whole box every time, and each iteration draws with a new seed
    f = make_sphere(4)
    box = SearchBox.cube(4, -5.0, 5.0)
    report = run(f, box, QagsConfig(qubits_per_dim=2, shots=64))
    assert len(report.iterations) == 10
    assert all(rec.bounds_after == rec.bounds_before for rec in report.iterations)
    assert Verdict.FIXED_POINT not in [rec.verdict for rec in report.iterations]
    assert report.iterations[-1].verdict is Verdict.MAX_ITERATIONS
    exact = run(make_sphere(4), box, QagsConfig(qubits_per_dim=2))
    assert [rec.verdict for rec in exact.iterations] == [Verdict.FIXED_POINT]


def test_fixed_box_at_the_iteration_cap_reports_max_iterations():
    cfg = QagsConfig(qubits_per_dim=2, termination=TerminationPolicy(k_max=1))
    report = run(make_sphere(4), SearchBox.cube(4, -5.0, 5.0), cfg)
    (rec,) = report.iterations
    assert rec.bounds_after == rec.bounds_before
    assert rec.verdict is Verdict.MAX_ITERATIONS


def test_fixed_box_below_the_width_floor_reports_width_floor():
    cfg = QagsConfig(qubits_per_dim=2)
    report = run(make_sphere(4), SearchBox.cube(4, -1e-8, 1e-8), cfg)
    (rec,) = report.iterations
    assert rec.bounds_after == rec.bounds_before
    assert rec.verdict is Verdict.WIDTH_FLOOR
