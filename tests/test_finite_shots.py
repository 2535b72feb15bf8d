"""Finite-shot runs against a reference loop built from the public layers.

Each iteration k measures with ``sample(dist, shots, seed + k - 1)``; the
driver must report exactly what the layers give when chained by hand.
The cases cover both selection branches: a 2^8-state grid where the
draw leaves few zero states (``np.quantile`` threshold), and grids with
N >= 4 * shots where most states are never drawn (zero-run shortcut).
"""

import numpy as np
import pytest

from qags.contraction import Verdict, contract_bounds, select_region, should_terminate
from qags.driver import QagsConfig, run
from qags.grid import GridSpec, SearchBox, decode
from qags.objectives import get_objective
from qags.quantum import EncodingLaw, distribution_from_values, entropy_fraction, grid_values, sample
from qags.refine import refine


def reference_run(f, box, cfg):
    """The sampled loop by hand; also counts the iterations whose drawn
    vector has enough zeros for select_region's zero-run shortcut."""
    evals_at_start = f.eval_count
    records, shortcuts = [], 0
    best_value, best_point = np.inf, None
    for k in range(1, cfg.termination.k_max + 1):
        spec = GridSpec(f.arity, cfg.qubits_per_dim, box)
        values = grid_values(f, spec)
        dist = distribution_from_values(spec, values, cfg.law)
        if float(values[dist.f_min_index]) < best_value:
            best_value = float(values[dist.f_min_index])
            best_point = decode(spec, dist.f_min_index)
        dist = sample(dist, cfg.shots, cfg.seed + k - 1)
        probs = dist.probabilities
        shortcuts += probs.size - np.count_nonzero(probs) >= cfg.quantile * probs.size + 2
        selection = select_region(dist, cfg.quantile)
        box_next = contract_bounds(spec, selection)
        verdict = should_terminate(box, box_next, entropy_fraction(dist), k, cfg.termination)
        records.append(
            (
                k,
                box.lower.tobytes(),
                box.upper.tobytes(),
                box_next.lower.tobytes(),
                box_next.upper.tobytes(),
                int(selection.selected_indices.size),
                float(entropy_fraction(dist)),
                best_point.tobytes(),
                best_value,
                verdict,
            )
        )
        box = box_next
        if verdict is not Verdict.CONTINUE:
            break
    point, value, _ = refine(f, box, box.clip(best_point), cfg.refiner)
    if best_value < value:
        point, value = best_point.copy(), best_value
    return records, point, value, f.eval_count - evals_at_start, shortcuts


def report_records(report):
    return [
        (
            rec.k,
            rec.bounds_before.lower.tobytes(),
            rec.bounds_before.upper.tobytes(),
            rec.bounds_after.lower.tobytes(),
            rec.bounds_after.upper.tobytes(),
            rec.selected_count,
            rec.entropy_fraction,
            rec.best_point_so_far.tobytes(),
            rec.best_value_so_far,
            rec.verdict,
        )
        for rec in report.iterations
    ]


CASES = [
    # (objective, dim, box half-width, qubits, shots, zero-run shortcut taken)
    pytest.param("sphere", 2, 5.0, 4, 4096, False, id="sphere-d2-q4-2^8-states"),
    pytest.param("rastrigin", 2, 5.12, 4, 1024, False, id="rastrigin-d2-q4-2^8-states"),
    pytest.param("sphere", 3, 5.0, 4, 256, True, id="sphere-d3-q4-2^12-states"),
    pytest.param("rastrigin", 4, 5.12, 3, 512, True, id="rastrigin-d4-q3-2^12-states"),
]


@pytest.mark.parametrize("law", list(EncodingLaw), ids=lambda law: law.value)
@pytest.mark.parametrize("name,dim,half,qubits,shots,shortcut", CASES)
def test_run_equals_reference_loop(name, dim, half, qubits, shots, shortcut, law):
    box = SearchBox.cube(dim, -half, half)
    cfg = QagsConfig(qubits_per_dim=qubits, law=law, shots=shots, seed=3)
    f = get_objective(name, dim)
    ref_records, ref_point, ref_value, ref_evals, shortcuts = reference_run(f, box, cfg)
    report = run(get_objective(name, dim), box, cfg)

    assert report_records(report) == ref_records
    assert report.found_point.tobytes() == np.asarray(ref_point, dtype=np.float64).tobytes()
    assert report.found_value == ref_value
    assert report.total_f_evals == ref_evals
    if shortcut:
        assert shortcuts == len(ref_records)
    else:
        assert shortcuts == 0
