"""Finite-shot runs against a reference loop built from the public layers.

Each iteration k measures with ``sample(dist, shots, seed + k - 1)``; the
driver, which reads the draw off its support instead, must report
exactly what the layers give when chained by hand on the dense
empirical vector.  The cases cover both kinds of threshold: a 2^8-state
grid where the draw leaves few zero states (a positive threshold), and
grids with N >= 4 * shots where most states are never drawn, so that
both ranks of the quantile fall on zeros (threshold 0.0).
"""

import hashlib

import numpy as np
import pytest

from qags.contraction import (
    Verdict,
    contract_bounds,
    select_region,
    select_support,
    should_terminate,
)
from qags.driver import QagsConfig, run
from qags.errors import InvalidInputError
from qags.grid import GridSpec, SearchBox, decode
from qags.objectives import get_objective
from qags.quantum import (
    EncodingLaw,
    QuantumDistribution,
    build_distribution,
    distribution_from_values,
    draw,
    entropy_fraction,
    frequencies,
    grid_values,
    sample,
)
from qags.refine import refine


def reference_run(f, box, cfg):
    """The sampled loop by hand; also counts the iterations whose drawn
    vector has enough zeros (quantile * N + 2) that its threshold is 0.0."""
    evals_at_start = f.eval_count
    records, zero_thresholds = [], 0
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
        zero_thresholds += probs.size - np.count_nonzero(probs) >= cfg.quantile * probs.size + 2
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
    return records, point, value, f.eval_count - evals_at_start, zero_thresholds


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
    # (objective, dim, box half-width, qubits, shots, threshold 0.0 throughout)
    pytest.param("sphere", 2, 5.0, 4, 4096, False, id="sphere-d2-q4-2^8-states"),
    pytest.param("rastrigin", 2, 5.12, 4, 1024, False, id="rastrigin-d2-q4-2^8-states"),
    pytest.param("sphere", 3, 5.0, 4, 256, True, id="sphere-d3-q4-2^12-states"),
    pytest.param("rastrigin", 4, 5.12, 3, 512, True, id="rastrigin-d4-q3-2^12-states"),
]


@pytest.mark.parametrize("law", list(EncodingLaw), ids=lambda law: law.value)
@pytest.mark.parametrize("name,dim,half,qubits,shots,zero_threshold", CASES)
def test_run_equals_reference_loop(name, dim, half, qubits, shots, zero_threshold, law):
    box = SearchBox.cube(dim, -half, half)
    cfg = QagsConfig(qubits_per_dim=qubits, law=law, shots=shots, seed=3)
    f = get_objective(name, dim)
    ref_records, ref_point, ref_value, ref_evals, zero_thresholds = reference_run(f, box, cfg)
    report = run(get_objective(name, dim), box, cfg)

    assert report_records(report) == ref_records
    assert report.found_point.tobytes() == np.asarray(ref_point, dtype=np.float64).tobytes()
    assert report.found_value == ref_value
    assert report.total_f_evals == ref_evals
    if zero_threshold:
        assert zero_thresholds == len(ref_records)
    else:
        assert zero_thresholds == 0


# --- the draw and its sparse readout ------------------------------------------


def _support_dist(spec, states, rng):
    """A distribution with positive, unequal mass on exactly the given
    states and zero elsewhere."""
    probs = np.zeros(spec.total_points)
    probs[states] = rng.uniform(1.0, 3.0, states.size)
    probs /= probs.sum()
    return QuantumDistribution(spec, probs, int(np.argmax(probs)), 1.0, 0.0)


def _dense_reference(emp, quantile):
    """select_region's rule on the dense empirical vector, by np.quantile."""
    probs = emp.probabilities
    threshold = float(np.quantile(probs, quantile))
    mask = (probs >= threshold) & (probs > 0.0)
    mask[emp.f_min_index] = True
    return threshold, np.flatnonzero(mask)


# (zero count - quantile * N) of the drawn vector on a 2^8-state grid at
# quantile 0.75: ranks 191 and 192 straddle the zero run at -0, both
# fall on zeros from +1, and quantile * N + 2 zeros guarantee it from +2.
@pytest.mark.parametrize("offset", [0, 1, 2, 3])
def test_sparse_readout_equals_dense_quantile(offset):
    spec = GridSpec(2, 4, SearchBox.cube(2, -1.0, 1.0))
    quantile = 0.75
    zeros = int(quantile * spec.total_points) + offset
    rng = np.random.default_rng(offset)
    states = np.sort(rng.choice(spec.total_points, spec.total_points - zeros, replace=False))
    dist = _support_dist(spec, states, rng)
    shots = 200 * states.size  # every state is drawn

    support, counts = draw(dist, shots, seed=offset)
    assert np.array_equal(support, states)
    emp = sample(dist, shots, seed=offset)
    assert spec.total_points - np.count_nonzero(emp.probabilities) == zeros
    freq = frequencies(counts)
    assert np.array_equal(emp.probabilities[support], freq)

    threshold, selected = _dense_reference(emp, quantile)
    sparse = select_support(support, freq, spec.total_points, quantile)
    dense = select_region(emp, quantile)
    for sel in (sparse, dense):
        assert np.float64(sel.threshold_probability).tobytes() == np.float64(threshold).tobytes()
        assert np.array_equal(sel.selected_indices, selected)
    if offset == 0:
        # interpolated between a zero and the least frequency
        assert 0.0 < threshold < freq.min()
    else:
        assert threshold == 0.0 and np.array_equal(selected, support)


def test_sample_is_draw_spread_over_the_grid():
    # pinned at the commit before sample was split into draw and spread,
    # so the split cannot move a draw
    spec = GridSpec(3, 4, SearchBox.cube(3, -5.12, 5.12))
    dist = build_distribution(
        get_objective("rastrigin", 3), spec, EncodingLaw.BOLTZMANN_AMPLITUDE
    )
    emp = sample(dist, 4096, seed=5)
    digest = hashlib.sha256(emp.probabilities.tobytes()).hexdigest()
    assert digest == "cb8599c69b8211caad31eabc0c163b06fcf191671fc411924a3ab0aaf22084e3"
    assert emp.f_min_index == 1686
    assert emp.entropy_bits == 9.27852969037394
    support, counts = draw(dist, 4096, seed=5)
    assert support.size == np.count_nonzero(emp.probabilities) == 1184
    assert counts.sum() == 4096
    assert np.array_equal(np.flatnonzero(emp.probabilities), support)
    assert np.array_equal(emp.probabilities[support], frequencies(counts))


def test_draw_needs_a_shot_and_frequencies_are_checked():
    spec = GridSpec(1, 2, SearchBox.cube(1, 0.0, 1.0))
    dist = QuantumDistribution(spec, np.full(4, 0.25), 0, 1.0, 2.0)
    with pytest.raises(InvalidInputError):
        draw(dist, 0, seed=0)
    assert sample(dist, 0, seed=0) is dist
    with pytest.raises(InvalidInputError):
        frequencies(np.array([3, -1]))
