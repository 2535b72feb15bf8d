"""Region selection, bound contraction, and termination."""

import numpy as np
import pytest

from qags.contraction import (
    RegionSelection,
    TerminationPolicy,
    Verdict,
    contract_bounds,
    select_region,
    should_terminate,
)
from qags.errors import InvalidInputError
from qags.grid import GridSpec, SearchBox, decode_many
from qags.quantum import (
    EncodingLaw,
    QuantumDistribution,
    distribution_from_values,
    entropy_fraction,
)


def make_dist(probs, f_min_index=None, spec=None, entropy=None):
    probs = np.asarray(probs, dtype=np.float64)
    if spec is None:
        n = int(np.log2(probs.size))
        spec = GridSpec(1, n, SearchBox.cube(1, 0.0, 1.0))
    if f_min_index is None:
        f_min_index = int(np.argmax(probs))
    if entropy is None:
        pos = probs[probs > 0]
        entropy = float(-np.sum(pos * np.log2(pos)))
    return QuantumDistribution(
        spec=spec,
        probabilities=probs,
        f_min_index=f_min_index,
        sigma=1.0,
        entropy_bits=entropy,
    )


class TestSelectRegion:
    def test_known_quantile_threshold(self):
        # quantile(0.75) of [0.4, 0.3, 0.2, 0.1] is 0.325, keeping only 0.4
        sel = select_region(make_dist([0.4, 0.3, 0.2, 0.1]), quantile=0.75)
        assert sel.threshold_probability == 0.325
        assert np.array_equal(sel.selected_indices, [0])

    def test_point_mass_selects_single_state(self):
        sel = select_region(make_dist([0.0, 0.0, 1.0, 0.0]), quantile=0.75)
        assert np.array_equal(sel.selected_indices, [2])

    def test_zero_probability_states_excluded(self):
        # threshold lands at 0 here; the positivity clause must still
        # keep the dead states out
        sel = select_region(make_dist([0.5, 0.5, 0.0, 0.0]), quantile=0.25)
        assert np.array_equal(sel.selected_indices, [0, 1])

    def test_uniform_selects_everything(self):
        sel = select_region(make_dist([0.25] * 4), quantile=0.75)
        assert np.array_equal(sel.selected_indices, [0, 1, 2, 3])

    def test_best_state_always_included(self):
        # ties keep at least the distribution's argmax
        sel = select_region(make_dist([0.25] * 4, f_min_index=3), quantile=0.99)
        assert 3 in sel.selected_indices

    def test_quantile_range_checked(self):
        dist = make_dist([0.5, 0.5])
        with pytest.raises(InvalidInputError):
            select_region(dist, quantile=0.0)
        with pytest.raises(InvalidInputError):
            select_region(dist, quantile=1.0)

    def test_selection_validates(self):
        with pytest.raises(InvalidInputError):
            RegionSelection(
                quantile=0.75,
                selected_indices=np.array([], dtype=np.int64),
                threshold_probability=0.1,
            )


def quantile_reference(dist, quantile):
    """select_region as a plain np.quantile threshold, no zero-run test."""
    probs = dist.probabilities
    threshold = float(np.quantile(probs, quantile))
    mask = (probs >= threshold) & (probs > 0.0)
    mask[dist.f_min_index] = True
    return threshold, np.flatnonzero(mask)


def _sparse_cases():
    """Random vectors whose zero count sweeps quantile * N +- 3."""
    rng = np.random.default_rng(11)
    cases = []
    for size in (4, 16, 1024):
        for quantile in (0.25, 0.5, 0.75, 0.9):
            centre = int(round(quantile * size))
            for zeros in range(max(centre - 3, 0), min(centre + 3, size - 1) + 1):
                for shape in ("uniform", "counts"):
                    probs = rng.uniform(0.0, 1.0, size)
                    if shape == "counts":
                        # frequencies of a finite-shot draw: many ties
                        probs = rng.integers(1, 4, size).astype(np.float64)
                    probs[rng.choice(size, zeros, replace=False)] = 0.0
                    cases.append(
                        pytest.param(
                            probs / probs.sum(), quantile, id=f"N{size}-q{quantile}-z{zeros}-{shape}"
                        )
                    )
    return cases


def _takes_zero_shortcut(probs, quantile):
    return probs.size - np.count_nonzero(probs) >= quantile * probs.size + 2


def _underflow_distributions():
    """Exact-readout distributions on 2^20 states whose weights underflow:
    a few states far below the rest (all of which underflow) and one state
    far above the rest (which alone underflows)."""
    spec = GridSpec(2, 10, SearchBox.cube(2, -1.0, 1.0))
    low = np.zeros(spec.total_points)
    low[[5, 70_000, 900_000]] = [-1.0, -1.0, -0.999]
    high = np.linspace(-1e-5, 0.0, spec.total_points)
    high[123] = 1.0
    return [
        distribution_from_values(spec, low, EncodingLaw.BOLTZMANN_AMPLITUDE),
        distribution_from_values(spec, high, EncodingLaw.BOLTZMANN_PROBABILITY),
    ]


class TestSelectionParity:
    """The zero-run shortcut selects exactly what np.quantile would."""

    @pytest.mark.parametrize("probs,quantile", _sparse_cases())
    def test_sparse_vector_matches_quantile_reference(self, probs, quantile):
        dist = make_dist(probs)
        sel = select_region(dist, quantile)
        threshold, selected = quantile_reference(dist, quantile)
        assert np.float64(sel.threshold_probability).tobytes() == np.float64(threshold).tobytes()
        assert np.array_equal(sel.selected_indices, selected)

    def test_sweep_takes_both_branches(self):
        taken = [_takes_zero_shortcut(*case.values) for case in _sparse_cases()]
        assert any(taken) and not all(taken)

    def test_underflowed_exact_readout_matches_quantile_reference(self):
        low, high = _underflow_distributions()
        assert np.count_nonzero(low.probabilities) == 3
        assert high.probabilities.size - np.count_nonzero(high.probabilities) == 1
        for dist in (low, high):
            for quantile in (0.25, 0.5, 0.75, 0.9):
                sel = select_region(dist, quantile)
                threshold, selected = quantile_reference(dist, quantile)
                assert np.float64(sel.threshold_probability).tobytes() == (
                    np.float64(threshold).tobytes()
                )
                assert np.array_equal(sel.selected_indices, selected)
                assert _takes_zero_shortcut(dist.probabilities, quantile) == (dist is low)


class TestContractBounds:
    def test_hull_of_selected_points(self):
        # 4x4 grid on [0,3]^2; states 5 and 10 decode to (1,1) and (2,2)
        spec = GridSpec(2, 2, SearchBox.cube(2, 0.0, 3.0))
        sel = RegionSelection(
            quantile=0.75,
            selected_indices=np.array([5, 10], dtype=np.int64),
            threshold_probability=0.0,
        )
        box = contract_bounds(spec, sel)
        assert np.array_equal(box.lower, [1.0, 1.0])
        assert np.array_equal(box.upper, [2.0, 2.0])

    def test_full_selection_is_identity(self):
        spec = GridSpec(2, 2, SearchBox.cube(2, -1.0, 2.0))
        sel = RegionSelection(
            quantile=0.75,
            selected_indices=np.arange(16, dtype=np.int64),
            threshold_probability=0.0,
        )
        assert contract_bounds(spec, sel) == spec.bounds

    def test_single_point_degenerates(self):
        spec = GridSpec(2, 2, SearchBox.cube(2, 0.0, 3.0))
        sel = RegionSelection(
            quantile=0.75,
            selected_indices=np.array([6], dtype=np.int64),  # (1, 2)
            threshold_probability=0.0,
        )
        box = contract_bounds(spec, sel)
        assert np.array_equal(box.lower, box.upper)
        assert np.array_equal(box.lower, [1.0, 2.0])

    def test_result_inside_current_bounds(self):
        spec = GridSpec(1, 3, SearchBox.cube(1, -5.0, 5.0))
        sel = RegionSelection(
            quantile=0.5,
            selected_indices=np.array([0, 7], dtype=np.int64),
            threshold_probability=0.0,
        )
        assert spec.bounds.contains_box(contract_bounds(spec, sel))


def _hull_cases():
    """(spec, selected flat indices) pairs covering the hull's corner cases."""
    rng = np.random.default_rng(5)
    cases = []
    for d, n in [(1, 4), (2, 3), (3, 2), (4, 2), (5, 1), (2, 6)]:
        lower = rng.uniform(-50.0, 50.0, d)
        upper = lower + rng.uniform(0.1, 9.7, d)
        spec = GridSpec(d, n, SearchBox(lower, upper))
        total = spec.total_points
        for size in (1, 2, total // 3 + 1, total):
            cases.append((spec, rng.choice(total, size, replace=False)))  # unsorted
        cases.append((spec, np.array([total - 1])))
        cases.append((spec, np.array([total - 1, 0])))
        cases.append((spec, np.array([total // 2, total - 1])))
        cases.append((spec, np.array([2**n - 1])))  # top index on the last axis only
    flat_axis = SearchBox(np.array([-1.0, 2.5, 0.0]), np.array([1.0, 2.5, 3.0]))
    spec = GridSpec(3, 2, flat_axis)
    cases.append((spec, rng.choice(64, 20, replace=False)))
    cases.append((spec, np.array([63])))
    return cases


class TestHullOfSelection:
    @pytest.mark.parametrize("spec,selected", _hull_cases())
    def test_equals_hull_of_every_decoded_point(self, spec, selected):
        sel = RegionSelection(
            quantile=0.75,
            selected_indices=selected.astype(np.int64),
            threshold_probability=0.0,
        )
        points = decode_many(spec, sel.selected_indices)
        box = contract_bounds(spec, sel)
        assert np.array_equal(box.lower, np.maximum(spec.bounds.lower, points.min(axis=0)))
        assert np.array_equal(box.upper, np.minimum(spec.bounds.upper, points.max(axis=0)))


class TestShouldTerminate:
    def _dist(self, entropy_bits):
        return make_dist([0.25] * 4, entropy=entropy_bits)

    def test_continue_by_default(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        v = should_terminate(wide, wide, entropy_fraction(self._dist(2.0)), 1, TerminationPolicy())
        assert v is Verdict.CONTINUE

    def test_width_floor(self):
        prev = SearchBox.cube(1, 0.0, 1.0)
        tiny = SearchBox.cube(1, 0.0, 1e-9)
        v = should_terminate(prev, tiny, entropy_fraction(self._dist(2.0)), 1, TerminationPolicy())
        assert v is Verdict.WIDTH_FLOOR

    def test_max_iterations(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        v = should_terminate(wide, wide, entropy_fraction(self._dist(2.0)), 10, TerminationPolicy())
        assert v is Verdict.MAX_ITERATIONS

    def test_concentrated(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        v = should_terminate(wide, wide, entropy_fraction(self._dist(0.0001)), 1, TerminationPolicy())
        assert v is Verdict.CONCENTRATED

    def test_precedence_width_over_iterations(self):
        prev = SearchBox.cube(1, 0.0, 1.0)
        tiny = SearchBox.cube(1, 0.0, 1e-9)
        entropy = entropy_fraction(self._dist(0.0))
        v = should_terminate(prev, tiny, entropy, 99, TerminationPolicy())
        assert v is Verdict.WIDTH_FLOOR

    def test_precedence_iterations_over_entropy(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        v = should_terminate(wide, wide, entropy_fraction(self._dist(0.0)), 10, TerminationPolicy())
        assert v is Verdict.MAX_ITERATIONS

    def test_iteration_counter_validated(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        with pytest.raises(InvalidInputError):
            should_terminate(wide, wide, entropy_fraction(self._dist(1.0)), 0, TerminationPolicy())

    def test_fixed_point_only_when_repeatable(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        narrower = SearchBox.cube(1, 0.0, 5.0)
        policy = TerminationPolicy()
        assert should_terminate(wide, wide, 0.5, 1, policy, repeatable=True) is Verdict.FIXED_POINT
        assert should_terminate(wide, wide, 0.5, 1, policy) is Verdict.CONTINUE
        assert should_terminate(wide, wide, 0.5, 1, policy, repeatable=False) is Verdict.CONTINUE
        v = should_terminate(wide, narrower, 0.5, 1, policy, repeatable=True)
        assert v is Verdict.CONTINUE

    def test_fixed_point_reads_box_prev(self):
        # equal bounds, distinct objects: the rule compares values
        a = SearchBox.cube(2, -1.0, 1.0)
        b = SearchBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        other = SearchBox.cube(2, -1.0, 2.0)
        policy = TerminationPolicy()
        assert should_terminate(a, b, None, 3, policy, True) is Verdict.FIXED_POINT
        assert should_terminate(other, b, None, 3, policy, True) is Verdict.CONTINUE

    @pytest.mark.parametrize(
        "next_width,k,entropy,expected",
        [
            # every rule holds: the first in order wins
            (1e-9, 10, 0.0, Verdict.WIDTH_FLOOR),
            (10.0, 10, 0.0, Verdict.MAX_ITERATIONS),
            (10.0, 9, 0.0, Verdict.CONCENTRATED),
            (10.0, 9, 0.5, Verdict.FIXED_POINT),
        ],
    )
    def test_rule_order_with_fixed_point(self, next_width, k, entropy, expected):
        box = SearchBox.cube(1, 0.0, next_width)
        v = should_terminate(box, box, entropy, k, TerminationPolicy(), repeatable=True)
        assert v is expected

    def test_no_distribution_never_concentrates(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        narrower = SearchBox.cube(1, 0.0, 5.0)
        policy = TerminationPolicy(entropy_floor=0.99)
        assert should_terminate(wide, narrower, None, 1, policy) is Verdict.CONTINUE
        assert should_terminate(wide, narrower, 0.5, 1, policy) is Verdict.CONCENTRATED
        assert should_terminate(wide, wide, None, 1, policy, True) is Verdict.FIXED_POINT

    def test_verdict_strings(self):
        assert Verdict.CONTINUE.value == "continue"
        assert Verdict.WIDTH_FLOOR.value == "width_floor"
        assert Verdict.MAX_ITERATIONS.value == "max_iterations"
        assert Verdict.CONCENTRATED.value == "concentrated"
        assert Verdict.FIXED_POINT.value == "fixed_point"


class TestTerminationPolicy:
    def test_defaults(self):
        policy = TerminationPolicy()
        assert policy.delta == 1e-6
        assert policy.k_max == 10
        assert policy.entropy_floor == 0.01

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TerminationPolicy(delta=0.0)
        with pytest.raises(InvalidInputError):
            TerminationPolicy(k_max=0)
        with pytest.raises(InvalidInputError):
            TerminationPolicy(entropy_floor=1.0)
