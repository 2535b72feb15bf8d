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
from qags.quantum import QuantumDistribution


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
        v = should_terminate(wide, wide, self._dist(2.0), 1, TerminationPolicy())
        assert v is Verdict.CONTINUE

    def test_width_floor(self):
        prev = SearchBox.cube(1, 0.0, 1.0)
        tiny = SearchBox.cube(1, 0.0, 1e-9)
        v = should_terminate(prev, tiny, self._dist(2.0), 1, TerminationPolicy())
        assert v is Verdict.WIDTH_FLOOR

    def test_max_iterations(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        v = should_terminate(wide, wide, self._dist(2.0), 10, TerminationPolicy())
        assert v is Verdict.MAX_ITERATIONS

    def test_concentrated(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        v = should_terminate(wide, wide, self._dist(0.0001), 1, TerminationPolicy())
        assert v is Verdict.CONCENTRATED

    def test_precedence_width_over_iterations(self):
        prev = SearchBox.cube(1, 0.0, 1.0)
        tiny = SearchBox.cube(1, 0.0, 1e-9)
        v = should_terminate(prev, tiny, self._dist(0.0), 99, TerminationPolicy())
        assert v is Verdict.WIDTH_FLOOR

    def test_precedence_iterations_over_entropy(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        v = should_terminate(wide, wide, self._dist(0.0), 10, TerminationPolicy())
        assert v is Verdict.MAX_ITERATIONS

    def test_iteration_counter_validated(self):
        wide = SearchBox.cube(1, 0.0, 10.0)
        with pytest.raises(InvalidInputError):
            should_terminate(wide, wide, self._dist(1.0), 0, TerminationPolicy())

    def test_verdict_strings(self):
        assert Verdict.CONTINUE.value == "continue"
        assert Verdict.WIDTH_FLOOR.value == "width_floor"
        assert Verdict.MAX_ITERATIONS.value == "max_iterations"
        assert Verdict.CONCENTRATED.value == "concentrated"


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
