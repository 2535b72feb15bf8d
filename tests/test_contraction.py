"""Region selection, bound contraction, and termination."""

import tracemalloc

import numpy as np
import pytest

from qags import contraction
from qags.contraction import (
    RegionSelection,
    TerminationPolicy,
    Verdict,
    contract_bounds,
    contract_region,
    select_region,
    should_terminate,
)
from qags.errors import InvalidInputError
from qags.grid import GridSpec, SearchBox, decode_many, pack_indices
from qags.objectives import make_sphere
from qags.quantum import (
    EncodingLaw,
    QuantumDistribution,
    distribution_from_values,
    entropy_fraction,
    grid_values,
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
    """select_region as a plain np.quantile threshold on the dense vector."""
    probs = dist.probabilities
    threshold = float(np.quantile(probs, quantile))
    mask = (probs >= threshold) & (probs > 0.0)
    mask[dist.f_min_index] = True
    return threshold, np.flatnonzero(mask)


def _sparse_cases():
    """Random vectors whose zero count sweeps quantile * N +- 3, and
    2^20-entry ones whose zero run ends 1% below, or 1% or 3% above,
    rank quantile * N, where the quantile's bracket starts on the zeros."""
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
    size, quantile = 1 << 20, 0.75
    for offset in (-0.01, 0.01, 0.03):
        zeros = round((quantile + offset) * size)
        probs = rng.uniform(0.0, 1.0, size)
        probs[rng.choice(size, zeros, replace=False)] = 0.0
        cases.append(
            pytest.param(probs / probs.sum(), quantile, id=f"N{size}-q{quantile}-z{zeros}-uniform")
        )
    return cases


def _zero_threshold(probs, quantile):
    """Whether both ranks the quantile interpolates between fall on
    zeros, which at least quantile * N + 2 zeros guarantee, so that the
    threshold is 0.0 and every positive state is selected."""
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
    """On vectors with runs of zeros, on either side of the count that
    makes the threshold 0.0, the selection is exactly what np.quantile
    gives."""

    @pytest.mark.parametrize("probs,quantile", _sparse_cases())
    def test_sparse_vector_matches_quantile_reference(self, probs, quantile):
        dist = make_dist(probs)
        sel = select_region(dist, quantile)
        threshold, selected = quantile_reference(dist, quantile)
        assert np.float64(sel.threshold_probability).tobytes() == np.float64(threshold).tobytes()
        assert np.array_equal(sel.selected_indices, selected)

    def test_sweep_takes_both_branches(self):
        taken = [_zero_threshold(*case.values) for case in _sparse_cases()]
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
                assert _zero_threshold(dist.probabilities, quantile) == (dist is low)


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


def _digit_extremes(spec, flat):
    """Per axis, the least and greatest digit of the flat indices."""
    n, d = spec.qubits_per_dim, spec.dimension
    digits = [(flat >> (n * (d - 1 - i))) & ((1 << n) - 1) for i in range(d)]
    return [int(js.min()) for js in digits], [int(js.max()) for js in digits]


HULL_SHAPES = [(d, n) for d in range(1, 21) for n in range(1, 21) if d * n <= 20] + [
    (2, 12),
    (1, 24),
]


@pytest.mark.parametrize("d,n", HULL_SHAPES, ids=lambda v: str(v))
def test_hull_equals_digit_extremes(d, n):
    # every register of up to 20 bits, from one axis of 20 bits to 20
    # axes of one, and two wider ones, (2, 12) and (1, 24): each axis's
    # least and greatest digit, from one block or a stream of blocks
    rng = np.random.default_rng(d * 100 + n)
    lower = rng.uniform(-50.0, 50.0, d)
    spec = GridSpec(d, n, SearchBox(lower, lower + rng.uniform(0.1, 9.7, d)))
    total = spec.total_points
    selections = [
        np.unique(rng.integers(0, total, size))
        for size in (2, 7, min(total, 4096))
    ]
    selections += [np.array([0]), np.array([total - 1]), np.array([int(rng.integers(total))])]
    if total <= 1 << 20:  # the whole register
        selections.append(np.arange(total))
    for flat in selections:
        sel = RegionSelection(0.75, flat.astype(np.int64), 0.0)
        lows, highs = _digit_extremes(spec, sel.selected_indices)
        assert contraction._digit_ranges(spec, [sel.selected_indices]) == (lows, highs)
        # a stream of blocks, some of them empty, gives the same extremes
        blocks = np.array_split(sel.selected_indices, 5) + [sel.selected_indices[:0]]
        assert contraction._digit_ranges(spec, blocks) == (lows, highs)
        corners = decode_many(spec, [pack_indices(spec, lows), pack_indices(spec, highs)])
        box = contract_bounds(spec, sel)
        assert box.lower.tobytes() == np.maximum(spec.bounds.lower, corners[0]).tobytes()
        assert box.upper.tobytes() == np.minimum(spec.bounds.upper, corners[1]).tobytes()


@pytest.mark.parametrize("d,n", [(10, 2), (3, 5), (1, 13)])
def test_dense_selection_reaches_the_digits_as_a_corner_block(monkeypatch, d, n):
    # half of the register selected, as a 10^6-shot draw on sphere d = 10,
    # q = 2 selects: its digits are read off one block of the low codes
    # beside the rows (g = 12 bits of whole axes at d = 10, n = 2, and
    # 10 at n = 5), not off every index; at n = 13 no axis fits a row
    rng = np.random.default_rng(d * n)
    spec = GridSpec(d, n, SearchBox.cube(d, -5.0, 5.0))
    total = spec.total_points
    flat = np.unique(rng.integers(0, total, total // 2))
    sizes = []
    digit_ranges = contraction._digit_ranges

    def recorded(spec, blocks):
        blocks = list(blocks)
        sizes.extend(b.size for b in blocks)
        return digit_ranges(spec, blocks)

    monkeypatch.setattr(contraction, "_digit_ranges", recorded)
    box = contract_bounds(spec, RegionSelection(0.75, flat, 0.0))
    g = contraction._row_bits(spec)
    assert sizes == ([(1 << g) + (total >> g)] if g else [flat.size])
    lows, highs = _digit_extremes(spec, flat)
    corners = decode_many(spec, [pack_indices(spec, lows), pack_indices(spec, highs)])
    assert box.lower.tobytes() == corners[0].tobytes()
    assert box.upper.tobytes() == corners[1].tobytes()


def _region_probabilities(kind, total, block, rng):
    """(probabilities, f_min_index) of one contract_region case."""
    if kind == "random":
        p = rng.random(total)
    elif kind == "ties":  # many states equal the threshold
        p = rng.integers(1, 4, total).astype(np.float64)
    elif kind == "zeros":  # enough zeros that the threshold is 0.0
        p = np.zeros(total)
        p[rng.choice(total, max(1, total // 8), replace=False)] = rng.random(max(1, total // 8))
    elif kind == "encoded lattice":
        p = distribution_from_values(
            GridSpec(1, total.bit_length() - 1, SearchBox.cube(1, -1.0, 1.0)),
            rng.normal(0.0, 1.0, total) ** 2,
            EncodingLaw.BOLTZMANN_AMPLITUDE,
        ).probabilities.copy()
    else:  # a maximum at a block's edge, the one state forced in
        p = rng.random(total) * 1e-3
    top = int(np.argmax(p))
    if kind == "block edge":
        top = min(block, total) - 1
        p[top] = 1.0
    return p / p.sum(), top


REGION_KINDS = ["random", "ties", "zeros", "encoded lattice", "block edge"]


class TestContractRegion:
    """contract_region streams select_region and contract_bounds over
    BLOCK_STATES slices: the same box, bit for bit, and the same count."""

    @pytest.mark.parametrize("block", [None, 7, 1000])
    @pytest.mark.parametrize("kind", REGION_KINDS)
    @pytest.mark.parametrize("d,n", [(1, 12), (3, 4), (10, 1), (6, 2), (2, 7)])
    @pytest.mark.parametrize("quantile", [0.25, 0.75, 0.99])
    def test_equals_select_region_then_contract_bounds(self, monkeypatch, block, kind, d, n,
                                                       quantile):
        rng = np.random.default_rng([d, n, REGION_KINDS.index(kind)])
        lower = rng.uniform(-20.0, 20.0, d)
        spec = GridSpec(d, n, SearchBox(lower, lower + rng.uniform(0.5, 9.0, d)))
        probs, top = _region_probabilities(kind, spec.total_points, block or 1 << 16, rng)
        if block is not None:
            monkeypatch.setattr(contraction.kernels, "BLOCK_STATES", block)
        dist = make_dist(probs, f_min_index=top, spec=spec, entropy=1.0)
        sel = select_region(dist, quantile)
        # the dense selection rule, on the whole vector at once
        threshold = np.quantile(probs, quantile)
        assert sel.threshold_probability == threshold
        dense = probs >= threshold if threshold > 0.0 else probs > 0.0
        assert sel.selected_indices.tobytes() == np.flatnonzero(dense).tobytes()
        assert top in sel.selected_indices
        ref = contract_bounds(spec, sel)
        box, count = contract_region(dist, quantile)
        assert count == sel.selected_indices.size
        assert box.lower.tobytes() == ref.lower.tobytes()
        assert box.upper.tobytes() == ref.upper.tobytes()

    # n that does not divide HULL_ROW_BITS (5, 7, 10), axes wider than
    # it (n = 13, 14, where every slice takes the index path), and
    # lattices of several default blocks (2^17 to 2^18 states), where
    # each whole-row slice is reduced by its mask
    @pytest.mark.parametrize("block", [None, 7, 129, 1000])
    @pytest.mark.parametrize("kind", REGION_KINDS)
    @pytest.mark.parametrize("d,n", [(2, 5), (3, 5), (1, 7), (1, 10), (1, 13), (1, 14),
                                     (17, 1), (2, 9)])
    def test_row_reduction_equals_select_region_then_contract_bounds(self, monkeypatch, block,
                                                                    kind, d, n):
        rng = np.random.default_rng([d, n, REGION_KINDS.index(kind), 1])
        lower = rng.uniform(-20.0, 20.0, d)
        spec = GridSpec(d, n, SearchBox(lower, lower + rng.uniform(0.5, 9.0, d)))
        probs, top = _region_probabilities(kind, spec.total_points, block or 1 << 16, rng)
        if block is not None:
            monkeypatch.setattr(contraction.kernels, "BLOCK_STATES", block)
        dist = make_dist(probs, f_min_index=top, spec=spec, entropy=1.0)
        for quantile in (0.25, 0.9):
            # the dense selection rule, on the whole vector at once
            threshold, selected = quantile_reference(dist, quantile)
            ref = contract_bounds(spec, RegionSelection(quantile, selected, threshold))
            box, count = contract_region(dist, quantile)
            assert count == selected.size
            assert box.lower.tobytes() == ref.lower.tobytes()
            assert box.upper.tobytes() == ref.upper.tobytes()

    def test_whole_row_slices_hold_no_index_per_selected_state(self):
        # sphere d = 10, q = 2 keeps over a quarter of 2^20 states.  The
        # mask reduction peaks at about 200 KB; the index path, whose
        # per-slice index arrays of over 128 KB the hull's digit pass
        # shifts and masks, peaked at 740 KB
        spec = GridSpec(10, 2, SearchBox.cube(10, -5.0, 5.0))
        dist = distribution_from_values(spec, grid_values(make_sphere(10), spec))
        sel = select_region(dist, 0.75)
        assert sel.selected_indices.size > spec.total_points // 4
        tracemalloc.start()
        try:
            box, count = contract_region(dist, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == sel.selected_indices.size
        assert box == contract_bounds(spec, sel)
        assert peak < 4 * contraction.kernels.BLOCK_STATES

    def test_axis_wider_than_a_row_marks_no_rows(self):
        # at d = 1, q = 20 the axis is wider than HULL_ROW_BITS, so no
        # slice is reduced as rows; a row mark per state, which nothing
        # writes, raised the peak from about 1.6 to 2.6 B/state
        spec = GridSpec(1, 20, SearchBox.cube(1, -5.0, 5.0))
        dist = distribution_from_values(spec, grid_values(make_sphere(1), spec))
        tracemalloc.start()
        try:
            box, count = contract_region(dist, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sel = select_region(dist, 0.75)
        assert count == sel.selected_indices.size
        assert box == contract_bounds(spec, sel)
        assert peak < 2 * spec.total_points

    def test_threshold_zero_keeps_only_positive_states(self, monkeypatch):
        monkeypatch.setattr(contraction.kernels, "BLOCK_STATES", 4)
        spec = GridSpec(1, 5, SearchBox.cube(1, 0.0, 31.0))
        probs = np.zeros(32)
        probs[[5, 6, 21]] = [0.25, 0.5, 0.25]
        box, count = contract_region(make_dist(probs, spec=spec), 0.75)
        assert count == 3
        assert (box.lower.tolist(), box.upper.tolist()) == ([5.0], [21.0])

    def test_quantile_range_checked(self):
        with pytest.raises(InvalidInputError):
            contract_region(make_dist([0.5, 0.5]), quantile=1.0)


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

    # k_max = 2.5 was accepted and ran 3 iterations
    @pytest.mark.parametrize("k_max", [2.5, 2.0, "2", None])
    def test_rejects_a_k_max_that_is_not_an_integer(self, k_max):
        with pytest.raises(InvalidInputError, match="k_max"):
            TerminationPolicy(k_max=k_max)

    @pytest.mark.parametrize("k_max", [3, np.int64(3), np.int16(3)])
    def test_accepts_python_and_numpy_ints(self, k_max):
        wide = SearchBox.cube(1, 0.0, 10.0)
        policy = TerminationPolicy(k_max=k_max)
        assert should_terminate(wide, wide, None, 2, policy) is Verdict.CONTINUE
        assert should_terminate(wide, wide, None, 3, policy) is Verdict.MAX_ITERATIONS
