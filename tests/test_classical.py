"""Classical adaptive grid-search baseline."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from qags import classical, kernels
from qags.classical import (
    AgsConfig,
    _integer_root,
    _lattice_argmin,
    points_per_dim_for,
    run_ags,
)
from qags.contraction import Verdict
from qags.driver import IterationRecord, RunReport
from qags.errors import EvaluationError, InvalidInputError
from qags.grid import GridSpec, SearchBox, coordinate, decode_many
from qags.objectives import ObjectiveFunction, get_objective, make_rosenbrock, make_sphere
from qags.quantum import lattice_blocks
from qags.refine import refine


def _assert_extremes(block, low, high):
    """low and high, as a lattice_blocks block comes with them, are its
    min() and max(), bit for bit."""
    assert np.float64(low).tobytes() == block.min().tobytes()
    assert np.float64(high).tobytes() == block.max().tobytes()


class TestIntegerRoot:
    def test_exact_powers(self):
        # float roots of exact powers round below the integer answer
        assert _integer_root(10**6, 3) == 100
        assert _integer_root(10**7, 7) == 10
        assert _integer_root(10**6, 2) == 1000

    def test_inexact(self):
        assert _integer_root(10**7, 8) == 7
        assert _integer_root(10**7, 10) == 5
        assert _integer_root(999, 3) == 9

    def test_points_per_dim_budget(self):
        cfg = AgsConfig(points_per_dim=32, budget_points=10**6)
        assert points_per_dim_for(cfg, 2) == 32  # budget not binding
        assert points_per_dim_for(cfg, 4) == 31  # 31^4 = 923521 fits, 32^4 does not
        assert points_per_dim_for(cfg, 10) == 3

    def test_floor_of_two(self):
        cfg = AgsConfig(points_per_dim=32, budget_points=2)
        assert points_per_dim_for(cfg, 3) == 2


class TestBudget:
    """Past d = log2(budget_points) the floor of two points per axis makes
    a lattice of 2**d points, more than the budget: run_ags refuses it
    before it evaluates anything."""

    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_lattice_of_exactly_the_budget_runs(self, d):
        obj = make_sphere(d)
        report = run_ags(obj, SearchBox.cube(d, -1.0, 2.0), AgsConfig(budget_points=2**d))
        assert report.grid_points_per_iteration == 2**d
        assert report.total_f_evals == obj.eval_count > 0

    @pytest.mark.parametrize("d", [2, 6, 20, 40])
    def test_lattice_over_the_budget_is_refused(self, d):
        obj = make_sphere(d)
        cfg = AgsConfig(budget_points=2**d - 1)
        assert points_per_dim_for(cfg, d) == 2
        with pytest.raises(InvalidInputError) as err:
            run_ags(obj, SearchBox.cube(d, -1.0, 2.0), cfg)
        assert str(err.value) == (
            f"run_ags at d = {d} needs a lattice of {2**d} points,"
            f" more than budget_points = {2**d - 1}"
        )
        assert obj.eval_count == 0


class TestRunAgs:
    def test_sphere_converges(self):
        report = run_ags(make_sphere(3), SearchBox.cube(3, -5.0, 5.0))
        assert report.found_value < 1e-12
        assert report.method == "ags"

    def test_report_shape(self):
        obj = make_sphere(2)
        report = run_ags(obj, SearchBox.cube(2, -5.0, 5.0))
        assert report.grid_points_per_iteration == 32 * 32
        assert report.peak_model_bytes == 32 * 32 * 8
        assert report.total_f_evals == obj.eval_count
        for rec in report.iterations:
            assert rec.selected_count == 1
            assert rec.entropy_fraction is None
            assert rec.bounds_before.contains_box(rec.bounds_after)

    def test_verdicts(self):
        report = run_ags(make_sphere(2), SearchBox.cube(2, -5.0, 5.0))
        *body, last = [rec.verdict for rec in report.iterations]
        assert all(v is Verdict.CONTINUE for v in body)
        assert last in (Verdict.WIDTH_FLOOR, Verdict.MAX_ITERATIONS)

    def test_max_iterations_config(self):
        report = run_ags(
            make_sphere(2),
            SearchBox.cube(2, -5.0, 5.0),
            AgsConfig(max_iterations=2),
        )
        assert len(report.iterations) == 2

    def test_boxes_shrink_by_factor(self):
        report = run_ags(
            make_sphere(1),
            SearchBox.cube(1, -4.0, 4.0),
            AgsConfig(shrink_factor=0.5, max_iterations=3),
        )
        first = report.iterations[0]
        # interior recentre: half-width becomes shrink * current half-width
        assert float(np.max(first.bounds_after.width)) <= 0.5 * 8.0 + 1e-12

    def test_rosenbrock(self):
        report = run_ags(make_rosenbrock(2), SearchBox.cube(2, -5.0, 5.0))
        assert report.found_value < 1e-10

    def test_custom_objective_without_kernel(self):
        obj = ObjectiveFunction(
            name="abs1",
            arity=1,
            fn=lambda x: abs(float(x[0]) - 0.3),
            batch_fn=lambda X: np.abs(X[:, 0] - 0.3),
            kernel_kind=None,
        )
        report = run_ags(obj, SearchBox.cube(1, -1.0, 1.0))
        assert report.found_value < 1e-6

    def test_deterministic(self):
        a = run_ags(make_sphere(2), SearchBox.cube(2, -5.0, 5.0))
        b = run_ags(make_sphere(2), SearchBox.cube(2, -5.0, 5.0))
        assert a.to_json() == b.to_json()

    def test_arity_mismatch(self):
        with pytest.raises(InvalidInputError):
            run_ags(make_sphere(3), SearchBox.cube(2, 0.0, 1.0))


def reference_run_ags(f, box, cfg):
    """The classical loop written out from the public layers: the whole
    lattice from kernels.lattice_values, its np.argmin decoded by
    np.unravel_index, recentre and shrink, stop at the width floor, the
    iteration cap or an unchanged box, then refinement from the final
    box."""
    d = f.arity
    m = points_per_dim_for(cfg, d)
    evals_at_start = f.eval_count
    records = []
    best_value, best_point = np.inf, None
    for k in range(1, cfg.max_iterations + 1):
        values = kernels.lattice_values(f.kernel_kind, box.lower, box.upper, m, f.shift)
        f.count_evaluations(values.size)
        j = int(np.argmin(values))
        axes = kernels.lattice_axes(box.lower, box.upper, m)
        centre = np.array([axes[i][ji] for i, ji in enumerate(np.unravel_index(j, (m,) * d))])
        if values[j] < best_value:
            best_value, best_point = float(values[j]), centre
        half = cfg.shrink_factor * box.width / 2.0
        box_next = SearchBox(
            np.maximum(box.lower, centre - half), np.minimum(box.upper, centre + half)
        )
        if float(np.max(box_next.width)) < cfg.delta:
            verdict = Verdict.WIDTH_FLOOR
        elif k == cfg.max_iterations:
            verdict = Verdict.MAX_ITERATIONS
        elif box_next == box:
            verdict = Verdict.FIXED_POINT
        else:
            verdict = Verdict.CONTINUE
        records.append(
            IterationRecord(k, box, box_next, 1, None, best_point.copy(), best_value, verdict)
        )
        box = box_next
        if verdict is not Verdict.CONTINUE:
            break
    point, value, _ = refine(f, box, box.clip(best_point), cfg.refiner)
    if best_value < value:
        point, value = best_point.copy(), best_value
    return RunReport(
        method="ags",
        function_name=f.name,
        dimension=d,
        found_point=np.asarray(point, dtype=np.float64),
        found_value=float(value),
        abs_error=abs(value - f.known_minimum_value),
        iterations=records,
        total_f_evals=f.eval_count - evals_at_start,
        grid_points_per_iteration=m**d,
        peak_model_bytes=8 * m**d,
    )


def report_bits(report):
    """A report compared bit for bit, so the sign of a zero counts."""
    records = [
        (
            rec.k,
            rec.bounds_before.lower.tobytes(),
            rec.bounds_before.upper.tobytes(),
            rec.bounds_after.lower.tobytes(),
            rec.bounds_after.upper.tobytes(),
            rec.selected_count,
            rec.entropy_fraction,
            rec.best_point_so_far.tobytes(),
            np.float64(rec.best_value_so_far).tobytes(),
            rec.verdict,
        )
        for rec in report.iterations
    ]
    return report.to_dict(), report.found_point.tobytes(), records


@pytest.mark.parametrize("name", ["sphere", "rastrigin", "styblinski_tang", "rosenbrock"])
@pytest.mark.parametrize(
    "d,cfg",
    [
        (2, AgsConfig(points_per_dim=32)),
        (3, AgsConfig(points_per_dim=13, shrink_factor=0.3)),
        (4, AgsConfig(points_per_dim=7, delta=0.05)),
    ],
    ids=["d2-m32", "d3-m13", "d4-m7-width-floor"],
)
def test_run_ags_equals_reference_loop(name, d, cfg):
    rng = np.random.default_rng([d, len(name)])
    shift = rng.uniform(-1.0, 1.0, d) if name == "sphere" else None
    box = SearchBox(rng.uniform(-5.0, -0.5, d), rng.uniform(0.7, 4.3, d))
    ref = reference_run_ags(get_objective(name, d, shift), box, cfg)
    f = get_objective(name, d, shift)
    report = run_ags(f, box, cfg)
    assert report_bits(report) == report_bits(ref)
    assert report.total_f_evals == f.eval_count


class TestFixedPoint:
    """An ags iteration is a pure function of its box, so one that
    leaves the box unchanged ends the run with verdict FIXED_POINT."""

    @staticmethod
    def _case():
        # floats near 1e16 are 2 apart: the 3-point lattice's centre is
        # 1e16 + 2, and halving the width gives centre -+ 1, which rounds
        # back to the bounds 1e16 and 1e16 + 4
        f = make_sphere(2, shift=[1e16 + 2] * 2)
        return f, SearchBox.cube(2, 1e16, 1e16 + 4)

    def test_halving_that_rounds_back_stops_at_once(self):
        f, box = self._case()
        report = run_ags(f, box, AgsConfig(points_per_dim=3))
        assert [rec.verdict for rec in report.iterations] == [Verdict.FIXED_POINT]
        assert report.iterations[0].bounds_after == box
        # one 3 x 3 lattice and the refiner's 5, not ten lattices (95)
        assert report.total_f_evals == 14
        assert report.found_point.tolist() == [1.0000000000000002e16] * 2
        assert report.found_value == 0.0

    def test_equals_reference_and_the_capped_loop(self):
        cfg = AgsConfig(points_per_dim=3)
        f, box = self._case()
        report = run_ags(f, box, cfg)
        assert report_bits(report) == report_bits(reference_run_ags(self._case()[0], box, cfg))
        # the cap comes first: one capped iteration finds the same point
        capped = run_ags(self._case()[0], box, AgsConfig(points_per_dim=3, max_iterations=1))
        assert capped.iterations[0].verdict is Verdict.MAX_ITERATIONS
        assert capped.found_point.tobytes() == report.found_point.tobytes()
        assert capped.total_f_evals == report.total_f_evals


class TestAgsConfig:
    def test_defaults(self):
        cfg = AgsConfig()
        assert cfg.points_per_dim == 32
        assert cfg.budget_points == 10**6
        assert cfg.shrink_factor == 0.5
        assert cfg.max_iterations == 10
        assert cfg.delta == 1e-6

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            AgsConfig(points_per_dim=1)
        with pytest.raises(InvalidInputError):
            AgsConfig(shrink_factor=1.0)
        with pytest.raises(InvalidInputError):
            AgsConfig(max_iterations=0)
        with pytest.raises(InvalidInputError):
            AgsConfig(delta=0.0)

    def test_nan_delta_is_rejected(self):
        # the width floor compares against delta, and no width is below NaN
        with pytest.raises(InvalidInputError, match="delta must be positive"):
            AgsConfig(delta=float("nan"))

    # a count that is not an integer was accepted: points_per_dim = 4.5
    # gave a lattice of int(4.5)**2 points, centres decoded in base 4.5
    # and a float total_f_evals
    @pytest.mark.parametrize("field", ["points_per_dim", "budget_points", "max_iterations"])
    @pytest.mark.parametrize("value", [4.5, 4.0, "4", None])
    def test_rejects_counts_that_are_not_integers(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            AgsConfig(**{field: value})

    def test_accepts_python_and_numpy_ints(self):
        box = SearchBox.cube(2, -1.0, 1.5)
        python = run_ags(make_sphere(2), box, AgsConfig(4, 100, max_iterations=3))
        numpy = run_ags(make_sphere(2), box,
                        AgsConfig(np.int64(4), np.int32(100), max_iterations=np.int16(3)))
        assert python.grid_points_per_iteration == 16
        assert len(python.iterations) == 3
        assert numpy.to_dict() == python.to_dict()


class TestStreamedLattice:
    """run_ags streams each lattice in blocks of at most 2^16 states and
    keeps only the first-index argmin and its value."""

    @staticmethod
    def _batch_only(d, batch, seen=None):
        def fn_batch(pts):
            if seen is not None:
                seen.append(len(pts))
            return batch(pts)

        return ObjectiveFunction(
            name="batch-only",
            arity=d,
            fn=lambda x: float(batch(x[None, :])[0]),
            batch_fn=fn_batch,
        )

    @staticmethod
    def _integer_box(m):
        # step 1: lattice coordinates are the integers 0..m-1
        return SearchBox.cube(2, 0.0, float(m - 1))

    def test_constant_objective_argmin_is_zero(self):
        m = 400  # 160,000 states: several blocks
        box = self._integer_box(m)
        const = self._batch_only(2, lambda pts: np.full(len(pts), 2.5))
        assert _lattice_argmin(const, box, m) == (0, 2.5)
        flat_box = SearchBox(np.array([1.5, -2.0]), np.array([1.5, -2.0]))
        assert _lattice_argmin(make_sphere(2), flat_box, m) == (0, 1.5**2 + 2.0**2)

    def test_equal_minima_in_two_blocks_give_lower_index(self):
        m = 400
        box = self._integer_box(m)
        twin = self._batch_only(
            2, lambda pts: ((pts[:, 0] - 10.0) * (pts[:, 0] - 300.0)) ** 2 + (pts[:, 1] - 7.0) ** 2
        )
        # zeros at flat 10*400+7 (first block) and 300*400+7 (a later block)
        assert _lattice_argmin(twin, box, m) == (4007, 0.0)
        report = run_ags(twin, box, AgsConfig(points_per_dim=m, budget_points=m * m))
        assert report.iterations[0].best_point_so_far.tolist() == [10.0, 7.0]

    def test_one_axis_wider_than_a_block_streams_in_blocks(self):
        # d = 1, m = 2^20: the axis is split across 16 blocks, and no
        # table or value vector of its 8 MB exists
        m = 1 << 20
        obj = make_sphere(1)
        box = SearchBox.cube(1, -3.0, 5.0)
        tracemalloc.start()
        try:
            index, value = _lattice_argmin(obj, box, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full = kernels.lattice_values(obj.kernel_kind, box.lower, box.upper, m, obj.shift)
        assert (index, value) == (int(np.argmin(full)), float(full.min()))
        assert peak < 100 * kernels.BLOCK_STATES

    @pytest.mark.parametrize("name", ["sphere", "rastrigin", "styblinski_tang", "rosenbrock"])
    @pytest.mark.parametrize("d,m", [(2, 400), (3, 61), (5, 11)])
    def test_kernel_argmin_equals_full_lattice_argmin(self, name, d, m):
        # symmetric boxes put equal values in several blocks
        obj = get_objective(name, d)
        box = SearchBox.cube(d, -4.0, 4.0)
        full = kernels.lattice_values(obj.kernel_kind, box.lower, box.upper, m, obj.shift)
        j = int(np.argmin(full))
        assert _lattice_argmin(obj, box, m) == (j, float(full[j]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_kernel_non_finite_in_later_block_names_its_point(self):
        # (x0 - 0)^2 overflows from x0 > ~1.34e154, i.e. from row 268 of
        # 400: flat index 107,200, in the second block
        m = 400
        box = SearchBox(np.array([0.0, 0.0]), np.array([2e154, 1.0]))
        axes = kernels.lattice_axes(box.lower, box.upper, m)
        with pytest.raises(EvaluationError) as err:
            _lattice_argmin(make_sphere(2), box, m)
        assert err.value.point.tolist() == [axes[0][268], 0.0]
        assert not np.isfinite(axes[0][268] ** 2) and np.isfinite(axes[0][267] ** 2)
        with pytest.raises(EvaluationError) as err:
            run_ags(make_sphere(2), box, AgsConfig(points_per_dim=m, budget_points=m * m))
        assert err.value.point.tolist() == [axes[0][268], 0.0]

    def test_batch_non_finite_in_later_block_names_its_point(self):
        m = 400
        box = self._integer_box(m)
        obj = self._batch_only(2, lambda pts: np.where(pts[:, 0] >= 300.0, np.inf, 0.0))
        with pytest.raises(EvaluationError) as err:
            run_ags(obj, box, AgsConfig(points_per_dim=m, budget_points=m * m))
        assert err.value.point.tolist() == [300.0, 0.0]

    def test_batch_fn_gets_at_most_one_block(self):
        seen = []
        obj = self._batch_only(3, lambda pts: np.sum(pts * pts, axis=1), seen)
        box = SearchBox.cube(3, -1.0, 1.0)
        _lattice_argmin(obj, box, 61)
        assert max(seen) <= 1 << 16
        assert sum(seen) == 61**3
        assert len(seen) > 1

    @pytest.mark.parametrize("batch", [False, True])
    def test_eval_count_advances_by_lattice_size(self, batch):
        d, m = 3, 61
        obj = make_sphere(d)
        if batch:
            obj = self._batch_only(d, obj.batch_fn)
        box = SearchBox.cube(d, -2.0, 3.0)
        for expected in (m**d, 2 * m**d):
            _lattice_argmin(obj, box, m)
            assert obj.eval_count == expected

    def test_decoded_centre_is_an_evaluated_point(self):
        # on this box lo + j*(hi-lo)/(m-1) and the axis table
        # lo + j*((hi-lo)/(m-1)) differ at j = 3, 6, 7 and 3, 6, 9
        m = 11
        lo, hi = np.array([-4.7, -0.7]), np.array([3.3, 0.4])
        j = np.arange(m - 1)
        assert np.any(lo[0] + j * (hi[0] - lo[0]) / (m - 1) != lo[0] + j * ((hi[0] - lo[0]) / (m - 1)))
        coords = np.concatenate([c for _, c in kernels.coordinate_blocks(lo, hi, m)])
        for flat in range(m * m):
            assert np.array_equal(kernels.lattice_points(lo, hi, m, flat)[0], coords[flat])
        assert np.array_equal(kernels.lattice_points(lo, hi, m, np.arange(m * m)), coords)
        report = run_ags(make_sphere(2), SearchBox(lo, hi), AgsConfig(points_per_dim=m))
        first = report.iterations[0].best_point_so_far
        assert any(np.array_equal(first, row) for row in coords)
        # every decoder gives the axis-table entries bit for bit
        boxes = [
            ([-4.7, -0.0, 2.5], [3.3, 0.4, 2.5]),  # a -0.0 lower, a zero-width axis
            ([-1.3, 0.1, -0.0], [-0.0, 7.9, -0.0]),  # a -0.0 upper, -0.0 zero-width
        ]
        for (lo, hi), m in itertools.product(boxes, [2, 3, 11, 215, 1024, 1 << 17]):
            lo, hi = np.array(lo), np.array(hi)
            axes = kernels.lattice_axes(lo, hi, m)
            # each column walks its whole axis, so every entry is decoded
            j = np.arange(m)
            digits = np.stack([j, j[::-1], np.roll(j, m // 3)], axis=1)
            flats = digits @ np.array([m * m, m, 1])
            ref = np.stack([axes[i][digits[:, i]] for i in range(3)], axis=1).tobytes()
            assert kernels.lattice_points(lo, hi, m, flats).tobytes() == ref, m
            if m**3 <= 1 << 16:
                coords = np.concatenate([c for _, c in kernels.coordinate_blocks(lo, hi, m)])
                assert coords[flats].tobytes() == ref, m
            if m & (m - 1) == 0:
                n = m.bit_length() - 1
                spec = GridSpec(3, n, SearchBox(lo, hi), qubit_cap=3 * n)
                assert decode_many(spec, flats).tobytes() == ref, m
                for i in range(3):
                    for ji in [*range(0, m, max(1, m >> 10)), m - 1]:
                        got = np.float64(coordinate(spec, i, ji))
                        assert got.tobytes() == axes[i][ji].tobytes(), (m, i, ji)


class TestLastAxisMajor:
    """_lattice_argmin reduces blocks in the digit-reversed layout, the
    last axis major: shape (m,) * T + (K,) with entry
    [j_{d-1}, ..., j_{d-T}, k] at flat index
    start + k * m**T + sum_i j_i * m**(d-1-i), and must still give the
    first flat argmin of the whole lattice."""

    KIND_NAMES = ["sphere", "rastrigin", "styblinski_tang", "rosenbrock"]

    @staticmethod
    def _boxes(name, d):
        """(label, objective, box) for the three tie cases."""
        lo, hi = np.linspace(-2.3, -0.7, d), np.linspace(1.1, 3.9, d)
        flat_lo, flat_hi = lo.copy(), hi.copy()
        flat_hi[-1] = flat_lo[-1] = 0.4  # every j of the last axis ties
        far_lo, far_hi = np.full(d, -1.0), np.full(d, 1.0)
        if name == "sphere":
            # a large shift on axis 0: acc[r] ~ 1e18, whose ulp (128)
            # swallows every last-axis term t[j] <= 1
            far = get_objective(name, d, shift=np.r_[1e9, np.zeros(d - 1)])
        else:
            far_lo[0], far_hi[0] = 1e9, 2e9  # the same through axis 0
            far = get_objective(name, d)
        return [
            ("zero-width last axis", get_objective(name, d), SearchBox(flat_lo, flat_hi)),
            ("symmetric", get_objective(name, d), SearchBox.cube(d, -3.0, 3.0)),
            ("rounding ties", far, SearchBox(far_lo, far_hi)),
        ]

    @pytest.mark.parametrize("block", [None, 5, 3, 7, 50])
    @pytest.mark.parametrize("name", KIND_NAMES)
    def test_argmin_is_the_first_flat_argmin(self, monkeypatch, name, block):
        # blocks hold up to BLOCK_STATES + BLOCK_STATES // 4 states.
        # BLOCK_STATES 5 (6) and 3 split the last axes of m = 7 and 8 into
        # flat runs, and stream m = 2 and 3 in blocks of one or two trailing
        # axes; 7 (8) holds three axes of m = 2 and one of m = 8; 50 (62)
        # streams m = 5 and 7 in blocks of two trailing axes and m = 8 in
        # blocks of one.  The default holds each lattice whole
        if block is not None:
            monkeypatch.setattr(kernels, "BLOCK_STATES", block)
        for d, m in [(2, 2), (2, 8), (3, 3), (3, 7), (4, 5)]:
            for label, obj, box in self._boxes(name, d):
                full = kernels.lattice_values(obj.kernel_kind, box.lower, box.upper, m, obj.shift)
                j = int(np.argmin(full))
                assert _lattice_argmin(obj, box, m) == (j, float(full[j])), (label, d, m)
                if label != "symmetric":
                    # each row of the last axis ties, so its first j wins
                    assert j % m == 0 and np.count_nonzero(full == full[j]) > 1, (label, d, m)

    def test_rounding_ties_across_rows_keep_the_first_flat_index(self, monkeypatch):
        # sums of doubles near 1e18 (ulp 128) round equal in patterns that
        # are no product of per-axis minima, so the first flat index of the
        # minimum need not be the first entry that holds it in the block's
        # own (C) order.  Blocks laid out as the ags stream gives them:
        # shape (4, 3, 6), entry [j_2, j_1, k] at flat k * 12 + j_1 * 4 + j_2
        rng = np.random.default_rng(1)
        offsets = np.arange(72).reshape(6, 3, 4).T  # the flat offset of each entry
        later_entry = 0
        for _ in range(400):
            acc = 4.9e17 + 64.0 * rng.integers(0, 6, 6)
            t1 = 2.5e17 + 64.0 * rng.integers(0, 6, 3)
            t2 = 2.6e17 + 64.0 * rng.integers(0, 6, 4)
            block = np.add.outer(t2, np.add.outer(t1, acc))
            # the stream's extremes: the sums of the operands' extremes
            low = float(acc.min()) + float(t1.min()) + float(t2.min())
            high = float(acc.max()) + float(t1.max()) + float(t2.max())
            _assert_extremes(block, low, high)
            flat = block.T.ravel()
            first = int(np.argmin(flat))
            monkeypatch.setattr(
                classical, "lattice_blocks", lambda *args, **kw: iter([(24, block, low, high)])
            )
            assert _lattice_argmin(None, None, None) == (24 + first, float(flat[first]))
            later_entry += offsets.ravel()[np.argmin(block)] != first
        assert later_entry > 0

    def test_blocks_are_last_axis_major(self):
        # the ags stream holds up to 81,920 states a block: every trailing
        # axis that fits, the last one major.  A d = 2 lattice of up to
        # 286^2 states is one block, (m, m, 1); at m = 287 a block spans
        # the last axis for 285 prefixes; a last axis wider than a block
        # is split into flat runs.  The qags fill's runs stay flat
        box = SearchBox.cube(2, -1.0, 2.0)
        for m, shapes in [
            (10, {(10, 10, 1)}),
            (286, {(286, 286, 1)}),
            (287, {(287, 285), (287, 2)}),
            (90_000, {(81_920,), (8_080,)}),
        ]:
            got = set()
            for _, block, low, high in itertools.islice(lattice_blocks(make_sphere(2), box, m), 4):
                assert block.flags.c_contiguous
                _assert_extremes(block, low, high)
                got.add(block.shape)
            assert got == shapes, m
            for _, run, low, high in itertools.islice(
                kernels.lattice_value_runs(kernels.KIND_SPHERE, box.lower, box.upper, m), 4
            ):
                assert run.ndim == 1 and run.size <= kernels.BLOCK_STATES
                _assert_extremes(run, low, high)

    # NumPy (2.4) buffers a broadcast sum whose inner loop is shorter than
    # about 8192 / 3 entries, at about four times the cost per state
    BUFFERED_LOOP = 2731

    @pytest.mark.parametrize("d", [5, 7, 8, 10])
    def test_block_sums_loop_past_the_buffered_threshold(self, monkeypatch, d):
        # compare's ags lattices (10^7 points; d = 2 has only 1,024 states):
        # every outer sum of a block loops over its right operand, the
        # partial sums, and the sums that make a fifth of a block or more
        # (the last one, and at m = 5 the one before) loop over at least
        # BUFFERED_LOOP of them.  No timing: the sums are recorded
        m = points_per_dim_for(AgsConfig(budget_points=10**7), d)
        sums = []

        class Add:
            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def outer(self, left, right):
                out = np.add.outer(left, right)
                sums.append((right.size, out.size))
                return out

        class NumPy:
            add = Add()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(kernels, "np", NumPy())
        box = SearchBox.cube(d, -5.0, 5.0)
        blocks = 0
        for _, block, low, high in lattice_blocks(get_objective("sphere", d), box, m):
            _assert_extremes(block, low, high)
            assert sums[-1][1] == block.size
            assert sums[-1][0] >= self.BUFFERED_LOOP, (d, m)
            for loop, made in sums:
                assert loop >= self.BUFFERED_LOOP or 5 * made < block.size, (d, m, loop, made)
            sums.clear()
            blocks += 1
        # and the blocks are larger than BLOCK_STATES, by up to a quarter
        assert blocks * 81_920 >= m**d > blocks * 65_536

    def test_error_point_is_the_first_non_finite_state_in_flat_order(self):
        # m = 200 keeps the lattice in one 40,000-state block, entry
        # [j_1, j_0, 0] at flat index 200 * j_0 + j_1.
        # On [0, 2e154] x [0, 1] the squares overflow from row 134 of axis
        # 0 on; on [0, 2e154]^2 also from point 134 of the last axis, so
        # the first bad state in flat order, (0, 134), lies in a later row
        # of the block than (134, 0) does.  Points pinned from the
        # flat-order kernels.lattice_values.
        x = 1.3467336683417086e154
        for upper, point in [((2e154, 1.0), [x, 0.0]), ((2e154, 2e154), [0.0, x])]:
            box = SearchBox(np.zeros(2), np.array(upper))
            with pytest.raises(EvaluationError) as err:
                run_ags(make_sphere(2), box, AgsConfig(points_per_dim=200, budget_points=200**2))
            assert err.value.point.tolist() == point

    # SHA-256 of run_ags(...).to_json() as the reduction over flat
    # blocks gave them
    REPORT_DIGESTS = {
        ("sphere", 2): "82221a69d124ec43dd05d397ba37f4bf3ac89f1a438349ef7bcc76057495fa7e",
        ("sphere", 5): "6363b358608d763355729f287d32270eb378d5bc54107d5695d62a173b2ac45e",
        ("sphere", 7): "7af5c13f209071206b093d941c13207fe07c8b77993c9becf9e19f50023e6670",
        ("sphere", 8): "991cfc876c91c6ab7dc2221a9fe6f0633d399f33871b93c66bfdd6894a9c42f0",
        ("sphere", 10): "42da0713a3535f59b644ca99dd0d804527231f106b45a6a91e807af20a247ed8",
        ("rastrigin", 3): "4107ae9d3638dcaea04ffa587ff33746538c7292e599c997b2d9d46af9bbd27d",
        ("rastrigin", 4): "0affb08541ebfbfe279212e4362ba114fdbc16711430561747affb20f865902b",
        ("rastrigin", 5): "f41970495fd58d034844a3012b23a9afc7ddb1c74ba650096d1de89c12d12b2e",
        ("styblinski_tang", 3): "526bfbb3bf5df0791680ea4502a18a93b0c3977adce83f6e5930ae2a4bc53019",
        ("styblinski_tang", 4): "98b46569db7778c4df928f6add3be20ab65e7d3ce3b7399d636b40310ef6aa84",
        ("styblinski_tang", 5): "4d1c2536ed06528b2afa03fd161bb083396e17dcc64f303ff569e3a3241ee99c",
        ("rosenbrock", 3): "50a20e3c88e26b390314ad63f1ba6a835a96b8879206834c71b6c41f3a279dd6",
        ("rosenbrock", 4): "29d7a6b72495ad392016d782cefb5667fd744cfee65381143b4e5e849cbdf7cb",
        ("rosenbrock", 5): "72d9123474d45de213ced5d3076821afcc1b16644542c4e585d1109ee9d7ccd3",
    }

    @pytest.mark.parametrize("name,d", sorted(REPORT_DIGESTS))
    def test_reports_keep_their_digests(self, name, d):
        # a 10^5-point budget: m = 32, 17, 10, 5, 4 or 3 per axis.  The
        # sphere runs use compare's box, the rest an asymmetric one
        if name == "sphere":
            box = SearchBox.cube(d, -5.0, 5.0)
        else:
            i = np.arange(d)
            box = SearchBox(-4.1 + 0.3 * i, 5.3 - 0.45 * i)
        f = get_objective(name, d)
        report = run_ags(f, box, AgsConfig(budget_points=10**5))
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == self.REPORT_DIGESTS[name, d]
        # each record's lattice value is f at its point, bit for bit
        for rec in report.iterations:
            value = f.evaluate(rec.best_point_so_far)
            assert np.float64(value).tobytes() == np.float64(rec.best_value_so_far).tobytes()

    @pytest.mark.parametrize("name,d,m", [("sphere", 7, 10), ("rosenbrock", 4, 31)])
    def test_reduction_holds_about_one_block(self, name, d, m):
        # one block of up to 81,920 states at a time, freed before the
        # next is built, against the 80 MB and 7.4 MB of these lattices'
        # value vectors
        box = SearchBox.cube(d, -3.0, 4.0)
        tracemalloc.start()
        try:
            _lattice_argmin(get_objective(name, d), box, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * kernels.BLOCK_STATES


class TestBlockExtremesErrors:
    """The stream that run_ags reduces refuses a block by the least and
    greatest value it gives with it, and still names the first
    non-finite state in flat order, as the whole-lattice kernel gives
    it (the qags twin: tests/test_quantum.py::
    TestStreamRefusesNonFiniteValues)."""

    @staticmethod
    def _first_bad_point(box, m, values):
        bad = np.flatnonzero(~np.isfinite(values))
        assert bad.size > 0
        return kernels.lattice_points(box.lower, box.upper, m, bad[0])[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", TestLastAxisMajor.KIND_NAMES)
    @pytest.mark.parametrize(
        "label,lower,upper",
        [
            # the sphere and rastrigin terms are finite, and only the
            # sums near the upper corner overflow: the maxima alone
            ("maximum", -1e100, 1e154),
            # the terms overflow at both ends of every axis
            ("both", -1e155, 1e155),
        ],
    )
    def test_overflow_names_the_first_non_finite_state(self, name, label, lower, upper):
        d = 4
        obj = get_objective(name, d)
        box = SearchBox.cube(d, lower, upper)
        cfg = AgsConfig(budget_points=10**5)  # m = 17: two blocks
        m = points_per_dim_for(cfg, d)
        values = kernels.lattice_values(obj.kernel_kind, box.lower, box.upper, m, obj.shift)
        if (name, label) == ("sphere", "maximum"):
            assert np.isfinite(values.min()) and not np.isfinite(values.max())
            for xs in kernels.lattice_axes(box.lower, box.upper, m):
                assert np.isfinite(xs * xs).all()
        with pytest.raises(EvaluationError) as err:
            run_ags(obj, box, cfg)
        assert err.value.point.tobytes() == self._first_bad_point(box, m, values).tobytes()

    def test_batch_nan_in_a_later_block_names_its_point(self):
        # a batch-only objective has no term tables: evaluate_batch
        # refuses its NaN, at the first such row of the fourth block of
        # 2^15 rows
        d, m = 2, 400
        box = SearchBox.cube(d, 0.0, float(m - 1))

        def batch(pts):
            return np.where(pts[:, 0] * m + pts[:, 1] >= 100_123.0, np.nan, np.sum(pts, axis=1))

        obj = ObjectiveFunction(
            name="batch-only", arity=d, fn=lambda x: float(batch(x[None, :])[0]), batch_fn=batch
        )
        values = np.concatenate([batch(c) for _, c in kernels.coordinate_blocks(box.lower, box.upper, m)])
        with pytest.raises(EvaluationError) as err:
            run_ags(obj, box, AgsConfig(points_per_dim=m, budget_points=m * m))
        point = self._first_bad_point(box, m, values)
        assert err.value.point.tobytes() == point.tobytes()
        assert point.tolist() == [250.0, 123.0]
