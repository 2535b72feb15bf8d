"""Classical adaptive grid-search baseline."""

import numpy as np
import pytest

from qags import kernels
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
from qags.grid import SearchBox
from qags.objectives import ObjectiveFunction, get_objective, make_rosenbrock, make_sphere
from qags.refine import refine


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
        m = 400  # 160,000 states: three blocks
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
        # zeros at flat 10*400+7 (first block) and 300*400+7 (second block)
        assert _lattice_argmin(twin, box, m) == (4007, 0.0)
        report = run_ags(twin, box, AgsConfig(points_per_dim=m, budget_points=m * m))
        assert report.iterations[0].best_point_so_far.tolist() == [10.0, 7.0]

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
        axes = kernels.lattice_axes(lo, hi, m)
        coords = np.concatenate([c for _, c in kernels.coordinate_blocks(axes)])
        for flat in range(m * m):
            assert np.array_equal(kernels.lattice_points(axes, flat)[0], coords[flat])
        assert np.array_equal(kernels.lattice_points(axes, np.arange(m * m)), coords)
        report = run_ags(make_sphere(2), SearchBox(lo, hi), AgsConfig(points_per_dim=m))
        first = report.iterations[0].best_point_so_far
        assert any(np.array_equal(first, row) for row in coords)
