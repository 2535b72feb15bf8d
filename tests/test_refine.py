"""Bounded quasi-Newton refinement."""

import numpy as np
import pytest

from qags.errors import InvalidInputError, RefinementError
from qags.grid import SearchBox
from qags.objectives import (
    REGISTRY,
    ObjectiveFunction,
    get_objective,
    make_rastrigin,
    make_rosenbrock,
    make_sphere,
    make_styblinski_tang,
)
from qags.refine import (
    _STALL_STEPS,
    RefinerConfig,
    _BudgetedObjective,
    _fd_gradient,
    _OutOfEvals,
    refine,
)


def quadratic_1d():
    return ObjectiveFunction(
        name="xsq",
        arity=1,
        fn=lambda x: float(x[0]) ** 2,
        batch_fn=lambda X: X[:, 0] ** 2,
        kernel_kind=None,
    )


class TestConvergence:
    def test_sphere_from_offset(self):
        x, fx, evals = refine(
            make_sphere(2), SearchBox.cube(2, -5.0, 5.0), np.array([3.0, 4.0])
        )
        assert fx < 1e-12
        assert np.all(np.abs(x) < 1e-6)
        assert evals > 0

    def test_constrained_minimum_at_boundary(self):
        # x^2 on [1, 2] has its constrained minimum at the left edge
        box = SearchBox(np.array([1.0]), np.array([2.0]))
        x, fx, _ = refine(quadratic_1d(), box, np.array([1.7]))
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert fx == pytest.approx(1.0, abs=1e-9)

    def test_rosenbrock_classic_start(self):
        x, fx, _ = refine(
            make_rosenbrock(2), SearchBox.cube(2, -5.0, 5.0), np.array([-1.2, 1.0])
        )
        assert fx < 1e-10
        assert np.allclose(x, 1.0, atol=1e-4)

    def test_styblinski_tang_local(self):
        obj = make_styblinski_tang(3)
        x, fx, _ = refine(
            obj, SearchBox.cube(3, -5.0, 5.0), np.full(3, -2.5)
        )
        assert fx == pytest.approx(obj.known_minimum_value, abs=1e-9)


class TestContract:
    def test_start_clipped_into_box(self):
        box = SearchBox.cube(2, -1.0, 1.0)
        x, fx, _ = refine(make_sphere(2), box, np.array([5.0, -7.0]))
        assert box.contains(x)

    def test_result_always_feasible(self):
        box = SearchBox(np.array([0.5, -2.0]), np.array([2.0, -0.5]))
        x, _, _ = refine(make_rastrigin(2), box, np.array([1.9, -1.9]))
        assert box.contains(x)

    def test_descent_from_start(self):
        obj = make_rastrigin(2)
        box = SearchBox.cube(2, -5.12, 5.12)
        start = np.array([2.2, -3.3])
        f_start = make_rastrigin(2).evaluate(start)
        _, fx, _ = refine(obj, box, start)
        assert fx <= f_start + 1e-12

    def test_eval_budget_respected(self):
        obj = make_rosenbrock(2)
        cfg = RefinerConfig(max_evals=25)
        _, _, evals = refine(
            obj, SearchBox.cube(2, -5.0, 5.0), np.array([-1.2, 1.0]), cfg
        )
        assert evals <= 25
        assert obj.eval_count == evals

    def test_degenerate_box_returns_start(self):
        box = SearchBox(np.array([2.0, 3.0]), np.array([2.0, 3.0]))
        x, fx, evals = refine(make_sphere(2), box, np.array([2.0, 3.0]))
        assert np.array_equal(x, [2.0, 3.0])
        assert fx == 13.0
        assert evals == 1

    def test_partially_degenerate_box(self):
        # frozen first coordinate, free second
        box = SearchBox(np.array([2.0, -5.0]), np.array([2.0, 5.0]))
        x, fx, _ = refine(make_sphere(2), box, np.array([2.0, 4.0]))
        assert x[0] == 2.0
        assert abs(x[1]) < 1e-6
        assert fx == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("start, evals", [("lower", 1), ("upper", 3)])
    def test_ulp_wide_box_divides_no_zero_by_zero(self, start, evals):
        # h, half the width, rounds x + h and x - h back to x at the lower
        # bound: neither row fits, so the axis gets gradient 0 and no
        # evaluation, with no NaN (warnings are errors in this suite).
        # From the upper bound, x - h ties to the even lower bound.
        box = SearchBox([1e10], [np.nextafter(1e10, np.inf)])
        f = make_sphere(1)
        x, fx, used = refine(f, box, getattr(box, start))
        assert x.tobytes() == np.array([1e10]).tobytes()
        assert (fx, used, f.eval_count) == (1e20, evals, evals)

    def test_failing_start_raises(self):
        bad = ObjectiveFunction(
            name="nan",
            arity=1,
            fn=lambda x: float("nan"),
            batch_fn=lambda X: np.full(len(X), np.nan),
            kernel_kind=None,
        )
        with pytest.raises(RefinementError) as err:
            refine(bad, SearchBox.cube(1, 0.0, 1.0), np.array([0.5]))
        assert err.value.last_point is not None

    def test_arity_mismatch(self):
        with pytest.raises(InvalidInputError):
            refine(make_sphere(2), SearchBox.cube(3, 0.0, 1.0), np.zeros(3))

    @pytest.mark.parametrize(
        "dim, start, message",
        [
            (3, np.zeros(3), r"sphere expects 2 coordinates, got shape \(3,\)"),
            (2, np.array([np.nan, 0.5]), "sphere received a non-finite point"),
        ],
    )
    def test_point_checks_come_before_any_evaluation(self, dim, start, message):
        # the one check of the refiner's points: clipping keeps a NaN
        obj = make_sphere(2)
        with pytest.raises(InvalidInputError, match=message):
            refine(obj, SearchBox.cube(dim, 0.0, 1.0), start)
        assert obj.eval_count == 0

    def test_evaluates_on_the_internal_path(self, monkeypatch):
        # the public methods' input checks are redundant on points inside
        # the box; the result is the same without them
        box = SearchBox.cube(3, -2.0, 2.0)
        start = np.array([-1.2, 1.0, 0.5])
        expected = refine(make_rosenbrock(3), box, start)

        def public(*args):
            raise AssertionError("the refiner called a public evaluation method")

        monkeypatch.setattr(ObjectiveFunction, "evaluate", public)
        monkeypatch.setattr(ObjectiveFunction, "evaluate_batch", public)
        obj = make_rosenbrock(3)
        x, fx, evals = refine(obj, box, start)
        assert x.tobytes() == expected[0].tobytes()
        assert (fx, evals) == expected[1:]
        assert obj.eval_count == evals

    def test_batch_result_shape_is_checked(self):
        bad = ObjectiveFunction(
            name="flat",
            arity=2,
            fn=lambda x: float(x @ x),
            batch_fn=lambda X: np.sum(X * X),
        )
        with pytest.raises(InvalidInputError, match=r"flat returned shape \(\) for 4 points"):
            refine(bad, SearchBox.cube(2, -1.0, 1.0), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("start", [np.zeros(3), np.zeros(1), 0.5])
    def test_start_arity_is_checked_before_clipping(self, start):
        # clipping would broadcast a scalar or length-1 start to every axis
        with pytest.raises(InvalidInputError, match="start arity"):
            refine(make_sphere(2), SearchBox.cube(2, 0.0, 1.0), start)

    # (objective, lower, upper, start, point bytes, value, evaluations) on
    # boxes with a zero bound of either sign, where projection meets
    # coordinates of the other zero; recorded while the projection was
    # np.clip, before the per-iteration overhead was cut.
    SIGNED_ZEROS = [
        ("sphere", [-0.0, -0.0], [1.0, 1.0], [-0.0, 0.5],
         "00000000000000800000000000000080", 0.0, 7),
        ("sphere", [-0.0, -0.0], [1.0, 1.0], [0.0, 0.5],
         "00000000000000800000000000000080", 0.0, 7),
        ("sphere", [-1.0, -1.0], [0.0, 0.0], [-0.0, -0.5],
         "00000000000000000000000000000000", 0.0, 7),
        ("sphere", [-0.0] * 8, [1.0] * 8, [-0.0] * 4 + [0.5] * 4,
         "0000000000000080" * 8, 0.0, 22),
        ("sphere", [-1.0] * 8, [-0.0] * 8, [0.0] * 4 + [-0.5] * 4,
         "0000000000000080" * 8, 0.0, 22),
        ("rosenbrock", [-0.0, -0.0], [2.0, 2.0], [-0.0, 0.5],
         "081110fcffffef3ff32120f8ffffef3f", float.fromhex("0x1.f00f3c446b188p-55"), 149),
        ("rastrigin", [-0.0] * 3, [1.0] * 3, [-0.0, 0.3, 0.0],
         "0000000000000080" * 3, 0.0, 9),
    ]

    @pytest.mark.parametrize("case", SIGNED_ZEROS)
    def test_signed_zero_bounds_keep_their_bits(self, case):
        name, lower, upper, start, point, value, evals = case
        box = SearchBox(np.array(lower), np.array(upper))
        x, fx, used = refine(get_objective(name, len(lower)), box, np.array(start))
        assert x.tobytes().hex() == point
        assert (fx, used) == (value, evals)


class TestRefinerConfig:
    def test_defaults(self):
        cfg = RefinerConfig()
        assert cfg.max_evals == 10000
        assert cfg.convergence_tol == 1e-10
        assert cfg.history_size == 10

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            RefinerConfig(max_evals=0)
        with pytest.raises(InvalidInputError):
            RefinerConfig(convergence_tol=-1.0)
        with pytest.raises(InvalidInputError):
            RefinerConfig(history_size=0)
        with pytest.raises(InvalidInputError):
            RefinerConfig(gradient_step_scale=0.0)

    # these raised TypeError inside refine, after a run's lattice phase
    @pytest.mark.parametrize("field", ["max_evals", "history_size"])
    @pytest.mark.parametrize("value", [7.5, 7.0, "7", None])
    def test_rejects_counts_that_are_not_integers(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            RefinerConfig(**{field: value})

    def test_accepts_python_and_numpy_ints(self):
        box = SearchBox.cube(2, -2.0, 3.0)
        start = np.array([1.5, -1.0])
        python = refine(make_rosenbrock(2), box, start, RefinerConfig(max_evals=40, history_size=2))
        numpy = refine(make_rosenbrock(2), box, start,
                       RefinerConfig(max_evals=np.int64(40), history_size=np.int32(2)))
        assert python[2] == 40  # the budget binds
        assert numpy[0].tobytes() == python[0].tobytes()
        assert numpy[1:] == python[1:]


def recording(objective):
    """objective with a log: each evaluate() appends its value, each
    evaluate_batch() appends None."""
    log = []

    def fn(x):
        log.append(objective.fn(x))
        return log[-1]

    def batch_fn(points):
        log.append(None)
        return objective.batch_fn(points)

    wrapped = ObjectiveFunction(
        name=objective.name, arity=objective.arity, fn=fn, batch_fn=batch_fn
    )
    return wrapped, log


class TestStallExit:
    # Final box, refiner start, refined (point, value) and evaluation
    # count of bench presets (seed 0), each coordinate one number for
    # every axis or a list.  The first three were recorded when the
    # objectives became the kernel's per-axis terms added left to right.
    # The Rosenbrock rows, where the refiner takes most of a run's time,
    # were recorded before its per-iteration overhead was cut.
    PRESETS = {
        "t2 d=5 q=3": (
            "styblinski_tang", 5, -3.7755102040816326, 3.571428571428571,
            -2.7259475218658893,
            [-2.9035340276426713] * 3 + [-2.9035340276204025] * 2,
            -195.8308285188571, 95,
        ),
        "t2 d=2 q=5": (
            "styblinski_tang", 2, -3.7905743345305627, 3.4599375650364204,
            -2.8550244120057906, -2.9035340281562325, -78.33233140754282, 40,
        ),
        "t1 d=8 q=2": (
            "rastrigin", 8, -5.12, 5.12,
            1.706666666666667,
            [1.9899122336990056] * 3
            + [1.9899122336990103, 1.9899122336987816, 1.989912233698707,
               1.9899122336989035, 1.9899122336987767],
            31.838649524432697, 210,
        ),
        "t3 d=2 q=5": (
            "rosenbrock", 2,
            [-22.75043014723001, -70.97781209089993],
            [22.750430147229977, 500.0],
            [2.3534927738513645, 5.152562854553395],
            [0.999999993955871, 0.9999999879058848],
            3.653492575095123e-17, 319,
        ),
        "t3 d=3 q=4": (
            "rosenbrock", 3,
            [-10.07623901234567, -22.900543209876535, -63.705679012345655],
            [10.076239012345686, 22.90054320987653, 500.0],
            [2.325285925925934, 7.633514403292175, 57.08839506172842],
            [0.9999999955939057, 0.9999999912024636, 0.9999999824049527],
            9.683178147174928e-17, 620,
        ),
        "t4 d=5 q=3": (
            "rosenbrock", 5,
            [-2.6030820491461886, -2.6030820491461886, -2.6030820491461886,
             -3.6443148688046643, -7.142857142857142],
            [2.60308204914619, 2.7518295948116855, 2.60308204914619,
             3.644314868804665, 10.0],
            [1.0204081632653068] * 4 + [1.4285714285714288],
            [0.9999999986782383, 0.9999999973865675, 0.9999999948117745,
             0.9999999896537063, 0.9999999793074306],
            1.4287135417530489e-16, 313,
        ),
        "t4 d=8 q=2": (
            "rosenbrock", 8, -10.0, 10.0,
            [3.333333333333334] * 7 + [10.0],
            [0.9999999998372268, 0.9999999997070682, 0.9999999994627111,
             0.999999998985108, 0.9999999980303564, 0.9999999961140886,
             0.9999999922577982, 0.9999999845142018],
            8.178555968066208e-17, 1680,
        ),
    }

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bench_preset_result_unchanged(self, preset):
        name, dim, lower, upper, start, point, value, count = self.PRESETS[preset]

        def axes(v):
            return np.full(dim, v) if np.isscalar(v) else np.array(v)

        objective = get_objective(name, dim)
        x, fx, evals = refine(objective, SearchBox(axes(lower), axes(upper)), axes(start))
        assert x.tolist() == axes(point).tolist()
        assert fx == value
        assert evals == objective.eval_count == count

    def test_stops_on_third_consecutive_flat_step(self):
        # Accepted steps here go: decrease, decrease, flat, flat,
        # decrease, flat, flat, flat.  The decrease between the flat runs
        # resets the count.
        obj, log = recording(make_styblinski_tang(2))
        box = SearchBox(
            np.array([-2.903652186644868, -2.903647282939708]),
            np.array([-2.9033905424804516, -2.903391273878751]),
        )
        start = np.array([-2.903429900078971, -2.9035205249884544])
        _, fx, evals = refine(obj, box, start)
        # each stencil (None) follows the step it was taken at; the run
        # stops on an accepted step, before that step's stencil
        assert log[1] is None and log[-1] is not None
        accepted = [log[0]] + [
            log[i - 1] for i in range(2, len(log)) if log[i] is None
        ] + [log[-1]]
        flat = [b >= a for a, b in zip(accepted, accepted[1:])]
        run = 0
        for k, is_flat in enumerate(flat):
            run = run + 1 if is_flat else 0
            assert run < _STALL_STEPS or k == len(flat) - 1
        assert run == _STALL_STEPS
        # earlier flat steps were cut off by a decrease: a count that is
        # not reset would have stopped before the last run
        assert flat[:-_STALL_STEPS].count(True) >= _STALL_STEPS - 1
        assert fx == min(accepted)
        assert evals == obj.eval_count < RefinerConfig().max_evals


def scalar_loop_gradient(f, x, fx, box, scale, free):
    """The per-axis loop the batched stencil replaced, as the reference:
    returns the gradient and the points evaluated, in order."""
    g = np.zeros(x.size)
    points = []

    def ev(p):
        points.append(p)
        return f(p)

    for i in range(x.size):
        if not free[i]:
            continue
        h = scale * max(1.0, abs(x[i]))
        half_width = (box.upper[i] - box.lower[i]) / 2.0
        if h > half_width:
            h = half_width
        # a row that rounds back to x does not fit
        can_up = x[i] < x[i] + h <= box.upper[i]
        can_down = box.lower[i] <= x[i] - h < x[i]
        if can_up and can_down:
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            g[i] = (ev(xp) - ev(xm)) / (xp[i] - xm[i])
        elif can_up:
            xp = x.copy()
            xp[i] += h
            g[i] = (ev(xp) - fx) / (xp[i] - x[i])
        elif can_down:
            xm = x.copy()
            xm[i] -= h
            g[i] = (fx - ev(xm)) / (x[i] - xm[i])
    return g, points


def stencil_cases():
    """(name, point, box) with interior axes, axes on and just inside
    either bound (one-sided rows), and a zero-width axis."""
    rng = np.random.default_rng(11)
    scale = RefinerConfig().gradient_step_scale
    for name in sorted(REGISTRY):
        for dim in (2, 3, 5, 8):
            lower = rng.uniform(-4.0, 0.0, dim)
            upper = lower + rng.uniform(1e-6, 4.0, dim)
            x = rng.uniform(lower, upper)
            x[0] = lower[0]
            x[1] = upper[1]
            if dim > 2:
                upper[2] = lower[2]
                x[2] = lower[2]
            if dim > 3:
                x[3] = lower[3] + 0.5 * scale
            if dim > 4:
                x[4] = upper[4] - 0.5 * scale * max(1.0, abs(upper[4]))
            yield name, x, SearchBox(lower, upper)


def interior_stencil_cases():
    """(name, point, box) with both stencil rows on every free axis:
    every objective at d = 1..8, and a box whose first axis has zero
    width."""
    rng = np.random.default_rng(17)
    for name in sorted(REGISTRY):
        for dim in range(2 if name == "rosenbrock" else 1, 9):
            lower = rng.uniform(-4.0, 0.0, dim)
            upper = lower + rng.uniform(0.5, 4.0, dim)
            x = rng.uniform(lower + 0.1, upper - 0.1)
            yield name, x, SearchBox(lower, upper)
            if dim > 1:
                upper = upper.copy()
                upper[0] = lower[0]
                x = x.copy()
                x[0] = lower[0]
                yield name, x, SearchBox(lower, upper)


def stencil_rows(name, x, box):
    """Asserts that _fd_gradient gives the scalar loop's gradient bits
    from one batch of the loop's points, in its order; returns the
    number of rows."""
    scale = RefinerConfig().gradient_step_scale
    objective = get_objective(name, x.size)
    free = box.width > 0.0
    fx = objective.evaluate(x)
    expected, points = scalar_loop_gradient(objective.evaluate, x, fx, box, scale, free)
    batches = []

    def ev_batch(rows):
        batches.append(rows.copy())
        return objective.evaluate_batch(rows)

    g = _fd_gradient(ev_batch, x, fx, box, scale)
    assert g.tobytes() == expected.tobytes()
    assert len(batches) == 1
    assert batches[0].tolist() == [p.tolist() for p in points]
    return len(points)


class TestBatchedStencil:
    @pytest.mark.parametrize("name, x, box", list(stencil_cases()))
    def test_equals_scalar_loop(self, name, x, box):
        free = box.width > 0.0
        assert stencil_rows(name, x, box) < 2 * int(free.sum())  # one-sided rows were taken

    @pytest.mark.parametrize("name, x, box", list(interior_stencil_cases()))
    def test_interior_equals_scalar_loop(self, name, x, box):
        free = box.width > 0.0
        assert stencil_rows(name, x, box) == 2 * int(free.sum())  # both rows on every free axis

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_batch_values_equal_scalar_values(self, name):
        rng = np.random.default_rng(5)
        for dim in range(2 if name == "rosenbrock" else 1, 13):
            objective = get_objective(name, dim)
            points = rng.uniform(-5.0, 5.0, (2 * dim + 1, dim))
            batch = objective.evaluate_batch(points)
            scalar = np.array([objective.evaluate(p) for p in points])
            assert batch.tobytes() == scalar.tobytes(), dim

    def test_budget_runs_out_inside_a_stencil(self):
        box = SearchBox.cube(3, -5.0, 5.0)
        start = np.array([-1.2, 1.0, 0.5])
        _, _, unbounded = refine(make_rosenbrock(3), box, start)
        assert unbounded > 50
        for max_evals in range(1, 50):
            obj = make_rosenbrock(3)
            x, fx, evals = refine(obj, box, start, RefinerConfig(max_evals=max_evals))
            assert evals == obj.eval_count == max_evals
            assert box.contains(x)
            assert fx <= make_rosenbrock(3).evaluate(start)

    def test_truncated_batch_evaluates_leading_rows(self):
        seen = []

        def batch_fn(points):
            seen.append(points.tolist())
            return np.sum(points * points, axis=1)

        obj = ObjectiveFunction(name="sq", arity=2, fn=None, batch_fn=batch_fn)
        ev = _BudgetedObjective(obj, 6)
        rows = np.arange(10.0).reshape(5, 2)
        assert ev.batch(rows).tolist() == [1.0, 13.0, 41.0, 85.0, 145.0]
        with pytest.raises(_OutOfEvals):
            ev.batch(rows[::-1])
        assert seen[1] == rows[::-1][:1].tolist()
        assert ev.used == obj.eval_count == 6
        with pytest.raises(_OutOfEvals):
            ev.batch(rows)
        assert len(seen) == 2 and obj.eval_count == 6
