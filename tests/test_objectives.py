"""Benchmark objective functions and the evaluation-counting wrapper."""

import numpy as np
import pytest

from qags.classical import run_ags
from qags.errors import EvaluationError, InvalidInputError
from qags.grid import GridSpec, SearchBox
from qags.objectives import (
    REGISTRY,
    STYBLINSKI_TANG_OPT_F,
    STYBLINSKI_TANG_OPT_X,
    ObjectiveFunction,
    get_objective,
    make_rastrigin,
    make_rosenbrock,
    make_sphere,
    make_styblinski_tang,
    rastrigin,
    rosenbrock,
    sphere,
    styblinski_tang,
)
from qags.quantum import grid_values


class TestFormulas:
    def test_rastrigin_at_origin(self):
        assert rastrigin(np.zeros(4)) == 0.0

    def test_rastrigin_single_coordinate(self):
        # x=1: 1 - 10*cos(2*pi) + 10 = 1
        assert rastrigin(np.array([1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_rastrigin_local_basin(self):
        # the nearest non-global basin bottoms out at about f=0.995 per dim
        x = 0.9949586376523348
        assert rastrigin(np.array([x])) == pytest.approx(0.9949590570932916, abs=1e-12)

    def test_sphere(self):
        assert sphere(np.array([3.0, 4.0])) == 25.0
        assert sphere(np.array([3.0, 4.0]), shift=np.array([3.0, 4.0])) == 0.0

    def test_rosenbrock(self):
        assert rosenbrock(np.ones(5)) == 0.0
        assert rosenbrock(np.array([-1.2, 1.0])) == pytest.approx(24.2, abs=1e-12)

    def test_rosenbrock_chain(self):
        # d=3 sums two consecutive-coordinate couplings
        x = np.array([0.0, 1.0, 2.0])
        expected = (100.0 * (1.0 - 0.0) ** 2 + 1.0) + (100.0 * (2.0 - 1.0) ** 2 + 0.0)
        assert rosenbrock(x) == expected

    def test_styblinski_tang_minimum(self):
        x = np.full(3, STYBLINSKI_TANG_OPT_X)
        assert styblinski_tang(x) == pytest.approx(3 * STYBLINSKI_TANG_OPT_F, abs=1e-9)

    def test_styblinski_tang_value(self):
        # single term at x=1: 0.5*(1 - 16 + 5) = -5
        assert styblinski_tang(np.array([1.0])) == -5.0


class TestRegistry:
    def test_names(self):
        assert set(REGISTRY) == {"rastrigin", "styblinski_tang", "rosenbrock", "sphere"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_objective("nope", 2)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_known_minimum_consistent(self, name):
        dim = 2
        obj = get_objective(name, dim)
        value = obj.evaluate(obj.known_minimum_point)
        assert abs(value - obj.known_minimum_value) <= 1e-9

    def test_rosenbrock_needs_two_dims(self):
        with pytest.raises(InvalidInputError):
            get_objective("rosenbrock", 1)

    def test_shift_only_for_sphere(self):
        with pytest.raises(InvalidInputError):
            get_objective("rastrigin", 2, shift=(1.0, 1.0))

    def test_sphere_shift_moves_minimum(self):
        obj = get_objective("sphere", 2, shift=(100.0, 100.0))
        assert obj.evaluate(np.array([100.0, 100.0])) == 0.0
        assert np.array_equal(obj.known_minimum_point, [100.0, 100.0])

    def test_sphere_shift_arity(self):
        with pytest.raises(InvalidInputError):
            get_objective("sphere", 2, shift=(1.0,))

    def test_canonical_domains(self):
        assert get_objective("rastrigin", 2).canonical_domain == SearchBox.cube(2, -5.12, 5.12)
        assert get_objective("styblinski_tang", 2).canonical_domain == SearchBox.cube(2, -5.0, 5.0)
        assert get_objective("rosenbrock", 2).canonical_domain is None


class TestEvaluation:
    def test_counter_increments(self):
        obj = make_sphere(2)
        assert obj.eval_count == 0
        obj.evaluate(np.zeros(2))
        assert obj.eval_count == 1
        obj.evaluate_batch(np.zeros((5, 2)))
        assert obj.eval_count == 6
        obj.reset_eval_count()
        assert obj.eval_count == 0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        for make in (make_rastrigin, make_styblinski_tang, make_sphere):
            obj = make(3)
            pts = rng.uniform(-5, 5, size=(40, 3))
            batch = obj.evaluate_batch(pts)
            rows = np.array([obj.evaluate(p) for p in pts])
            assert batch.tobytes() == rows.tobytes()
        obj = make_rosenbrock(3)
        pts = rng.uniform(-2, 2, size=(40, 3))
        rows = np.array([obj.evaluate(p) for p in pts])
        assert obj.evaluate_batch(pts).tobytes() == rows.tobytes()

    def test_arity_checked(self):
        obj = make_sphere(2)
        with pytest.raises(InvalidInputError):
            obj.evaluate(np.zeros(3))
        with pytest.raises(InvalidInputError):
            obj.evaluate_batch(np.zeros((4, 3)))

    def test_non_finite_input_rejected(self):
        obj = make_sphere(2)
        with pytest.raises(InvalidInputError):
            obj.evaluate(np.array([np.nan, 0.0]))

    def test_non_finite_result_raises(self):
        bad = ObjectiveFunction(
            name="bad",
            arity=1,
            fn=lambda x: float("nan"),
            batch_fn=lambda X: np.full(len(X), np.nan),
            kernel_kind=None,
        )
        with pytest.raises(EvaluationError) as err:
            bad.evaluate(np.array([1.0]))
        assert err.value.point is not None
        with pytest.raises(EvaluationError):
            bad.evaluate_batch(np.ones((3, 1)))

    @pytest.mark.parametrize(
        "batch_fn",
        [
            lambda p: np.sum(p * p),
            lambda p: np.sum(p * p, axis=1)[:-1],
            lambda p: np.sum(p * p, axis=1)[:, None],
        ],
        ids=["scalar", "one-short", "column"],
    )
    def test_batch_result_must_have_one_value_per_row(self, batch_fn):
        obj = ObjectiveFunction(
            name="odd",
            arity=2,
            fn=lambda x: float(np.sum(x * x)),
            batch_fn=batch_fn,
            kernel_kind=None,
        )
        with pytest.raises(InvalidInputError, match="shape"):
            obj.evaluate_batch(np.ones((5, 2)))
        box = SearchBox.cube(2, -1.0, 1.0)
        with pytest.raises(InvalidInputError, match="shape"):
            grid_values(obj, GridSpec(2, 3, box))
        with pytest.raises(InvalidInputError, match="shape"):
            run_ags(obj, box)
