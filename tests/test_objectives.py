"""Benchmark objective functions and the evaluation-counting wrapper."""

import hashlib

import numpy as np
import pytest

from qags.classical import run_ags
from qags.errors import EvaluationError, InvalidInputError
from qags.grid import GridSpec, SearchBox
from qags.kernels import KIND_RASTRIGIN, KIND_ROSENBROCK, KIND_SPHERE, KIND_STYBLINSKI_TANG
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


LEAST_DIMENSION = {"rastrigin": 1, "styblinski_tang": 1, "rosenbrock": 2, "sphere": 1}
MAKERS = {
    "rastrigin": make_rastrigin,
    "styblinski_tang": make_styblinski_tang,
    "rosenbrock": make_rosenbrock,
    "sphere": make_sphere,
}


def _built(name, shifted):
    """(dimension, make_<name> args) for every dimension from the least to 10."""
    for dim in range(LEAST_DIMENSION[name], 11):
        # the shift's first entry is -0.0, whose sign must survive
        yield dim, ((dim, np.arange(dim) * -0.5) if shifted else (dim,))


def _field_bytes(obj):
    box = obj.canonical_domain
    return b"|".join([
        obj.name.encode(),
        str(obj.arity).encode(),
        str(obj.kernel_kind).encode(),
        b"None" if box is None else box.lower.tobytes() + box.upper.tobytes(),
        obj.known_minimum_point.tobytes(),
        np.float64(obj.known_minimum_value).tobytes(),
        b"None" if obj.shift is None else obj.shift.tobytes(),
    ])


class TestBuiltinTable:
    """Every built-in keeps the fields it had when each had its own factory."""

    # SHA-256 over _field_bytes at each dimension from the least to 10,
    # recorded from the four per-objective factories this table replaced
    FIELD_DIGESTS = {
        ("rastrigin", False): "e7886ade492ef59097406c6429011cc4d8bb1882c48cb8a0c31db7af7498eb54",
        ("styblinski_tang", False): "812687302b2443c2baa2bd2e0e677f9099beaa9f791701fd59e35257ea872654",
        ("rosenbrock", False): "e11318cea48db1f9fbef5cffb5ec1b1341108caf19bd74152205b91a3cb984c4",
        ("sphere", False): "1f0b0dbe5035e4270062b88d81edae00e93d1ebb9c1c20487e6e4d63be4e1cc9",
        ("sphere", True): "b4a5d051819e11199b2692e3e71bae9871e039856efd16737ff1602d0a7cefab",
    }
    KINDS = {
        "rastrigin": KIND_RASTRIGIN,
        "styblinski_tang": KIND_STYBLINSKI_TANG,
        "rosenbrock": KIND_ROSENBROCK,
        "sphere": KIND_SPHERE,
    }
    DOMAINS = {"rastrigin": (-5.12, 5.12), "styblinski_tang": (-5.0, 5.0)}
    OPTIMA = {
        "rastrigin": (0.0, 0.0),
        "styblinski_tang": (STYBLINSKI_TANG_OPT_X, STYBLINSKI_TANG_OPT_F),
        "rosenbrock": (1.0, 0.0),
    }

    @pytest.mark.parametrize("name, shifted", sorted(FIELD_DIGESTS))
    def test_field_bytes(self, name, shifted):
        digest = hashlib.sha256()
        for dim, args in _built(name, shifted):
            obj = MAKERS[name](*args)
            assert obj.kernel_kind == self.KINDS[name]
            assert obj.arity == dim and type(obj.arity) is int
            domain = self.DOMAINS.get(name)
            if domain is None:
                assert obj.canonical_domain is None
            else:
                assert obj.canonical_domain == SearchBox.cube(dim, *domain)
            if name == "sphere":
                assert obj.shift.tobytes() == (args[1] if shifted else np.zeros(dim)).tobytes()
                assert obj.known_minimum_point.tobytes() == obj.shift.tobytes()
                assert obj.known_minimum_point is not obj.shift
                assert obj.known_minimum_value == 0.0
            else:
                x, f = self.OPTIMA[name]
                assert obj.shift is None
                assert obj.known_minimum_point.tobytes() == np.full(dim, x).tobytes()
                assert obj.known_minimum_value == f * dim
            digest.update(_field_bytes(obj))
        assert digest.hexdigest() == self.FIELD_DIGESTS[name, shifted]

    @pytest.mark.parametrize("name, shifted", sorted(FIELD_DIGESTS))
    def test_factory_registry_and_builder_agree(self, name, shifted):
        x = np.linspace(-1.5, 2.5, 10)
        for dim, args in _built(name, shifted):
            shift = {"shift": args[1]} if shifted else {}
            built = [MAKERS[name](*args), REGISTRY[name](*args), get_objective(name, dim, **shift)]
            assert len({_field_bytes(obj) for obj in built}) == 1
            for obj in built:
                assert obj.fn is obj.batch_fn
                if name == "sphere":
                    assert obj.fn.func is sphere and obj.fn.keywords["shift"] is obj.shift
                else:
                    assert obj.fn is {"rastrigin": rastrigin, "styblinski_tang": styblinski_tang,
                                      "rosenbrock": rosenbrock}[name]
            values = {obj.batch_fn(np.stack([x[:dim], -x[:dim]])).tobytes() for obj in built}
            assert len(values) == 1

    @pytest.mark.parametrize("dim", [2.5, 3.0, "3"])
    @pytest.mark.parametrize("name", sorted(LEAST_DIMENSION))
    def test_dimension_must_be_an_integer(self, name, dim):
        message = f"^{name} needs dimension >= {LEAST_DIMENSION[name]}$"
        for build in (MAKERS[name], REGISTRY[name], lambda d: get_objective(name, d)):
            with pytest.raises(InvalidInputError, match=message):
                build(dim)

    @pytest.mark.parametrize("name", sorted(LEAST_DIMENSION))
    def test_too_few_coordinates(self, name):
        least = LEAST_DIMENSION[name]
        with pytest.raises(InvalidInputError, match=f"^{name} needs dimension >= {least}$"):
            get_objective(name, least - 1)

    @pytest.mark.parametrize("name", sorted(LEAST_DIMENSION))
    def test_numpy_integer_dimension(self, name):
        obj = get_objective(name, np.int64(3))
        assert obj.arity == 3
        assert _field_bytes(obj) == _field_bytes(get_objective(name, 3))

    def test_shift_refused_before_dimension(self):
        with pytest.raises(InvalidInputError, match="^rosenbrock does not take a shift$"):
            get_objective("rosenbrock", 1, shift=(1.0,))


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
