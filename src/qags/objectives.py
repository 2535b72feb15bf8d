"""Benchmark objective functions and the objective-function wrapper.

Each benchmark is the lattice kernel's per-axis terms
(``kernels.axis_terms``, ``kernels.rosenbrock_pair``) added left to
right over the last axis, so it takes one point (d,) or a batch of
points (N, d), and its value at a decoded lattice point equals the
kernel's lattice value there bit for bit.  The factories below pass that
one function as both the scalar ``fn`` and the ``batch_fn`` of an
:class:`ObjectiveFunction`, which validates inputs, counts evaluations,
and records the known optimum when one exists in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kernels import (
    KIND_RASTRIGIN,
    KIND_ROSENBROCK,
    KIND_SPHERE,
    KIND_STYBLINSKI_TANG,
    axis_terms,
    rosenbrock_pair,
)
from .errors import EvaluationError, InvalidInputError
from .grid import SearchBox

# Per-dimension optimum of 0.5*(x^4 - 16x^2 + 5x): root of 4x^3 - 32x + 5
# nearest -2.9 and the objective value there (both correct to double
# precision; verified against a high-precision root in the test suite).
STYBLINSKI_TANG_OPT_X = -2.903534027771177
STYBLINSKI_TANG_OPT_F = -39.16616570377141


def _left_to_right(terms):
    """terms[..., 0] + terms[..., 1] + ..., added in that order, as the
    lattice kernel adds its axes."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


def rastrigin(x):
    """Rastrigin: sum(x_i^2 - 10*cos(2*pi*x_i) + 10).

    Global minimum f(0, ..., 0) = 0; highly multimodal.
    """
    return _left_to_right(axis_terms(KIND_RASTRIGIN, np.asarray(x, dtype=np.float64), None))


def styblinski_tang(x):
    """Styblinski-Tang: sum(0.5 * (x_i^4 - 16*x_i^2 + 5*x_i)).

    Global minimum ~= -39.16617*d at x_i ~= -2.9035340.
    """
    return _left_to_right(
        axis_terms(KIND_STYBLINSKI_TANG, np.asarray(x, dtype=np.float64), None)
    )


def rosenbrock(x):
    """Rosenbrock: sum over i of 100*(x_{i+1} - x_i^2)^2 + (1 - x_i)^2,
    for points of at least two coordinates.

    Global minimum f(1, ..., 1) = 0 along a narrow curved valley.
    """
    x = np.asarray(x, dtype=np.float64)
    return _left_to_right(rosenbrock_pair(x[..., :-1], x[..., 1:]))


def sphere(x, shift=None):
    """Shifted sphere: sum((x_i - c_i)^2) with optimum at the shift c."""
    shift = 0.0 if shift is None else np.asarray(shift, dtype=np.float64)
    return _left_to_right(axis_terms(KIND_SPHERE, np.asarray(x, dtype=np.float64), shift))


@dataclass
class ObjectiveFunction:
    """A named objective of fixed arity with an evaluation counter.

    ``batch_fn`` vectorizes over an (N, d) matrix of points; when absent,
    batch evaluation falls back to a row-by-row loop.  Lattice evaluation
    calls it on row blocks of at most 65,536 rows and the refiner on its
    finite-difference stencils, so it must be row-wise: each output value
    depends on its own row only.  ``kernel_kind`` tags objectives the
    lattice kernels can evaluate without materializing point coordinates.
    The evaluation counter is a plain int with no lock: an instance shared
    between threads needs the caller's own locking.

    ``evaluate`` and ``evaluate_batch`` check their input, then take the
    internal path (``_evaluate_point``, ``_evaluate_rows``), which counts
    and checks the result's shape and finiteness with the same messages.
    The refiner calls the internal path directly: its points are float64
    arrays of the right arity (checked once, at its entry) inside a
    validated SearchBox, so the input checks cannot fail there, and on
    its d-entry vectors they cost about as much as the objective.
    """

    name: str
    arity: int
    fn: Callable[[np.ndarray], float]
    batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    kernel_kind: Optional[int] = None
    shift: Optional[np.ndarray] = None
    canonical_domain: Optional[SearchBox] = None
    known_minimum_point: Optional[np.ndarray] = None
    known_minimum_value: Optional[float] = None
    _count: int = field(default=0, repr=False, compare=False)

    def _check_point(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.arity,):
            raise InvalidInputError(
                f"{self.name} expects {self.arity} coordinates, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise InvalidInputError(f"{self.name} received a non-finite point")
        return x

    def evaluate(self, x):
        return self._evaluate_point(self._check_point(x))

    def evaluate_batch(self, points):
        """Evaluate an (N, d) matrix of points; returns an (N,) array.  A
        result of any other shape raises InvalidInputError."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise InvalidInputError("expected an (N, d) matrix of points")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError(f"{self.name} received a non-finite point")
        return self._evaluate_rows(pts)

    def _evaluate_point(self, x):
        value = float(self.fn(x))
        self._count += 1
        if not math.isfinite(value):
            raise EvaluationError(f"{self.name} returned {value}", point=x)
        return value

    def _evaluate_rows(self, pts):
        if self.batch_fn is not None:
            values = np.asarray(self.batch_fn(pts), dtype=np.float64)
        else:
            values = np.array([self.fn(row) for row in pts], dtype=np.float64)
        if values.shape != (pts.shape[0],):
            raise InvalidInputError(
                f"{self.name} returned shape {values.shape} for {pts.shape[0]} points;"
                f" expected ({pts.shape[0]},)"
            )
        self._count += pts.shape[0]
        finite = np.isfinite(values)
        if not finite.all():
            idx = int(np.argmin(finite))
            raise EvaluationError(
                f"{self.name} returned {values[idx]}", point=pts[idx].copy()
            )
        return values

    def count_evaluations(self, n):
        """Credit n evaluations performed outside evaluate()/evaluate_batch()
        (used by lattice kernels that bypass the Python call path)."""
        self._count += n

    @property
    def eval_count(self):
        return self._count

    def reset_eval_count(self):
        self._count = 0


def make_rastrigin(dimension):
    if dimension < 1:
        raise InvalidInputError("rastrigin needs dimension >= 1")
    return ObjectiveFunction(
        name="rastrigin",
        arity=dimension,
        fn=rastrigin,
        batch_fn=rastrigin,
        kernel_kind=KIND_RASTRIGIN,
        canonical_domain=SearchBox.cube(dimension, -5.12, 5.12),
        known_minimum_point=np.zeros(dimension),
        known_minimum_value=0.0,
    )


def make_styblinski_tang(dimension):
    if dimension < 1:
        raise InvalidInputError("styblinski_tang needs dimension >= 1")
    return ObjectiveFunction(
        name="styblinski_tang",
        arity=dimension,
        fn=styblinski_tang,
        batch_fn=styblinski_tang,
        kernel_kind=KIND_STYBLINSKI_TANG,
        canonical_domain=SearchBox.cube(dimension, -5.0, 5.0),
        known_minimum_point=np.full(dimension, STYBLINSKI_TANG_OPT_X),
        known_minimum_value=STYBLINSKI_TANG_OPT_F * dimension,
    )


def make_rosenbrock(dimension):
    if dimension < 2:
        raise InvalidInputError("rosenbrock needs dimension >= 2")
    return ObjectiveFunction(
        name="rosenbrock",
        arity=dimension,
        fn=rosenbrock,
        batch_fn=rosenbrock,
        kernel_kind=KIND_ROSENBROCK,
        known_minimum_point=np.ones(dimension),
        known_minimum_value=0.0,
    )


def make_sphere(dimension, shift=None):
    if dimension < 1:
        raise InvalidInputError("sphere needs dimension >= 1")
    if shift is None:
        shift_arr = np.zeros(dimension)
    else:
        shift_arr = np.asarray(shift, dtype=np.float64)
        if shift_arr.shape != (dimension,):
            raise InvalidInputError("sphere shift arity mismatch")
        if not np.all(np.isfinite(shift_arr)):
            raise InvalidInputError("sphere shift must be finite")
    centred = functools.partial(sphere, shift=shift_arr)
    return ObjectiveFunction(
        name="sphere",
        arity=dimension,
        fn=centred,
        batch_fn=centred,
        kernel_kind=KIND_SPHERE,
        shift=shift_arr,
        known_minimum_point=shift_arr.copy(),
        known_minimum_value=0.0,
    )


REGISTRY = {
    "rastrigin": make_rastrigin,
    "styblinski_tang": make_styblinski_tang,
    "rosenbrock": make_rosenbrock,
    "sphere": make_sphere,
}


def get_objective(name, dimension, shift=None):
    """Instantiate a registered benchmark by name.

    Raises KeyError for unknown names; shift applies to sphere only.
    """
    if name not in REGISTRY:
        raise KeyError(name)
    if name == "sphere":
        return make_sphere(dimension, shift)
    if shift is not None:
        raise InvalidInputError(f"{name} does not take a shift")
    return REGISTRY[name](dimension)
