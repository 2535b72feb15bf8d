"""Benchmark objective functions and the objective-function wrapper.

Each benchmark is the lattice kernel's per-axis terms
(``kernels.axis_terms``, ``kernels.rosenbrock_pair``) added left to
right over the last axis, so it takes one point (d,) or a batch of
points (N, d), and its value at a decoded lattice point equals the
kernel's lattice value there bit for bit.  One table, ``_BUILTINS``,
holds each built-in's formula, kernel kind, fewest coordinates, canonical
domain and optimum, and one function, :func:`get_objective`, makes an
:class:`ObjectiveFunction` from a row, passing the formula as both the
scalar ``fn`` and the ``batch_fn``.  The wrapper validates inputs, counts
evaluations, and records the known optimum.  ``REGISTRY`` and the
``make_<name>`` functions are ``get_objective`` with the name bound.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    depends on its own row only.  It may write its matrix, since every
    lattice block and stencil is a new array.  ``fn`` must not write its
    argument: the refiner passes its own iterate, uncopied (a copy would
    cost an allocation per evaluation), so a write would move the
    search.  ``kernel_kind`` tags objectives the lattice kernels can
    evaluate without materializing point coordinates.
    The evaluation counter is a plain int with no lock: an instance shared
    between threads needs the caller's own locking.

    ``evaluate`` and ``evaluate_batch`` check their input, then take the
    internal path (``_evaluate_point``, ``_evaluate_rows``), which counts
    and checks the result's shape and finiteness with the same messages.
    The refiner and the lattice streams call the internal path directly,
    so a subclass's override of ``evaluate`` or ``evaluate_batch`` is
    not called there.  The refiner's points are float64 arrays of the
    right arity (checked once, at its entry) inside a validated
    SearchBox, so the input checks cannot fail there, and on its
    d-entry vectors they cost about as much as the objective.  Lattice
    coordinates are finite by construction, and testing each of them
    took 2.0-2.7 ms of a d = 5, q = 4 fill whose rotated-ellipsoid
    batch function took 20-25 ms.  The lattice streams take the values
    from ``_batch_values`` and refuse a non-finite one themselves,
    naming the lattice point of its flat index, so a batch function
    that writes its coordinate block cannot change the point named.
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
        values = self._batch_values(pts)
        finite = np.isfinite(values)
        if not finite.all():
            idx = int(np.argmin(finite))
            raise EvaluationError(
                f"{self.name} returned {values[idx]}", point=pts[idx].copy()
            )
        return values

    def _batch_values(self, pts):
        """The values at the rows of pts, counted and of checked shape,
        but not checked for finiteness: the caller refuses a value that
        is not finite."""
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


# One row per built-in: (formula, lattice kernel kind, fewest coordinates,
# canonical domain per axis or None, optimum coordinate, optimum value per
# axis).  Sphere's optimum is its shift, zero unless given.
_BUILTINS = {
    "rastrigin": (rastrigin, KIND_RASTRIGIN, 1, (-5.12, 5.12), 0.0, 0.0),
    "styblinski_tang": (
        styblinski_tang, KIND_STYBLINSKI_TANG, 1, (-5.0, 5.0),
        STYBLINSKI_TANG_OPT_X, STYBLINSKI_TANG_OPT_F,
    ),
    "rosenbrock": (rosenbrock, KIND_ROSENBROCK, 2, None, 1.0, 0.0),
    "sphere": (sphere, KIND_SPHERE, 1, None, None, 0.0),
}


def get_objective(name, dimension, shift=None):
    """Instantiate a built-in objective by name.

    Raises KeyError for unknown names, and InvalidInputError for a
    dimension that is not an integer of at least the objective's fewest
    coordinates; shift applies to sphere only.
    """
    formula, kind, least, domain, optimum_x, optimum_f = _BUILTINS[name]
    if shift is not None and name != "sphere":
        raise InvalidInputError(f"{name} does not take a shift")
    if not isinstance(dimension, numbers.Integral) or dimension < least:
        raise InvalidInputError(f"{name} needs dimension >= {least}")
    if name == "sphere":
        if shift is None:
            shift = np.zeros(dimension)
        else:
            shift = np.asarray(shift, dtype=np.float64)
            if shift.shape != (dimension,):
                raise InvalidInputError("sphere shift arity mismatch")
            if not np.all(np.isfinite(shift)):
                raise InvalidInputError("sphere shift must be finite")
        optimum = shift.copy()
        formula = functools.partial(sphere, shift=shift)
    else:
        optimum = np.full(dimension, optimum_x)
    return ObjectiveFunction(
        name=name,
        arity=dimension,
        fn=formula,
        batch_fn=formula,
        kernel_kind=kind,
        shift=shift,
        canonical_domain=None if domain is None else SearchBox.cube(dimension, *domain),
        known_minimum_point=optimum,
        known_minimum_value=optimum_f * dimension,
    )


REGISTRY = {name: functools.partial(get_objective, name) for name in _BUILTINS}
make_rastrigin = REGISTRY["rastrigin"]
make_styblinski_tang = REGISTRY["styblinski_tang"]
make_rosenbrock = REGISTRY["rosenbrock"]
make_sphere = REGISTRY["sphere"]
