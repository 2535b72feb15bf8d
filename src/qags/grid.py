"""Axis-aligned search boxes and the uniform qubit-grid codec.

A grid with ``n`` qubits per dimension places ``2**n`` evenly spaced points
along each axis of a box.  Basis-state index ``j`` along dimension ``i``
maps to

    x_ij = lower_i + j * ((upper_i - lower_i) / (2**n - 1))

and ``j = 2**n - 1`` to exactly the upper bound: ``kernels._coordinates``,
the one rule of every lattice.  A flat index packs the per-dimension
indices big-endian: dimension 0 occupies the most significant ``n`` bits.
``kernels.lattice_points`` is the one check of a grid index, and
``_axis_points`` of a dimension index: an index outside the grid, beyond
int64 or not a whole number raises IndexError.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .kernels import lattice_points
from .errors import InvalidInputError, OffGridError, _check_integer

DEFAULT_QUBIT_CAP = 30


def _as_vector(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box: per-dimension lower/upper bounds (lower <= upper),
    finite, and with a finite width upper - lower."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _as_vector(self.lower, "lower")
        upper = _as_vector(self.upper, "upper")
        if lower.shape != upper.shape:
            raise InvalidInputError("lower and upper must have equal length")
        if np.any(lower > upper):
            raise InvalidInputError("lower bound exceeds upper bound")
        with np.errstate(over="ignore"):
            width = upper - lower
        if not np.all(np.isfinite(width)):
            # every lattice step would be inf, and its points inf or NaN
            raise InvalidInputError("box width upper - lower must be finite")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, dimension, low, high):
        """Same [low, high] interval in every dimension."""
        return cls(np.full(dimension, float(low)), np.full(dimension, float(high)))

    @classmethod
    def from_pairs(cls, pairs):
        arr = np.asarray(pairs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidInputError("expected a sequence of [lower, upper] pairs")
        return cls(arr[:, 0], arr[:, 1])

    @property
    def dimension(self):
        return self.lower.size

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, point, atol=0.0):
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(p >= self.lower - atol) and np.all(p <= self.upper + atol))

    def contains_box(self, other):
        return bool(np.all(other.lower >= self.lower) and np.all(other.upper <= self.upper))

    def clip(self, point):
        return np.clip(np.asarray(point, dtype=np.float64), self.lower, self.upper)

    def as_pairs(self):
        """JSON-friendly form: list of [lower_i, upper_i] pairs."""
        return [[float(l), float(u)] for l, u in zip(self.lower, self.upper)]

    def __eq__(self, other):
        if not isinstance(other, SearchBox):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)


@dataclass(frozen=True)
class GridSpec:
    """Uniform qubit grid over a search box.

    ``qubit_cap`` bounds the register size n*d (2**30 basis states by
    default); pass a larger cap explicitly to override the guard.
    """

    dimension: int
    qubits_per_dim: int
    bounds: SearchBox
    qubit_cap: int = field(default=DEFAULT_QUBIT_CAP)

    def __post_init__(self):
        _check_integer("dimension", self.dimension, 1)
        _check_integer("qubits_per_dim", self.qubits_per_dim, 1)
        if self.bounds.dimension != self.dimension:
            raise InvalidInputError("bounds dimension mismatch")
        total = self.dimension * self.qubits_per_dim
        if total > self.qubit_cap:
            raise InvalidInputError(
                f"register of {total} qubits exceeds cap {self.qubit_cap}; "
                "raise qubit_cap to override"
            )

    @property
    def points_per_dim(self):
        return 1 << self.qubits_per_dim

    @property
    def total_points(self):
        return 1 << (self.qubits_per_dim * self.dimension)

    @property
    def step(self):
        """Per-dimension spacing; 0.0 for degenerate (zero-width) dimensions."""
        return self.bounds.width / (self.points_per_dim - 1)

    def axis_coordinates(self, i):
        """All 2**n grid coordinates along dimension i, endpoint exact: the
        same table the lattice kernels evaluate on."""
        return _axis_points(self, i, np.arange(self.points_per_dim))


def _axis_points(spec, i, js):
    """Coordinates of indices js along dimension i, a whole number in [0, d)."""
    k = int(i) if isinstance(i, numbers.Real) and -np.inf < i < np.inf else -1
    if k != i or not 0 <= k < spec.dimension:
        raise IndexError(f"dimension index {i} out of range")
    box = spec.bounds
    return lattice_points(box.lower[k:k + 1], box.upper[k:k + 1], spec.points_per_dim, js)[:, 0]


def coordinate(spec, i, j):
    """Coordinate of per-dimension index j along dimension i; an index
    lattice_points refuses, or an i not whole in [0, d), raises IndexError."""
    return float(_axis_points(spec, i, [j])[0])


def decode(spec, flat_index):
    """Map a flat basis-state index to its grid point (dimension 0 is the
    most significant qubit group)."""
    return decode_many(spec, [flat_index])[0]


def axis_indices(spec, flat_indices, i):
    """Per-dimension grid index along dimension i of each flat index."""
    shift = spec.qubits_per_dim * (spec.dimension - 1 - i)
    return (flat_indices >> shift) & (spec.points_per_dim - 1)


def pack_indices(spec, per_dim_indices):
    """Pack per-dimension grid indices into a flat index (the inverse of
    axis_indices over all dimensions)."""
    flat = 0
    for j in per_dim_indices:
        flat = (flat << spec.qubits_per_dim) | int(j)
    return flat


def decode_many(spec, flat_indices):
    """Vectorized decode: (K,) flat indices -> (K, d) coordinates, each the
    coordinate rule at its digit, so equal to ``coordinate(spec, i, j)`` bit
    for bit.  An index outside the grid, beyond int64 or not whole raises
    IndexError from lattice_points, the one index check."""
    return lattice_points(spec.bounds.lower, spec.bounds.upper, spec.points_per_dim, flat_indices)


def encode(spec, point):
    """Inverse of decode for on-grid points: each axis rounds half to even
    and clamps, and the candidate decodes once.  Raises OffGridError at the
    first axis farther than 1e-9 x width from it, and InvalidInputError
    when a coordinate is not finite."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (spec.dimension,):
        raise InvalidInputError("point arity mismatch")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("point must be finite")
    lower, width, step = spec.bounds.lower, spec.bounds.width, spec.step
    # an offset that overflows clamps to an end, off the point; a zero step's inf or NaN takes 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        js = np.clip(np.rint((p - lower) / step), 0, spec.points_per_dim - 1)
        flat = pack_indices(spec, np.where(step > 0, js, 0))
        off = np.abs(decode_many(spec, [flat])[0] - p) > 1e-9 * width
    if off.any():
        i = int(np.argmax(off))
        where = "off degenerate" if width[i] == 0.0 else "not on grid"
        raise OffGridError(f"coordinate {p[i]} {where} axis {i}")
    return flat
