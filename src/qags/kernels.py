"""Backend selection for the hot lattice/encoding kernels.

The compiled extension (qags._kernels) is preferred when importable; the
NumPy fallback (qags._kernels_py) is otherwise selected automatically.
Set QAGS_BACKEND=python or QAGS_BACKEND=native to force a backend; the
native request fails loudly instead of silently degrading.  The streamed
lattice blocks (lattice_value_blocks, coordinate_blocks) always run in
NumPy: the compiled extension has no block entry point.
"""

from __future__ import annotations

import os

import numpy as np

from ._kernels_py import (  # re-exported kind ids; fallback implementation
    KIND_RASTRIGIN,
    KIND_ROSENBROCK,
    KIND_SPHERE,
    KIND_STYBLINSKI_TANG,
    coordinate_blocks,
)
from . import _kernels_py

_requested = os.environ.get("QAGS_BACKEND", "").strip().lower()
if _requested not in ("", "native", "python"):
    raise ImportError(f"QAGS_BACKEND must be 'native' or 'python', got {_requested!r}")

if _requested == "python":
    _impl = _kernels_py
    BACKEND = "python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        BACKEND = "native"
    except ImportError:
        if _requested == "native":
            raise
        _impl = _kernels_py
        BACKEND = "python"


def active_backend():
    """Name of the backend in use: 'native' or 'python'."""
    return BACKEND


def _lattice_args(lower, upper, shift):
    lower = np.ascontiguousarray(lower, dtype=np.float64)
    upper = np.ascontiguousarray(upper, dtype=np.float64)
    if shift is None:
        shift = np.zeros(lower.size)
    return lower, upper, np.ascontiguousarray(shift, dtype=np.float64)


def lattice_values(kind, lower, upper, points_per_dim, shift=None):
    """Evaluate a built-in objective on the full uniform lattice.

    Returns 2**(n*d) values in flat-index order without materializing
    the point coordinates.
    """
    lower, upper, shift = _lattice_args(lower, upper, shift)
    return _impl.lattice_values(int(kind), lower, upper, int(points_per_dim), shift)


def lattice_axes(lower, upper, points_per_dim):
    """Per-axis coordinate tables of the lattice the kernels evaluate:
    m points from lower to upper, the last one exactly upper."""
    lower, upper, _ = _lattice_args(lower, upper, None)
    return _kernels_py._axes(lower, upper, int(points_per_dim))


def lattice_value_blocks(kind, lower, upper, points_per_dim, shift=None):
    """lattice_values as a stream of (start, values) over contiguous
    flat-index blocks of at most 2**16 states.

    Always computed in NumPy: every block is bit-identical to the
    matching slice of the NumPy backend's lattice_values.
    """
    lower, upper, shift = _lattice_args(lower, upper, shift)
    return _kernels_py.lattice_value_blocks(int(kind), lower, upper, int(points_per_dim), shift)


def boltzmann(values, scale):
    """Boltzmann-encode values: (probs, argmin_index, sigma, entropy_bits)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    probs, argmin_index, sigma, entropy = _impl.boltzmann(values, float(scale))
    # the backends normalize with backend-specific summation order; one
    # pairwise renormalization keeps np.sum(probs) within ~1 ulp of 1.0
    # at any register size
    probs /= probs.sum()
    return probs, argmin_index, sigma, entropy
