"""High-probability region selection, bound contraction, and termination.

The selected region is the set of basis states whose probability reaches
the quantile-level order statistic of the probability vector (linearly
interpolated empirical quantile).  Zero-probability states are never
selected: a measurement cannot land on them, and including them would
re-inflate the bounds the moment weights underflow.  The contracted box
is the tight axis-aligned hull of the selected points, clamped to the
current bounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grid import SearchBox, axis_indices, decode_many, pack_indices


class Verdict(enum.Enum):
    """Termination verdict for one iteration; ``should_terminate`` is
    the one function that chooses it, for both methods."""

    CONTINUE = "continue"
    WIDTH_FLOOR = "width_floor"
    MAX_ITERATIONS = "max_iterations"
    CONCENTRATED = "concentrated"
    FIXED_POINT = "fixed_point"


@dataclass(frozen=True)
class RegionSelection:
    """Indices of the high-probability region.

    ``selected_indices`` is a sorted array of unique flat indices (the
    set of selected basis states); every member's probability meets
    ``threshold_probability``.
    """

    quantile: float
    selected_indices: np.ndarray
    threshold_probability: float

    def __post_init__(self):
        idx = np.asarray(self.selected_indices, dtype=np.int64)
        if idx.size == 0:
            raise InvalidInputError("selection must be non-empty")
        idx.setflags(write=False)
        object.__setattr__(self, "selected_indices", idx)


@dataclass(frozen=True)
class TerminationPolicy:
    """Stopping rules: width floor delta, iteration cap k_max, entropy floor."""

    delta: float = 1e-6
    k_max: int = 10
    entropy_floor: float = 0.01

    def __post_init__(self):
        if not self.delta > 0:
            raise InvalidInputError("delta must be positive")
        if self.k_max < 1:
            raise InvalidInputError("k_max must be >= 1")
        if not 0.0 <= self.entropy_floor < 1.0:
            raise InvalidInputError("entropy_floor must lie in [0, 1)")


def select_region(dist, quantile=0.75):
    """Select all basis states with P >= quantile-level threshold.

    The distribution's maximal entry (f_min_index) always satisfies the
    threshold and is force-included, so the selection is never empty.
    A vector with enough zeros, such as a finite-shot draw on a large
    grid, skips the quantile's partition: its threshold is 0.0.
    """
    if not 0.0 < quantile < 1.0:
        raise InvalidInputError("quantile must lie strictly inside (0, 1)")
    probs = dist.probabilities
    # min() costs a third of a zero count, and exact-readout weights
    # seldom underflow
    zeros = 0 if probs.min() > 0.0 else probs.size - np.count_nonzero(probs)
    if zeros >= quantile * probs.size + 2:
        # np.quantile (linear) interpolates between the order statistics
        # of ranks floor((N-1)q) and floor((N-1)q) + 1, counted from 0;
        # with at least qN + 2 zeros both are zeros, so the threshold is
        # exactly 0.0 and only the positivity clause selects
        threshold = 0.0
        mask = probs > 0.0
    else:
        threshold = float(np.quantile(probs, quantile))
        mask = (probs >= threshold) & (probs > 0.0)
    assert mask[dist.f_min_index], "maximal entry must meet the threshold"
    mask[dist.f_min_index] = True
    return RegionSelection(
        quantile=quantile,
        selected_indices=np.flatnonzero(mask),
        threshold_probability=threshold,
    )


def contract_bounds(spec, selection):
    """Tight axis-aligned hull of the selected points, clamped to the
    current bounds (a defensive no-op since decoded points lie inside).

    Grid coordinates never decrease as the per-axis index grows, so the
    hull's corners are the points at each axis's lowest and highest
    selected index; only those two are decoded.
    """
    lows, highs = [], []
    for i in range(spec.dimension):
        js = axis_indices(spec, selection.selected_indices, i)
        lows.append(js.min())
        highs.append(js.max())
    corners = decode_many(spec, [pack_indices(spec, lows), pack_indices(spec, highs)])
    new_lower = np.maximum(spec.bounds.lower, corners[0])
    new_upper = np.minimum(spec.bounds.upper, corners[1])
    return SearchBox(new_lower, new_upper)


def should_terminate(box_prev, box_next, entropy, k, policy, repeatable=False):
    """Iteration k's verdict: the first stopping rule that holds.

    In order: width floor (box_next narrower than delta on every axis),
    iteration cap (k >= k_max), concentration (entropy fraction below
    entropy_floor; None, for a method with no distribution, never is),
    fixed point (a ``repeatable`` iteration, a pure function of its box,
    left box_prev unchanged).  Otherwise CONTINUE.
    """
    if k < 1:
        raise InvalidInputError("iteration index starts at 1")
    if float(box_next.width.max()) < policy.delta:
        return Verdict.WIDTH_FLOOR
    if k >= policy.k_max:
        return Verdict.MAX_ITERATIONS
    if entropy is not None and entropy < policy.entropy_floor:
        return Verdict.CONCENTRATED
    if repeatable and box_next == box_prev:
        return Verdict.FIXED_POINT
    return Verdict.CONTINUE
