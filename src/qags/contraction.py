"""High-probability region selection, bound contraction, and termination.

The selected region is the set of basis states whose probability reaches
the quantile-level order statistic of the probability vector (linearly
interpolated empirical quantile, ``kernels.linear_quantile``, which
equals np.quantile bit for bit without copying the vector).
Zero-probability states are never selected: a measurement cannot land
on them, and including them would re-inflate the bounds the moment
weights underflow.  A vector whose zeros cover both ranks the quantile
interpolates between gets the threshold 0.0 from the same rule, and
then every positive state is selected.  ``select_support`` makes the
same selection from a finite-shot draw's support and frequencies,
without the dense vector.
The contracted box is the tight axis-aligned hull of the selected
points, clamped to the current bounds: a running min and max of each
axis's digits gives its lowest and highest selected digit.
``contract_region``, the exact-readout path, never lists the selected
states: it counts each slice's mask and reduces it, as rows of the low
axes' codes, to the codes each side of the row boundary selects, so the
min and max run over one small block.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
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
        if not isinstance(self.k_max, numbers.Integral) or self.k_max < 1:
            raise InvalidInputError("k_max must be an integer >= 1")
        if not 0.0 <= self.entropy_floor < 1.0:
            raise InvalidInputError("entropy_floor must lie in [0, 1)")


def _threshold(probs, quantile):
    """select_region's threshold: np.quantile's (linear) to the bit,
    found by kernels.linear_quantile."""
    if not 0.0 < quantile < 1.0:
        raise InvalidInputError("quantile must lie strictly inside (0, 1)")
    return float(kernels.linear_quantile(probs, quantile))


def _region_masks(dist, threshold):
    """The selection of dist as (start, mask) per BLOCK_STATES slice of
    its probabilities: the states that reach a positive threshold (a
    positive threshold already excludes the zero-probability states),
    or every positive state when it is 0.0, and always f_min_index.
    Every mask is written into one buffer, so it holds until the next
    slice's is yielded."""
    probs, top = dist.probabilities, dist.f_min_index
    buffer = np.empty(min(probs.size, kernels.BLOCK_STATES), dtype=bool)
    for start in range(0, probs.size, kernels.BLOCK_STATES):
        block = probs[start:start + kernels.BLOCK_STATES]
        mask = buffer[:block.size]
        if threshold > 0.0:
            np.greater_equal(block, threshold, out=mask)
        else:
            np.greater(block, 0.0, out=mask)
        if start <= top < start + block.size:
            assert mask[top - start], "maximal entry must meet the threshold"
            mask[top - start] = True
        yield start, mask


def select_region(dist, quantile=0.75):
    """Select all basis states with P >= quantile-level threshold.

    The distribution's maximal entry (f_min_index) always satisfies the
    threshold and is force-included, so the selection is never empty.
    The threshold is np.quantile's (linear) to the bit, found by
    ``kernels.linear_quantile``; when both ranks it interpolates between
    fall on zeros, it is 0.0 and every positive state is selected.
    """
    threshold = _threshold(dist.probabilities, quantile)
    return RegionSelection(
        quantile=quantile,
        selected_indices=np.concatenate(
            [np.flatnonzero(mask) + start for start, mask in _region_masks(dist, threshold)]
        ),
        threshold_probability=threshold,
    )


def contract_region(dist, quantile=0.75):
    """contract_bounds(dist.spec, select_region(dist, quantile)) and the
    selection's size, as (box, selected_count), streamed: each
    BLOCK_STATES slice's mask is counted and reduced to the digits it
    selects (_mask_index_blocks), then dropped, so no mask of the
    lattice's size is made, nor, when the slices are whole rows of the
    hull's low axes, any array of one entry per selected state."""
    threshold = _threshold(dist.probabilities, quantile)
    count = 0

    def counted():
        nonlocal count
        for start, mask in _region_masks(dist, threshold):
            count += np.count_nonzero(mask)
            yield start, mask

    box = _hull(dist.spec, _mask_index_blocks(dist.spec, counted()))
    return box, count


def select_support(support, frequencies, size, quantile=0.75):
    """select_region of a vector of ``size`` entries that is zero but at
    the ascending flat indices ``support``, where it holds the positive
    ``frequencies`` (a finite-shot draw), without building that vector.

    The threshold is np.quantile's of the whole vector to the bit
    (``kernels.padded_quantile`` of the sorted frequencies behind the
    zeros), and the selection is the support states that reach it: all
    of them when both ranks the quantile interpolates between fall on
    zeros, which at least quantile * size + 2 zeros guarantee.
    """
    if not 0.0 < quantile < 1.0:
        raise InvalidInputError("quantile must lie strictly inside (0, 1)")
    threshold = float(
        kernels.padded_quantile(np.sort(frequencies), size - support.size, quantile)
    )
    mask = frequencies >= threshold
    top = int(np.argmax(frequencies))
    assert mask[top], "maximal entry must meet the threshold"
    mask[top] = True
    return RegionSelection(
        quantile=quantile,
        selected_indices=support[mask],
        threshold_probability=threshold,
    )


# The rows of contract_region's mask reduction are as many whole axes
# wide as fit in this many bits.
HULL_ROW_BITS = 12


def _digit_ranges(spec, index_blocks):
    """Per axis, the lowest and highest grid index among the flat
    indices of the stream index_blocks (arrays, some maybe empty), as a
    running min and max of each axis's digits over the blocks."""
    d = spec.dimension
    lows, highs = [spec.points_per_dim] * d, [-1] * d
    for flat in index_blocks:
        if not flat.size:
            continue
        for i in range(d):
            js = axis_indices(spec, flat, i)
            lows[i] = min(lows[i], int(js.min()))
            highs[i] = max(highs[i], int(js.max()))
    return lows, highs


def _row_bits(spec):
    """g, the bits of as many whole axes as fit in HULL_ROW_BITS (0 when
    one axis is wider), and at most the register's: a row of 2^g states
    holds every code of the g low bits, those of the low axes."""
    n = spec.qubits_per_dim
    return n * min(HULL_ROW_BITS // n, spec.dimension)


def _row_marks(spec, g):
    """Empty marks of the codes of the low axes (the g low bits) and of
    the rows, the codes of the high axes; no row at g = 0."""
    return np.zeros(1 << g, dtype=bool), np.zeros(spec.total_points >> g if g else 0, dtype=bool)


def _corner_block(g, low, high):
    """The one small block of the codes L and H marked by low and high,
    (H[0] << g) | L beside (H << g) | L[0], whose digits on each axis
    are those of L or of H; empty when nothing is marked."""
    highs = np.flatnonzero(high)
    if not highs.size:
        return highs
    lows = np.flatnonzero(low)
    return np.concatenate(((highs[0] << g) | lows, (highs << g) | lows[0]))


def _mask_index_blocks(spec, masks):
    """A stream of index blocks for _digit_ranges with the same digits
    on every axis as the states selected by the stream masks of (start,
    mask) slices.

    A slice of whole rows of 2^g states (_row_bits) is reduced as a
    (rows, 2^g) array instead of by its indices: any(axis=0) marks the
    codes of the low axes that it selects, and any(axis=1) the rows, and
    at the end all such slices' marks yield one _corner_block.  Any
    other slice yields its indices, and at g = 0 every slice does, so
    no row is marked and no mark of the lattice's size is made.
    """
    g = _row_bits(spec)
    row = 1 << g
    low, high = _row_marks(spec, g)
    for start, mask in masks:
        if g and start % row == 0 and mask.size % row == 0:
            rows = mask.reshape(-1, row)
            low |= rows.any(axis=0)
            high[start >> g:(start + mask.size) >> g] = rows.any(axis=1)
        else:
            flat = np.flatnonzero(mask)
            flat += start
            yield flat
    yield _corner_block(g, low, high)


def _hull(spec, index_blocks):
    """The box of contract_bounds for the flat indices of a stream of
    index blocks."""
    lows, highs = _digit_ranges(spec, index_blocks)
    corners = decode_many(spec, [pack_indices(spec, lows), pack_indices(spec, highs)])
    new_lower = np.maximum(spec.bounds.lower, corners[0])
    new_upper = np.minimum(spec.bounds.upper, corners[1])
    return SearchBox(new_lower, new_upper)


def contract_bounds(spec, selection):
    """Tight axis-aligned hull of the selected points, clamped to the
    current bounds (a defensive no-op since decoded points lie inside).

    Grid coordinates never decrease as the per-axis index grows, so the
    hull's corners are the points at each axis's lowest and highest
    selected index, the min and max of its digits; only those two are
    decoded.  When whole axes fit in a row of 2^g states (_row_bits),
    the indices are first marked by their low codes and their rows, and
    the digits are read off the _corner_block of those marks, which
    holds the same digits on every axis: two passes over the selection
    instead of one per axis.
    """
    flat = selection.selected_indices
    g = _row_bits(spec)
    if not g:
        return _hull(spec, [flat])
    low, high = _row_marks(spec, g)
    low[flat & ((1 << g) - 1)] = True
    high[flat >> g] = True
    return _hull(spec, [_corner_block(g, low, high)])


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
