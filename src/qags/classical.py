"""Classical adaptive grid search baseline.

A step function for the loop in ``driver.search``, which both methods
share (uniform grid, contract, repeat, refine).  The grid is a plain
m-per-dimension lattice, streamed through ``quantum.lattice_blocks`` in
the kernel's digit-reversed block layout, whose sums loop over the
partial sums instead of the few points of each axis, and reduced to its
first-index argmin without reordering a block.  Each block comes with
its least and greatest value, and the stream has already refused a
value that is not finite, so the reduction reads only the least value
of a block that does not improve on the blocks before; every block is
still evaluated, so every lattice point counts as an evaluation.
Contraction recentres a shrunken box on the best grid point instead of
selecting a probability region.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .contraction import TerminationPolicy
from .driver import CLASSICAL_BYTES_PER_POINT, search
from .errors import InvalidInputError
from .grid import SearchBox
from .quantum import lattice_blocks
from .refine import RefinerConfig


@dataclass(frozen=True)
class AgsConfig:
    """The baseline's settings.  The lattice has points_per_dim points
    per axis, lowered to the largest m with m**d <= budget_points but
    never below 2 (points_per_dim_for); run_ags refuses a dimension
    whose lattice of 2**d points exceeds the budget."""

    points_per_dim: int = 32
    budget_points: int = 10**6
    shrink_factor: float = 0.5
    max_iterations: int = 10
    delta: float = 1e-6
    refiner: RefinerConfig = field(default_factory=RefinerConfig)

    def __post_init__(self):
        if not isinstance(self.points_per_dim, numbers.Integral) or self.points_per_dim < 2:
            raise InvalidInputError("points_per_dim must be an integer >= 2")
        if not isinstance(self.budget_points, numbers.Integral) or self.budget_points < 2:
            raise InvalidInputError("budget_points must be an integer >= 2")
        if not 0.0 < self.shrink_factor < 1.0:
            raise InvalidInputError("shrink_factor must lie strictly inside (0, 1)")
        if not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be an integer >= 1")
        if not self.delta > 0.0:
            raise InvalidInputError("delta must be positive")


def _integer_root(budget, d):
    """Largest integer m with m**d <= budget.

    budget ** (1/d) alone is wrong at exact powers (1e7 ** (1/7) rounds
    to 9.999...), so correct the rounded guess in both directions.
    """
    m = int(round(budget ** (1.0 / d)))
    m = max(m, 1)
    while m**d > budget:
        m -= 1
    while (m + 1) ** d <= budget:
        m += 1
    return m


def points_per_dim_for(cfg, dimension):
    """Grid resolution for one run: the configured per-dimension count,
    lowered so the full lattice fits the point budget, floored at 2, the
    fewest points that span an axis.  Past d = log2(budget_points) the
    floor wins, and run_ags refuses the lattice of 2**d points."""
    return max(2, min(cfg.points_per_dim, _integer_root(cfg.budget_points, dimension)))


def _lattice_argmin(objective, box, m):
    """First-index argmin and minimum of the objective over the lattice
    of m points per axis of ``box``, reduced block by block over
    ``lattice_blocks`` so no full value vector exists.

    Each block comes with its least value, so only that number is read
    for most blocks: the block is searched only when its minimum
    improves on the blocks before, for the smallest flat index among the
    entries that hold it (kernels.block_flat_indices), which is the
    first flat index of that minimum.  The stream raises EvaluationError
    at the first value that is not finite, in flat order.
    """
    best_index, best_value = 0, np.inf
    for start, block, low, _ in lattice_blocks(objective, box, m):
        # strict: ties across blocks keep the lower index
        if low < best_value:
            best_index = _first_flat(start, block, np.flatnonzero(block == low))
            best_value = float(low)
        # free the block before the next is built: glibc then reuses its
        # pages, where two live blocks are trimmed after every lattice
        # and faulted in again (about 200 faults a lattice at d = 7, m = 10)
        del block
    return best_index, best_value


def _first_flat(start, block, positions):
    """The least flat index of the C-order positions of a block."""
    return int(kernels.block_flat_indices(start, block.shape, positions).min())


def run_ags(f, initial_bounds, cfg=None):
    """Run the classical baseline and return the same report shape as the
    quantum driver (entropy_fraction is None, selected_count is 1).  An
    iteration is a pure function of its box, so one that leaves the box
    unchanged is a fixed point; it never concentrates.  A lattice of
    more than budget_points points, 2**d past d = log2(budget_points),
    raises InvalidInputError before anything is evaluated."""
    if cfg is None:
        cfg = AgsConfig()
    m = points_per_dim_for(cfg, f.arity)
    points = m**f.arity
    if points > cfg.budget_points:
        raise InvalidInputError(
            f"run_ags at d = {f.arity} needs a lattice of {points} points,"
            f" more than budget_points = {cfg.budget_points}"
        )

    def step(box, k):
        index, value = _lattice_argmin(f, box, m)
        centre = kernels.lattice_points(box.lower, box.upper, m, index)[0]
        half = cfg.shrink_factor * box.width / 2.0
        box_next = SearchBox(
            np.maximum(box.lower, centre - half),
            np.minimum(box.upper, centre + half),
        )
        return centre, value, box_next, 1, None

    policy = TerminationPolicy(delta=cfg.delta, k_max=cfg.max_iterations)
    return search(
        "ags", f, initial_bounds, step, policy, True,
        cfg.refiner, points, CLASSICAL_BYTES_PER_POINT,
    )
