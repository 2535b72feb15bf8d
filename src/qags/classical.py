"""Classical adaptive grid search baseline.

A step function for the loop in ``driver.search``, which both methods
share (uniform grid, contract, repeat, refine).  The grid is a plain
m-per-dimension lattice, streamed through ``quantum.lattice_blocks`` with
each block's last axis major where that is faster to build, and reduced
to its first-index argmin without reordering a block.  Contraction
recentres a shrunken box on the best grid point instead of selecting a
probability region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .contraction import TerminationPolicy
from .driver import CLASSICAL_BYTES_PER_POINT, search
from .errors import EvaluationError, InvalidInputError
from .grid import SearchBox
from .quantum import lattice_blocks
from .refine import RefinerConfig


@dataclass(frozen=True)
class AgsConfig:
    points_per_dim: int = 32
    budget_points: int = 10**6
    shrink_factor: float = 0.5
    max_iterations: int = 10
    delta: float = 1e-6
    refiner: RefinerConfig = field(default_factory=RefinerConfig)

    def __post_init__(self):
        if self.points_per_dim < 2:
            raise InvalidInputError("points_per_dim must be >= 2")
        if self.budget_points < 2:
            raise InvalidInputError("budget_points must be >= 2")
        if not 0.0 < self.shrink_factor < 1.0:
            raise InvalidInputError("shrink_factor must lie strictly inside (0, 1)")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
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
    lowered so the full lattice fits the point budget, floored at 2."""
    return max(2, min(cfg.points_per_dim, _integer_root(cfg.budget_points, dimension)))


def _lattice_argmin(objective, box, m):
    """First-index argmin and minimum of the objective over the lattice
    of m points per axis of ``box``, reduced block by block over
    ``lattice_blocks`` so no full value vector exists.

    A block comes with its last axis major where the kernel builds that
    faster: entry [j, r] of a (c, R) block is the state at flat index
    start + r * c + j.  It is reduced as it lies: each row's first
    minimum, then, among the rows that reach the block's minimum, the
    smallest r * c + j, which is the first flat index of that minimum.
    """
    best_index, best_value = 0, np.inf
    for start, block in lattice_blocks(objective, box, m, last_axis_major=True):
        c = block.shape[0]
        rows = block.argmin(axis=1)  # a NaN is its own row's argmin
        mins = block[np.arange(c), rows]
        low = mins.min()
        if not (np.isfinite(low) and np.isfinite(block.max())):
            bad = start + int(np.argmin(np.isfinite(block.T.ravel())))
            raise EvaluationError(
                "objective returned a non-finite value on the grid",
                point=kernels.lattice_points(box.lower, box.upper, m, bad)[0],
            )
        # strict: ties across blocks keep the lower index
        if low < best_value:
            tied = np.flatnonzero(mins == low)
            best_index = start + int(np.min(rows[tied] * c + tied))
            best_value = float(low)
        # free the block before the next is built: glibc then reuses its
        # pages, where two live blocks are trimmed after every lattice
        # and faulted in again (about 200 faults a lattice at d = 7, m = 10)
        del block
    return best_index, best_value


def run_ags(f, initial_bounds, cfg=None):
    """Run the classical baseline and return the same report shape as the
    quantum driver (entropy_fraction is None, selected_count is 1).  An
    iteration is a pure function of its box, so one that leaves the box
    unchanged is a fixed point; it never concentrates."""
    if cfg is None:
        cfg = AgsConfig()
    m = points_per_dim_for(cfg, f.arity)

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
        cfg.refiner, m**f.arity, CLASSICAL_BYTES_PER_POINT,
    )
