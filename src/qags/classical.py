"""Classical adaptive grid search baseline.

Same outer shape as the quantum driver (uniform grid, contract, repeat,
refine) but the grid is a plain m-per-dimension lattice and contraction
recentres a shrunken box on the best grid point instead of selecting a
probability region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .contraction import Verdict
from .driver import (
    CLASSICAL_BYTES_PER_POINT,
    IterationRecord,
    RunReport,
    _finish_report,
)
from .errors import EvaluationError, InvalidInputError
from .grid import SearchBox
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
        if self.delta <= 0.0:
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


def _lattice_point(axes, flat):
    """Decode a flat lattice index (dimension 0 most significant) by
    gathering from the axis tables the lattice was evaluated on."""
    m = axes[0].size
    out = np.empty(len(axes))
    rem = int(flat)
    for i in range(len(axes) - 1, -1, -1):
        rem, j = divmod(rem, m)
        out[i] = axes[i][j]
    return out


def _lattice_argmin(objective, box, axes):
    """First-index argmin and minimum of the objective over the lattice
    spanned by ``axes``, streamed block by block so no full value vector
    or coordinate matrix exists.  Uses the closed-form kernel when
    available; either way the evaluation counter advances by the lattice
    size."""
    m = axes[0].size
    if objective.kernel_kind is not None:
        objective.count_evaluations(m**box.dimension)
        blocks = kernels.lattice_value_blocks(
            objective.kernel_kind, box.lower, box.upper, m, objective.shift
        )
    else:
        blocks = (
            (start, objective.evaluate_batch(coords))
            for start, coords in kernels.coordinate_blocks(axes)
        )
    best_index, best_value = 0, np.inf
    for start, values in blocks:
        j = int(np.argmin(values))  # a NaN is its own argmin
        if not (np.isfinite(values[j]) and np.isfinite(values.max())):
            bad = start + int(np.flatnonzero(~np.isfinite(values))[0])
            raise EvaluationError(
                "objective returned a non-finite value on the grid",
                point=_lattice_point(axes, bad),
            )
        # strict: ties across blocks keep the lower index
        if values[j] < best_value:
            best_index, best_value = start + j, float(values[j])
    return best_index, best_value


def run_ags(f, initial_bounds, cfg=None):
    """Run the classical baseline and return the same report shape as the
    quantum driver (entropy_fraction is None, selected_count is 1)."""
    if cfg is None:
        cfg = AgsConfig()
    if f.arity != initial_bounds.dimension:
        raise InvalidInputError("objective arity does not match bounds")
    d = f.arity
    m = points_per_dim_for(cfg, d)
    evals_at_start = f.eval_count
    records = []
    box = initial_bounds
    best_value = np.inf
    best_point = None
    k = 0
    while True:
        k += 1
        axes = kernels.lattice_axes(box.lower, box.upper, m)
        argmin_index, value = _lattice_argmin(f, box, axes)
        centre = _lattice_point(axes, argmin_index)
        if value < best_value:
            best_value = value
            best_point = centre
        half = cfg.shrink_factor * box.width / 2.0
        box_next = SearchBox(
            np.maximum(box.lower, centre - half),
            np.minimum(box.upper, centre + half),
        )
        if float(np.max(box_next.width)) < cfg.delta:
            verdict = Verdict.WIDTH_FLOOR
        elif k >= cfg.max_iterations:
            verdict = Verdict.MAX_ITERATIONS
        else:
            verdict = Verdict.CONTINUE
        records.append(
            IterationRecord(
                k=k,
                bounds_before=box,
                bounds_after=box_next,
                selected_count=1,
                entropy_fraction=None,
                best_point_so_far=best_point.copy(),
                best_value_so_far=best_value,
                verdict=verdict,
            )
        )
        box = box_next
        if verdict is not Verdict.CONTINUE:
            break
    return _finish_report(
        "ags",
        f,
        best_point,
        best_value,
        box,
        cfg.refiner,
        records,
        lambda: f.eval_count - evals_at_start,
        m**d,
        (m**d) * CLASSICAL_BYTES_PER_POINT,
    )
