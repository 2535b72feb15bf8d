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


def _axis_coords(box, m):
    axes = []
    for i in range(box.dimension):
        lo = float(box.lower[i])
        hi = float(box.upper[i])
        xs = lo + (hi - lo) / (m - 1) * np.arange(m, dtype=np.float64)
        xs[-1] = hi
        axes.append(xs)
    return axes


def _lattice_point(box, m, flat):
    """Decode a flat lattice index (dimension 0 most significant)."""
    d = box.dimension
    out = np.empty(d, dtype=np.float64)
    rem = int(flat)
    for i in range(d - 1, -1, -1):
        j = rem % m
        rem //= m
        lo = float(box.lower[i])
        hi = float(box.upper[i])
        out[i] = hi if j == m - 1 else lo + j * (hi - lo) / (m - 1)
    return out


def _lattice_values(objective, box, m):
    """Objective values over the full lattice, flattened with dimension 0
    most significant.  Uses the closed-form kernel when available."""
    if objective.kernel_kind is not None:
        values = kernels.lattice_values(
            objective.kernel_kind, box.lower, box.upper, m, objective.shift
        )
        objective.count_evaluations(m**box.dimension)
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise EvaluationError(
                "objective returned a non-finite value on the grid",
                point=_lattice_point(box, m, bad),
            )
        return values
    grids = np.meshgrid(*_axis_coords(box, m), indexing="ij")
    coords = np.stack(grids, axis=-1).reshape(-1, box.dimension)
    return objective.evaluate_batch(coords)


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
        values = _lattice_values(f, box, m)
        argmin_index = int(np.argmin(values))
        centre = _lattice_point(box, m, argmin_index)
        if float(values[argmin_index]) < best_value:
            best_value = float(values[argmin_index])
            best_point = centre
        # free this lattice before the next one is built
        del values
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
