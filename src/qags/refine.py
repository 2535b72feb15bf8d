"""Bounded local refinement: limited-memory quasi-Newton with box projection.

Gradients come from central finite differences (one-sided at the box
boundary), each stencil evaluated as one batch; search directions come
from the standard two-loop recursion over a short (s, y) history, and
every trial point is projected onto the box, so all iterates are feasible
by construction.  The refiner stops at the finite-difference noise floor:
when three accepted steps in a row leave f unchanged, further steps only
spend evaluations.  It is deterministic and uses only objective
evaluations.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InvalidInputError, RefinementError

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_STALL_STEPS = 3
_CURVATURE_EPS = 1e-10


class _OutOfEvals(Exception):
    """Internal: evaluation budget exhausted mid-step."""


@dataclass(frozen=True)
class RefinerConfig:
    """Refinement knobs.

    gradient_step_scale multiplies max(1, |x_i|) to give the per-coordinate
    finite-difference step; the default is the cube root of machine epsilon
    (optimal for central differences).  convergence_tol applies to the
    max-norm of the projected gradient.
    """

    max_evals: int = 10000
    gradient_step_scale: float = float(np.finfo(np.float64).eps) ** (1.0 / 3.0)
    convergence_tol: float = 1e-10
    history_size: int = 10

    def __post_init__(self):
        if not isinstance(self.max_evals, numbers.Integral) or self.max_evals < 1:
            raise InvalidInputError("max_evals must be an integer >= 1")
        if not self.gradient_step_scale > 0:
            raise InvalidInputError("gradient_step_scale must be positive")
        if not self.convergence_tol > 0:
            raise InvalidInputError("convergence_tol must be positive")
        if not isinstance(self.history_size, numbers.Integral) or self.history_size < 1:
            raise InvalidInputError("history_size must be an integer >= 1")


class _BudgetedObjective:
    def __init__(self, objective, limit):
        self.objective = objective
        self.limit = limit
        self.used = 0

    def __call__(self, x):
        if self.used >= self.limit:
            raise _OutOfEvals
        self.used += 1
        return self.objective.evaluate(x)

    def batch(self, points):
        """Values of an (N, d) matrix of points.  When fewer than N
        evaluations remain, evaluates the leading rows that fit, then
        raises _OutOfEvals."""
        room = self.limit - self.used
        if room < len(points):
            self.used = self.limit
            if room:
                self.objective.evaluate_batch(points[:room])
            raise _OutOfEvals
        self.used += len(points)
        return self.objective.evaluate_batch(points)


def _fd_gradient(ev_batch, x, fx, box, scale, free):
    """Central-difference gradient, one-sided where the box interferes.

    The whole stencil goes to ev_batch as one (rows, d) matrix, in the
    order a loop over the axes would evaluate it: per free axis the
    forward row, then the backward row, whichever of them fit in the box.
    Degenerate dimensions (zero width) get gradient 0 and are never
    perturbed.  Trial points stay inside the box by construction.
    """
    h = np.minimum(scale * np.maximum(1.0, np.abs(x)), (box.upper - box.lower) / 2.0)
    can_up = free & (x + h <= box.upper)
    can_down = free & (x - h >= box.lower)
    up = np.where(can_up, x + h, x)
    down = np.where(can_down, x - h, x)
    # (axis, side) of each row, side 0 forward and 1 backward, axis-major
    axis, side = np.nonzero(np.stack([can_up, can_down], axis=1))
    g = np.zeros(x.size)
    if axis.size == 0:
        return g
    rows = np.tile(x, (axis.size, 1))
    rows[np.arange(axis.size), axis] = np.stack([up, down], axis=1)[axis, side]
    f_sides = np.full((x.size, 2), fx)
    f_sides[axis, side] = ev_batch(rows)
    moved = can_up | can_down
    g[moved] = (f_sides[moved, 0] - f_sides[moved, 1]) / (up - down)[moved]
    return g


def _two_loop(g, history):
    """Standard two-loop recursion over the (s, y, rho) history, oldest
    first: returns the quasi-Newton step -H*g."""
    q = -g
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= np.dot(s, y) / np.dot(y, y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return q


def _line_search(ev, box, x, fx, g, d, alpha):
    """Armijo backtracking along d from step alpha, each trial point
    projected onto the box.  Returns (xt, ft) of the first accepted
    point, or None when the projected step vanishes or every halving
    fails."""
    for _ in range(_MAX_BACKTRACKS):
        xt = box.clip(x + alpha * d)
        step = xt - x
        if not step.any():
            return None
        slope = float(np.dot(g, step))
        if slope < 0.0:
            ft = ev(xt)
            if ft <= fx + _ARMIJO_C1 * slope:
                return xt, ft
        alpha *= 0.5
    return None


def _projected_gradient_norm(x, g, box):
    return float(np.abs(np.clip(x - g, box.lower, box.upper) - x).max())


def refine(f, box, start, cfg=None):
    """Minimize f over the box starting from start (clamped inside).

    Returns (point, value, evals).  The point is feasible to the bound
    arithmetic exactly, and f(point) <= f(start).  Stops on projected
    gradient below cfg.convergence_tol, the evaluation budget (exactly
    cfg.max_evals evaluations, even when it runs out inside a stencil), a
    line search that finds no decrease, or three consecutive accepted
    steps that leave f unchanged (both are the finite-difference noise
    floor).
    """
    if cfg is None:
        cfg = RefinerConfig()
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (box.dimension,):
        raise InvalidInputError("start arity does not match box")
    x = box.clip(start)
    ev = _BudgetedObjective(f, cfg.max_evals)
    free = box.width > 0.0

    try:
        fx = ev(x)
    except EvaluationError as exc:
        raise RefinementError(str(exc), last_point=x.copy()) from exc
    best_x = x.copy()
    best_f = fx
    if not free.any():
        return best_x, best_f, ev.used

    history = deque(maxlen=int(cfg.history_size))  # deque takes no NumPy int
    try:
        g = _fd_gradient(ev.batch, x, fx, box, cfg.gradient_step_scale, free)
        # Backtracking starts at 1 / max|g| (capped at 1) on the first
        # step and at 1 after it.
        alpha = min(1.0, 1.0 / max(1e-12, float(np.abs(g).max())))
        flat_steps = 0
        while True:
            if _projected_gradient_norm(x, g, box) < cfg.convergence_tol:
                break
            # Active bounds: moving further into the bound is blocked.
            active = ((x <= box.lower) & (g > 0)) | ((x >= box.upper) & (g < 0))
            blocked = active | ~free
            quasi_newton = _two_loop(g, history)
            quasi_newton[blocked] = 0.0
            steepest = -g
            steepest[blocked] = 0.0
            # The quasi-Newton direction goes first when it descends.
            descends = quasi_newton.any() and not (np.dot(quasi_newton, g) >= 0.0)
            for d in [quasi_newton, steepest] if descends else [steepest]:
                trial = _line_search(ev, box, x, fx, g, d, alpha)
                if trial is not None:
                    break
            else:
                break  # no direction gives an Armijo decrease
            xt, ft = trial
            # An Armijo step that leaves f unchanged is at the
            # finite-difference noise floor; a few in a row end the run.
            flat_steps = 0 if ft < fx else flat_steps + 1
            if flat_steps == _STALL_STEPS:
                break

            g_new = _fd_gradient(ev.batch, xt, ft, box, cfg.gradient_step_scale, free)
            s = xt - x
            y = g_new - g
            sy = float(np.dot(s, y))
            if sy > _CURVATURE_EPS * float(np.linalg.norm(s) * np.linalg.norm(y)):
                history.append((s, y, 1.0 / sy))
            x, fx, g = xt, ft, g_new
            alpha = 1.0
            if fx < best_f:
                best_x = x.copy()
                best_f = fx
    except _OutOfEvals:
        pass
    except EvaluationError as exc:
        raise RefinementError(str(exc), last_point=best_x) from exc
    return best_x, best_f, ev.used
