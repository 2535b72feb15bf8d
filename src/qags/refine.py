"""Bounded local refinement: limited-memory quasi-Newton with box projection.

Gradients come from central finite differences (one-sided at the box
boundary), each stencil evaluated as one batch; search directions come
from the standard two-loop recursion over a short (s, y) history, and
every trial point is projected onto the box, so all iterates are feasible
by construction.  The refiner stops at the finite-difference noise floor:
when three accepted steps in a row are flat, further steps only spend
evaluations.  A step is flat when its decrease is at most _FTOL times
max(|f_k|, |f_k+1|, 1), L-BFGS-B's relative reduction test (Byrd, Lu,
Nocedal & Zhu 1995) at SciPy's default factr = 1e7, so the stop does not
rest on f's last bits.  A line search ends, with no step, once two
trials in a row return f unchanged: on a flat line, halving the step
further only spends evaluations.  It is deterministic and uses only
objective evaluations.

Each iteration works on vectors of d entries, so its cost is the number
of NumPy calls, not their size.  The refiner evaluates through the
objective's internal path, which skips the public checks of the input
(an array of d finite float64 coordinates): it checks the clipped start
once, and every later point is projected into the validated, finite box
or is a stencil row inside it.  The stencil's rows are x repeated with
two strided writes, and the curvature test's s.y and y.y give the
two-loop's scaling.  The iterates' bits rest on the rounding of every
dot product, so each is _dot: the products added left to right in
Python floats, the same bits on every CPU.  A BLAS ddot picks its
summation order by the CPU's kernel, and at the refiner's few entries
the Python loop costs little more than a ddot call.  Projection stays
np.clip: np.minimum of np.maximum may pick the other zero when a
coordinate and a bound are zeros of opposite sign.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InvalidInputError, RefinementError

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_STALL_STEPS = 3
_CURVATURE_EPS = 1e-10
# A step is flat when f falls by at most _FTOL * max(|f_k|, |f_k+1|, 1).
_FTOL = 1e7 * float(np.finfo(np.float64).eps)
# A line search whose trials return f unchanged this many times in a
# row is on a flat line, and ends.  One is not enough: a long step can
# land where f rounds to fx on the far side of the minimum.
_FLAT_TRIALS = 2


def _dot(a, b):
    """a . b of two float64 vectors: the products added left to right in
    Python floats, whose bits do not depend on the CPU.  Not builtin
    sum(), which compensates float sums from Python 3.12 on."""
    total = 0.0
    for u, v in zip(a.tolist(), b.tolist()):
        total += u * v
    return total


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
    """The objective behind a budget, on its internal evaluation path:
    every point the refiner evaluates is a float64 array clipped into a
    validated SearchBox, so finite and of the objective's arity (checked
    once, at refine's entry)."""

    def __init__(self, objective, limit):
        self.objective = objective
        self.limit = limit
        self.used = 0

    def __call__(self, x):
        if self.used >= self.limit:
            raise _OutOfEvals
        self.used += 1
        return self.objective._evaluate_point(x)

    def batch(self, points):
        """Values of an (N, d) matrix of points.  When fewer than N
        evaluations remain, evaluates the leading rows that fit, then
        raises _OutOfEvals."""
        room = self.limit - self.used
        if room < len(points):
            self.used = self.limit
            if room:
                self.objective._evaluate_rows(points[:room])
            raise _OutOfEvals
        self.used += len(points)
        return self.objective._evaluate_rows(points)


# The two rows of an axis's stencil, x + h and x - h: x - h is x + (-h),
# bit for bit.
_SIDES = np.array([[1.0], [-1.0]])


def _fd_gradient(ev_batch, x, fx, box, scale):
    """Central-difference gradient, one-sided where the box interferes.

    The whole stencil goes to ev_batch as one (rows, d) matrix, in the
    order a loop over the axes would evaluate it: per axis the forward
    row, then the backward row, whichever of them fit in the box.  A row
    whose coordinate rounds back to x does not fit: an axis of zero width
    (h = 0) gets gradient 0 and costs no evaluation, as does an axis so
    narrow that both its rows round back, which would divide 0 by 0.
    Trial points stay inside the box by construction.  The 2d rows are
    x repeated, x_i + h_i written into row 2i and x_i - h_i into row
    2i + 1: flat positions i(2d + 1) and d + i(2d + 1), two strided
    slices.
    """
    lower, upper = box.lower, box.upper
    h = np.minimum(scale * np.maximum(1.0, np.abs(x)), (upper - lower) / 2.0)
    sides = x + h * _SIDES  # rows x + h and x - h
    fits = (sides <= upper) & (sides >= lower) & (sides != x)
    d = x.size
    rows = np.empty((2 * d, d))
    rows[...] = x
    flat = rows.reshape(-1)
    flat[::2 * d + 1] = sides[0]
    flat[d::2 * d + 1] = sides[1]
    taken = fits.T.ravel()  # the rows' (axis, side) order
    g = np.zeros(d)
    if not taken.any():
        return g
    f = np.full(taken.size, fx)
    f[taken] = ev_batch(rows[taken])
    up = np.where(fits[0], sides[0], x)
    down = np.where(fits[1], sides[1], x)
    moved = fits[0] | fits[1]
    g[moved] = (f[0::2] - f[1::2])[moved] / (up - down)[moved]
    return g


def _two_loop(g, history, gamma):
    """Standard two-loop recursion over the (s, y, rho) history, oldest
    first, with the initial Hessian gamma * I (gamma = s.y / y.y of the
    newest pair): returns the quasi-Newton step -H*g.  Each product
    a * y or (a - b) * s goes through one scratch vector."""
    q = -g
    t = np.empty_like(q)
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * _dot(s, q)
        alphas.append(a)
        np.subtract(q, np.multiply(a, y, t), q)
    if history:
        q *= gamma
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * _dot(y, q)
        np.add(q, np.multiply(a - b, s, t), q)
    return q


def _line_search(ev, box, x, fx, g, d, alpha):
    """Armijo backtracking along d from step alpha, each trial point
    projected onto the box.  Returns (xt, ft) of the first accepted
    point, or None when the projected step vanishes, _FLAT_TRIALS trials
    in a row return fx, or every halving fails."""
    equal = 0
    for _ in range(_MAX_BACKTRACKS):
        xt = box.clip(x + alpha * d)
        step = xt - x
        if not step.any():
            return None
        slope = _dot(g, step)
        if slope < 0.0:
            ft = ev(xt)
            if ft <= fx + _ARMIJO_C1 * slope:
                return xt, ft
            equal = equal + 1 if ft == fx else 0
            if equal == _FLAT_TRIALS:
                return None
        alpha *= 0.5
    return None


def _projected_gradient_norm(x, g, box):
    return float(np.abs(np.clip(x - g, box.lower, box.upper) - x).max())


def refine(f, box, start, cfg=None):
    """Minimize f over the box starting from start (clamped inside).

    Returns (point, value, evals).  The point is feasible to the bound
    arithmetic exactly, and f(point) <= f(start): it is the first accepted
    point of the lowest value, the step that ends the run or whose
    stencil spends the budget included.  Stops on projected
    gradient below cfg.convergence_tol, the evaluation budget (exactly
    cfg.max_evals evaluations, even when it runs out inside a stencil), a
    line search that finds no decrease, or three consecutive flat steps
    (both are the finite-difference noise floor).  A step is flat when f
    falls by at most 1e7 * eps * max(|f_k|, |f_k+1|, 1), L-BFGS-B's
    relative reduction test; a line search finds no decrease when every
    halving fails, or when two trials in a row return f unchanged.

    f must be an ObjectiveFunction (or a subclass that keeps its internal
    path): the refiner evaluates through _evaluate_point and
    _evaluate_rows, not through evaluate and evaluate_batch, so an
    override of those two is not called here.
    """
    if cfg is None:
        cfg = RefinerConfig()
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (box.dimension,):
        raise InvalidInputError("start arity does not match box")
    # The one check of the points: the objective's arity, and a NaN
    # start, which clipping keeps.  Every later point is clipped into
    # the finite box, or steps inside it, so it is finite.
    x = f._check_point(box.clip(start))
    lower, upper = box.lower, box.upper
    ev = _BudgetedObjective(f, cfg.max_evals)
    scale = cfg.gradient_step_scale
    free = box.width > 0.0
    fixed = ~free

    try:
        fx = ev(x)
    except EvaluationError as exc:
        raise RefinementError(str(exc), last_point=x.copy()) from exc
    best_x = x.copy()
    best_f = fx
    if not free.any():
        return best_x, best_f, ev.used

    history = deque(maxlen=int(cfg.history_size))  # deque takes no NumPy int
    gamma = None  # the two-loop's scaling, s.y / y.y of the newest pair
    try:
        g = _fd_gradient(ev.batch, x, fx, box, scale)
        # Backtracking starts at 1 / max|g| (capped at 1) on the first
        # step and at 1 after it.
        alpha = min(1.0, 1.0 / max(1e-12, float(np.abs(g).max())))
        flat_steps = 0
        while True:
            if _projected_gradient_norm(x, g, box) < cfg.convergence_tol:
                break
            # Active bounds: moving further into the bound is blocked.
            active = ((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0))
            blocked = active | fixed
            quasi_newton = _two_loop(g, history, gamma)
            quasi_newton[blocked] = 0.0
            steepest = -g
            steepest[blocked] = 0.0
            # The quasi-Newton direction goes first when it descends.
            descends = quasi_newton.any() and not (_dot(quasi_newton, g) >= 0.0)
            for d in [quasi_newton, steepest] if descends else [steepest]:
                trial = _line_search(ev, box, x, fx, g, d, alpha)
                if trial is not None:
                    break
            else:
                break  # no direction gives an Armijo decrease
            xt, ft = trial
            # Kept before the stop and the stencil: a flat step can still
            # lower f, and the budget can run out in the stencil.
            if ft < best_f:
                best_x = xt.copy()
                best_f = ft
            # An Armijo step whose relative decrease is below _FTOL is at
            # the finite-difference noise floor; a few in a row end the run.
            flat = fx - ft <= _FTOL * max(abs(fx), abs(ft), 1.0)
            flat_steps = flat_steps + 1 if flat else 0
            if flat_steps == _STALL_STEPS:
                break

            g_new = _fd_gradient(ev.batch, xt, ft, box, scale)
            s = xt - x
            y = g_new - g
            # the curvature test's y.y also gives the two-loop's scaling
            sy, yy = _dot(s, y), _dot(y, y)
            if sy > _CURVATURE_EPS * (math.sqrt(_dot(s, s)) * math.sqrt(yy)):
                history.append((s, y, 1.0 / sy))
                gamma = sy / yy
            x, fx, g = xt, ft, g_new
            alpha = 1.0
    except _OutOfEvals:
        pass
    except EvaluationError as exc:
        raise RefinementError(str(exc), last_point=best_x) from exc
    return best_x, best_f, ev.used
