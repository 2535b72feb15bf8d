"""Correctness checks on each run, made apart from the program.

The benchmark evaluates every objective with its own NumPy formulas,
finds the known minimum and the best point of the first lattice on its
own, and compares the run's report against those.  Nothing here calls
into ``qags`` or reads a saved copy of earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A value computed twice in different orders agrees to a few ulps of the
# magnitude of its terms; this allows 100x more than that.
ROUND_OFF = 1e-12


def _tol(scale):
    return ROUND_OFF * (1.0 + scale)


# --- the benchmark's formulas ---------------------------------------------
# Each returns (value, scale): scale sums the magnitudes that round-off
# in value is relative to.

def _sphere(x, params):
    t = x - params["shift"]
    v = float(np.sum(t * t))
    return v, v


def _rastrigin(x, params):
    c = np.cos(2.0 * math.pi * x)
    return (
        float(np.sum(x * x + 10.0 * (1.0 - c))),
        float(np.sum(x * x + 10.0 * np.abs(c) + 10.0)),
    )


def _styblinski_tang(x, params):
    x2 = x * x
    return (
        float(np.sum(0.5 * x * (x * x2 - 16.0 * x + 5.0))),
        float(np.sum(0.5 * (x2 * x2 + 16.0 * x2 + 5.0 * np.abs(x)))),
    )


def _rosenbrock(x, params):
    a, b = x[:-1], x[1:]
    gap = b - a * a
    return (
        float(np.sum(100.0 * gap * gap + (1.0 - a) ** 2)),
        float(np.sum(100.0 * (np.abs(b) + a * a) ** 2 + (1.0 + np.abs(a)) ** 2)),
    )


def _ackley(x, params):
    d = x.size
    rms = math.sqrt(sum(float(v) * float(v) for v in x) / d)
    mean_cos = sum(math.cos(2.0 * math.pi * float(v)) for v in x) / d
    return (
        -20.0 * math.exp(-0.2 * rms) - math.exp(mean_cos) + 20.0 + math.e,
        2.0 * (20.0 + math.e),
    )


def _ellipsoid(x, params):
    # (x - c)^T Q (x - c) with Q = R^T W R, a different association from
    # the objective's weighted sum of rotated squares
    t = x - params["centre"]
    rotation, weights = params["rotation"], params["weights"]
    quad = rotation.T @ (weights[:, None] * rotation)
    scale = float(np.sum(weights * (np.abs(rotation) @ np.abs(t)) ** 2))
    return float(t @ quad @ t), scale


FORMULAS = {
    "sphere": _sphere,
    "rastrigin": _rastrigin,
    "styblinski_tang": _styblinski_tang,
    "rosenbrock": _rosenbrock,
    "ackley": _ackley,
    "ellipsoid": _ellipsoid,
}

# Separable formulas: the value is the sum of one term per axis.
AXIS_TERMS = {
    "sphere": lambda xs, i, params: (xs - params["shift"][i]) ** 2,
    "rastrigin": lambda xs, i, params: xs * xs + 10.0 * (1.0 - np.cos(2.0 * math.pi * xs)),
    "styblinski_tang": lambda xs, i, params: 0.5 * xs * (xs * xs * xs - 16.0 * xs + 5.0),
}


def evaluate(case, x):
    return FORMULAS[case.formula](np.asarray(x, dtype=np.float64), case.params)


# --- lattice geometry -------------------------------------------------------

def axis_points(lo, hi, m):
    """m evenly spaced points from lo to hi, both endpoints exact."""
    xs = lo + np.arange(m) * ((hi - lo) / (m - 1))
    xs[-1] = hi
    return xs


def integer_root(n, d):
    """Largest integer m with m**d <= n, by exact integer arithmetic."""
    m = 1
    while (m + 1) ** d <= n:
        m += 1
    return m


def points_per_axis(case):
    """Lattice points per axis: 2^n for qags, and for the classical
    baseline the configured count lowered to fit the budget, floored at 2."""
    d = case.box.dimension
    if case.method == "qags":
        return 2 ** case.config.qubits_per_dim
    return max(2, min(case.config.points_per_dim, integer_root(case.config.budget_points, d)))


def _argmin_separable(case, axes):
    return np.array(
        [axes[i][int(np.argmin(AXIS_TERMS[case.formula](axes[i], i, case.params)))]
         for i in range(len(axes))]
    )


def _argmin_rosenbrock(axes):
    """Dynamic programme over the chain x_0 - x_1 - ... - x_{d-1}."""
    m = axes[0].size
    best_rest = np.zeros(m)
    choice = []
    for i in range(len(axes) - 2, -1, -1):
        a, b = axes[i], axes[i + 1]
        pair = 100.0 * (b[None, :] - (a * a)[:, None]) ** 2 + ((1.0 - a) ** 2)[:, None]
        total = pair + best_rest[None, :]
        choice.append(np.argmin(total, axis=1))
        best_rest = total[np.arange(m), choice[-1]]
    choice.reverse()
    js = [int(np.argmin(best_rest))]
    for step in choice:
        js.append(int(step[js[-1]]))
    return np.array([axes[i][j] for i, j in enumerate(js)])


def _argmin_dense(case, axes):
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    if case.formula == "ackley":
        d = pts.shape[1]
        values = (
            -20.0 * np.exp(-0.2 * np.sqrt(np.einsum("ij,ij->i", pts, pts) / d))
            - np.exp(np.cos(2.0 * math.pi * pts).mean(axis=1))
        )
    else:
        t = pts - case.params["centre"][None, :]
        quad = case.params["rotation"].T @ (
            case.params["weights"][:, None] * case.params["rotation"]
        )
        values = np.einsum("ij,jk,ik->i", t, quad, t)
    return pts[int(np.argmin(values))]


def first_lattice_argmin(case):
    """Best point of the run's first lattice over its initial box."""
    m = points_per_axis(case)
    axes = [axis_points(case.box.lower[i], case.box.upper[i], m) for i in range(case.box.dimension)]
    if case.formula in AXIS_TERMS:
        return _argmin_separable(case, axes)
    if case.formula == "rosenbrock":
        return _argmin_rosenbrock(axes)
    return _argmin_dense(case, axes)


# --- known minima -------------------------------------------------------------

def _styblinski_axis_minimizer(lo, hi):
    """Minimizer of 0.5(x^4 - 16x^2 + 5x) on [lo, hi]: a real root of its
    derivative's cubic 4x^3 - 32x + 5 polished by Newton steps, or an end."""
    candidates = [lo, hi]
    for root in np.roots([4.0, 0.0, -32.0, 5.0]):
        if abs(root.imag) > 1e-9:
            continue
        x = float(root.real)
        for _ in range(3):
            x -= (4.0 * x**3 - 32.0 * x + 5.0) / (12.0 * x * x - 32.0)
        if lo <= x <= hi:
            candidates.append(x)
    return min(candidates, key=lambda x: 0.5 * (x**4 - 16.0 * x * x + 5.0 * x))


def known_minimizer(case):
    d = case.box.dimension
    if case.formula == "sphere":
        point = case.params["shift"]
    elif case.formula == "styblinski_tang":
        point = np.array(
            [_styblinski_axis_minimizer(case.box.lower[i], case.box.upper[i]) for i in range(d)]
        )
    elif case.formula == "rosenbrock":
        point = np.ones(d)
    elif case.formula == "ellipsoid":
        point = case.params["centre"]
    else:  # rastrigin and ackley: the origin
        point = np.zeros(d)
    if not (np.all(point >= case.box.lower) and np.all(point <= case.box.upper)):
        raise ValueError(f"{case.label}: the global minimizer must lie in the box")
    return point


@dataclass(frozen=True)
class Reference:
    """What the checks compare a run with, computed once per case."""

    minimum: float
    minimum_tol: float
    lattice_min: float
    lattice_tol: float
    lattice_size: int


def reference(case):
    f_min, min_scale = evaluate(case, known_minimizer(case))
    lat_min, lat_scale = evaluate(case, first_lattice_argmin(case))
    return Reference(
        minimum=f_min,
        minimum_tol=_tol(min_scale),
        lattice_min=lat_min,
        lattice_tol=_tol(lat_scale),
        lattice_size=points_per_axis(case) ** case.box.dimension,
    )


# --- the checks -----------------------------------------------------------------

def _boxes_equal(a, b):
    return np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)


def _nested(inner, outer):
    return bool(np.all(inner.lower >= outer.lower) and np.all(inner.upper <= outer.upper))


def _accuracy_failure(case, ref, point, value):
    kind, tol = case.accuracy
    if kind == "abs":
        err = abs(value - ref.minimum)
        return None if err <= tol else f"abs error {err:.6g} > {tol:g}"
    if kind == "value":
        return None if value <= tol else f"found value {value:.6g} > {tol:g}"
    # criterion 2 compares with the paper's quoted per-axis figures
    d = case.box.dimension
    if abs(value - (-39.16599 * d)) > tol:
        return f"found value {value:.10g} not within {tol:g} of {-39.16599 * d:.10g}"
    if np.any(np.abs(point - (-2.903534)) > tol):
        return f"found point not within {tol:g} of -2.903534 on every axis"
    return None


def check_run(case, ref, report, counter_delta):
    """Every check a run fails, as {check name: message}; empty when the
    run is correct."""
    failures = {}
    d = case.box.dimension
    point = np.asarray(report.found_point, dtype=np.float64)
    value = float(report.found_value)
    if point.shape != (d,) or not np.all(np.isfinite(point)) or not math.isfinite(value):
        return {"shape": f"found point {point!r} / value {value!r} malformed"}
    if not (np.all(point >= case.box.lower) and np.all(point <= case.box.upper)):
        failures["in_box"] = "found point outside the initial box"

    at_point, scale = evaluate(case, point)
    if abs(at_point - value) > _tol(scale):
        failures["value_at_point"] = f"found value {value!r} but f(found point) = {at_point!r}"
    if value < ref.minimum - ref.minimum_tol:
        failures["above_minimum"] = f"found value {value!r} below the minimum {ref.minimum!r}"
    if value > ref.lattice_min + ref.lattice_tol:
        failures["first_lattice"] = (
            f"found value {value!r} above the first lattice's best {ref.lattice_min!r}"
        )

    iters = report.iterations
    if not iters or not _boxes_equal(iters[0].bounds_before, case.box):
        failures["nested"] = "first iteration does not start from the initial box"
    else:
        for prev, rec in zip([None] + iters[:-1], iters):
            if prev is not None and not _boxes_equal(rec.bounds_before, prev.bounds_after):
                failures["nested"] = f"iteration {rec.k} does not start where {prev.k} ended"
            elif not _nested(rec.bounds_after, rec.bounds_before):
                failures["nested"] = f"iteration {rec.k} box not nested in its predecessor"

    if counter_delta != report.total_f_evals:
        failures["counter"] = (
            f"objective counter moved {counter_delta}, report says {report.total_f_evals}"
        )
    refiner_evals = report.total_f_evals - len(iters) * ref.lattice_size
    if not 1 <= refiner_evals <= case.config.refiner.max_evals:
        failures["refine_evals"] = (
            f"total_f_evals - iterations x lattice = {refiner_evals}, "
            f"outside [1, {case.config.refiner.max_evals}]"
        )

    if case.accuracy is not None:
        message = _accuracy_failure(case, ref, point, value)
        if message is not None:
            failures["accuracy"] = message
    return failures


def is_known_fault(case, failures):
    """A failure the benchmark expects: only the accuracy check, on a case
    that names its fault."""
    return case.known_fault is not None and set(failures) == {"accuracy"}
