"""NumPy fallback for the lattice/encoding kernels.

Mirrors the compiled extension's semantics: identical grid coordinates
(endpoint exact), identical left-to-right accumulation order for the
per-dimension terms (separable lattices are built by chained outer sums,
which keep that order), and the same Boltzmann formula.  Values may
still differ from the compiled path by a few ulps because libm and
NumPy's vectorized transcendentals round differently.  The entropy
comes from the closed form in ``boltzmann`` instead of a log2 pass over
the probabilities, so it may differ from the compiled path by ~1e-14.
"""

from __future__ import annotations

import math

import numpy as np

KIND_SPHERE = 0
KIND_RASTRIGIN = 1
KIND_STYBLINSKI_TANG = 2
KIND_ROSENBROCK = 3


def _axis_coordinates(lower, upper, m):
    step = (upper - lower) / (m - 1)
    xs = lower + np.arange(m) * step
    xs[-1] = upper
    return xs


def _axis_terms(kind, xs, shift_i):
    if kind == KIND_SPHERE:
        t = xs - shift_i
        return t * t
    if kind == KIND_RASTRIGIN:
        return xs * xs - 10.0 * np.cos(2.0 * np.pi * xs) + 10.0
    if kind == KIND_STYBLINSKI_TANG:
        x2 = xs * xs
        return 0.5 * (x2 * x2 - 16.0 * x2 + 5.0 * xs)
    raise ValueError(f"unknown separable kind {kind}")


def lattice_values(kind, lower, upper, points_per_dim, shift):
    """Objective values over the full uniform lattice, flat-index order
    (dimension 0 most significant)."""
    d = lower.size
    m = int(points_per_dim)
    axes = [_axis_coordinates(lower[i], upper[i], m) for i in range(d)]
    if kind == KIND_ROSENBROCK:
        total = np.zeros((m,) * d)
        for i in range(d - 1):
            a, b = axes[i], axes[i + 1]
            pair = 100.0 * (b[None, :] - a[:, None] ** 2) ** 2 + (1.0 - a[:, None]) ** 2
            shape = [1] * d
            shape[i] = m
            shape[i + 1] = m
            total += pair.reshape(shape)
        return total.reshape(-1)
    # chained outer sums keep the left-to-right order (0 + t_0) + t_1 + ...
    # of the per-element accumulation, one full-size pass in all
    total = np.zeros(1)
    for i in range(d):
        total = np.add.outer(total, _axis_terms(kind, axes[i], shift[i])).reshape(-1)
    return total


def boltzmann(values, scale):
    """Boltzmann encoding of a value vector.

    Returns (probabilities, argmin_index, sigma, entropy_bits) where
    sigma is the population standard deviation of the values (1.0 when
    the spread is below 1e-12) and probabilities are proportional to
    exp(-scale * (v - v_min) / sigma).  With e the scaled exponent and
    Z the weight sum, the entropy is (ln Z + sum(p * e)) / ln 2.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    argmin_index = int(np.argmin(v))
    sigma = float(np.std(v))
    if sigma < 1e-12:
        sigma = 1.0
    e = v - v[argmin_index]
    e *= scale
    e /= sigma
    probs = np.negative(e)
    np.exp(probs, out=probs)
    z = probs.sum()
    probs /= z
    e *= probs
    entropy = max((math.log(z) + float(e.sum())) / math.log(2.0), 0.0)
    return probs, argmin_index, sigma, entropy
