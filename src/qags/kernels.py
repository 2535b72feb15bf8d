"""The hot lattice and encoding kernels, in NumPy.

``lattice_values`` evaluates a built-in objective over the whole uniform
lattice without materializing point coordinates: grid coordinates are
endpoint exact, and separable lattices are built by chained outer sums,
which keep the per-element left-to-right order 0 + t_0 + t_1 + ... of
the per-dimension terms.  ``boltzmann`` encodes a value vector and takes
its entropy from a closed form instead of a log2 pass over the
probabilities.

``lattice_value_blocks`` and ``coordinate_blocks`` stream a lattice in
cache-sized flat-index blocks, each bit-identical to the matching slice
of the full arrays.
"""

from __future__ import annotations

import math

import numpy as np

KIND_SPHERE = 0
KIND_RASTRIGIN = 1
KIND_STYBLINSKI_TANG = 2
KIND_ROSENBROCK = 3


# Streamed lattices come in contiguous flat-index blocks of at most this
# many states: 512 KB of float64 values, which stay in cache.  On ags
# sphere d=5 plus d=10 at 10^7 points (2-vCPU VM) this took 0.58 s, 2^17
# 0.57 s at twice the memory, 2^14 0.90 s and 2^18 0.73 s.
BLOCK_STATES = 1 << 16


def _axis_coordinates(lower, upper, m):
    """The m lattice coordinates of one axis, endpoint exact."""
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


def _outer_sum(left, right):
    """np.add.outer(left, right).reshape(-1), bit for bit.

    np.add.outer's inner loop runs over right, so a short right (the
    axes of a lattice with few points per axis) pays per-row overhead;
    then left is added to one element of right at a time instead.  The
    thresholds are where that measured 1.3-4x faster (m <= 8).
    """
    if right.size > 8 or left.size < 512 * right.size:
        return np.add.outer(left, right).reshape(-1)
    out = np.empty((left.size, right.size))
    for j, r in enumerate(right):
        np.add(left, r, out=out[:, j])
    return out.reshape(-1)


def _rosenbrock_pair(a, b):
    return 100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2


def _lattice_args(lower, upper, shift):
    lower = np.ascontiguousarray(lower, dtype=np.float64)
    upper = np.ascontiguousarray(upper, dtype=np.float64)
    if shift is None:
        shift = np.zeros(lower.size)
    return lower, upper, np.ascontiguousarray(shift, dtype=np.float64)


def lattice_axes(lower, upper, points_per_dim):
    """Per-axis coordinate tables of the lattice the kernels evaluate:
    m points from lower to upper, the last one exactly upper."""
    lower, upper, _ = _lattice_args(lower, upper, None)
    m = int(points_per_dim)
    return [_axis_coordinates(lower[i], upper[i], m) for i in range(lower.size)]


def _leading_values(kind, axes, shift, p):
    """Values over the lattice of the leading p axes, flat-index order:
    (0 + t_0) + ... + t_{p-1} for the separable kinds, and for Rosenbrock
    the pairs that lie inside those axes, summed in order from zero."""
    m = axes[0].size
    if kind == KIND_ROSENBROCK:
        total = np.zeros((m,) * p)
        for i in range(p - 1):
            shape = [1] * p
            shape[i] = m
            shape[i + 1] = m
            total += _rosenbrock_pair(axes[i][:, None], axes[i + 1][None, :]).reshape(shape)
        return total.reshape(-1)
    # chained outer sums keep the left-to-right order (0 + t_0) + t_1 + ...
    # of the per-element accumulation, one full-size pass in all
    total = np.zeros(1)
    for i in range(p):
        total = _outer_sum(total, _axis_terms(kind, axes[i], shift[i]))
    return total


def lattice_values(kind, lower, upper, points_per_dim, shift=None):
    """Evaluate a built-in objective on the full uniform lattice.

    Returns 2**(n*d) values in flat-index order (dimension 0 most
    significant) without materializing the point coordinates.
    """
    lower, upper, shift = _lattice_args(lower, upper, shift)
    axes = lattice_axes(lower, upper, points_per_dim)
    return _leading_values(int(kind), axes, shift, lower.size)


def _block_layout(d, m):
    """How a lattice of m**d states splits into blocks.

    Returns (p, tail, chunk): every block spans all tail = m**(d - p)
    states of the trailing d - p axes (as many axes as fit in
    BLOCK_STATES) for chunk consecutive index prefixes of the leading p
    axes, so no block holds more than BLOCK_STATES states.
    """
    p, tail = d, 1
    while p > 0 and tail * m <= BLOCK_STATES:
        p -= 1
        tail *= m
    return p, tail, max(1, BLOCK_STATES // tail)


def _prefix_ranges(p, m, chunk):
    """Consecutive [k0, k1) ranges of chunk leading-axis index prefixes."""
    prefixes = m**p
    for k0 in range(0, prefixes, chunk):
        yield k0, min(k0 + chunk, prefixes)


def lattice_value_blocks(kind, lower, upper, points_per_dim, shift=None):
    """lattice_values as a stream of (start, values) over contiguous
    flat-index blocks of at most BLOCK_STATES states.

    The leading axes' partial sums are computed once; each block
    continues the same accumulation over the trailing axes, so every
    block is bit-identical to values[start:start + len(block)].
    """
    lower, upper, shift = _lattice_args(lower, upper, shift)
    kind = int(kind)
    d = lower.size
    m = int(points_per_dim)
    axes = lattice_axes(lower, upper, m)
    p, tail, chunk = _block_layout(d, m)
    head = _leading_values(kind, axes, shift, p)
    if kind == KIND_ROSENBROCK:
        tail_shape = (m,) * (d - p)
        for k0, k1 in _prefix_ranges(p, m, chunk):
            block = np.empty((k1 - k0,) + tail_shape)
            block[...] = head[k0:k1].reshape((-1,) + (1,) * (d - p))
            if 0 < p < d:
                # the pair straddling the last leading axis and the first trailing one
                a = axes[p - 1][np.arange(k0, k1) % m]
                pair = _rosenbrock_pair(a[:, None], axes[p][None, :])
                block += pair.reshape(pair.shape + (1,) * (d - p - 1))
            for i in range(p, d - 1):
                shape = [1] * (d - p + 1)
                shape[i - p + 1] = m
                shape[i - p + 2] = m
                block += _rosenbrock_pair(axes[i][:, None], axes[i + 1][None, :]).reshape(shape)
            yield k0 * tail, block.reshape(-1)
        return
    terms = [_axis_terms(kind, axes[i], shift[i]) for i in range(p, d)]
    for k0, k1 in _prefix_ranges(p, m, chunk):
        block = head[k0:k1]
        for t in terms:
            block = _outer_sum(block, t)
        yield k0 * tail, block


def coordinate_blocks(axes):
    """The (N, d) lattice coordinate matrix over the axis tables ``axes``
    (all of one length m; dimension 0 most significant) as a stream of
    (start, coords) over the same blocks as lattice_value_blocks.

    The trailing axes' coordinate matrix is built once; the leading
    columns of each block are constant per prefix and filled by
    broadcasting.
    """
    d = len(axes)
    m = axes[0].size
    p, tail, chunk = _block_layout(d, m)
    grid = np.empty((m,) * (d - p) + (d - p,))
    for j in range(d - p):
        shape = [1] * (d - p)
        shape[j] = m
        grid[..., j] = axes[p + j].reshape(shape)
    trailing = grid.reshape(tail, d - p)
    for k0, k1 in _prefix_ranges(p, m, chunk):
        prefixes = np.arange(k0, k1)
        coords = np.empty((k1 - k0, tail, d))
        coords[:, :, p:] = trailing
        for i in range(p - 1, -1, -1):
            coords[:, :, i] = axes[i][prefixes % m][:, None]
            prefixes //= m
        yield k0 * tail, coords.reshape(-1, d)


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
    e *= float(scale)
    e /= sigma
    probs = np.negative(e)
    np.exp(probs, out=probs)
    z = probs.sum()
    probs /= z
    e *= probs
    entropy = max((math.log(z) + float(e.sum())) / math.log(2.0), 0.0)
    return probs, argmin_index, sigma, entropy
