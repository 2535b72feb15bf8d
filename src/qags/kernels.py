"""The hot lattice and encoding kernels, in NumPy.

``lattice_values`` evaluates a built-in objective over the whole uniform
lattice without materializing point coordinates; grid coordinates are
endpoint exact.  Each axis contributes a term table indexed
[j_{i-1}, j_i]: one row for the separable kinds, and for Rosenbrock the
pair (x_{i-1}, x_i) (zeros on axis 0).  One accumulation rule adds the
axes one at a time, by outer sums or row broadcasts, which keep the
per-element left-to-right order 0 + t_0 + t_1 + ... for every kind.
``boltzmann`` encodes a value vector and takes its entropy from a closed
form instead of a log2 pass over the probabilities.

``lattice_value_blocks`` and ``coordinate_blocks`` stream a lattice in
cache-sized flat-index blocks, each bit-identical to the matching slice
of the full arrays; both methods evaluate their lattices through these
streams, and ``lattice_values`` is the reference they are tested
against.  ``lattice_points`` is the one flat-index decoder: it decodes
the leading columns of every coordinate block too.
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


def _term_tables(kind, axes, shift):
    """Each axis's term as a table indexed [j_{i-1}, j_i]: one row, shape
    (1, m), for the separable kinds and for Rosenbrock's axis 0 (zeros),
    and the (m, m) pair table of (x_{i-1}, x_i) for every later Rosenbrock
    axis, built once per lattice."""
    if kind == KIND_ROSENBROCK:
        pairs = [_pair_table(a, b) for a, b in zip(axes, axes[1:])]
        return [np.zeros((1, axes[0].size))] + pairs
    return [_axis_terms(kind, xs, s)[None, :] for xs, s in zip(axes, shift)]


def _pair_table(a, b):
    """The Rosenbrock pair table [j_{i-1}, j_i] of axes a and b, built in
    row chunks of at most BLOCK_STATES entries so that its temporaries
    stay in cache."""
    out = np.empty((a.size, b.size))
    rows = max(1, BLOCK_STATES // b.size)
    for r in range(0, a.size, rows):
        out[r:r + rows] = _rosenbrock_pair(a[r:r + rows, None], b[None, :])
    return out


def _extend(acc, first, table):
    """Add the next axis to acc, the values at flat indices first,
    first + 1, ... of the lattice of the axes so far: entry k * m + j of
    the result is acc[k] + table[(first + k) % m, j]."""
    rows, m = table.shape
    if rows == 1:
        return _outer_sum(acc, table[0])
    if first % m == 0 and acc.size % m == 0:  # acc covers whole rows
        return (acc.reshape(-1, m, 1) + table).reshape(-1)
    picked = table[(first + np.arange(acc.size)) % m]
    return (acc[:, None] + picked).reshape(-1)


def _accumulate(acc, first, tables):
    """Extend acc over the axes of tables in turn, keeping the
    per-element left-to-right order acc + t_i + t_{i+1} + ..."""
    for table in tables:
        acc = _extend(acc, first, table)
        first *= table.shape[1]
    return acc


def lattice_values(kind, lower, upper, points_per_dim, shift=None):
    """Evaluate a built-in objective on the full uniform lattice.

    Returns 2**(n*d) values in flat-index order (dimension 0 most
    significant) without materializing the point coordinates.
    """
    lower, upper, shift = _lattice_args(lower, upper, shift)
    axes = lattice_axes(lower, upper, points_per_dim)
    return _accumulate(np.zeros(1), 0, _term_tables(int(kind), axes, shift))


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

    The term tables and the leading axes' partial sums are computed once;
    each block continues the same accumulation over the trailing axes, so
    every block is bit-identical to values[start:start + len(block)].
    """
    lower, upper, shift = _lattice_args(lower, upper, shift)
    m = int(points_per_dim)
    tables = _term_tables(int(kind), lattice_axes(lower, upper, m), shift)
    p, tail, chunk = _block_layout(lower.size, m)
    head = _accumulate(np.zeros(1), 0, tables[:p])
    for k0, k1 in _prefix_ranges(p, m, chunk):
        yield k0 * tail, _accumulate(head[k0:k1], k0, tables[p:])


def coordinate_blocks(axes):
    """The (N, d) lattice coordinate matrix over the axis tables ``axes``
    (all of one length m; dimension 0 most significant) as a stream of
    (start, coords) over the same blocks as lattice_value_blocks.

    The trailing axes' coordinate matrix is built once; the leading
    columns of each block are its prefixes decoded by lattice_points,
    broadcast over the trailing states.
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
        coords = np.empty((k1 - k0, tail, d))
        coords[:, :, :p] = lattice_points(axes[:p], np.arange(k0, k1))[:, None, :]
        coords[:, :, p:] = trailing
        yield k0 * tail, coords.reshape(-1, d)


def lattice_points(axes, flats):
    """Decode flat lattice indices to points: (K,) -> (K, d).

    Dimension 0 is the most significant digit, and digit i is taken
    modulo len(axes[i]), so zero axes decode to (K, 0); each coordinate
    is gathered from the axis tables, so it equals the
    coordinate the lattice was evaluated at bit for bit.
    """
    rem = np.array(flats, dtype=np.int64, ndmin=1)
    out = np.empty((rem.size, len(axes)))
    for i in range(len(axes) - 1, -1, -1):
        rem, j = np.divmod(rem, axes[i].size)
        out[:, i] = axes[i][j]
    return out


def boltzmann(values, scale):
    """Boltzmann encoding of a value vector.

    Returns (probabilities, argmin_index, sigma, entropy_bits) where
    sigma is the population standard deviation of the values (1.0 when
    the spread is below 1e-12) and probabilities are proportional to
    exp(-scale * (v - v_min) / sigma).  Sigma is taken from v - v_min,
    not from v, so a constant offset added to the values cannot round
    the mean and move the encoding.  With e the scaled exponent and
    Z the weight sum, the entropy is (ln Z + sum(p * e)) / ln 2.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    argmin_index = int(np.argmin(v))
    e = v - v[argmin_index]
    sigma = float(np.std(e))
    if sigma < 1e-12:
        sigma = 1.0
    e *= float(scale)
    e /= sigma
    probs = np.negative(e)
    np.exp(probs, out=probs)
    z = probs.sum()
    probs /= z
    e *= probs
    entropy = max((math.log(z) + float(e.sum())) / math.log(2.0), 0.0)
    return probs, argmin_index, sigma, entropy
