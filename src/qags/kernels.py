"""The hot lattice and encoding kernels, in NumPy.

``lattice_values`` evaluates a built-in objective over the whole uniform
lattice without materializing point coordinates; ``_coordinates`` is the
one coordinate rule.  Each axis contributes a term table indexed
[j_{i-1}, j_i]: one row for the separable kinds, and for Rosenbrock the
pair (x_{i-1}, x_i) (zeros on axis 0).  One accumulation rule adds the
axes one at a time, by outer sums or row broadcasts, which keep the
per-element left-to-right order 0 + t_0 + t_1 + ... for every kind.
``boltzmann`` encodes a value vector and takes its entropy from a closed
form instead of a log2 pass over the probabilities.  It works through the
vector in BLOCK_STATES slices, so the probabilities are the only array of
the vector's size it allocates, and it combines the slices' sums as
NumPy's pairwise summation does, so every output equals the dense
formulas bit for bit.  ``linear_quantile`` equals np.quantile's linear
threshold bit for bit; it partitions only the entries that a strided
sample brackets, not a copy of the whole vector.

``lattice_value_blocks`` and ``coordinate_blocks`` stream a lattice in
cache-sized flat-index blocks, each bit-identical to the matching slice
of the full arrays; both methods evaluate their lattices through these
streams, and ``lattice_values`` is the reference they are tested
against.  ``lattice_points`` is the one flat-index decoder: it evaluates
the rule at the decoded digits, so no decoder builds an axis table, and
it decodes the leading columns of every coordinate block too.
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


def _coordinates(lower, upper, m, j):
    """The coordinate rule of every lattice, at the integer array j:
    lower + j * ((upper - lower) / (m - 1)), and exactly upper at
    j = m - 1.  In place, so an m-entry table peaks at 17 B/entry."""
    x = j * ((upper - lower) / (m - 1))
    x += lower  # IEEE addition commutes, so this is lower + j * step
    np.copyto(x, upper, where=j == m - 1)
    return x


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
    the coordinate rule at j = 0, ..., m - 1 on each axis."""
    lower, upper, _ = _lattice_args(lower, upper, None)
    m = int(points_per_dim)
    return [_coordinates(lower[i], upper[i], m, np.arange(m)) for i in range(lower.size)]


def _term_tables(kind, axes, shift):
    """Each axis's term as a table indexed [j_{i-1}, j_i]: one row, shape
    (1, m), for the separable kinds and for Rosenbrock's axis 0 (zeros),
    and the (m, m) pair table of (x_{i-1}, x_i) for every later Rosenbrock
    axis, built once per lattice.  At d = 2 that pair table is the
    lattice itself, so it is not built ahead: each block computes the
    rows it uses, and a pass holds about one block."""
    if kind == KIND_ROSENBROCK:
        pairs = [_PairRows(a, b) for a, b in zip(axes, axes[1:])]
        if len(axes) > 2:
            pairs = [table[:] for table in pairs]
        return [np.zeros((1, axes[0].size))] + pairs
    return [_axis_terms(kind, xs, s)[None, :] for xs, s in zip(axes, shift)]


class _PairRows:
    """The Rosenbrock pair table [j_{i-1}, j_i] of axes a and b, of which
    indexing computes just the rows asked for."""

    def __init__(self, a, b):
        self.a, self.b, self.shape = a, b, (a.size, b.size)

    def __getitem__(self, rows):
        return _rosenbrock_pair(self.a[rows, None], self.b[None, :])


def _extend(acc, first, table):
    """Add the next axis to acc, the values at flat indices first,
    first + 1, ... of the lattice of the axes so far: entry k * m + j of
    the result is acc[k] + table[(first + k) % m, j]."""
    rows, m = table.shape
    if rows == 1:
        return _outer_sum(acc, table[0])
    if first % m == 0 and acc.size % m == 0:  # acc covers whole rows
        return (acc.reshape(-1, m, 1) + table[:]).reshape(-1)
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


def coordinate_blocks(lower, upper, m):
    """The (N, d) coordinate matrix of the lattice of m points per axis
    of the box [lower, upper] (dimension 0 most significant) as a stream
    of (start, coords) over the same blocks as lattice_value_blocks.

    Only the trailing axes' tables are built, into their coordinate
    matrix, once; the leading columns of each block are its prefixes
    decoded by lattice_points, broadcast over the trailing states.
    """
    lower, upper, _ = _lattice_args(lower, upper, None)
    d = lower.size
    p, tail, chunk = _block_layout(d, m)
    grid = np.empty((m,) * (d - p) + (d - p,))
    for j, xs in enumerate(lattice_axes(lower[p:], upper[p:], m)):
        shape = [1] * (d - p)
        shape[j] = m
        grid[..., j] = xs.reshape(shape)
    trailing = grid.reshape(tail, d - p)
    for k0, k1 in _prefix_ranges(p, m, chunk):
        coords = np.empty((k1 - k0, tail, d))
        coords[:, :, :p] = lattice_points(lower[:p], upper[:p], m, np.arange(k0, k1))[:, None, :]
        coords[:, :, p:] = trailing
        yield k0 * tail, coords.reshape(-1, d)


def lattice_points(lower, upper, m, flats):
    """Decode flat indices of the lattice of m points per axis of the
    box [lower, upper] to points: (K,) -> (K, d).

    Dimension 0 is the most significant base-m digit, and a zero-axis
    box decodes to (K, 0).  Each coordinate is the rule at its digit, so
    it equals the lattice_axes entry bit for bit and no table is built;
    an index outside [0, m**d) raises IndexError.
    """
    lower, upper, _ = _lattice_args(lower, upper, None)
    rem = np.array(flats, dtype=np.int64, ndmin=1)
    digits = np.empty((rem.size, lower.size), dtype=np.int64)
    for i in range(lower.size - 1, -1, -1):
        rem, digits[:, i] = np.divmod(rem, m)
    if rem.any():
        raise IndexError("flat index out of range")
    return _coordinates(lower, upper, m, digits)


def _pairwise_sum(leaf, start, n):
    """np.add.reduce of a float64 run [start, start + n) of some vector,
    bit for bit, given leaf(lo, hi), the np.add.reduce of one piece of
    at most BLOCK_STATES entries.

    NumPy sums a contiguous float64 run pairwise: a run longer than 128
    entries splits at n2 = n // 2 - (n // 2) % 8 and the two halves'
    sums are added.  Splitting by the same rule until each piece fits
    one block therefore adds the same partial sums in the same order,
    for any n; tests/test_kernels.py pins this NumPy behaviour.
    """
    if n <= BLOCK_STATES:
        return leaf(start, start + n)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf, start, half) + _pairwise_sum(leaf, start + half, n - half)


def boltzmann(values, scale):
    """Boltzmann encoding of a value vector.

    Returns (probabilities, argmin_index, sigma, entropy_bits) where
    sigma is the population standard deviation of the values (1.0 when
    the spread is below 1e-12) and probabilities are proportional to
    exp(-scale * (v - v_min) / sigma).  Sigma is taken from v - v_min,
    not from v, so a constant offset added to the values cannot round
    the mean and move the encoding.  With e the scaled exponent and
    Z the weight sum, the entropy is (ln Z + sum(p * e)) / ln 2.

    The vector is worked through in BLOCK_STATES slices with one scratch
    block, so besides the probabilities nothing of the vector's size is
    allocated: passes for the argmin, sum(e), sum((e - mean)^2), the
    weights and Z, then p = w / Z and sum(p * e).  Each sum is combined
    by _pairwise_sum and sigma keeps np.std's order of operations, so
    every output equals the dense formulas bit for bit.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    n = v.size
    argmin_index = int(np.argmin(v))
    v_min = v[argmin_index]
    scale = float(scale)
    scratch = np.empty(min(n, BLOCK_STATES))
    probs = np.empty(n)

    def shifted(lo, hi):
        e = scratch[: hi - lo]
        np.subtract(v[lo:hi], v_min, out=e)
        return e

    def squared_deviations(lo, hi):
        e = shifted(lo, hi)
        e -= mean
        e *= e
        return e.sum()

    def exponents(lo, hi):
        e = shifted(lo, hi)
        e *= scale
        e /= sigma
        return e

    def weights(lo, hi):
        w = np.negative(exponents(lo, hi), out=probs[lo:hi])
        np.exp(w, out=w)
        return w.sum()

    def normalize(lo, hi):
        p = probs[lo:hi]
        p /= z
        e = exponents(lo, hi)
        e *= p
        return e.sum()

    mean = _pairwise_sum(lambda lo, hi: shifted(lo, hi).sum(), 0, n) / n
    sigma = math.sqrt(_pairwise_sum(squared_deviations, 0, n) / n)
    if sigma < 1e-12:
        sigma = 1.0
    z = _pairwise_sum(weights, 0, n)
    mean_exponent = _pairwise_sum(normalize, 0, n)
    entropy = max((math.log(z) + float(mean_exponent)) / math.log(2.0), 0.0)
    return probs, argmin_index, sigma, entropy


# linear_quantile brackets its ranks with every QUANTILE_STRIDE-th entry;
# the stride is odd, so the sample walks through every column of a
# power-of-two lattice (a stride of 256 saw 4 columns of a 1024 x 1024
# one, and its bracket missed).
QUANTILE_STRIDE = 251


def _rank_bracket(p, i, j):
    """(below, run): a new array of the entries of p that lie between two
    sampled values around the ranks i <= j, and how many entries lie
    below that range.  When the counts show the range misses a rank, the
    sample misled, and the run is a copy of all of p, with below = 0.
    """
    n = p.size
    sample = np.sort(p[::QUANTILE_STRIDE])
    at = i * sample.size // n
    gap = 2 * math.isqrt(sample.size) + 1
    lo = sample[max(at - gap, 0)]
    hi = sample[min(at + gap, sample.size - 1)]
    below, parts = 0, []
    for start in range(0, n, BLOCK_STATES):
        block = p[start:start + BLOCK_STATES]
        under = block < lo
        below += np.count_nonzero(under)
        keep = block <= hi
        keep ^= under
        parts.append(block[keep])
    run = np.concatenate(parts)
    if below <= i and j < below + run.size:
        return below, run
    return 0, p.copy()


def linear_quantile(p, q):
    """np.quantile(p, q) (method "linear") bit for bit, for a 1-d
    float64 vector without NaN or -0.0 and 0 < q < 1.

    The order statistics at ranks floor((n - 1) q) and the next one are
    found Floyd-Rivest style: a sorted strided sample gives a value range
    around the ranks, one pass counts the entries below it and extracts
    those inside, and only that run is partitioned.  NumPy's _lerp then
    interpolates between the two.
    """
    n = p.size
    virtual = (n - 1) * q
    i = math.floor(virtual)
    # a virtual index that rounded up to n - 1 takes the last entry twice,
    # as np.quantile does
    j = min(i + 1, n - 1)
    below, run = _rank_bracket(p, i, j)
    run.partition((i - below, j - below))
    a, b = run[i - below], run[j - below]
    gamma = virtual - i
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma
