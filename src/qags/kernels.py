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
sample brackets, not a copy of the whole vector.  ``padded_quantile``
gives the same threshold for a vector of zeros and a few positive
entries, such as a finite-shot draw, from the positive entries alone.

``lattice_value_blocks`` and ``coordinate_blocks`` stream a lattice in
cache-sized flat-index blocks, each bit-identical to the matching slice
of the full arrays; both methods evaluate their lattices through these
streams, and ``lattice_values`` is the reference they are tested
against.  A value block is a (c, R) array, entry [j, r] at flat index
start + r * c + j: a flat run (c = 1), or for a consumer that asks, the
last axis major (c = m), whose last sum loops over the R rows.  An axis
with more points than a block is split across blocks, so a pass over
any lattice holds about one block beyond the leading axes' partial
sums.  ``lattice_points`` is the one flat-index decoder: it evaluates
the rule at the decoded digits, so no decoder builds an axis table, and
it decodes the columns of every coordinate block too.
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


def _term_table(kind, prev, xs, s):
    """The term of axis xs as a table indexed [j_{i-1}, j_i]: one row,
    shape (1, xs.size), for the separable kinds and for Rosenbrock's
    axis 0 (prev is None; zeros), and the pair table of (x_{i-1}, x_i)
    for every later Rosenbrock axis, whose rows are computed when
    indexed."""
    if kind != KIND_ROSENBROCK:
        return _axis_terms(kind, xs, s)[None, :]
    if prev is None:
        return np.zeros((1, xs.size))
    return _PairRows(prev, xs)


def _term_tables(kind, axes, shift):
    """The term table of each axis, built once per lattice.  At d = 2
    the Rosenbrock pair table is the lattice itself, so it is built only
    for d > 2: at d = 2 each block computes the rows it uses, and a pass
    holds about one block."""
    tables = [_term_table(kind, prev, xs, s) for prev, xs, s in zip([None] + axes, axes, shift)]
    if len(axes) > 2:
        tables = [table[:] for table in tables]
    return tables


class _PairRows:
    """The Rosenbrock pair table [j_{i-1}, j_i] of axes a and b, of which
    indexing computes just the rows asked for."""

    def __init__(self, a, b):
        self.a, self.b, self.shape = a, b, (a.size, b.size)

    def __getitem__(self, rows):
        return _rosenbrock_pair(self.a[rows, None], self.b[None, :])


def _extend(acc, first, table):
    """Add the next axis to acc, the values at flat indices first,
    first + 1, ... of the lattice of the axes so far: entry k * c + j of
    the result is acc[k] + table[(first + k) % r, j] for a table of r
    rows (one per point of the previous axis, or just one) and c
    columns."""
    rows = table.shape[0]
    if rows == 1:
        return _outer_sum(acc, table[0])
    if first % rows == 0 and acc.size % rows == 0:  # acc covers whole rows
        return (acc.reshape(-1, rows, 1) + table[:]).reshape(-1)
    picked = table[(first + np.arange(acc.size)) % rows]
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
    """How a lattice of m**d states splits into blocks of at most
    BLOCK_STATES states: (p, tail), tail = m**(d - p) being the states of
    the trailing d - p axes' sub-lattice and p the leading axes whose
    index prefixes the blocks step through.

    The trailing axes are as many as fit in BLOCK_STATES, and a block
    spans all their states for consecutive prefixes.  When one axis
    alone has more points than that, only the last axis trails
    (p = d - 1, tail = m) and a block is a run of its points under one
    prefix.
    """
    p, tail = d, 1
    while p > 0 and tail * m <= BLOCK_STATES:
        p -= 1
        tail *= m
    if p == d:
        p, tail = d - 1, m
    return p, tail


def _block_ranges(p, tail, m):
    """The blocks of _block_layout in flat-index order, as (k0, k1, r0,
    r1): prefixes [k0, k1) of the leading p axes, each followed by the
    trailing states [r0, r1); the block starts at k0 * tail + r0."""
    prefixes = m**p
    chunk = max(1, BLOCK_STATES // tail)
    for k0 in range(0, prefixes, chunk):
        k1 = min(k0 + chunk, prefixes)
        for r0 in range(0, tail, BLOCK_STATES):
            yield k0, k1, r0, min(r0 + BLOCK_STATES, tail)


def _last_axis_columns(table):
    """The last axis's term table turned for last-axis-major blocks and
    C-ordered: entry [j, i] is table[i, j], so (m, 1) for a one-row
    table and (m, m) for a pair table, at most one block."""
    return np.ascontiguousarray(table[:].T)


def _laid_out(acc, columns):
    """The block of the states whose partial sums before the last axis
    are acc: entry [j, r] is acc[r] + columns[j, r % t] for t columns
    (acc starts on a whole run of the axis before the last).
    A one-column table broadcasts over the rows.  A pair table's columns
    are tiled over them into the block itself, which the sum then
    updates in place, so no tile outlives its block.  With no columns,
    acc itself is the block, a flat run."""
    if columns is None:
        return acc[None, :]
    if columns.shape[1] == 1:
        return np.add(columns, acc)
    block = np.tile(columns, (1, acc.size // columns.shape[1]))
    block += acc
    return block


def lattice_value_blocks(
    kind, lower, upper, points_per_dim, shift=None, last_axis_major=False
):
    """lattice_values as a stream of (start, block) over contiguous
    flat-index blocks of at most BLOCK_STATES states.

    A block is a C-ordered (c, R) array whose entry [j, r] is the value
    at flat index start + r * c + j.  It is a flat run, c = 1, unless
    last_axis_major is asked for and the block holds whole runs of the
    last axis under at least one more trailing axis (m * m <=
    BLOCK_STATES); then c = m and R = size / m.  That block's last sum
    acc[r] + t[j] runs its inner loop over the R rows instead of the few
    points of the last axis: NumPy buffers a broadcast sum whose inner
    loop is short, at about four times the cost per state.  IEEE
    addition commutes, so each entry keeps its bits.  A consumer that
    reads a block in any order asks for this layout.  The qags fill,
    which writes flat order, does not: with the transposed write it
    needs, the fill was slower at m = 2, 4, 32 and 256 (faster at 8 and
    16) than with the flat sum.

    The term tables and the leading axes' partial sums are computed once;
    each block continues the same accumulation over the trailing axes, so
    every block holds the bits of values[start:start + block.size], in
    its layout.  A trailing axis longer than a block has no table: each
    block computes the terms of its own run of points, so a pass holds
    about one block beyond the leading axes' sums.
    """
    lower, upper, shift = _lattice_args(lower, upper, shift)
    m, kind, d = int(points_per_dim), int(kind), lower.size
    p, tail = _block_layout(d, m)
    split = tail > BLOCK_STATES  # the last axis then gets its points per block
    axes = lattice_axes(lower[:d - split], upper[:d - split], m)
    tables = _term_tables(kind, axes, shift)
    head = _accumulate(np.zeros(1), 0, tables[:p])
    trailing = tables[p:]
    columns = None
    if last_axis_major and tail > m:
        columns = _last_axis_columns(trailing.pop())
    for k0, k1, r0, r1 in _block_ranges(p, tail, m):
        if split:
            xs = _coordinates(lower[p], upper[p], m, np.arange(r0, r1))
            trailing = [_term_table(kind, axes[-1] if p else None, xs, shift[p])]
        # no name here holds the block, so a consumer that drops it
        # frees it before the next one is built
        yield k0 * tail + r0, _laid_out(_accumulate(head[k0:k1], k0, trailing), columns)


def _trailing_coordinates(lower, upper, m, r0, r1):
    """The coordinate rows of states [r0, r1) of the lattice of m points
    per axis of the box [lower, upper]: a run of points of a one-axis
    lattice, or every state of a lattice of more axes."""
    d = lower.size
    if d == 1:
        return _coordinates(lower[0], upper[0], m, np.arange(r0, r1))[:, None]
    grid = np.empty((m,) * d + (d,))
    for j, xs in enumerate(lattice_axes(lower, upper, m)):
        shape = [1] * d
        shape[j] = m
        grid[..., j] = xs.reshape(shape)
    return grid.reshape(-1, d)


def coordinate_blocks(lower, upper, m):
    """The (N, d) coordinate matrix of the lattice of m points per axis
    of the box [lower, upper] (dimension 0 most significant) as a stream
    of (start, coords) over the same blocks as lattice_value_blocks.

    Each block's leading columns are its prefixes decoded by
    lattice_points, broadcast over its trailing states' coordinates;
    those are built once when every block spans them all, and per block
    when the last axis is split.
    """
    lower, upper, _ = _lattice_args(lower, upper, None)
    d = lower.size
    p, tail = _block_layout(d, m)
    window = None
    for k0, k1, r0, r1 in _block_ranges(p, tail, m):
        if window != (r0, r1):
            window = (r0, r1)
            trailing = _trailing_coordinates(lower[p:], upper[p:], m, r0, r1)
        coords = np.empty((k1 - k0, r1 - r0, d))
        coords[:, :, :p] = lattice_points(lower[:p], upper[:p], m, np.arange(k0, k1))[:, None, :]
        coords[:, :, p:] = trailing
        yield k0 * tail + r0, coords.reshape(-1, d)


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
        if scale != 1.0:  # x * 1.0 == x for every double
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


def _quantile_ranks(n, q):
    """(virtual, i, j): np.quantile's virtual index (n - 1) q into n
    sorted entries and the ranks i = floor(virtual) <= j it interpolates
    between; a virtual index that rounded up to n - 1 takes the last
    entry twice, as np.quantile does."""
    virtual = (n - 1) * q
    i = math.floor(virtual)
    return virtual, i, min(i + 1, n - 1)


def _lerp(a, b, gamma):
    """NumPy's _lerp: a + (b - a) gamma, taken from b's side when
    gamma >= 0.5."""
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def linear_quantile(p, q):
    """np.quantile(p, q) (method "linear") bit for bit, for a 1-d
    float64 vector without NaN or -0.0 and 0 < q < 1.

    The order statistics at ranks floor((n - 1) q) and the next one are
    found Floyd-Rivest style: a sorted strided sample gives a value range
    around the ranks, one pass counts the entries below it and extracts
    those inside, and only that run is partitioned.  NumPy's _lerp then
    interpolates between the two.
    """
    virtual, i, j = _quantile_ranks(p.size, q)
    below, run = _rank_bracket(p, i, j)
    run.partition((i - below, j - below))
    return _lerp(run[i - below], run[j - below], virtual - i)


def padded_quantile(positive, zeros, q):
    """linear_quantile of a vector of ``zeros`` zeros and the ascending
    positive entries ``positive``, bit for bit, without building that
    vector: a rank below ``zeros`` is a zero, and the rest index
    ``positive``."""
    virtual, i, j = _quantile_ranks(zeros + positive.size, q)
    a = positive[i - zeros] if i >= zeros else 0.0
    b = positive[j - zeros] if j >= zeros else 0.0
    return _lerp(a, b, virtual - i)
