"""The hot lattice and encoding kernels, in NumPy.

``lattice_values`` evaluates a built-in objective over the whole uniform
lattice without materializing point coordinates; ``_coordinates`` is the
one coordinate rule, and ``axis_terms`` and ``rosenbrock_pair`` are the
only copy of each built-in formula.  Each axis contributes a term table
indexed [j_{i-1}, j_i]: one row for the separable kinds, and for
Rosenbrock the pair (x_{i-1}, x_i) (zeros on axis 0).  One accumulation
rule adds the axes one at a time, by outer sums or row broadcasts, which
keep the per-element left-to-right order 0 + t_0 + t_1 + ... for every
kind.
``boltzmann`` encodes a value vector in place, overwriting the values
with the probabilities, and takes its entropy from a closed form instead
of a log2 pass over them.  It works through the vector in BLOCK_STATES
slices, so it allocates nothing of the vector's size; each pass leaves
its result in the vector for the next (the shifted values v - v_min,
then the negated exponents), so none recomputes an earlier one's.  It
combines the slices' sums as NumPy's pairwise summation does, so every
output equals the dense formulas bit for bit.  Its result needs no check
over the vector: a finite sigma proves every probability lies in [0, 1]
and that they sum to 1, and a sigma that is not finite raises.  A reader
that needs only the probabilities skips the entropy's last products and
sum.  ``linear_quantile`` equals np.quantile's linear threshold bit for
bit; it partitions only the entries that a strided sample brackets, not
a copy of the whole vector, and the entries equal to the bracket's low
end, such as a run of zeros, it only counts.
``padded_quantile`` gives the same threshold for a vector of zeros and a
few positive entries, such as a finite-shot draw, from the positive
entries alone.

``lattice_value_runs``, ``lattice_value_blocks`` and
``coordinate_blocks`` stream a lattice in cache-sized flat-index blocks,
each bit-identical to the matching slice of the full arrays; both
methods evaluate their lattices through these streams, and
``lattice_values`` is the reference they are tested against.  The qags
fill writes flat runs of at most BLOCK_STATES states.  The classical
baseline, which reads a block in any order, takes blocks of up to a
quarter more states in the digit-reversed layout: shape (m,) * T + (K,)
for T trailing axes under K prefixes, the last axis major, so that every
sum loops over the partial sums before it and the large ones pass
NumPy's buffered threshold; ``block_flat_indices`` decodes its entries,
and a flat run is its T = 0 case.  Every block comes with its least
and greatest value, for the separable kinds on a lattice of several
blocks sums of the operands' extremes, else read off the block, which
are finite exactly when the block is: so both methods
refuse a value that is not finite, with no NumPy warning, and the
baseline reads a block only when it improves.  A coordinate block holds
at most BLOCK_STATES coordinates, so a batch function's temporaries do
not grow with d.  An axis with more points than a block is split across
blocks, so a pass over any lattice holds about one block beyond the
leading axes' partial sums.  ``lattice_points`` is the one decoder of
flat indices to points: it evaluates the rule at the decoded digits, so no
decoder builds an axis table, and it decodes the leading columns of
every coordinate block too.  A coordinate block is filled with long
inner loops: its first slice of trailing states column by column, the
others as whole-row copies of it.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import InvalidInputError

KIND_SPHERE = 0
KIND_RASTRIGIN = 1
KIND_STYBLINSKI_TANG = 2
KIND_ROSENBROCK = 3


# Streamed lattices come in contiguous flat-index blocks of about this
# many states: 512 KB of float64 values, which stay in cache.  The qags
# fill's runs and the coordinate blocks hold at most this many; the
# baseline's blocks up to a quarter more (lattice_value_blocks), which
# takes their last sum, block / m entries, past NumPy's buffered
# threshold at m = 25 (3,125 against 2,621 entries).  On ags sphere d=5
# plus d=10 at 10^7 points (2-vCPU VM, blocks of the earlier flat layout)
# this took 0.58 s, 2^17 0.57 s at twice the memory, 2^14 0.90 s and
# 2^18 0.73 s.
BLOCK_STATES = 1 << 16


def _coordinates(lower, upper, m, j):
    """The coordinate rule of every lattice, at the integer array j:
    lower + j * ((upper - lower) / (m - 1)), and exactly upper at
    j = m - 1.  In place, so an m-entry table peaks at 17 B/entry."""
    x = j * ((upper - lower) / (m - 1))
    x += lower  # IEEE addition commutes, so this is lower + j * step
    np.copyto(x, upper, where=j == m - 1)
    return x


def axis_terms(kind, xs, shift_i):
    """The term of each coordinate xs of a separable kind, elementwise:
    the only place the sphere, Rastrigin and Styblinski-Tang formulas
    are written.  shift_i (broadcast against xs) moves the sphere's
    centre; the other kinds ignore it."""
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


def rosenbrock_pair(a, b):
    """The Rosenbrock term of the consecutive coordinates (a, b),
    elementwise: the only place its formula is written."""
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
        return axis_terms(kind, xs, s)[None, :]
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
        return rosenbrock_pair(self.a[rows, None], self.b[None, :])


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


def _block_layout(d, m, limit):
    """How a lattice of m**d states splits into blocks of at most limit
    states: (p, tail), tail = m**(d - p) being the states of the trailing
    d - p axes' sub-lattice and p the leading axes whose index prefixes
    the blocks step through.

    The trailing axes are as many as fit in limit, and a block spans all
    their states for consecutive prefixes.  When one axis alone has more
    points than that, only the last axis trails (p = d - 1, tail = m) and
    a block is a run of its points under one prefix.
    """
    p, tail = d, 1
    while p > 0 and tail * m <= limit:
        p -= 1
        tail *= m
    if p == d:
        p, tail = d - 1, m
    return p, tail


def _block_ranges(p, tail, m, limit):
    """The blocks of _block_layout in flat-index order, as (k0, k1, r0,
    r1): prefixes [k0, k1) of the leading p axes, each followed by the
    trailing states [r0, r1); the block starts at k0 * tail + r0."""
    prefixes = m**p
    chunk = max(1, limit // tail)
    for k0 in range(0, prefixes, chunk):
        k1 = min(k0 + chunk, prefixes)
        for r0 in range(0, tail, limit):
            yield k0, k1, r0, min(r0 + limit, tail)


def _reversed_sums(acc, first, tables):
    """Extend acc, the partial sums of flat indices first, first + 1, ...
    of the lattice of the axes so far, over the trailing axes of tables,
    each added by one sum over all of acc: entry [j_i, ...] of the result
    is acc[...] + table[j_{i-1}, j_i], the digit of the new axis leading.
    A one-row table is added by an outer sum, a pair table with its rows
    picked by the previous digit: the prefix's last digit for the first
    axis (acc then one-dimensional), else acc's leading index.  Either
    way the inner loop runs over the partial sums, not the few points of
    the new axis, and each entry adds the same two operands as _extend,
    so it keeps its bits."""
    for table in tables:
        rows = table.shape[0]
        if rows == 1:
            acc = np.add.outer(table[0], acc)
        elif acc.ndim == 1:
            picked = table[(first + np.arange(acc.size)) % rows]
            acc = np.add(picked.T, acc, order="C")
        else:
            pairs = table[:].T[:, :, None]  # [j_i, j_{i-1}, 1]
            acc = np.add(pairs, acc.reshape(rows, -1), order="C").reshape(
                (pairs.shape[0],) + acc.shape
            )
    return acc


def _extremes(table):
    """The least and greatest entry of an array, as floats: NaN if any
    entry is NaN."""
    return float(table.min()), float(table.max())


def _fold(acc, ends):
    """The least and greatest of acc[k] + t_p[j_p] + ... + t_{d-1}[j_{d-1}],
    added left to right, over every k and every j, given each one-row
    table's ends = _extremes(t): the same sums of the operands' extremes,
    in the same order.  Round-to-nearest is monotone in each operand, and
    the pair of extremes is itself a pair of operands, so both are
    entries of the sums, bit for bit.  A NaN or infinite operand, or a
    sum that overflows, makes one of them non-finite."""
    low, high = _extremes(acc)
    for t_low, t_high in ends:
        low += t_low
        high += t_high
    return low, high


def block_extremes(start, block):
    """(start, block, low, high) for a block of batch function values, as
    the lattice streams give theirs: its least and greatest entry, read
    off the block."""
    return (start, block, *_extremes(block))


def _value_blocks(kind, lower, upper, points_per_dim, shift, limit, accumulate):
    """The stream of lattice_value_runs and lattice_value_blocks: blocks
    of at most limit states, each the head's partial sums of its
    prefixes extended over the trailing axes by accumulate(acc, first,
    tables), and given with its least and greatest value.  A run of a
    split last axis is the one-dimensional sum of its prefix's partial
    sum and its points' terms."""
    lower, upper, shift = _lattice_args(lower, upper, shift)
    m, kind, d = int(points_per_dim), int(kind), lower.size
    p, tail = _block_layout(d, m, limit)
    split = tail > limit  # the last axis then gets its points per block
    # every overflow or invalid step ends in a value that is not finite,
    # which the extremes show, so none warns; a lattice whose extremes are
    # finite overflows in no sum, so its blocks skip the errstate, which at
    # 1.2 us a block took compare's pass 6% longer (2-vCPU VM)
    with np.errstate(over="ignore", invalid="ignore"):
        axes = lattice_axes(lower[:d - split], upper[:d - split], m)
        tables = _term_tables(kind, axes, shift)
        head = _accumulate(np.zeros(1), 0, tables[:p])
        trailing = tables[p:]
        # a pair table trails, or the lattice is one run (p = 0), whose
        # two reductions cost less than folding 2(d + 1) table extremes:
        # the block gives its own extremes
        ends = None
        if p and all(table.shape[0] == 1 for table in trailing):
            ends = [_extremes(table) for table in trailing]
    quiet = split or ends is None or not all(map(math.isfinite, _fold(head, ends)))
    for k0, k1, r0, r1 in _block_ranges(p, tail, m, limit):
        with np.errstate(over="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
            if split:
                xs = _coordinates(lower[p], upper[p], m, np.arange(r0, r1))
                table = _term_table(kind, axes[-1] if p else None, xs, shift[p])
                row = k0 % table.shape[0]
                terms = table[row:row + 1]
                block = np.add(head[k0], terms).reshape(-1)
                acc, acc_ends = head[k0:k0 + 1], [_extremes(terms)]
            else:
                acc, acc_ends = head[k0:k1], ends
                block = accumulate(acc, k0, trailing)
            low, high = _extremes(block) if acc_ends is None else _fold(acc, acc_ends)
        yield k0 * tail + r0, block, low, high
        del block  # freed before the next is built, once the consumer drops it


def lattice_value_runs(kind, lower, upper, points_per_dim, shift=None):
    """lattice_values as a stream of (start, run, low, high) over
    contiguous flat-index runs of at most BLOCK_STATES states, each
    holding the bits of values[start:start + run.size], with low and
    high its least and greatest value as lattice_value_blocks gives
    them.  The qags fill writes these into its vector in flat order:
    with the transposed write that a block of another layout needs (the
    earlier last-axis-major one), that fill was slower at m = 2, 4, 32
    and 256 (faster at 8 and 16) than with the flat sum."""
    return _value_blocks(kind, lower, upper, points_per_dim, shift, BLOCK_STATES, _accumulate)


def lattice_value_blocks(kind, lower, upper, points_per_dim, shift=None):
    """lattice_values as a stream of (start, block, low, high) over
    contiguous flat-index blocks of at most BLOCK_STATES +
    BLOCK_STATES // 4 states, in the digit-reversed layout, for a
    consumer that reads a block in any order; low and high are the
    block's least and greatest value, as block.min() and block.max()
    give them, bit for bit.

    A block spans T trailing axes for K consecutive prefixes: a C-ordered
    array of shape (m,) * T + (K,) whose entry [j_{d-1}, ..., j_{d-T}, k]
    is the value at flat index start + k * m**T + sum_i j_i * m**(d-1-i)
    (block_flat_indices), so block.T.ravel() is the flat run.  A run of a
    last axis wider than a block is the T = 0 case, shape (K,).  Each
    trailing axis is added by one sum over all of the previous partial
    sums, whose inner loop runs over them instead of over the m points of
    the new axis: NumPy buffers a broadcast sum whose inner loop is
    shorter than about 2,731 entries, at about four times the cost per
    state.  A quarter more states than BLOCK_STATES takes the last sum's
    loop, block / m entries, past that threshold on the compare presets'
    lattices of more than one block: 3,125 at m = 25, 8,000 at m = 10,
    9,604 at m = 7, and 15,625 at m = 5, where the sum before it, a fifth
    of the block, loops over 3,125.  IEEE addition commutes, so each
    entry keeps its bits.

    The term tables and the leading axes' partial sums are computed once;
    each block continues the same accumulation over the trailing axes, so
    every block holds the bits of values[start:start + block.size], in
    its layout.  A trailing axis longer than a block has no table: each
    block computes the terms of its own run of points, so a pass holds
    about one block beyond the leading axes' sums.

    Every entry of a block is the left-to-right sum acc[k] + t_p[j_p] +
    ... + t_{d-1}[j_{d-1}] of a partial sum and one term per trailing
    axis.  When every trailing table is one row (the separable kinds, and
    the run of a split last axis), any choice of operands is an entry,
    and round-to-nearest is monotone in each operand, so the block's
    minimum is the same sum of the operands' minima and its maximum that
    of their maxima (_fold): a min and a max over the K partial sums and
    T float additions, with each table's extremes taken once per
    lattice, instead of two passes over the block.  A NaN or infinite
    operand, or an entry that overflows, makes one of them non-finite,
    and each is an entry, so they are finite exactly when the block is.
    The Rosenbrock pair tables couple the digits of adjacent axes, so
    those blocks give the extremes of their own entries, read off the
    block, as does a lattice of one block, for which the fold's 2(d + 1)
    small reductions cost more than two over the block.
    """
    limit = BLOCK_STATES + BLOCK_STATES // 4
    return _value_blocks(kind, lower, upper, points_per_dim, shift, limit, _reversed_sums)


def block_flat_indices(start, shape, positions):
    """The flat lattice indices of the C-order positions ``positions`` of
    a block of lattice_value_blocks, or a flat run (T = 0), that starts
    at flat index ``start`` and has shape (m,) * T + (K,)."""
    *digits, k = np.unravel_index(positions, shape)
    flat = start + k * math.prod(shape[:-1])
    weight = 1
    for j, size in zip(digits, shape):
        flat += j * weight
        weight *= size
    return flat


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
    of (start, coords) over contiguous flat-index blocks of at most
    BLOCK_STATES coordinates: floor(BLOCK_STATES / d) rows rounded down
    to a power of two, and one row when d > BLOCK_STATES.  A block's
    memory, and that of whatever a batch function makes of it, does not
    grow with d; a power of two keeps every block made of whole runs of
    the trailing axes of a lattice of 2^q points per axis.  Every block
    is a new C-ordered float64 array, which the consumer may write.

    A block of K prefixes of the p leading axes is K slices of the
    trailing axes' states.  Its first slice gets the trailing states'
    coordinates, built once when every block spans them all and per
    block when the last axis is split, and its prefix's leading
    coordinates, decoded by lattice_points; the other slices are copies
    of it, as whole rows, whose leading columns are then rewritten.
    Each column is written on its own, so NumPy's inner loops run down
    the rows, not along a row's few coordinates.
    """
    lower, upper, _ = _lattice_args(lower, upper, None)
    d = lower.size
    limit = 1 << max(0, (BLOCK_STATES // d).bit_length() - 1)
    p, tail = _block_layout(d, m, limit)
    window = None
    for k0, k1, r0, r1 in _block_ranges(p, tail, m, limit):
        if window != (r0, r1):
            window = (r0, r1)
            trailing = _trailing_coordinates(lower[p:], upper[p:], m, r0, r1)
        lead = lattice_points(lower[:p], upper[:p], m, np.arange(k0, k1))
        coords = np.empty((k1 - k0, r1 - r0, d))
        for j in range(p):
            coords[0, :, j] = lead[0, j]
        for j in range(d - p):
            coords[0, :, p + j] = trailing[:, j]
        coords[1:] = coords[0]
        for j in range(p):
            coords[1:, :, j] = lead[1:, j, None]
        yield k0 * tail + r0, coords.reshape(-1, d)
        del coords  # a consumer that drops the block frees it before the next


def lattice_points(lower, upper, m, flats):
    """Decode flat indices of the lattice of m points per axis of the
    box [lower, upper] to points: (K,) -> (K, d).

    Dimension 0 is the most significant base-m digit, and a zero-axis
    box decodes to (K, 0).  Each coordinate is the rule at its digit, so
    it equals the lattice_axes entry bit for bit and no table is built;
    an index outside [0, m**d), or one of a non-integer dtype that is
    not whole, raises IndexError.
    """
    lower, upper, _ = _lattice_args(lower, upper, None)
    rem = np.array(flats, ndmin=1)
    if rem.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage
            if not np.array_equal(rem.astype(np.int64), rem):
                raise IndexError("flat index must be an integer")
    rem = rem.astype(np.int64, copy=False)
    digits = np.empty((rem.size, lower.size), dtype=np.int64)
    for i in range(lower.size - 1, -1, -1):
        rem, digits[:, i] = np.divmod(rem, m)
    if rem.any():
        raise IndexError("flat index out of range")
    return _coordinates(lower, upper, m, digits)


# NumPy sums a contiguous float64 run of at most this many entries in
# one piece, without splitting it pairwise
_PAIRWISE_LEAF = 128


def _sum_piece():
    """The most entries of one piece of _pairwise_sum, and of boltzmann's
    slices: BLOCK_STATES, and at least _PAIRWISE_LEAF."""
    return max(BLOCK_STATES, _PAIRWISE_LEAF)


def _pairwise_sum(leaf, start, n):
    """np.add.reduce of a float64 run [start, start + n) of some vector,
    bit for bit, given leaf(lo, hi), the np.add.reduce of one piece of
    at most _sum_piece() entries.

    NumPy sums a contiguous float64 run pairwise: a run longer than
    _PAIRWISE_LEAF entries splits at n2 = n // 2 - (n // 2) % 8 and the
    two halves' sums are added.  Splitting by the same rule until each
    piece fits one block therefore adds the same partial sums in the
    same order, for any n; tests/test_kernels.py pins this NumPy
    behaviour.  A piece is never split below _PAIRWISE_LEAF entries,
    where NumPy stops splitting and the rule would give an empty half.
    """
    if n <= _sum_piece():
        return leaf(start, start + n)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf, start, half) + _pairwise_sum(leaf, start + half, n - half)


def boltzmann(values, scale, entropy=True):
    """Boltzmann encoding of a value vector, in place: the float64
    vector ``values`` is overwritten by the probabilities.

    Returns (argmin_index, v_min, sigma, entropy_bits) where v_min is
    the least value, at the first index that holds it, sigma is the
    population standard deviation of the values (1.0 when the spread is
    below 1e-12) and the probabilities are proportional to
    exp(-scale * (v - v_min) / sigma).  Sigma is taken from v - v_min,
    not from v, so a constant offset added to the values cannot round
    the mean and move the encoding.  With e the scaled exponent and
    Z the weight sum, the entropy is (ln Z + sum(p * e)) / ln 2; with
    entropy=False it is not taken, and entropy_bits is None.

    A value that is not finite, or a spread that overflows float64,
    makes sigma NaN or infinite, and raises InvalidInputError before the
    exponents are taken; nothing warns on the way.  A finite sigma makes
    every exponent ne finite and <= 0, and the argmin's -0.0, so every
    weight lies in [0, 1], the argmin's is 1, and Z lies in [1, N]: every
    probability lies in [0, 1] and they sum to 1 within pairwise
    rounding, and no pass over the probabilities needs to check them.

    The vector is worked through in slices of BLOCK_STATES entries (at
    least _PAIRWISE_LEAF) with one scratch block, so nothing of the
    vector's size is allocated.  Once v_min is known the values are not
    read again, so each pass leaves in the vector what the next one
    reads:
      1. the argmin;
      2. d = v - v_min over each slice, and sum(d), which gives the mean;
      3. sum((d - mean)^2), in the scratch block, which gives sigma;
      4. ne = (d * scale) / (-sigma) over each slice, and Z = sum(exp(ne))
         with the weights in the scratch block; without the entropy,
         the weights written over the slice;
      5. p = exp(ne) / Z in the scratch block, ne * p over the slice and
         its sum, then p copied over the slice; without the entropy,
         the weights divided by Z.
    IEEE rounding is symmetric in sign, so x / -sigma == -(x / sigma)
    and ne * p == -(e * p) exactly, and a sum of negated terms is the
    negated sum: the weights are exp(-e) and sum(p * e) is minus the
    sum of pass 5, bit for bit (a zero's sign aside, which ln Z + 0
    does not see).  Each sum is combined by _pairwise_sum and sigma
    keeps np.std's order of operations, so every output equals the
    dense formulas bit for bit.
    """
    v = values
    n = v.size
    argmin_index = int(np.argmin(v))
    v_min = float(v[argmin_index])
    scale = float(scale)
    scratch = np.empty(min(n, _sum_piece()))

    def subtract_min(lo, hi):
        d = v[lo:hi]
        d -= v_min
        return d.sum()

    def squared_deviations(lo, hi):
        dev = np.subtract(v[lo:hi], mean, out=scratch[: hi - lo])
        dev *= dev
        return dev.sum()

    def weights(lo, hi):
        ne = v[lo:hi]
        if scale != 1.0:  # x * 1.0 == x for every double
            ne *= scale
        ne /= -sigma
        return np.exp(ne, out=scratch[: hi - lo] if entropy else ne).sum()

    def normalize(lo, hi):
        ne = v[lo:hi]
        p = np.exp(ne, out=scratch[: hi - lo])
        p /= z
        ne *= p
        total = ne.sum()
        ne[:] = p
        return total

    # a sum that overflows, or inf - inf, shows in sigma
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _pairwise_sum(subtract_min, 0, n) / n
        sigma = math.sqrt(_pairwise_sum(squared_deviations, 0, n) / n)
    if not math.isfinite(sigma):
        raise InvalidInputError(
            "the values' spread overflows float64, or a value is not finite"
        )
    if sigma < 1e-12:
        sigma = 1.0
    z = _pairwise_sum(weights, 0, n)
    if not entropy:
        v /= z
        return argmin_index, v_min, sigma, None
    mean_exponent = -_pairwise_sum(normalize, 0, n)
    entropy_bits = max((math.log(z) + float(mean_exponent)) / math.log(2.0), 0.0)
    return argmin_index, v_min, sigma, entropy_bits


# linear_quantile brackets its ranks with every QUANTILE_STRIDE-th entry;
# the stride is odd, so the sample walks through every column of a
# power-of-two lattice (a stride of 256 saw 4 columns of a 1024 x 1024
# one, and its bracket missed).
QUANTILE_STRIDE = 251


def _rank_bracket(p, i, j):
    """(first, run): once partitioned, run holds the order statistics of
    p of ranks i <= j at positions i - first and j - first.

    A sorted strided sample gives two values lo <= hi around the ranks.
    One pass counts, per block, the entries below lo and those up to lo,
    and copies only those in (lo, hi].  The entries equal to lo are
    counted, not copied: of the ranks i to j, those that fall among them
    are lo, and at most two such copies of lo go ahead of the copied
    entries, so when lo == hi nothing is copied at all.  When the counts
    show the range misses a rank, the sample misled, and the run is a
    copy of all of p, with first = 0.
    """
    n = p.size
    sample = np.sort(p[::QUANTILE_STRIDE])
    at = i * sample.size // n
    gap = 2 * math.isqrt(sample.size) + 1
    lo = sample[max(at - gap, 0)]
    hi = sample[min(at + gap, sample.size - 1)]
    below, through, inside, parts = 0, 0, 0, []
    for start in range(0, n, BLOCK_STATES):
        block = p[start:start + BLOCK_STATES]
        below += np.count_nonzero(block < lo)
        upto = block <= lo
        through += np.count_nonzero(upto)
        keep = block <= hi
        keep ^= upto
        parts.append(block[keep])
        inside += parts[-1].size
    if not below <= i or not j < through + inside:
        return 0, p.copy()
    # the ranks from below to through - 1 hold lo
    first = min(i, through)
    return first, np.concatenate([np.full(min(through, j + 1) - first, lo)] + parts)


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
    around the ranks, one pass counts the entries below it and at its low
    end and extracts those above that end, and only that run is
    partitioned (_rank_bracket).  NumPy's _lerp then interpolates between
    the two.
    """
    virtual, i, j = _quantile_ranks(p.size, q)
    first, run = _rank_bracket(p, i, j)
    run.partition((i - first, j - first))
    return _lerp(run[i - first], run[j - first], virtual - i)


def padded_quantile(positive, zeros, q):
    """linear_quantile of a vector of ``zeros`` zeros and the ascending
    positive entries ``positive``, bit for bit, without building that
    vector: a rank below ``zeros`` is a zero, and the rest index
    ``positive``."""
    virtual, i, j = _quantile_ranks(zeros + positive.size, q)
    a = positive[i - zeros] if i >= zeros else 0.0
    b = positive[j - zeros] if j >= zeros else 0.0
    return _lerp(a, b, virtual - i)
