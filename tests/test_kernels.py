"""The NumPy lattice and encoding kernels against direct formulas, and
the streamed lattice blocks against the full arrays."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qags import kernels
from qags.errors import InvalidInputError

KINDS = [
    (kernels.KIND_SPHERE, "sphere"),
    (kernels.KIND_RASTRIGIN, "rastrigin"),
    (kernels.KIND_STYBLINSKI_TANG, "styblinski_tang"),
    (kernels.KIND_ROSENBROCK, "rosenbrock"),
]


def _broadcast_reference(kind, lower, upper, m, shift):
    """The per-element accumulation 0 + t_0 + t_1 + ... done as broadcast
    passes over the full lattice: one per axis term, or for Rosenbrock
    one per pair (x_{i-1}, x_i), broadcast over its two axes."""
    d = lower.size
    axes = kernels.lattice_axes(lower, upper, m)
    total = np.zeros((m,) * d)
    for i in range(d):
        shape = [1] * d
        shape[i] = m
        if kind != kernels.KIND_ROSENBROCK:
            term = kernels.axis_terms(kind, axes[i], shift[i])
        elif i > 0:
            shape[i - 1] = m
            term = kernels.rosenbrock_pair(axes[i - 1][:, None], axes[i][None, :])
        else:
            continue
        total += term.reshape(shape)
    return total.reshape(-1)


@pytest.mark.parametrize(
    "d,kind,name",
    [(d, kind, name) for d in range(1, 11) for kind, name in KINDS
     if kind != kernels.KIND_ROSENBROCK or d > 1],  # a rosenbrock pair needs two axes
)
def test_lattice_values_equal_broadcast_reference(d, kind, name):
    m = max(2, min(33, round(2e4 ** (1.0 / d))))
    rng = np.random.default_rng(31 * d + kind)
    lo = rng.uniform(-10.0, -0.5, d)
    hi = rng.uniform(0.5, 10.0, d)
    shift = rng.uniform(-2.0, 2.0, d)
    if d > 1:
        hi[d // 2] = lo[d // 2]  # degenerate axis
    got = kernels.lattice_values(kind, lo, hi, m, shift)
    ref = _broadcast_reference(kind, lo, hi, m, shift)
    assert got.shape == (m**d,)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def _boltzmann_inputs():
    rng = np.random.default_rng(23)
    return {
        "normal": (rng.normal(50.0, 20.0, 4096), 1.0),
        "amplitude law": (rng.normal(-3.0, 0.5, 1000), 2.0),
        "underflow": (rng.normal(0.0, 1.0, 1000), 400.0),  # most weights are 0
        "all but one underflow": (np.r_[np.zeros(1), np.full(15, 1.0)], 2000.0),
        "constant": (np.full(64, 7.0), 1.0),
        "single state": (np.array([3.5]), 1.0),
        "ties": (np.repeat(rng.normal(0.0, 1.0, 8), 16), 1.0),
        # several BLOCK_STATES slices: aligned, and a length whose
        # pairwise split leaves pieces off the block grid
        "2^17 states": (rng.normal(50.0, 20.0, 1 << 17), 1.0),
        "2^20 states": (rng.normal(0.0, 1e3, 1 << 20), 2.0),
        "3 * 2^16 + 5 states": (rng.normal(5.0, 2.0, 3 * (1 << 16) + 5), 1.0),
        "multi-block underflow": (rng.normal(0.0, 1.0, 3 * (1 << 16) + 5), 400.0),
        # v - v_min is exact, but the mean of the values would round
        "1e16 offset": (1e16 + 2.0 * rng.integers(0, 8, 5000), 1.0),
        "signed zeros": (rng.choice([-0.0, 0.0, 1.0], 3000), 1.0),
        "minimum opening a block": (_min_at_split(rng, 0), 1.0),
        "minimum closing a block": (_min_at_split(rng, -1), 2.0),
    }


def _min_at_split(rng, offset):
    """Normal values over two blocks and a few states of the current
    BLOCK_STATES, least on the first entry of boltzmann's second slice
    (offset 0) or the last of its first (offset -1)."""
    n = 2 * kernels.BLOCK_STATES + 7
    values = rng.normal(0.0, 1.0, n)
    split = n // 2 - (n // 2) % 8  # _pairwise_sum's first split, a slice end
    values[split + offset] = values.min() - 1.0
    return values


@pytest.mark.parametrize("case", list(_boltzmann_inputs()))
def test_boltzmann_matches_direct_formulas(case):
    values, scale = _boltzmann_inputs()[case]
    probs = values.copy()  # boltzmann overwrites its input with the probabilities
    argmin_index, v_min, sigma, entropy = kernels.boltzmann(probs, scale)

    shifted = values - values.min()
    dev = shifted - shifted.mean()
    sigma_ref = float(np.sqrt(np.mean(dev * dev)))
    if sigma_ref < 1e-12:
        sigma_ref = 1.0
    weights = np.exp(-(values - values.min()) * scale / sigma_ref)
    assert argmin_index == int(np.argmin(values))
    assert v_min == values[argmin_index]
    assert sigma == sigma_ref
    assert np.array_equal(probs, weights / weights.sum())

    pos = probs[probs > 0.0]
    entropy_ref = max(-math.fsum(pos * np.log2(pos)), 0.0)
    assert entropy == pytest.approx(entropy_ref, rel=1e-12, abs=0.0)
    if "underflow" in case:
        assert pos.size < probs.size


@pytest.mark.parametrize("block", [None, 1000, 129, 3])
@pytest.mark.parametrize("case", list(_boltzmann_inputs()))
def test_boltzmann_entropy_is_the_dense_closed_form(monkeypatch, case, block):
    # bit for bit: boltzmann sums the negated exponents times p and
    # negates the total, which equals sum(e * p) because IEEE rounding
    # is symmetric in sign
    if block:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    values, scale = _boltzmann_inputs()[case]
    _, v_min, _, entropy = kernels.boltzmann(values.copy(), scale)

    shifted = values - v_min
    dev = shifted - shifted.mean()
    sigma = float(np.sqrt(np.mean(dev * dev)))
    if sigma < 1e-12:
        sigma = 1.0
    e = shifted * scale / sigma
    w = np.exp(-e)
    ref = max((math.log(w.sum()) + (e * (w / w.sum())).sum()) / math.log(2.0), 0.0)
    assert np.float64(entropy).tobytes() == np.float64(ref).tobytes()


@pytest.mark.parametrize("block", [None, 1000, 129])
@pytest.mark.parametrize("case", list(_boltzmann_inputs()))
def test_boltzmann_without_entropy_writes_the_same_probabilities(monkeypatch, case, block):
    if block:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    values, scale = _boltzmann_inputs()[case]
    full, alone = values.copy(), values.copy()
    argmin_index, v_min, sigma, _ = kernels.boltzmann(full, scale)
    assert kernels.boltzmann(alone, scale, entropy=False) == (argmin_index, v_min, sigma, None)
    assert alone.tobytes() == full.tobytes()


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("values", [
    [0.0, np.nan, 1.0], [np.inf, 0.0, 1.0], [0.0, -np.inf, 1.0], [np.nan] * 3,
    # spreads whose squared deviations overflow float64
    [0.0, 1e154, 4e154, 9e154], [0.0, 1.7e308], [1.7e308, 1.6e308, 1.7e308, 1.7e308],
])
def test_boltzmann_rejects_values_it_cannot_encode_without_warning(values, scale):
    with pytest.raises(InvalidInputError, match="spread overflows float64"):
        kernels.boltzmann(np.array(values), scale)


def test_boltzmann_allocates_one_scratch_block():
    # every pass writes into the vector or the one scratch block; a
    # block-sized temporary beside it would double the peak
    values = np.random.default_rng(3).normal(0.0, 1.0, 1 << 20)
    tracemalloc.start()
    try:
        kernels.boltzmann(values, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * kernels.BLOCK_STATES * 8


@pytest.mark.parametrize("block", [None, 1000, 129, 3])
@pytest.mark.parametrize("n", [1, 127, 1 << 16, (1 << 16) + 1, 1 << 17, 3 * (1 << 16) + 5,
                               1 << 20, 1_000_003])
def test_add_reduce_is_the_pairwise_tree_of_block_sums(monkeypatch, n, block):
    # boltzmann's sums rest on this NumPy behaviour: np.add.reduce of a
    # contiguous float64 vector equals the sums of its pieces of at most
    # BLOCK_STATES, combined by the pairwise split rule.  If a NumPy
    # release changes how it sums, this fails and so do boltzmann's
    # bit-for-bit tests; its sums must then be rebuilt on the new rule.
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 8, n)
    pieces = []

    def leaf(lo, hi):
        pieces.append(hi - lo)
        return np.add.reduce(x[lo:hi])

    got = kernels._pairwise_sum(leaf, 0, n)
    assert got.tobytes() == np.add.reduce(x).tobytes()
    assert sum(pieces) == n
    # pieces of at most a block, and at least the 128 entries NumPy sums
    # in one piece: a block of 3 splits no run of 15 into an empty half
    assert max(pieces) <= max(kernels.BLOCK_STATES, 128)


# --- quantile threshold -------------------------------------------------------


def _quantile_input(kind, n, rng):
    if kind == "uniform":
        return rng.random(n)
    if kind == "ties":
        return rng.integers(0, 4, n) * 0.25
    if kind == "zero-heavy":
        x = rng.random(n)
        x[rng.random(n) < rng.uniform(0.3, 0.95)] = 0.0
        return x
    if kind == "underflowed weights":  # subnormals and zeros among them
        return np.exp(-rng.uniform(0.0, 800.0, n))
    if kind == "constant":
        return np.full(n, rng.random())
    if kind == "sorted":
        return np.sort(rng.random(n))
    if kind == "reversed":
        return np.sort(rng.random(n))[::-1].copy()
    # lattice-structured: Boltzmann weights of a sphere on a 1024-column
    # lattice, flattened row by row
    j = np.arange(n)
    return np.exp(-(((j % 1024) - 511.5) ** 2 + ((j // 1024) - 60.0) ** 2) * 1e-4)


QUANTILE_KINDS = ["uniform", "ties", "zero-heavy", "underflowed weights", "constant",
                  "sorted", "reversed", "lattice"]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 1 << 18),
    kind=st.sampled_from(QUANTILE_KINDS),
    q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_quantile_is_np_quantile(n, kind, q, seed):
    p = _quantile_input(kind, n, np.random.default_rng(seed))
    got = kernels.linear_quantile(p, q)
    assert np.float64(got).tobytes() == np.quantile(p, q).tobytes()


@pytest.mark.parametrize("q", [0.25, 0.75, 0.9])
@pytest.mark.parametrize("kind,name", KINDS)
def test_linear_quantile_on_lattice_probabilities(kind, name, q):
    for d, m in [(2, 1024), (5, 16), (10, 4), (3, 37)]:
        lo, hi, shift = _lattice_case(d, m, d + m + kind)
        values = kernels.lattice_values(kind, lo, hi, m, shift)
        probs = values.copy()
        kernels.boltzmann(probs, 1.0)
        got = kernels.linear_quantile(probs, q)
        assert np.float64(got).tobytes() == np.quantile(probs, q).tobytes(), (d, m)


def test_linear_quantile_partitions_everything_when_the_sample_misleads():
    # every sampled entry is larger than every other one, so the bracket
    # lies above both ranks and the counts show it
    rng = np.random.default_rng(3)
    p = rng.random(1 << 18) * 0.5
    p[:: kernels.QUANTILE_STRIDE] = 1.0 + rng.random(p[:: kernels.QUANTILE_STRIDE].size)
    i = int((p.size - 1) * 0.75)
    first, run = kernels._rank_bracket(p, i, i + 1)
    assert first == 0 and run.size == p.size
    assert np.float64(kernels.linear_quantile(p, 0.75)).tobytes() == np.quantile(p, 0.75).tobytes()


def _one_value_bracket():
    """2^20 probabilities of which the middle ranks are all one value,
    as sphere d = 10, q = 2's 22 distinct values give: a strided sample
    brackets the quartile ranks with that value at both ends."""
    rng = np.random.default_rng(8)
    p = np.full(1 << 20, 0.25)
    p[rng.choice(p.size, 300_000, replace=False)] = rng.random(300_000)
    return p


@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
def test_one_value_bracket_is_counted_not_copied(q):
    p = _one_value_bracket()
    _, i, j = kernels._quantile_ranks(p.size, q)
    first, run = kernels._rank_bracket(p, i, j)
    assert first == i and run.tolist() == [0.25] * (j - i + 1)
    tracemalloc.start()
    try:
        got = kernels.linear_quantile(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.float64(got).tobytes() == np.quantile(p, q).tobytes()
    # a bracket of the equal entries would copy over 2 MB of them
    assert peak < kernels.BLOCK_STATES * 8


@pytest.mark.parametrize("offset", [-0.01, 0.01, 0.03])
def test_zero_plateau_is_counted_not_copied(offset):
    # a run of zeros, as underflowed weights leave, ends 1% below or 1%
    # or 3% above rank qN: the bracket's low end falls on the zeros
    q = 0.75
    rng = np.random.default_rng(9)
    p = rng.random(1 << 20)
    p[rng.choice(p.size, round((q + offset) * p.size), replace=False)] = 0.0
    p /= p.sum()
    tracemalloc.start()
    try:
        got = kernels.linear_quantile(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.float64(got).tobytes() == np.quantile(p, q).tobytes()
    # copying the zeros inside the bracket took about 12.7 B/state
    assert peak < p.size


def test_one_value_sample_that_misleads_partitions_everything():
    # every sampled entry is one value larger than every other entry
    p = np.random.default_rng(4).random(1 << 18) * 0.5
    p[:: kernels.QUANTILE_STRIDE] = 2.0
    i = int((p.size - 1) * 0.75)
    first, run = kernels._rank_bracket(p, i, i + 1)
    assert first == 0 and run.size == p.size
    assert np.float64(kernels.linear_quantile(p, 0.75)).tobytes() == np.quantile(p, 0.75).tobytes()


# --- streamed lattice blocks --------------------------------------------------

BLOCK_MS = [2, 3, 5, 7, 8, 32]
# the default, a size that divides no lattice here, one smaller than some
# axes, and one smaller than every axis but the shortest
BLOCK_SIZES = [None, 1000, 48, 5, 3]


def _lattice_case(d, m, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, -0.5, d)
    hi = rng.uniform(0.5, 10.0, d)
    shift = rng.uniform(-2.0, 2.0, d)
    return lo, hi, shift


def _block_dims(block, m):
    cap = 1 << 20 if block is None else 5000
    return [d for d in range(1, 11) if m**d <= cap]


def _reversed_limit():
    """The most states of a block of lattice_value_blocks."""
    return kernels.BLOCK_STATES + kernels.BLOCK_STATES // 4


def _flat(blocks, m=None):
    """Value blocks in flat order.  Entry [j_{d-1}, ..., j_{d-T}, k] of a
    C-ordered block of shape (m,) * T + (K,) is flat index
    start + k * m**T + sum_i j_i * m**(d-1-i), so block.T, of shape
    (K,) + (m,) * T, is in flat order; a flat run is T = 0 (m given
    only for blocks of more axes)."""
    for start, block in blocks:
        assert block.ndim >= 1 and block.flags.c_contiguous
        assert all(size == m for size in block.shape[:-1]), block.shape
        yield start, block.T.ravel()


def _assert_extremes(block, low, high):
    """low and high, as a block or run of the lattice streams comes with
    them, are its min() and max(), bit for bit."""
    assert np.float64(low).tobytes() == block.min().tobytes()
    assert np.float64(high).tobytes() == block.max().tobytes()


def _checked(stream):
    """A stream of (start, block, low, high) as (start, block), each
    block's extremes checked."""
    for start, block, low, high in stream:
        _assert_extremes(block, low, high)
        yield start, block


def _checked_value_blocks(*args):
    """lattice_value_blocks as (start, block), each block's extremes
    checked."""
    return _checked(kernels.lattice_value_blocks(*args))


def _checked_value_runs(*args):
    """lattice_value_runs as (start, run), each run's extremes checked."""
    return _checked(kernels.lattice_value_runs(*args))


def _joined(blocks, limit=None):
    """Concatenate (start, array) blocks, checking they tile the lattice
    in order and none exceeds limit (default BLOCK_STATES)."""
    limit = limit or kernels.BLOCK_STATES
    parts, starts, at = [], [], 0
    for start, arr in blocks:
        starts.append(start)
        assert start == at
        assert 0 < len(arr) <= limit
        at += len(arr)
        parts.append(arr)
    return np.concatenate(parts), starts


def _coordinate_rows(d):
    """The row limit of a coordinate block: the largest power of two of
    rows of d coordinates that holds at most BLOCK_STATES of them, and
    one row when d > BLOCK_STATES."""
    rows = 1
    while 2 * rows * d <= kernels.BLOCK_STATES:
        rows *= 2
    return rows


def _check_blocks_join(monkeypatch, kind, m, block, reversed_layout):
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    limit = _reversed_limit() if reversed_layout else kernels.BLOCK_STATES
    for d in _block_dims(block, m):
        if kind == kernels.KIND_ROSENBROCK and d < 2:
            continue
        lo, hi, shift = _lattice_case(d, m, 13 * d + m)
        if d > 2:
            hi[1] = lo[1]  # degenerate axis
        ref = kernels.lattice_values(kind, lo, hi, m, shift)
        if not reversed_layout:
            runs = list(_checked_value_runs(kind, lo, hi, m, shift))
            assert all(run.ndim == 1 for _, run in runs), (d, m)
            got, _ = _joined(_flat(runs), limit)
            assert got.tobytes() == ref.tobytes(), (d, m)
            continue
        blocks = list(_checked_value_blocks(kind, lo, hi, m, shift))
        got, _ = _joined(_flat(blocks, m), limit)
        assert got.tobytes() == ref.tobytes(), (d, m)
        # a block spans the most trailing axes whose states fit in one,
        # or is a run of a last axis wider than a block (T = 0)
        trailing = max(t for t in range(d + 1) if m**t <= limit)
        assert {v.ndim - 1 for _, v in blocks} == {trailing}, (d, m)
        # every entry decodes to the flat index of its value
        for start, v in blocks:
            flats = kernels.block_flat_indices(start, v.shape, np.arange(v.size))
            assert ref[flats].tobytes() == v.tobytes(), (d, m, start)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
@pytest.mark.parametrize("kind,name", KINDS)
def test_lattice_value_blocks_join_to_lattice_values(monkeypatch, kind, name, m, block):
    _check_blocks_join(monkeypatch, kind, m, block, reversed_layout=True)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
@pytest.mark.parametrize("kind,name", KINDS)
def test_lattice_value_runs_join_to_lattice_values(monkeypatch, kind, name, m, block):
    _check_blocks_join(monkeypatch, kind, m, block, reversed_layout=False)


def test_lattice_value_blocks_span_several_blocks():
    lo, hi, shift = _lattice_case(4, 32, 5)
    runs = list(_checked_value_runs(kernels.KIND_ROSENBROCK, lo, hi, 32, shift))
    assert len(runs) == 16
    assert all(v.shape == (kernels.BLOCK_STATES,) == (1 << 16,) for _, v in runs)
    # at most 81,920 states: three trailing axes under two prefixes
    blocks = list(_checked_value_blocks(kernels.KIND_ROSENBROCK, lo, hi, 32, shift))
    assert _reversed_limit() == 81_920
    assert [start for start, _ in blocks] == [k << 16 for k in range(16)]
    assert all(v.shape == (32, 32, 32, 2) for _, v in blocks)


def test_rosenbrock_d2_stream_holds_no_pair_table():
    # At d = 2 the (m, m) pair table is the whole lattice: 72 MB at m = 3000.
    lo, hi = np.full(2, -2.0), np.full(2, 2.0)
    tracemalloc.start()
    try:
        for _ in kernels.lattice_value_blocks(kernels.KIND_ROSENBROCK, lo, hi, 3000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def _row_reference(kind, lo, hi, m, shift, k):
    """Row k of a d = 2 lattice, as _broadcast_reference adds it:
    0 + t_0[k] + t_1, or 0 + pair(x_0[k], x_1) for Rosenbrock."""
    axes = kernels.lattice_axes(lo, hi, m)
    row = np.zeros(m)
    if kind == kernels.KIND_ROSENBROCK:
        row += kernels.rosenbrock_pair(axes[0][k], axes[1])
    else:
        row += kernels.axis_terms(kind, axes[0][k:k + 1], shift[0])
        row += kernels.axis_terms(kind, axes[1], shift[1])
    return row


@pytest.mark.parametrize("m", [(1 << 16) + 1, 1 << 17])
@pytest.mark.parametrize("kind,name", KINDS)
def test_axis_wider_than_a_block_is_split_across_blocks(kind, name, m):
    # one axis holds more points than a block: the stream splits the last
    # axis into runs of at most BLOCK_STATES points under each prefix
    # (the blocks of lattice_value_blocks hold up to 81,920 states, so
    # there m = 65,537 is one (m, 1) block per row and 2^17 is split)
    lo, hi, shift = _lattice_case(2, m, m + kind)
    limits = [kernels.BLOCK_STATES, _reversed_limit()]
    if kind != kernels.KIND_ROSENBROCK:
        ref = kernels.lattice_values(kind, lo[:1], hi[:1], m, shift[:1])
        for stream, limit in zip([_checked_value_runs, _checked_value_blocks], limits):
            blocks = stream(kind, lo[:1], hi[:1], m, shift[:1])
            got, starts = _joined(_flat(blocks, m), limit)
            assert got.tobytes() == ref.tobytes()
            assert starts == list(range(0, m, limit))
        coords, _ = _joined(kernels.coordinate_blocks(lo[:1], hi[:1], m))
        assert coords[:, 0].tobytes() == kernels.lattice_axes(lo[:1], hi[:1], m)[0].tobytes()
    # d = 2 has m^2 states: check the blocks of the first two rows
    ref = np.concatenate([_row_reference(kind, lo, hi, m, shift, k) for k in (0, 1)])
    for stream, limit in zip([_checked_value_runs, _checked_value_blocks], limits):
        per_row = -(-m // limit)
        blocks = itertools.islice(stream(kind, lo, hi, m, shift), 2 * per_row)
        got, starts = _joined(_flat(blocks, m), limit)
        assert got.tobytes() == ref.tobytes()
        assert starts == [k * m + j for k in (0, 1) for j in range(0, m, limit)]
    # coordinate blocks of d = 2 hold at most BLOCK_STATES / 2 rows
    rows = _coordinate_rows(2)
    per_row = -(-m // rows)
    coords, starts = _joined(itertools.islice(kernels.coordinate_blocks(lo, hi, m), 2 * per_row), rows)
    assert starts == [k * m + j for k in (0, 1) for j in range(0, m, rows)]
    axes = kernels.lattice_axes(lo, hi, m)
    assert coords.tobytes() == np.stack(
        [np.repeat(axes[0][:2], m), np.tile(axes[1], 2)], axis=1
    ).tobytes()


@pytest.mark.parametrize("d,q", [(2, 5), (3, 4), (5, 3), (8, 2)])
@pytest.mark.parametrize("kind,name", KINDS)
def test_one_run_lattice_reads_its_extremes_off_the_run(monkeypatch, kind, name, d, q):
    # a lattice of at most 2^16 states, every bench table row's, is one
    # run, whose two reductions cost less than folding 2(d + 1) table
    # extremes; a lattice of several blocks still folds them
    def no_fold(acc, ends):
        raise AssertionError("a one-run lattice folded its table extremes")

    m = 1 << q
    lo, hi, shift = _lattice_case(d, m, 7 * d + kind)
    ref = kernels.lattice_values(kind, lo, hi, m, shift)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_fold", no_fold)
        for stream in [_checked_value_runs, _checked_value_blocks]:
            (start, block), = stream(kind, lo, hi, m, shift)
            assert start == 0
            assert block.T.ravel().tobytes() == ref.tobytes()
    if kind != kernels.KIND_ROSENBROCK:
        with pytest.raises(AssertionError, match="folded"):
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_fold", no_fold)
                several = int(2.0 ** (16 / d)) + 1  # points per axis
                next(kernels.lattice_value_runs(kind, lo, hi, several, shift))


def test_axis_wider_than_a_block_streams_in_block_sized_memory():
    # 2^22 points on one axis, whose table alone would take 32 MB: each
    # block's temporaries take 41-56 B per state, and nothing else stays
    m = 1 << 22
    tracemalloc.start()
    try:
        for _, run, low, high in kernels.lattice_value_runs(kernels.KIND_SPHERE, [-1.0], [2.0], m):
            _assert_extremes(run, low, high)
        for _, block, low, high in kernels.lattice_value_blocks(
            kernels.KIND_SPHERE, [-1.0], [2.0], m
        ):
            _assert_extremes(block, low, high)
        for _ in kernels.coordinate_blocks(np.array([-1.0]), np.array([2.0]), m):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * kernels.BLOCK_STATES


def test_coordinate_blocks_hold_one_block_at_a_time():
    # d = 5, m = 16: blocks of 8,192 rows, 327,680 B each, beside the
    # trailing axes' 98,304 B of coordinates.  The stream drops each
    # block before it builds the next, so a consumer that drops it too
    # peaks at about one block (holding two peaked at 756,437 B)
    d, m = 5, 16
    block_bytes = 8 * d * _coordinate_rows(d)
    assert block_bytes == 327_680
    tracemalloc.start()
    try:
        for _, coords in kernels.coordinate_blocks(np.full(d, -1.0), np.full(d, 2.0), m):
            del coords
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_bytes


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
def test_coordinate_blocks_equal_meshgrid_lattice(monkeypatch, m, block):
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    for d in _block_dims(block, m):
        lo, hi, shift = _lattice_case(d, m, 7 * d + m)
        axes = kernels.lattice_axes(lo, hi, m)
        ref = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        blocks = list(kernels.coordinate_blocks(lo, hi, m))
        got, starts = _joined(blocks, block)  # they tile the lattice in order
        assert got.shape == ref.shape, (d, m)
        for start, coords in blocks:
            # at most BLOCK_STATES coordinates, or one row of more
            if d <= kernels.BLOCK_STATES:
                assert coords.size <= kernels.BLOCK_STATES, (d, m)
            else:
                assert coords.shape == (1, d), (d, m)
            assert coords.tobytes() == ref[start:start + len(coords)].tobytes(), (d, m)
        # the ranges of value runs of at most that many rows
        rows = _coordinate_rows(d)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "BLOCK_STATES", rows)
            value_starts = [s for s, _ in _checked_value_runs(0, lo, hi, m, shift)]
        assert starts == value_starts, (d, m)


@pytest.mark.parametrize("block", [None, 100, 3])
@pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3), (5, 2), (2, 9)])
def test_coordinate_blocks_equal_decode_many(monkeypatch, d, n, block):
    from qags.grid import GridSpec, SearchBox, decode_many

    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    lo, hi, _ = _lattice_case(d, 1 << n, d + n)
    spec = GridSpec(d, n, SearchBox(lo, hi))
    got, _ = _joined(kernels.coordinate_blocks(lo, hi, 1 << n), block)
    assert np.array_equal(got, decode_many(spec, np.arange(spec.total_points)))


def test_one_axis_table():
    from qags.grid import GridSpec, SearchBox

    lo, hi, _ = _lattice_case(3, 16, 2)
    spec = GridSpec(3, 4, SearchBox(lo, hi))
    for i, xs in enumerate(kernels.lattice_axes(lo, hi, 16)):
        assert np.array_equal(xs, spec.axis_coordinates(i))
        assert xs[0] == lo[i] and xs[-1] == hi[i]


def test_lattice_points_reject_indices_outside_the_lattice():
    # base-m digits of an index past the lattice would wrap (or, with no
    # modulo on the leading digit, extrapolate past upper)
    lo, hi, _ = _lattice_case(2, 5, 3)
    assert np.array_equal(kernels.lattice_points(lo, hi, 5, [24])[0], hi)
    for flat in (25, 26, 5 * 24, -1):
        with pytest.raises(IndexError):
            kernels.lattice_points(lo, hi, 5, [0, flat])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 256, 1001])
@pytest.mark.parametrize("q", [0.01, 0.25, 0.5, 0.75, 0.9, 0.999])
def test_padded_quantile_equals_np_quantile_of_the_padded_vector(n, q):
    rng = np.random.default_rng(n)
    for positives in sorted({0, 1, 2, n // 3, n - 2, n - 1, n} & set(range(1, n + 1))):
        values = np.sort(rng.uniform(0.0, 1.0, positives) + 1e-3)
        padded = np.zeros(n)
        padded[rng.choice(n, positives, replace=False)] = values
        got = kernels.padded_quantile(values, n - positives, q)
        assert np.float64(got).tobytes() == np.quantile(padded, q).tobytes(), (positives, q)


@pytest.mark.parametrize("k,m", [(3, 5), (600, 2), (5000, 8), (5000, 9), (40, 64)])
def test_outer_sum_equals_add_outer(k, m):
    rng = np.random.default_rng(k + m)
    left = rng.normal(0.0, 1e3, k)
    right = rng.normal(0.0, 1e-3, m)
    assert np.array_equal(kernels._outer_sum(left, right), np.add.outer(left, right).reshape(-1))
