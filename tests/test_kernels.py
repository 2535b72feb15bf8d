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
            term = kernels._axis_terms(kind, axes[i], shift[i])
        elif i > 0:
            shape[i - 1] = m
            term = kernels._rosenbrock_pair(axes[i - 1][:, None], axes[i][None, :])
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
    }


@pytest.mark.parametrize("case", list(_boltzmann_inputs()))
def test_boltzmann_matches_direct_formulas(case):
    values, scale = _boltzmann_inputs()[case]
    probs, argmin_index, sigma, entropy = kernels.boltzmann(values, scale)

    shifted = values - values.min()
    dev = shifted - shifted.mean()
    sigma_ref = float(np.sqrt(np.mean(dev * dev)))
    if sigma_ref < 1e-12:
        sigma_ref = 1.0
    weights = np.exp(-(values - values.min()) * scale / sigma_ref)
    assert argmin_index == int(np.argmin(values))
    assert sigma == sigma_ref
    assert np.array_equal(probs, weights / weights.sum())

    pos = probs[probs > 0.0]
    entropy_ref = max(-math.fsum(pos * np.log2(pos)), 0.0)
    assert entropy == pytest.approx(entropy_ref, rel=1e-12, abs=0.0)
    if "underflow" in case:
        assert pos.size < probs.size


@pytest.mark.parametrize("block", [None, 1000, 129])
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
    assert max(pieces) <= kernels.BLOCK_STATES


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
        probs = kernels.boltzmann(values, 1.0)[0]
        got = kernels.linear_quantile(probs, q)
        assert np.float64(got).tobytes() == np.quantile(probs, q).tobytes(), (d, m)


def test_linear_quantile_partitions_everything_when_the_sample_misleads():
    # every sampled entry is larger than every other one, so the bracket
    # lies above both ranks and the counts show it
    rng = np.random.default_rng(3)
    p = rng.random(1 << 18) * 0.5
    p[:: kernels.QUANTILE_STRIDE] = 1.0 + rng.random(p[:: kernels.QUANTILE_STRIDE].size)
    i = int((p.size - 1) * 0.75)
    below, run = kernels._rank_bracket(p, i, i + 1)
    assert below == 0 and run.size == p.size
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


def _flat(blocks, m=None):
    """Value blocks in flat order.  Entry [j, r] of a C-ordered (c, R)
    block is flat index start + r * c + j; c is 1 for a flat run and m
    for a block with its last axis major (m given)."""
    for start, block in blocks:
        assert block.ndim == 2 and block.flags.c_contiguous
        assert block.shape[0] in (1, m)
        yield start, block.T.ravel()


def _joined(blocks, block):
    """Concatenate (start, array) blocks, checking they tile the lattice
    in order and none exceeds the block size."""
    limit = block or kernels.BLOCK_STATES
    parts, starts, at = [], [], 0
    for start, arr in blocks:
        starts.append(start)
        assert start == at
        assert 0 < len(arr) <= limit
        at += len(arr)
        parts.append(arr)
    return np.concatenate(parts), starts


def _check_blocks_join(monkeypatch, kind, m, block, major):
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    for d in _block_dims(block, m):
        if kind == kernels.KIND_ROSENBROCK and d < 2:
            continue
        lo, hi, shift = _lattice_case(d, m, 13 * d + m)
        if d > 2:
            hi[1] = lo[1]  # degenerate axis
        ref = kernels.lattice_values(kind, lo, hi, m, shift)
        blocks = list(kernels.lattice_value_blocks(kind, lo, hi, m, shift, major))
        got, _ = _joined(_flat(blocks, m), block)
        assert got.tobytes() == ref.tobytes(), (d, m)
        # the last axis goes major where a block holds whole runs of it
        # under another trailing axis, and only when asked for
        whole_runs = d > 1 and m * m <= kernels.BLOCK_STATES
        assert {v.shape[0] for _, v in blocks} == {m if major and whole_runs else 1}, (d, m)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
@pytest.mark.parametrize("kind,name", KINDS)
def test_lattice_value_blocks_join_to_lattice_values(monkeypatch, kind, name, m, block):
    _check_blocks_join(monkeypatch, kind, m, block, major=False)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
@pytest.mark.parametrize("kind,name", KINDS)
def test_last_axis_major_blocks_join_to_lattice_values(monkeypatch, kind, name, m, block):
    _check_blocks_join(monkeypatch, kind, m, block, major=True)


def test_lattice_value_blocks_span_several_blocks():
    lo, hi, shift = _lattice_case(4, 32, 5)
    blocks = list(kernels.lattice_value_blocks(kernels.KIND_ROSENBROCK, lo, hi, 32, shift))
    assert len(blocks) == 16
    assert all(v.shape == (1, kernels.BLOCK_STATES) == (1, 1 << 16) for _, v in blocks)


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
        row += kernels._rosenbrock_pair(axes[0][k], axes[1])
    else:
        row += kernels._axis_terms(kind, axes[0][k:k + 1], shift[0])
        row += kernels._axis_terms(kind, axes[1], shift[1])
    return row


@pytest.mark.parametrize("m", [(1 << 16) + 1, 1 << 17])
@pytest.mark.parametrize("kind,name", KINDS)
def test_axis_wider_than_a_block_is_split_across_blocks(kind, name, m):
    # one axis holds more points than a block: the stream splits the last
    # axis into runs of at most BLOCK_STATES points under each prefix
    lo, hi, shift = _lattice_case(2, m, m + kind)
    if kind != kernels.KIND_ROSENBROCK:
        ref = kernels.lattice_values(kind, lo[:1], hi[:1], m, shift[:1])
        blocks = kernels.lattice_value_blocks(kind, lo[:1], hi[:1], m, shift[:1])
        got, starts = _joined(_flat(blocks), None)
        assert got.tobytes() == ref.tobytes()
        assert starts == list(range(0, m, kernels.BLOCK_STATES))
        coords, _ = _joined(kernels.coordinate_blocks(lo[:1], hi[:1], m), None)
        assert coords[:, 0].tobytes() == kernels.lattice_axes(lo[:1], hi[:1], m)[0].tobytes()
    # d = 2 has m^2 states: check the blocks of the first two rows
    per_row = -(-m // kernels.BLOCK_STATES)
    blocks = kernels.lattice_value_blocks(kind, lo, hi, m, shift, last_axis_major=True)
    got, starts = _joined(_flat(itertools.islice(blocks, 2 * per_row)), None)
    ref = np.concatenate([_row_reference(kind, lo, hi, m, shift, k) for k in (0, 1)])
    assert got.tobytes() == ref.tobytes()
    assert starts == [k * m + j for k in (0, 1) for j in range(0, m, kernels.BLOCK_STATES)]
    coords, _ = _joined(itertools.islice(kernels.coordinate_blocks(lo, hi, m), 2 * per_row), None)
    axes = kernels.lattice_axes(lo, hi, m)
    assert coords.tobytes() == np.stack(
        [np.repeat(axes[0][:2], m), np.tile(axes[1], 2)], axis=1
    ).tobytes()


def test_axis_wider_than_a_block_streams_in_block_sized_memory():
    # 2^22 points on one axis, whose table alone would take 32 MB: each
    # block's temporaries take 41-56 B per state, and nothing else stays
    m = 1 << 22
    tracemalloc.start()
    try:
        for _ in kernels.lattice_value_blocks(kernels.KIND_SPHERE, [-1.0], [2.0], m):
            pass
        for _ in kernels.coordinate_blocks(np.array([-1.0]), np.array([2.0]), m):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * kernels.BLOCK_STATES


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
def test_coordinate_blocks_equal_meshgrid_lattice(monkeypatch, m, block):
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    for d in _block_dims(block, m):
        lo, hi, shift = _lattice_case(d, m, 7 * d + m)
        axes = kernels.lattice_axes(lo, hi, m)
        got, starts = _joined(kernels.coordinate_blocks(lo, hi, m), block)
        ref = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        assert np.array_equal(got, ref), (d, m)
        # the same ranges as the value blocks
        value_starts = [s for s, _ in kernels.lattice_value_blocks(0, lo, hi, m, shift)]
        assert starts == value_starts


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
