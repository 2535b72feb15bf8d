"""The NumPy lattice and encoding kernels against direct formulas, and
the streamed lattice blocks against the full arrays."""

import math
import tracemalloc

import numpy as np
import pytest

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
    axes = [kernels._axis_coordinates(lower[i], upper[i], m) for i in range(d)]
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


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
@pytest.mark.parametrize("kind,name", KINDS)
def test_lattice_value_blocks_join_to_lattice_values(monkeypatch, kind, name, m, block):
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    for d in _block_dims(block, m):
        if kind == kernels.KIND_ROSENBROCK and d < 2:
            continue
        lo, hi, shift = _lattice_case(d, m, 13 * d + m)
        if d > 2:
            hi[1] = lo[1]  # degenerate axis
        ref = kernels.lattice_values(kind, lo, hi, m, shift)
        got, _ = _joined(kernels.lattice_value_blocks(kind, lo, hi, m, shift), block)
        assert np.array_equal(got, ref), (d, m)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_lattice_value_blocks_span_several_blocks():
    lo, hi, shift = _lattice_case(4, 32, 5)
    blocks = list(kernels.lattice_value_blocks(kernels.KIND_ROSENBROCK, lo, hi, 32, shift))
    assert len(blocks) == 16
    assert all(len(v) == kernels.BLOCK_STATES == 1 << 16 for _, v in blocks)


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


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
def test_coordinate_blocks_equal_meshgrid_lattice(monkeypatch, m, block):
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    for d in _block_dims(block, m):
        lo, hi, shift = _lattice_case(d, m, 7 * d + m)
        axes = kernels.lattice_axes(lo, hi, m)
        got, starts = _joined(kernels.coordinate_blocks(axes), block)
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
    axes = [spec.axis_coordinates(i) for i in range(d)]
    got, _ = _joined(kernels.coordinate_blocks(axes), block)
    assert np.array_equal(got, decode_many(spec, np.arange(spec.total_points)))


def test_one_axis_table():
    from qags.grid import GridSpec, SearchBox

    lo, hi, _ = _lattice_case(3, 16, 2)
    spec = GridSpec(3, 4, SearchBox(lo, hi))
    for i, xs in enumerate(kernels.lattice_axes(lo, hi, 16)):
        assert np.array_equal(xs, spec.axis_coordinates(i))
        assert xs[0] == lo[i] and xs[-1] == hi[i]


@pytest.mark.parametrize("k,m", [(3, 5), (600, 2), (5000, 8), (5000, 9), (40, 64)])
def test_outer_sum_equals_add_outer(k, m):
    rng = np.random.default_rng(k + m)
    left = rng.normal(0.0, 1e3, k)
    right = rng.normal(0.0, 1e-3, m)
    assert np.array_equal(kernels._outer_sum(left, right), np.add.outer(left, right).reshape(-1))
