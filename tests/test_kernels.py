"""Backend dispatch and compiled-vs-fallback parity."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qags import _kernels_py, kernels

try:
    from qags import _kernels as _native
except ImportError:
    _native = None

needs_native = pytest.mark.skipif(_native is None, reason="compiled kernel not built")

KINDS = [
    (kernels.KIND_SPHERE, "sphere"),
    (kernels.KIND_RASTRIGIN, "rastrigin"),
    (kernels.KIND_STYBLINSKI_TANG, "styblinski_tang"),
    (kernels.KIND_ROSENBROCK, "rosenbrock"),
]


def test_backend_reported():
    assert kernels.active_backend() in ("native", "python")


def test_wrapper_matches_fallback():
    lo = np.array([-2.0, -1.0])
    hi = np.array([3.0, 4.0])
    got = kernels.lattice_values(kernels.KIND_SPHERE, lo, hi, 8)
    ref = _kernels_py.lattice_values(kernels.KIND_SPHERE, lo, hi, 8, np.zeros(2))
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def _broadcast_reference(kind, lower, upper, m, shift):
    """The per-element accumulation 0 + t_0 + t_1 + ... done as d
    broadcast passes over the full lattice."""
    d = lower.size
    total = np.zeros((m,) * d)
    for i in range(d):
        xs = _kernels_py._axis_coordinates(lower[i], upper[i], m)
        shape = [1] * d
        shape[i] = m
        total += _kernels_py._axis_terms(kind, xs, shift[i]).reshape(shape)
    return total.reshape(-1)


@pytest.mark.parametrize("kind,name", KINDS[:3])
@pytest.mark.parametrize("d", range(1, 11))
def test_lattice_values_equal_broadcast_reference(kind, name, d):
    m = max(2, min(33, round(2e4 ** (1.0 / d))))
    rng = np.random.default_rng(31 * d + kind)
    lo = rng.uniform(-10.0, -0.5, d)
    hi = rng.uniform(0.5, 10.0, d)
    shift = rng.uniform(-2.0, 2.0, d)
    if d > 1:
        hi[d // 2] = lo[d // 2]  # degenerate axis
    got = _kernels_py.lattice_values(kind, lo, hi, m, shift)
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
    probs, argmin_index, sigma, entropy = _kernels_py.boltzmann(values, scale)

    dev = values - values.mean()
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


@needs_native
@pytest.mark.parametrize("kind,name", KINDS)
@pytest.mark.parametrize("d,m", [(1, 9), (2, 32), (3, 16), (5, 6), (8, 3)])
def test_lattice_parity(kind, name, d, m):
    if kind == kernels.KIND_ROSENBROCK and d < 2:
        pytest.skip("rosenbrock needs two dimensions")
    rng = np.random.default_rng(d * 100 + m)
    lo = rng.uniform(-10.0, -0.5, d)
    hi = rng.uniform(0.5, 10.0, d)
    shift = rng.uniform(-2.0, 2.0, d)
    a = _native.lattice_values(kind, lo, hi, m, shift)
    b = _kernels_py.lattice_values(kind, lo, hi, m, shift)
    assert a.shape == b.shape == (m**d,)
    assert np.allclose(a, b, rtol=5e-13, atol=1e-13)


@needs_native
def test_lattice_degenerate_axis_parity():
    lo = np.array([1.0, -3.0])
    hi = np.array([1.0, 2.0])
    a = _native.lattice_values(kernels.KIND_RASTRIGIN, lo, hi, 4, np.zeros(2))
    b = _kernels_py.lattice_values(kernels.KIND_RASTRIGIN, lo, hi, 4, np.zeros(2))
    assert np.allclose(a, b, rtol=1e-13)


@needs_native
def test_boltzmann_parity():
    rng = np.random.default_rng(17)
    for size in (2, 13, 1024):
        values = rng.normal(50.0, 20.0, size)
        pa, ia, sa, ea = _native.boltzmann(values, 1.0)
        pb, ib, sb, eb = _kernels_py.boltzmann(values, 1.0)
        assert ia == ib
        assert sa == pytest.approx(sb, rel=1e-12)
        assert np.allclose(pa, pb, rtol=1e-12, atol=1e-15)
        assert ea == pytest.approx(eb, rel=1e-9, abs=1e-12)


@needs_native
def test_boltzmann_constant_values_parity():
    values = np.full(64, 7.0)
    pa, ia, sa, _ = _native.boltzmann(values, 2.0)
    pb, ib, sb, _ = _kernels_py.boltzmann(values, 2.0)
    assert ia == ib == 0
    assert sa == sb == 1.0
    assert np.allclose(pa, pb)
    assert np.allclose(pa, 1.0 / 64)


@needs_native
def test_boltzmann_tie_break_parity():
    values = np.array([3.0, 1.0, 1.0, 2.0])
    _, ia, _, _ = _native.boltzmann(values, 1.0)
    _, ib, _, _ = _kernels_py.boltzmann(values, 1.0)
    assert ia == ib == 1


def _run_with_backend(backend, snippet):
    env = dict(os.environ, QAGS_BACKEND=backend)
    return subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
    )


_REPORT_SNIPPET = """
import json
import qags
rep = qags.run(
    qags.get_objective("rastrigin", 2),
    qags.SearchBox.cube(2, -5.12, 5.12),
    qags.QagsConfig(qubits_per_dim=4),
)
print(json.dumps({"backend": qags.active_backend(), "value": rep.found_value,
                  "point": [float(v) for v in rep.found_point],
                  "evals": rep.total_f_evals}))
"""


def test_forced_python_backend():
    proc = _run_with_backend("python", _REPORT_SNIPPET)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["backend"] == "python"


@needs_native
def test_driver_results_agree_across_backends():
    results = {}
    for backend in ("python", "native"):
        proc = _run_with_backend(backend, _REPORT_SNIPPET)
        assert proc.returncode == 0, proc.stderr
        results[backend] = json.loads(proc.stdout)
    assert results["python"]["backend"] == "python"
    assert results["native"]["backend"] == "native"
    assert results["native"]["value"] == pytest.approx(
        results["python"]["value"], rel=1e-9, abs=1e-12
    )
    assert results["native"]["point"] == pytest.approx(
        results["python"]["point"], rel=1e-6, abs=1e-9
    )
    assert results["native"]["evals"] == results["python"]["evals"]


def test_invalid_backend_rejected():
    proc = _run_with_backend("fortran", "import qags")
    assert proc.returncode != 0
    assert "QAGS_BACKEND" in proc.stderr


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
    limit = block or _kernels_py.BLOCK_STATES
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
        monkeypatch.setattr(_kernels_py, "BLOCK_STATES", block)
    for d in _block_dims(block, m):
        if kind == kernels.KIND_ROSENBROCK and d < 2:
            continue
        lo, hi, shift = _lattice_case(d, m, 13 * d + m)
        if d > 2:
            hi[1] = lo[1]  # degenerate axis
        ref = _kernels_py.lattice_values(kind, lo, hi, m, shift)
        got, _ = _joined(_kernels_py.lattice_value_blocks(kind, lo, hi, m, shift), block)
        assert np.array_equal(got, ref), (d, m)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_lattice_value_blocks_span_several_blocks():
    lo, hi, shift = _lattice_case(4, 32, 5)
    blocks = list(kernels.lattice_value_blocks(kernels.KIND_ROSENBROCK, lo, hi, 32, shift))
    assert len(blocks) == 16
    assert all(len(v) == _kernels_py.BLOCK_STATES == 1 << 16 for _, v in blocks)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m", BLOCK_MS)
def test_coordinate_blocks_equal_meshgrid_lattice(monkeypatch, m, block):
    if block is not None:
        monkeypatch.setattr(_kernels_py, "BLOCK_STATES", block)
    for d in _block_dims(block, m):
        lo, hi, shift = _lattice_case(d, m, 7 * d + m)
        axes = kernels.lattice_axes(lo, hi, m)
        got, starts = _joined(kernels.coordinate_blocks(axes), block)
        ref = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        assert np.array_equal(got, ref), (d, m)
        # the same ranges as the value blocks
        value_starts = [s for s, _ in _kernels_py.lattice_value_blocks(0, lo, hi, m, shift)]
        assert starts == value_starts


@pytest.mark.parametrize("block", [None, 100, 3])
@pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3), (5, 2), (2, 9)])
def test_coordinate_blocks_equal_decode_many(monkeypatch, d, n, block):
    from qags.grid import GridSpec, SearchBox, decode_many

    if block is not None:
        monkeypatch.setattr(_kernels_py, "BLOCK_STATES", block)
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
    assert np.array_equal(_kernels_py._outer_sum(left, right), np.add.outer(left, right).reshape(-1))
