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
