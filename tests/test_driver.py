"""Full adaptive-search driver."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from qags import driver, kernels
from qags.classical import AgsConfig, run_ags
from qags.contraction import TerminationPolicy, Verdict
from qags.driver import IterationRecord, QagsConfig, RunReport, run, trace_boxes
from qags.errors import InvalidInputError
from qags.grid import GridSpec, SearchBox, decode
from qags.objectives import ObjectiveFunction, get_objective, make_sphere
from qags.quantum import EncodingLaw
from qags.refine import RefinerConfig


def sphere_run(dim=2, qubits=5, lo=-5.0, hi=5.0, **cfg_kwargs):
    obj = make_sphere(dim)
    box = SearchBox.cube(dim, lo, hi)
    report = run(obj, box, QagsConfig(qubits_per_dim=qubits, **cfg_kwargs))
    return obj, report


class TestRun:
    def test_sphere_converges(self):
        _, report = sphere_run()
        assert report.found_value < 1e-12
        assert report.abs_error < 1e-12
        assert np.all(np.abs(report.found_point) < 1e-5)

    def test_report_fields(self):
        obj, report = sphere_run()
        assert report.method == "qags"
        assert report.function_name == "sphere"
        assert report.dimension == 2
        assert report.grid_points_per_iteration == 1024
        assert report.peak_model_bytes == 1024 * 16
        assert report.total_f_evals == obj.eval_count
        assert 1 <= len(report.iterations) <= 10

    def test_found_value_matches_found_point(self):
        _, report = sphere_run()
        fresh = make_sphere(2)
        assert fresh.evaluate(report.found_point) == pytest.approx(
            report.found_value, rel=1e-12, abs=1e-30
        )

    def test_verdict_sequence(self):
        _, report = sphere_run()
        *body, last = [rec.verdict for rec in report.iterations]
        assert all(v is Verdict.CONTINUE for v in body)
        assert last is not Verdict.CONTINUE

    def test_boxes_nested(self):
        _, report = sphere_run()
        for rec in report.iterations:
            assert rec.bounds_before.contains_box(rec.bounds_after)

    def test_found_point_inside_initial_bounds(self):
        _, report = sphere_run()
        assert SearchBox.cube(2, -5.0, 5.0).contains(report.found_point)

    def test_best_value_non_increasing(self):
        _, report = sphere_run(dim=2, qubits=4)
        bests = [rec.best_value_so_far for rec in report.iterations]
        assert all(b1 >= b2 for b1, b2 in zip(bests, bests[1:]))

    def test_max_iterations_bound(self):
        _, report = sphere_run(termination=TerminationPolicy(k_max=3))
        assert len(report.iterations) == 3
        assert report.iterations[-1].verdict is Verdict.MAX_ITERATIONS

    def test_single_iteration(self):
        _, report = sphere_run(termination=TerminationPolicy(k_max=1))
        assert len(report.iterations) == 1

    def test_width_floor_on_tiny_box(self):
        _, report = sphere_run(lo=0.0, hi=1e-8)
        assert report.iterations[-1].verdict is Verdict.WIDTH_FLOOR

    def test_concentrated_needle(self):
        # one grid point far below a flat background: probability
        # collapses onto the needle (entropy ~ 0) while the quantile
        # threshold keeps the flat states, so the contracted box stays
        # wide and the entropy check fires before the width floor
        box = SearchBox.cube(1, 0.0, 1.0)
        spec = GridSpec(1, 10, box)
        target = decode(spec, 500)[0]
        step = float(spec.step[0])

        def batch(X):
            return np.where(np.abs(X[:, 0] - target) < step / 2, 0.0, 1.0)

        needle = ObjectiveFunction(
            name="needle",
            arity=1,
            fn=lambda x: float(batch(np.asarray(x)[None, :])[0]),
            batch_fn=batch,
            kernel_kind=None,
        )
        report = run(
            needle,
            box,
            QagsConfig(qubits_per_dim=10, termination=TerminationPolicy(k_max=50)),
        )
        assert report.iterations[0].verdict is Verdict.CONCENTRATED
        assert len(report.iterations) == 1

    def test_amplitude_law_runs(self):
        _, report = sphere_run(law=EncodingLaw.BOLTZMANN_AMPLITUDE)
        assert report.found_value < 1e-10

    def test_shots_deterministic_at_seed(self):
        _, a = sphere_run(shots=4096, seed=11)
        _, b = sphere_run(shots=4096, seed=11)
        assert a.to_json() == b.to_json()

    def test_exact_readout_deterministic(self):
        _, a = sphere_run()
        _, b = sphere_run()
        assert a.to_json() == b.to_json()

    def test_arity_mismatch(self):
        with pytest.raises(InvalidInputError):
            run(make_sphere(3), SearchBox.cube(2, 0.0, 1.0), QagsConfig(qubits_per_dim=2))

    def test_abs_error_none_without_known_minimum(self):
        anonymous = ObjectiveFunction(
            name="anon",
            arity=1,
            fn=lambda x: float(x[0]) ** 2,
            batch_fn=lambda X: X[:, 0] ** 2,
            kernel_kind=None,
        )
        report = run(anonymous, SearchBox.cube(1, -1.0, 1.0), QagsConfig(qubits_per_dim=3))
        assert report.abs_error is None


class TestMemoryGuard:
    """run refuses a register whose 16 B per state exceed physical memory.
    The memory reading is patched, and the lattice evaluation with it, so
    these tests allocate nothing even if the guard failed."""

    @pytest.fixture
    def no_lattice(self, monkeypatch):
        def unreachable(*_):
            raise AssertionError("the guard must stop run before the lattice")

        monkeypatch.setattr(driver, "grid_values", unreachable)

    def test_physical_memory_is_read(self):
        assert driver.physical_memory_bytes() > 0

    def test_d10_q3_needs_17_gb(self, monkeypatch, no_lattice):
        monkeypatch.setattr(driver, "physical_memory_bytes", lambda: 8 << 30)
        obj = make_sphere(10)
        with pytest.raises(InvalidInputError, match="1073741824-state register"):
            run(obj, SearchBox.cube(10, -5.0, 5.0), QagsConfig(qubits_per_dim=3))
        assert obj.eval_count == 0

    def test_limit_is_sixteen_bytes_per_state(self, monkeypatch):
        # 2^10 states: 16,384 bytes fit in exactly that much memory
        monkeypatch.setattr(driver, "physical_memory_bytes", lambda: 1024 * 16)
        _, report = sphere_run(qubits=5)
        assert report.peak_model_bytes == 1024 * 16
        monkeypatch.setattr(driver, "physical_memory_bytes", lambda: 1024 * 16 - 1)
        monkeypatch.setattr(driver, "grid_values", None)
        with pytest.raises(InvalidInputError, match="16384 bytes"):
            sphere_run(qubits=5)

    def test_draw_counts_beside_the_register(self, monkeypatch, no_lattice):
        # 2^10 states and 10^11 shots: 16,384 bytes of register and 24 B
        # per shot of the draw's uniforms, indices and run starts
        monkeypatch.setattr(driver, "physical_memory_bytes", lambda: 1 << 30)
        obj = make_sphere(2)
        with pytest.raises(InvalidInputError, match="100000000000-shot draw needs 2400000016384 bytes"):
            run(obj, SearchBox.cube(2, -5.0, 5.0), QagsConfig(qubits_per_dim=5, shots=10**11))
        assert obj.eval_count == 0

    def test_limit_counts_the_draw_to_the_byte(self, monkeypatch):
        needed = 1024 * 16 + 100 * driver.DRAW_BYTES_PER_SHOT
        monkeypatch.setattr(driver, "physical_memory_bytes", lambda: needed)
        _, report = sphere_run(qubits=5, shots=100)
        assert report.peak_model_bytes == 1024 * 16  # the model is the register's alone
        monkeypatch.setattr(driver, "physical_memory_bytes", lambda: needed - 1)
        monkeypatch.setattr(driver, "grid_values", None)
        with pytest.raises(InvalidInputError, match=f"{needed} bytes"):
            sphere_run(qubits=5, shots=100)


class TestQagsConfig:
    def test_defaults(self):
        cfg = QagsConfig(qubits_per_dim=4)
        assert cfg.quantile == 0.75
        assert cfg.law is EncodingLaw.BOLTZMANN_PROBABILITY
        assert cfg.shots == 0
        assert cfg.seed == 0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            QagsConfig(qubits_per_dim=0)
        with pytest.raises(InvalidInputError):
            QagsConfig(qubits_per_dim=2, quantile=1.0)
        with pytest.raises(InvalidInputError):
            QagsConfig(qubits_per_dim=2, shots=-5)

    @pytest.mark.parametrize("shots", [2.5, 1.0, "3", None, -1])
    def test_rejects_shots_that_are_not_a_non_negative_int(self, shots):
        with pytest.raises(InvalidInputError, match="shots"):
            QagsConfig(qubits_per_dim=2, shots=shots)

    @pytest.mark.parametrize("qubits", [2.5, 2.0, "3", None, 0])
    def test_rejects_qubits_that_are_not_a_positive_int(self, qubits):
        with pytest.raises(InvalidInputError, match="qubits_per_dim"):
            QagsConfig(qubits_per_dim=qubits)

    def test_accepts_numpy_ints(self):
        cfg = QagsConfig(qubits_per_dim=np.int64(3), shots=np.int32(8))
        assert (cfg.qubits_per_dim, cfg.shots) == (3, 8)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 2.5, "3", None])
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            QagsConfig(qubits_per_dim=2, shots=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 5, np.int64(7), 2**70])
    def test_accepts_non_negative_int_seeds(self, seed):
        assert QagsConfig(qubits_per_dim=2, shots=10, seed=seed).seed == seed


class TestReportSerialization:
    def test_round_trips_through_json(self):
        _, report = sphere_run(qubits=3)
        data = json.loads(report.to_json())
        assert data["method"] == "qags"
        assert data["function"] == "sphere"
        assert data["dimension"] == 2
        assert len(data["iterations"]) == len(report.iterations)
        first = data["iterations"][0]
        assert first["k"] == 1
        assert first["bounds_before"] == [[-5.0, 5.0], [-5.0, 5.0]]
        assert first["verdict"] in {v.value for v in Verdict}
        assert isinstance(data["found_point"], list)

    def test_trace_boxes_shape(self):
        _, report = sphere_run(qubits=3)
        boxes = trace_boxes(report)
        assert len(boxes) == len(report.iterations) + 1
        assert boxes[0] == report.iterations[0].bounds_before
        for rec, traced in zip(report.iterations, boxes[1:]):
            assert traced == rec.bounds_after


class TestReportDigests:
    # SHA-256 of run(...).to_json(): the found points, the boxes and each
    # iteration's selected_count and entropy_fraction, which move if the
    # encoding's probabilities or entropy change by one bit.  Keyed by
    # (objective, d, qubits per axis, shots, law)
    REPORT_DIGESTS = {
        ("sphere", 2, 10, 0, "boltzmann-prob"):
            "91f350ac3b661ad07e18c33a1ea18eceafde6f6e845ad9fcc1b8ebf23d877e5e",
        ("sphere", 2, 10, 4096, "boltzmann-prob"):
            "a87a682907ee77b24802eb0cebc8f08df83037cb3cad909be57021d9d518f706",
        ("rastrigin", 5, 4, 0, "boltzmann-amp"):
            "ca1f40a541b757074f687330813772967435787d04544f6ae1e87759e00f641b",
        ("styblinski_tang", 3, 6, 0, "boltzmann-prob"):
            "8476bd0a1ddde71ac504731e1fb0926061e00d59ac9eecc2da83359de10ff0aa",
        ("rosenbrock", 4, 4, 0, "boltzmann-prob"):
            "571331d0bed341680fe234704c3b4312ed2fd8e22a7547aa945d59db6475daff",
        # a threshold bracket of one value, counted, and at 4096 shots an
        # encoding without the entropy
        ("sphere", 10, 2, 0, "boltzmann-prob"):
            "ae095fb3cbb3194e8459dd48825ff8ebe5e4d8ef020afe5817d4bf2d57c066f0",
        ("sphere", 10, 2, 4096, "boltzmann-prob"):
            "198fb1901338ae456cfd6a10e337b8e006fcea1c4d2122034cf05961fbd08f6f",
    }

    @pytest.mark.parametrize("name,d,qubits,shots,law", sorted(REPORT_DIGESTS))
    def test_reports_keep_their_digests(self, name, d, qubits, shots, law):
        # the boxes of test_classical.py's digests: compare's for the
        # sphere, an asymmetric one for the rest
        if name == "sphere":
            box = SearchBox.cube(d, -5.0, 5.0)
        else:
            i = np.arange(d)
            box = SearchBox(-4.1 + 0.3 * i, 5.3 - 0.45 * i)
        cfg = QagsConfig(qubits_per_dim=qubits, shots=shots, law=EncodingLaw(law))
        f = get_objective(name, d)
        report = run(f, box, cfg)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == self.REPORT_DIGESTS[name, d, qubits, shots, law]
        # each record's lattice value is f at its point, bit for bit: the
        # kernel and the objective add the same per-axis terms in one order
        for rec in report.iterations:
            value = f.evaluate(rec.best_point_so_far)
            assert np.float64(value).tobytes() == np.float64(rec.best_value_so_far).tobytes()


def test_one_wide_axis_peaks_at_the_modelled_bytes_per_state():
    # qags at d = 1, q = 20: one axis of 2^20 points, wider than a
    # lattice block.  A run holds one 8 B/state vector, in which the
    # values become the probabilities, plus block-sized buffers: it
    # measures 10.6 B/state (the lattice fill's buffers), against the
    # 16 B of the register model (QUANTUM_BYTES_PER_STATE).
    states = 1 << 20
    cfg = QagsConfig(qubits_per_dim=20, termination=TerminationPolicy(k_max=1))
    tracemalloc.start()
    try:
        run(make_sphere(1), SearchBox.cube(1, -5.0, 5.0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * states < peak < 11 * states


@pytest.mark.parametrize("shots", [0, 4096])
def test_a_run_reuses_one_lattice_vector(monkeypatch, shots):
    # sphere d = 2, q = 10: ten iterations on 2^20 states.  The first
    # iteration makes the vector; every later one fills, encodes,
    # selects and draws inside it, so the run peaks under 12 B/state
    # where two vectors would take 16
    states = 1 << 20
    outs = []

    def spy(f, spec, out=None):
        outs.append(out)
        return grid_values(f, spec, out=out)

    grid_values = driver.grid_values
    monkeypatch.setattr(driver, "grid_values", spy)
    cfg = QagsConfig(qubits_per_dim=10, shots=shots, seed=2)
    tracemalloc.start()
    try:
        report = run(make_sphere(2), SearchBox.cube(2, -5.0, 5.0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.iterations) == 10
    assert outs[0] is None
    assert all(out is not None and out is outs[1] for out in outs[1:])
    assert outs[1].shape == (states,)
    assert peak < 12 * states


@pytest.mark.parametrize("block", [1, 3, 5, 16, 127])
@pytest.mark.parametrize("name,d,q,shots", [
    ("sphere", 3, 3, 0), ("rastrigin", 2, 4, 0), ("rosenbrock", 3, 3, 0),
    ("styblinski_tang", 2, 5, 64),
])
def test_tiny_block_size_keeps_a_qags_report(monkeypatch, name, d, q, shots, block):
    # the whole run with BLOCK_STATES patched below the 128 entries that
    # the encoding's pairwise sums take in one piece: the same report bits
    i = np.arange(d)
    box = SearchBox(-4.1 + 0.3 * i, 5.3 - 0.45 * i)
    cfg = QagsConfig(qubits_per_dim=q, shots=shots, seed=3)
    report = run(get_objective(name, d), box, cfg)
    monkeypatch.setattr(kernels, "BLOCK_STATES", block)
    patched = run(get_objective(name, d), box, cfg)
    assert patched.to_json() == report.to_json()
    assert patched.total_f_evals == report.total_f_evals


class TestBatchOnlyBlocks:
    """A batch-only objective is evaluated on coordinate blocks of at most
    BLOCK_STATES coordinates.  The size of those blocks changes neither
    method's report, and it bounds the memory of a batch function that
    makes temporaries of its block's size."""

    @staticmethod
    def ellipsoid(d, seen=None):
        # the rotated ellipsoid: a seeded orthogonal rotation, so the
        # batch function is two matrix products over its block
        rng = np.random.default_rng([1, d])
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        rotation = q * np.sign(np.diag(r))[None, :]
        centre = rng.uniform(-2.0, 2.0, d)
        weights = 10.0 ** (3.0 * np.arange(d) / (d - 1))

        def batch(pts):
            if seen is not None:
                seen.append(len(pts))
            z = (pts - centre[None, :]) @ rotation.T
            return (z * z) @ weights

        return ObjectiveFunction(
            name="ellipsoid", arity=d, fn=lambda x: float(batch(x[None, :])[0]), batch_fn=batch
        )

    def reports(self, monkeypatch, block):
        """qags and run_ags on the d = 3 ellipsoid, with the lattice
        streams' block size patched to block (None: the default), and
        the most rows of a batch in qags' lattice fills.  qags gets the
        size for its fills only, so its other blocks keep the default
        size (test_tiny_block_size_keeps_a_qags_report patches whole
        runs)."""
        grid_values = driver.grid_values
        block = block or kernels.BLOCK_STATES

        def fill(f, spec, out=None):
            first = len(seen)
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "BLOCK_STATES", block)
                values = grid_values(f, spec, out=out)
            fills.append(max(seen[first:]))
            return values

        box = SearchBox.cube(3, -5.0, 5.0)
        seen, fills = [], []
        with monkeypatch.context() as patch:
            patch.setattr(driver, "grid_values", fill)
            obj = self.ellipsoid(3, seen)
            qags = run(obj, box, QagsConfig(qubits_per_dim=3))
            qags_evals = obj.eval_count
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "BLOCK_STATES", block)
            obj = self.ellipsoid(3)
            ags = run_ags(obj, box, AgsConfig(points_per_dim=9, budget_points=9**3))
            ags_evals = obj.eval_count
        return (
            [qags.to_dict(), qags.total_f_evals, qags_evals, ags.to_dict(), ags.total_f_evals, ags_evals],
            max(fills),
        )

    def test_block_size_does_not_change_the_bits(self, monkeypatch):
        # 7 gives batches of 2 rows of 3 coordinates, 1000 of 256 rows
        # and the default the whole 512-state lattice.  A single-row
        # matrix product rounds differently from a many-row one in
        # NumPy's BLAS, so the smallest blocks here hold two rows.
        ref, rows = self.reports(monkeypatch, None)
        assert rows == 512
        for block, rows in [(7, 2), (1000, 256)]:
            got, lattice_rows = self.reports(monkeypatch, block)
            assert lattice_rows == rows
            assert json.dumps(got) == json.dumps(ref), block

    def test_batch_only_run_peaks_near_its_vector(self):
        # d = 5, q = 4: 2^20 states in blocks of 8,192 rows of 5
        # coordinates (320 KB); the run's vector takes 8 MB.  Blocks of
        # 2^16 rows peaked at 19.4 MB here.
        cfg = QagsConfig(qubits_per_dim=4)
        tracemalloc.start()
        try:
            run(self.ellipsoid(5), SearchBox.cube(5, -5.0, 5.0), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20 + 2_000_000
