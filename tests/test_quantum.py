"""Measurement-distribution encoding and sampling."""

import tracemalloc

import numpy as np
import pytest

from qags.classical import AgsConfig, run_ags
from qags.driver import QagsConfig, run
from qags.errors import EvaluationError, InvalidInputError
from qags import kernels, quantum
from qags.grid import GridSpec, SearchBox, decode, decode_many
from qags.objectives import (
    REGISTRY,
    ObjectiveFunction,
    get_objective,
    make_rastrigin,
    make_sphere,
)
from qags.quantum import (
    DRAW_BYTES_PER_SHOT,
    EncodingLaw,
    QuantumDistribution,
    _cdf_indices,
    _check_probabilities,
    build_distribution,
    distribution_from_values,
    draw,
    draw_in_place,
    entropy_fraction,
    grid_values,
    lattice_blocks,
    sample,
)


def spec1(n=1, d=1, lo=0.0, hi=1.0):
    return GridSpec(d, n, SearchBox.cube(d, lo, hi))


def constant_objective(d=1, value=0.0):
    return ObjectiveFunction(
        name="const",
        arity=d,
        fn=lambda x: value,
        batch_fn=lambda X: np.full(len(X), value),
        kernel_kind=None,
    )


class TestEncodingLaw:
    def test_values(self):
        assert EncodingLaw("boltzmann-prob") is EncodingLaw.BOLTZMANN_PROBABILITY
        assert EncodingLaw("boltzmann-amp") is EncodingLaw.BOLTZMANN_AMPLITUDE

    def test_exponent_scale(self):
        assert EncodingLaw.BOLTZMANN_PROBABILITY.exponent_scale == 1.0
        assert EncodingLaw.BOLTZMANN_AMPLITUDE.exponent_scale == 2.0


class TestDistributionFromValues:
    def test_two_point_probability_law(self):
        # values {0, s}: sigma = s/2, so weights are (1, e^-2)
        s = spec1(n=1)
        dist = distribution_from_values(
            s, np.array([0.0, 8.0]), EncodingLaw.BOLTZMANN_PROBABILITY
        )
        assert dist.sigma == 4.0
        assert dist.probabilities == pytest.approx(
            [0.8807970779778823, 0.11920292202211755], abs=1e-15
        )
        assert dist.f_min_index == 0

    def test_two_point_amplitude_law(self):
        # amplitude law doubles the exponent: weights (1, e^-4)
        s = spec1(n=1)
        dist = distribution_from_values(
            s, np.array([0.0, 8.0]), EncodingLaw.BOLTZMANN_AMPLITUDE
        )
        assert dist.probabilities == pytest.approx(
            [0.9820137900379085, 0.017986209962091555], abs=1e-15
        )

    def test_normalization(self):
        s = spec1(n=3)
        rng = np.random.default_rng(1)
        dist = distribution_from_values(
            s, rng.normal(0, 100, 8), EncodingLaw.BOLTZMANN_PROBABILITY
        )
        assert abs(dist.probabilities.sum() - 1.0) <= 1e-12

    def test_argmax_is_argmin(self):
        s = spec1(n=2)
        values = np.array([5.0, -1.0, 3.0, -1.0])  # tie at indices 1 and 3
        dist = distribution_from_values(s, values, EncodingLaw.BOLTZMANN_PROBABILITY)
        assert dist.f_min_index == 1
        assert int(np.argmax(dist.probabilities)) == 1

    def test_constant_values_uniform(self):
        # zero spread trips the sigma fallback and gives a uniform state
        s = spec1(n=2)
        dist = distribution_from_values(
            s, np.zeros(4), EncodingLaw.BOLTZMANN_PROBABILITY
        )
        assert dist.sigma == 1.0
        assert np.allclose(dist.probabilities, 0.25)
        assert dist.entropy_bits == pytest.approx(2.0, abs=1e-12)

    def test_shift_invariance(self):
        s = spec1(n=3)
        rng = np.random.default_rng(2)
        values = rng.normal(0, 10, 8)
        a = distribution_from_values(s, values, EncodingLaw.BOLTZMANN_PROBABILITY)
        b = distribution_from_values(s, values + 123.5, EncodingLaw.BOLTZMANN_PROBABILITY)
        assert np.allclose(a.probabilities, b.probabilities, atol=1e-12)

    def test_length_checked(self):
        with pytest.raises(InvalidInputError):
            distribution_from_values(
                spec1(n=2), np.zeros(3), EncodingLaw.BOLTZMANN_PROBABILITY
            )


class TestInPlaceRoutines:
    """The driver encodes its own vector with kernels.boltzmann; the
    public routines copy their input once and run the same routines on
    the copy."""

    def _values(self, n=12):
        return np.random.default_rng(n).normal(3.0, 2.0, 1 << n)

    @pytest.mark.parametrize("law", list(EncodingLaw))
    def test_boltzmann_writes_the_probabilities_over_the_values(self, law):
        values = self._values()
        ref = distribution_from_values(spec1(n=12), values, law)
        index, f_min, sigma, bits = kernels.boltzmann(values, law.exponent_scale)
        assert values.tobytes() == ref.probabilities.tobytes()
        assert not np.shares_memory(ref.probabilities, values)
        assert f_min == self._values()[index] == self._values().min()
        assert (index, sigma, bits) == (ref.f_min_index, ref.sigma, ref.entropy_bits)

    @pytest.mark.parametrize("n", [12, 17])
    @pytest.mark.parametrize("law", list(EncodingLaw))
    def test_probabilities_alone_are_the_encodings_bits(self, law, n):
        values = self._values(n)
        dist = distribution_from_values(spec1(n=n), values, law)
        index, f_min, sigma, bits = kernels.boltzmann(values, law.exponent_scale, entropy=False)
        assert (index, f_min, sigma, bits) == (
            dist.f_min_index, self._values(n).min(), dist.sigma, None
        )
        assert values.tobytes() == dist.probabilities.tobytes()

    @pytest.mark.parametrize("law", list(EncodingLaw))
    @pytest.mark.parametrize("values", [
        np.random.default_rng(1).normal(3.0, 2.0, 1 << 17),
        np.random.default_rng(2).normal(0.0, 1.0, 1 << 12) * 1e3,  # most weights underflow
        np.r_[np.zeros(1), np.full(1023, 50.0)],
        np.full(64, 1e300),
        np.repeat(np.random.default_rng(3).normal(0.0, 1e150, 16), 64),
    ], ids=["normal", "underflow", "all but one underflow", "constant", "wide ties"])
    def test_encoding_passes_the_full_check(self, law, values):
        # a finite sigma proves the check, so it never fails on an encoding
        probs = values.copy()
        kernels.boltzmann(probs, law.exponent_scale)
        _check_probabilities(probs)

    def test_distribution_from_values_needs_a_vector_of_the_grid(self):
        with pytest.raises(InvalidInputError):
            distribution_from_values(spec1(n=2), np.zeros(3))
        with pytest.raises(InvalidInputError):
            distribution_from_values(spec1(n=2), np.zeros((2, 2)))

    @pytest.mark.parametrize("law", list(EncodingLaw))
    def test_distribution_from_values_checks_its_own_copy_once(self, monkeypatch, law):
        # every distribution passes the constructor's check, and none is
        # a view of the caller's array, which stays writable
        calls = []

        def counted(probs):
            calls.append(probs)
            _check_probabilities(probs)

        monkeypatch.setattr(quantum, "_check_probabilities", counted)
        values = self._values()
        dist = distribution_from_values(spec1(n=12), values, law)
        assert len(calls) == 1 and calls[0] is dist.probabilities
        assert not np.shares_memory(dist.probabilities, values)
        assert values.flags.writeable and not dist.probabilities.flags.writeable
        assert values.tobytes() == self._values().tobytes()

    def test_draw_in_place_writes_the_cdf(self):
        dist = distribution_from_values(spec1(n=12), self._values())
        probs = dist.probabilities.copy()
        support, counts = draw_in_place(probs, 500, 9)
        ref_support, ref_counts = draw(dist, 500, 9)
        assert support.tobytes() == ref_support.tobytes()
        assert counts.tobytes() == ref_counts.tobytes()
        assert probs.tobytes() == np.cumsum(dist.probabilities).tobytes()

    @pytest.mark.parametrize("states", [1 << 10, 1 << 22])
    def test_draw_peaks_at_the_modelled_bytes_per_shot(self, states):
        # few states, so the draws repeat, and more states than shots,
        # so nearly every draw is its own support entry
        probs = np.random.default_rng(5).random(states)
        probs /= probs.sum()
        shots = 1 << 20
        tracemalloc.start()
        try:
            draw_in_place(probs, shots, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DRAW_BYTES_PER_SHOT * shots + 65536

    @pytest.mark.parametrize("law", list(EncodingLaw))
    def test_public_routines_leave_their_inputs_unchanged(self, law):
        values = self._values()
        kept = values.copy()
        dist = distribution_from_values(spec1(n=12), values, law)
        assert values.tobytes() == kept.tobytes()
        probs = dist.probabilities.copy()
        draw(dist, 300, 1)
        sample(dist, 300, 2)
        assert dist.probabilities.tobytes() == probs.tobytes()
        listed = list(kept[:8])
        distribution_from_values(spec1(n=3), listed, law)
        assert listed == list(kept[:8])


# Value vectors the full check rejected after encoding them (a NaN
# probability), and spreads that overflowed into a uniform encoding
# under the probability law, where the amplitude law's doubled exponent
# gave NaN: every one is now refused before its exponents are taken
UNENCODABLE = {
    "nan": [0.0, 1.0, np.nan, 3.0, 4.0, 5.0, 6.0, 7.0],
    "nan at the minimum": [np.nan, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    "plus-inf": [0.0, 1.0, 2.0, np.inf, 4.0, 5.0, 6.0, 7.0],
    "minus-inf": [0.0, 1.0, -np.inf, 3.0, 4.0, 5.0, 6.0, 7.0],
    "all nan": [np.nan] * 8,
    "all plus-inf": [np.inf] * 8,
    "all minus-inf": [-np.inf] * 8,
    "both infinities": [np.inf, -np.inf] * 4,
    "spread of 2e308": [-1e308, 1e308] * 4,
    "sphere on [0, 1.3e154]": list(np.linspace(0.0, 1.3e154, 8) ** 2),
    "spread of 1.7e308": [0.0, 1.7e308] * 4,
    "deviations of 1e307": [1.6e308] + [1.7e308] * 7,
}


class TestUnencodableValues:
    @pytest.mark.parametrize("law", list(EncodingLaw))
    @pytest.mark.parametrize("name", sorted(UNENCODABLE))
    def test_rejected_under_both_laws_without_warning(self, name, law):
        values = np.array(UNENCODABLE[name])
        with pytest.raises(InvalidInputError, match="spread overflows float64"):
            distribution_from_values(spec1(n=3), values, law)
        with pytest.raises(InvalidInputError, match="spread overflows float64"):
            kernels.boltzmann(values.copy(), law.exponent_scale, entropy=False)


class TestQuantumDistributionValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            QuantumDistribution(
                spec=spec1(n=1),
                probabilities=np.array([0.7, 0.7]),
                f_min_index=0,
                sigma=1.0,
                entropy_bits=1.0,
            )

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            QuantumDistribution(
                spec=spec1(n=1),
                probabilities=np.array([1.5, -0.5]),
                f_min_index=0,
                sigma=1.0,
                entropy_bits=1.0,
            )

    # a negative entry: test_rejects_negative
    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    @pytest.mark.parametrize(
        "probs",
        [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [1e308, 1e308], [0.5, 0.5 + 1e-11]],
        ids=["nan", "plus-inf", "minus-inf", "sum-overflows", "sum-off-by-1e-11"],
    )
    def test_rejects_invalid_probabilities(self, probs):
        with pytest.raises(InvalidInputError):
            QuantumDistribution(
                spec=spec1(n=1),
                probabilities=np.array(probs),
                f_min_index=0,
                sigma=1.0,
                entropy_bits=1.0,
            )

    def test_accepts_sum_within_1e_12(self):
        dist = QuantumDistribution(
            spec=spec1(n=1),
            probabilities=np.array([0.5, 0.5 + 5e-13]),
            f_min_index=1,
            sigma=1.0,
            entropy_bits=1.0,
        )
        assert dist.probabilities[1] == 0.5 + 5e-13

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidInputError):
            QuantumDistribution(
                spec=spec1(n=1),
                probabilities=np.array([0.5, 0.5]),
                f_min_index=2,
                sigma=1.0,
                entropy_bits=1.0,
            )


class TestGridValues:
    @pytest.mark.parametrize("box", ["cube", "degenerate axis", "asymmetric"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 10])
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_matches_batch_evaluation(self, name, d, box):
        """The lattice kernel against the objective's own batch formula
        on decoded grid points, bit for bit: both add the same per-axis
        terms left to right."""
        rng = np.random.default_rng([d, list(REGISTRY).index(name)])
        shift = rng.uniform(-2.0, 2.0, d) if name == "sphere" else None
        if box == "cube":
            bounds = SearchBox.cube(d, -5.12, 5.12)
        else:
            lo = rng.uniform(-10.0, -0.5, d)
            hi = rng.uniform(0.5, 10.0, d)
            if box == "degenerate axis":
                hi[d // 2] = lo[d // 2]
            bounds = SearchBox(lo, hi)
        s = GridSpec(d, 3 if d <= 3 else 2 if d <= 5 else 1, bounds)
        values = grid_values(get_objective(name, d, shift), s)
        direct = get_objective(name, d, shift).evaluate_batch(
            decode_many(s, np.arange(s.total_points))
        )
        assert values.tobytes() == direct.tobytes()

    def test_counts_evaluations(self):
        obj = make_sphere(2)
        s = GridSpec(2, 3, SearchBox.cube(2, -1.0, 1.0))
        grid_values(obj, s)
        assert obj.eval_count == s.total_points

    def test_custom_objective_path(self):
        obj = constant_objective(d=2, value=3.0)
        s = GridSpec(2, 2, SearchBox.cube(2, -1.0, 1.0))
        assert np.array_equal(grid_values(obj, s), np.full(16, 3.0))
        assert obj.eval_count == 16

    def test_non_finite_value_raises(self):
        obj = ObjectiveFunction(
            name="inf",
            arity=1,
            fn=lambda x: np.inf,
            batch_fn=lambda X: np.full(len(X), np.inf),
            kernel_kind=None,
        )
        with pytest.raises(EvaluationError):
            grid_values(obj, spec1(n=2))


class TestGridValuesKernelBlocks:
    """Objectives with a lattice kernel are streamed in blocks of at most
    2^16 states; the filled vector is the whole-lattice kernel's."""

    @pytest.mark.parametrize("d,n", [(2, 9), (3, 6), (10, 2)])
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_equals_lattice_values_bit_for_bit(self, name, d, n):
        rng = np.random.default_rng([d, n, list(REGISTRY).index(name)])
        shift = rng.uniform(-2.0, 2.0, d) if name == "sphere" else None
        s = GridSpec(d, n, SearchBox(rng.uniform(-5.0, -0.5, d), rng.uniform(0.5, 5.0, d)))
        assert s.total_points > 1 << 16
        obj = get_objective(name, d, shift)
        values = grid_values(obj, s)
        ref = kernels.lattice_values(
            obj.kernel_kind, s.bounds.lower, s.bounds.upper, s.points_per_dim, obj.shift
        )
        assert values.tobytes() == ref.tobytes()
        assert obj.eval_count == s.total_points

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_in_later_block_names_the_decoded_point(self):
        # x0^2 overflows from x0 > ~1.34e154, about two thirds along axis 0
        s = GridSpec(2, 9, SearchBox(np.array([0.0, 0.0]), np.array([2e154, 1.0])))
        obj = make_sphere(2)
        ref = kernels.lattice_values(
            obj.kernel_kind, s.bounds.lower, s.bounds.upper, s.points_per_dim, obj.shift
        )
        first_bad = int(np.flatnonzero(~np.isfinite(ref))[0])
        assert first_bad >= 2 << 16
        with pytest.raises(EvaluationError) as err:
            grid_values(obj, s)
        assert err.value.point.tobytes() == decode(s, first_bad).tobytes()
        assert err.value.point.tolist() == [s.axis_coordinates(0)[first_bad // 512], 0.0]

    def test_fill_holds_one_block_at_a_time(self):
        # sphere d = 10, q = 2: 2^20 states in 16 blocks of 512 KB.  The
        # fill drops each block before the stream builds the next, so
        # it peaks at about one block beside the given vector (two
        # blocks: 1.19 MB)
        s = GridSpec(10, 2, SearchBox.cube(10, -5.0, 5.0))
        out = np.empty(s.total_points)
        tracemalloc.start()
        try:
            grid_values(make_sphere(10), s, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * kernels.BLOCK_STATES


class TestGridValuesBatchBlocks:
    """Objectives without a lattice kernel are evaluated on coordinate
    blocks of at most 2^16 coordinates: floor(2^16 / d) rows, rounded
    down to a power of two."""

    @staticmethod
    def recording(batch, seen):
        def fn_batch(pts):
            seen.append(len(pts))
            return batch(pts)

        return ObjectiveFunction(
            name="recording", arity=2, fn=lambda x: float(batch(x[None, :])[0]), batch_fn=fn_batch
        )

    def test_equals_one_full_batch(self):
        seen = []
        obj = self.recording(make_rastrigin(2).batch_fn, seen)
        s = GridSpec(2, 9, SearchBox(np.array([-5.12, -3.3]), np.array([4.1, 5.12])))
        values = grid_values(obj, s)
        full = make_rastrigin(2).batch_fn(decode_many(s, np.arange(s.total_points)))
        assert np.array_equal(values, full)
        # d = 2: 2^15 rows of 2 coordinates each, 8 calls over 2^18 states
        assert seen == [1 << 15] * 8
        assert obj.eval_count == sum(seen) == s.total_points

    def test_stream_holds_one_coordinate_block_at_a_time(self):
        # d = 5, m = 16: coordinate blocks of 8,192 rows, 327,680 B each.
        # The stream drops each block, and its values once given, before
        # it builds the next (holding two peaked at 760,092 B)
        obj = ObjectiveFunction(
            name="sum", arity=5, fn=lambda x: float(np.sum(x)), batch_fn=lambda pts: np.sum(pts, axis=1)
        )
        tracemalloc.start()
        try:
            for _, block, _, _ in lattice_blocks(obj, SearchBox.cube(5, -1.0, 2.0), 16):
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 327_680

    def test_non_finite_in_later_block_names_its_point(self):
        obj = self.recording(lambda pts: np.where(pts[:, 0] >= 300.0, np.inf, 0.0), [])
        # step 1: coordinates are the integers 0..511; the first bad flat
        # index is 300 * 512, in the fifth block
        s = GridSpec(2, 9, SearchBox.cube(2, 0.0, 511.0))
        with pytest.raises(EvaluationError) as err:
            grid_values(obj, s)
        assert err.value.point.tolist() == [300.0, 0.0]


class TestStreamRefusesNonFiniteValues:
    """The qags twin of tests/test_classical.py::TestBlockExtremesErrors:
    the stream refuses a run of the fill by the least and greatest value
    it gives with it, names the first non-finite state in flat order, as
    the whole-lattice kernel gives it, raises no NumPy warning on the
    way, and says what run_ags says on the same lattice."""

    D, Q = 4, 4  # m = 16: one run of 65,536 states

    @pytest.mark.parametrize("name", ["sphere", "rastrigin", "styblinski_tang", "rosenbrock"])
    @pytest.mark.parametrize(
        "label,lower,upper",
        [
            # the sphere and rastrigin terms are finite, and only the
            # sums near the upper corner overflow: the maximum alone
            ("maximum", -1e100, 1e154),
            # the terms overflow at both ends of every axis
            ("both", -1e155, 1e155),
        ],
    )
    def test_overflow_names_the_first_non_finite_state(self, name, label, lower, upper):
        values = self._assert_refused(name, self.D, self.Q, lower, upper)
        if (name, label) == ("sphere", "maximum"):
            assert np.isfinite(values.min()) and not np.isfinite(values.max())
            box = SearchBox.cube(self.D, lower, upper)
            for xs in kernels.lattice_axes(box.lower, box.upper, 1 << self.Q):
                assert np.isfinite(xs * xs).all()

    # a lattice of at most 2^16 states is one run, which gives the
    # extremes read off itself: the bench table rows' lattices
    @pytest.mark.parametrize("d,q", [(2, 5), (3, 4), (5, 3), (8, 2)])
    @pytest.mark.parametrize("name", ["sphere", "rastrigin", "styblinski_tang", "rosenbrock"])
    @pytest.mark.parametrize("lower,upper", [(-1e100, 1e154), (-1e155, 1e155)])
    def test_one_run_lattice_is_refused(self, name, d, q, lower, upper):
        assert (1 << q) ** d <= kernels.BLOCK_STATES
        self._assert_refused(name, d, q, lower, upper)

    @staticmethod
    def _assert_refused(name, d, q, lower, upper):
        """grid_values, run and run_ags all raise the error of the first
        non-finite state of the lattice; returns its values."""
        m = 1 << q
        box = SearchBox.cube(d, lower, upper)
        obj = get_objective(name, d)
        with np.errstate(over="ignore", invalid="ignore"):
            values = kernels.lattice_values(obj.kernel_kind, box.lower, box.upper, m, obj.shift)
        first = int(np.flatnonzero(~np.isfinite(values))[0])
        point = kernels.lattice_points(box.lower, box.upper, m, first)[0]
        message = f"{name} returned {values[first]} on the grid"
        for call in [
            lambda: grid_values(obj, GridSpec(d, q, box)),
            lambda: run(obj, box, QagsConfig(qubits_per_dim=q)),
            lambda: run_ags(obj, box, AgsConfig(points_per_dim=m, budget_points=m**d)),
        ]:
            with pytest.raises(EvaluationError) as err:
                call()
            assert err.value.point.tobytes() == point.tobytes()
            assert str(err.value) == message
        return values


class TestEntropy:
    def test_uniform_fraction_is_one(self):
        dist = build_distribution(
            constant_objective(d=2), GridSpec(2, 2, SearchBox.cube(2, 0.0, 1.0)),
            EncodingLaw.BOLTZMANN_PROBABILITY,
        )
        assert entropy_fraction(dist) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_fraction_is_zero(self):
        # one needle among 1023 equal values: the needle's exponent is
        # about -sqrt(N), so everything else carries ~1e-14 probability
        s = spec1(n=10)
        values = np.ones(1024)
        values[0] = 0.0
        dist = distribution_from_values(s, values, EncodingLaw.BOLTZMANN_AMPLITUDE)
        assert entropy_fraction(dist) < 1e-6


class TestSample:
    def _dist(self):
        return build_distribution(
            constant_objective(d=1),
            spec1(n=2),
            EncodingLaw.BOLTZMANN_PROBABILITY,
        )

    def test_zero_shots_identity(self):
        dist = self._dist()
        assert sample(dist, 0, seed=3) is dist

    def test_negative_shots_rejected(self):
        with pytest.raises(InvalidInputError):
            sample(self._dist(), -1, seed=0)

    @pytest.mark.parametrize("routine", [sample, draw])
    @pytest.mark.parametrize("shots,seed,name", [
        (2.5, 0, "shots"), (4.0, 0, "shots"), ("4", 0, "shots"), (None, 0, "shots"),
        (-1, 0, "shots"), (4, 2.5, "seed"), (4, 1.0, "seed"), (4, None, "seed"),
        (4, -1, "seed"), (0, -1, "seed"), (0, 0.5, "seed"),
    ])
    def test_rejects_shots_and_seeds_that_are_not_non_negative_ints(self, routine, shots,
                                                                    seed, name):
        # QagsConfig's messages, before NumPy sees the value
        with pytest.raises(InvalidInputError, match=f"^{name} must be a non-negative integer$"):
            routine(self._dist(), shots, seed)

    def test_accepts_numpy_ints(self):
        a = sample(self._dist(), np.int64(500), np.uint32(3))
        b = sample(self._dist(), 500, 3)
        assert a.probabilities.tobytes() == b.probabilities.tobytes()

    def test_empirical_normalized(self):
        emp = sample(self._dist(), 1000, seed=0)
        assert abs(emp.probabilities.sum() - 1.0) <= 1e-12

    def test_deterministic_at_fixed_seed(self):
        a = sample(self._dist(), 5000, seed=42)
        b = sample(self._dist(), 5000, seed=42)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_seed_changes_draw(self):
        a = sample(self._dist(), 5000, seed=0)
        b = sample(self._dist(), 5000, seed=1)
        assert not np.array_equal(a.probabilities, b.probabilities)

    def test_f_min_index_tracks_empirical_mode(self):
        dist = self._dist()
        emp = sample(dist, 1000, seed=7)
        assert emp.f_min_index == int(np.argmax(emp.probabilities))

    def test_sigma_carried_over(self):
        dist = self._dist()
        emp = sample(dist, 100, seed=0)
        assert emp.sigma == dist.sigma


def dist_of(probs):
    probs = np.asarray(probs, dtype=np.float64)
    probs = probs / probs.sum()
    return QuantumDistribution(
        spec=spec1(n=int(np.log2(probs.size))),
        probabilities=probs,
        f_min_index=int(np.argmax(probs)),
        sigma=1.0,
        entropy_bits=1.0,
    )


class TestInverseCdfSampler:
    def test_zero_probability_states_never_drawn(self):
        # interior zeros, and a trailing run of zeros such as underflowed
        # Boltzmann weights leave
        probs = np.zeros(16)
        probs[[1, 4, 6]] = [3e-300, 1e-300, 2e-300]
        dist = dist_of(probs)
        for seed in range(20):
            emp = sample(dist, 5000, seed)
            assert np.flatnonzero(emp.probabilities).tolist() == [1, 4, 6]

    def test_rounded_up_uniform_maps_to_last_positive_state(self):
        cdf = np.cumsum([0.25, 0.0, 0.5, 0.25, 0.0, 0.0])
        idx = _cdf_indices(cdf, np.array([0.0, 0.25, 0.9, cdf[-1], cdf[-1]]))
        assert idx.tolist() == [0, 2, 3, 3, 3]

    def test_lookup_skips_zero_width_intervals(self):
        cdf = np.cumsum([0.0, 0.5, 0.0, 0.5])
        idx = _cdf_indices(cdf, np.array([0.0, 0.4999, 0.5, 0.75]))
        assert idx.tolist() == [1, 1, 3, 3]

    def test_counts_within_five_standard_errors(self):
        probs = np.array(
            [0.0, 1.0, 2.0, 0.0, 4.0, 8.0, 0.5, 0.0, 3.0, 0.25, 6.0, 0.0, 1.5, 2.5, 0.0, 5.0]
        )
        dist = dist_of(probs)
        shots = 10**6
        emp = sample(dist, shots, seed=0)
        p = dist.probabilities
        counts = emp.probabilities * shots
        standard_error = np.sqrt(shots * p * (1.0 - p))
        assert np.all(counts[p == 0.0] == 0.0)
        assert np.all(np.abs(counts - shots * p) <= 5.0 * standard_error)

    def test_tied_counts_keep_lowest_index(self):
        # two shots on a two-state uniform: the draws split 1-1 or fall
        # 2-0 / 0-2; on a split the mode is the lower index
        dist = dist_of([1.0, 1.0])
        splits = 0
        for seed in range(50):
            emp = sample(dist, 2, seed)
            if emp.probabilities[0] == emp.probabilities[1]:
                splits += 1
                assert emp.f_min_index == 0
            else:
                assert emp.f_min_index == int(np.argmax(emp.probabilities))
        assert splits > 0

    def test_entropy_of_the_empirical_frequencies(self):
        emp = sample(dist_of(np.arange(1.0, 17.0)), 3000, seed=4)
        p = emp.probabilities[emp.probabilities > 0.0]
        assert emp.entropy_bits == max(float(-np.sum(p * np.log2(p))), 0.0)


class TestLawEquivalence:
    def test_amplitude_equals_squared_probability(self):
        rng = np.random.default_rng(9)
        values = rng.normal(0, 50, 16)
        s = spec1(n=4)
        prob = distribution_from_values(s, values, EncodingLaw.BOLTZMANN_PROBABILITY)
        amp = distribution_from_values(s, values, EncodingLaw.BOLTZMANN_AMPLITUDE)
        squared = prob.probabilities**2
        squared /= squared.sum()
        assert np.allclose(amp.probabilities, squared, atol=1e-12)
