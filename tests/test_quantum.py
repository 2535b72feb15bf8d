"""Measurement-distribution encoding and sampling."""

import numpy as np
import pytest

from qags.errors import EvaluationError, InvalidInputError
from qags import kernels
from qags.grid import GridSpec, SearchBox, decode, decode_many
from qags.objectives import (
    REGISTRY,
    ObjectiveFunction,
    get_objective,
    make_rastrigin,
    make_sphere,
)
from qags.quantum import (
    EncodingLaw,
    QuantumDistribution,
    _cdf_indices,
    build_distribution,
    distribution_from_values,
    entropy_fraction,
    grid_values,
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
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_matches_batch_evaluation(self, name, d, box):
        """The lattice kernel against the objective's own batch formula
        on decoded grid points."""
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
        s = GridSpec(d, 3 if d <= 3 else 2, bounds)
        values = grid_values(get_objective(name, d, shift), s)
        direct = get_objective(name, d, shift).evaluate_batch(
            decode_many(s, np.arange(s.total_points))
        )
        assert np.allclose(values, direct, rtol=1e-12, atol=1e-12)

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


class TestGridValuesBatchBlocks:
    """Objectives without a lattice kernel are evaluated on coordinate
    blocks of at most 2^16 rows."""

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
        assert max(seen) <= 1 << 16
        assert len(seen) == 4
        assert obj.eval_count == sum(seen) == s.total_points

    def test_non_finite_in_later_block_names_its_point(self):
        obj = self.recording(lambda pts: np.where(pts[:, 0] >= 300.0, np.inf, 0.0), [])
        # step 1: coordinates are the integers 0..511; the first bad flat
        # index is 300 * 512, in the third block
        s = GridSpec(2, 9, SearchBox.cube(2, 0.0, 511.0))
        with pytest.raises(EvaluationError) as err:
            grid_values(obj, s)
        assert err.value.point.tolist() == [300.0, 0.0]


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
