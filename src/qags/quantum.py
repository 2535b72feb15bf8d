"""Simulated quantum measurement distribution over a qubit grid.

``lattice_blocks`` is the one lattice stream both methods evaluate
through: the qags driver fills its value vector from it
(``grid_values``, which checks each block for finiteness as it lands)
and the classical baseline reduces over it.  An iteration holds 8 B per
state of values and 8 B per state of probabilities at once; the
encoding, the selection and the hull add only buffers of a block or of
the selection, so on a 2^20-state lattice the iteration's
``tracemalloc`` peak is 16.5 B per state at exact readout (four shapes,
d = 1 to 10) and 16.8 B at 4,096 shots.

Objective values over the full grid are encoded as Boltzmann weights
exp(-(f - f_min) / sigma) with sigma the population standard deviation of
the grid values (temperature).  Under the probability law the measurement
distribution is proportional to that weight; under the amplitude law the
weight is loaded into the state amplitudes, so probabilities square it.
Measurement is either exact readout of the distribution or a finite-shot
draw: inverse-CDF sampling of the shots, whose per-state counts are
multinomially distributed.  ``draw`` gives the drawn states and their
counts, and ``sample`` spreads their ``frequencies`` into a distribution
over the grid.  The driver reads a draw off its support instead
(``contraction.select_support``), so at most ``shots`` states of it
exist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EvaluationError, InvalidInputError
from .grid import GridSpec, decode, decode_many  # noqa: F401  (decode_many: re-exported)


class EncodingLaw(enum.Enum):
    """How objective quality maps onto the simulated state.

    BOLTZMANN_PROBABILITY: P(x) proportional to exp(-(f - f_min)/sigma).
    BOLTZMANN_AMPLITUDE:   amplitude proportional to exp(-(f - f_min)/sigma),
                           hence P(x) proportional to exp(-2(f - f_min)/sigma).
    """

    BOLTZMANN_PROBABILITY = "boltzmann-prob"
    BOLTZMANN_AMPLITUDE = "boltzmann-amp"

    @property
    def exponent_scale(self):
        return 2.0 if self is EncodingLaw.BOLTZMANN_AMPLITUDE else 1.0


def _check_probabilities(probs):
    """Raise InvalidInputError unless every entry of probs is finite and
    non-negative and they sum to 1 within 1e-12."""
    # NaN, -inf and negative entries fail the minimum test; +inf, and
    # finite entries whose sum overflows, fail the sum test
    if not float(probs.min()) >= 0.0:
        raise InvalidInputError("probabilities must be finite and non-negative")
    if not abs(float(probs.sum()) - 1.0) <= 1e-12:
        raise InvalidInputError("probabilities must be finite and sum to 1")


@dataclass(frozen=True)
class QuantumDistribution:
    """Measurement probabilities over the basis states of a grid.

    ``f_min_index`` is the flat index of the distribution's maximal entry:
    the grid argmin under exact readout (first index on ties), the
    empirical argmax after finite-shot sampling.  ``sigma`` is the
    temperature used by the encoding; ``entropy_bits`` the Shannon entropy
    of ``probabilities``.
    """

    spec: GridSpec
    probabilities: np.ndarray
    f_min_index: int
    sigma: float
    entropy_bits: float

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size != self.spec.total_points:
            raise InvalidInputError("probability vector length must be 2^(n*d)")
        if not 0 <= self.f_min_index < probs.size:
            raise InvalidInputError("f_min_index out of range")
        _check_probabilities(probs)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "f_min_index", int(self.f_min_index))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "entropy_bits", float(self.entropy_bits))


def lattice_blocks(objective, box, points_per_dim, last_axis_major=False):
    """Objective values over the lattice of m = points_per_dim points per
    axis of ``box``, as a stream of (start, block) over contiguous
    flat-index blocks of at most 2^16 states.

    A block is a (c, R) array whose entry [j, r] is the value at flat
    index start + r * c + j (see kernels.lattice_value_blocks).  It is a
    flat run, c = 1, unless ``last_axis_major`` is asked for and the
    kernel lays the block out with its last axis major; evaluate_batch
    blocks are always flat runs.

    Uses the lattice kernel when the objective advertises one (no point
    coordinates are materialized); otherwise calls evaluate_batch on the
    block's coordinate rows, so no full (m^d, d) matrix ever exists.
    Either way the objective's evaluation counter advances by m^d.  The
    kernel's values are not checked for finiteness here: the consumer
    already passes over them.
    """
    if objective.kernel_kind is not None:
        objective.count_evaluations(points_per_dim**box.dimension)
        yield from kernels.lattice_value_blocks(
            objective.kernel_kind, box.lower, box.upper, points_per_dim, objective.shift,
            last_axis_major,
        )
        return
    for start, coords in kernels.coordinate_blocks(box.lower, box.upper, points_per_dim):
        yield start, objective.evaluate_batch(coords)[None, :]


def grid_values(objective, spec):
    """Objective values over every grid point, in flat-index order,
    filled from the flat runs of ``lattice_blocks``; on success the
    evaluation counter advances by 2^(n*d).  Each block is checked for
    finiteness as it lands, while it is still in cache: a non-finite
    value raises EvaluationError naming the first grid point that gave
    one, and the blocks after it are not evaluated."""
    if objective.arity != spec.dimension:
        raise InvalidInputError("objective arity does not match grid dimension")
    values = np.empty(spec.total_points)
    for start, block in lattice_blocks(objective, spec.bounds, spec.points_per_dim):
        block = block.T.ravel()  # flat order: a flat run is not copied
        values[start:start + block.size] = block
        if not np.isfinite(block).all():
            idx = start + int(np.argmin(np.isfinite(block)))
            raise EvaluationError(
                f"{objective.name} returned {values[idx]} on the grid",
                point=decode(spec, idx),
            )
    return values


def distribution_from_values(spec, values, law=EncodingLaw.BOLTZMANN_PROBABILITY):
    """Boltzmann-encode a precomputed value vector (flat-index order)."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (spec.total_points,):
        raise InvalidInputError("value vector length must be 2^(n*d)")
    probs, argmin_index, sigma, entropy = kernels.boltzmann(v, law.exponent_scale)
    return QuantumDistribution(
        spec=spec,
        probabilities=probs,
        f_min_index=argmin_index,
        sigma=sigma,
        entropy_bits=entropy,
    )


def build_distribution(objective, spec, law=EncodingLaw.BOLTZMANN_PROBABILITY):
    """Evaluate the grid and encode it as a measurement distribution."""
    return distribution_from_values(spec, grid_values(objective, spec), law)


def entropy_bits_of(probs):
    """Shannon entropy in bits; zero entries contribute nothing."""
    p = probs[probs > 0.0]
    h = float(-np.sum(p * np.log2(p)))
    return max(h, 0.0)


def entropy_fraction(dist):
    """Entropy relative to the n*d-bit maximum: 1 uniform, 0 point mass."""
    return dist.entropy_bits / (dist.spec.qubits_per_dim * dist.spec.dimension)


def _cdf_indices(cdf, u):
    """Inverse-CDF lookup: the state whose cdf interval holds each u.

    ``cdf`` is the running sum of the probabilities and each u lies in
    [0, cdf[-1]].  A zero-probability state has an empty interval and is
    never returned.  A u that rounded up to cdf[-1] falls past the last
    interval; it maps to the last state that moves the cdf, not to the
    last state of the grid, which may be a trailing run of zeros.
    """
    idx = np.searchsorted(cdf, u, side="right")
    idx[idx == cdf.size] = np.searchsorted(cdf, cdf[-1], side="left")
    return idx


def draw(dist, shots, seed):
    """``shots`` >= 1 inverse-CDF draws from dist, as (support, counts):
    the distinct drawn states in ascending order and how many draws
    landed on each.

    Sorted uniforms scaled to the cdf's total are looked up in the cdf,
    so the counts follow the multinomial law in O(N + shots log N),
    without one binomial per basis state.
    """
    if shots < 1:
        raise InvalidInputError("a draw needs at least one shot")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(dist.probabilities)
    u = rng.random(shots)
    u.sort()
    u *= cdf[-1]
    idx = _cdf_indices(cdf, u)
    del cdf
    # idx is sorted: each run of equal indices is one drawn state
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    return idx[starts], np.diff(starts, append=shots)


def frequencies(counts):
    """Empirical frequencies of a draw's counts, renormalized so they sum
    to 1 exactly up to round-off, and checked as a distribution's
    probabilities are: they are the nonzero entries of the empirical
    probability vector."""
    freq = counts / float(counts.sum())
    freq /= freq.sum()
    _check_probabilities(freq)
    return freq


def sample(dist, shots, seed):
    """Finite-shot measurement: ``draw`` spread over the grid.

    Returns a new distribution of the empirical ``frequencies`` at the
    drawn states and zero elsewhere; its f_min_index is the empirical
    argmax, lowest index on ties.  shots = 0 means exact readout: the
    input distribution is returned unchanged.
    """
    if shots < 0:
        raise InvalidInputError("shots must be non-negative")
    if shots == 0:
        return dist
    support, counts = draw(dist, shots, seed)
    freq = frequencies(counts)
    emp = np.zeros(dist.probabilities.size)
    emp[support] = freq
    return QuantumDistribution(
        spec=dist.spec,
        probabilities=emp,
        f_min_index=int(support[np.argmax(counts)]),
        sigma=dist.sigma,
        entropy_bits=entropy_bits_of(freq),
    )
