"""Simulated quantum measurement distribution over a qubit grid.

Both methods evaluate their lattices through one stream, which picks
the lattice kernel or the objective's batch function, gives each block
with its least and greatest value, and by those refuses a value that is
not finite, naming the first such state in flat order: the qags driver
fills its value vector from its flat runs (``grid_values``), and the
classical baseline reduces over its blocks in the kernel's
digit-reversed layout (``lattice_blocks``).  A qags run holds one
vector of 8 B per state: ``kernels.boltzmann`` encodes the values into
probabilities in place, and a finite-shot draw writes its cdf over
them (``draw_in_place``).
The encoding, the selection and the hull add only buffers of a block,
of a bracket of distinct values or of the draw, so a 10-iteration run
on a 2^20-state lattice peaks under
``tracemalloc`` at 8.6 to 9.4 B per state (d = 10, q = 2; d = 2,
q = 10; rastrigin d = 5, q = 4; exact readout or 4,096 shots; a
batch-only rotated ellipsoid at d = 5, q = 4), against the register
model's 16 B.  The driver reads that vector itself and builds no
distribution, so every ``QuantumDistribution`` passes its
constructor's check and none is a view of a vector that changes.
``distribution_from_values`` encodes a copy of its input, and ``draw``
and ``sample`` draw from a copy, so none of them changes what it is
given.

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
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EvaluationError, InvalidInputError, _check_integer
from .grid import GridSpec, decode_many  # noqa: F401  (re-exported)


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


def lattice_blocks(objective, box, points_per_dim):
    """Objective values over the lattice of m = points_per_dim points per
    axis of ``box``, as a stream of (start, block, low, high) over
    contiguous flat-index blocks, for a consumer that reads each block in
    any order: of at most 81,920 states in the lattice kernel's
    digit-reversed layout, or flat runs of at most 2^16 coordinates
    (2^16 / d states, rounded down to a power of two) from the
    objective's batch function.  low and high are the block's least and
    greatest value, bit for bit.

    A block is a C-ordered array of shape (m,) * T + (K,) whose entry
    [j_{d-1}, ..., j_{d-T}, k] is the value at flat index
    start + k * m**T + sum_i j_i * m**(d-1-i); a flat run is the T = 0
    case, and kernels.block_flat_indices decodes every block (see
    kernels.lattice_value_blocks).

    Uses the lattice kernel when the objective advertises one (no point
    coordinates are materialized, and low and high of the separable
    kinds come from the term tables' extremes without a pass over the
    block); otherwise evaluates each block of kernels.coordinate_blocks
    on the objective's internal path, as evaluate_batch would less its
    input check (lattice coordinates are finite by construction), so no
    full (m^d, d) matrix ever exists and an override of evaluate_batch
    is not called, and reads low and high off each run.  Either way the
    objective's evaluation counter advances by m^d, and a value that is
    not finite raises EvaluationError at the first such state in flat
    order, naming its lattice point.
    """
    return _evaluated(objective, box, points_per_dim, kernels.lattice_value_blocks)


def _batch_blocks(objective, box, m):
    """Flat runs of the objective's batch function on the coordinate
    blocks, counted and of checked shape, as (start, run, low, high)."""
    for start, coords in kernels.coordinate_blocks(box.lower, box.upper, m):
        values = objective._batch_values(coords)
        del coords  # freed before the stream builds the next one
        yield kernels.block_extremes(start, values)
        del values


def _evaluated(objective, box, m, kernel_stream):
    """The one place that picks the lattice kernel or the batch function,
    and refuses a value that is not finite: a block, given as (start,
    block, low, high), whose low or high then is not finite."""
    if objective.kernel_kind is None:
        blocks = _batch_blocks(objective, box, m)
    else:
        objective.count_evaluations(m**box.dimension)
        blocks = kernel_stream(objective.kernel_kind, box.lower, box.upper, m, objective.shift)
    for start, block, low, high in blocks:
        if not (math.isfinite(low) and math.isfinite(high)):
            bad = np.flatnonzero(~np.isfinite(block))
            flats = kernels.block_flat_indices(start, block.shape, bad)
            first = int(np.argmin(flats))
            raise EvaluationError(
                f"{objective.name} returned {block.flat[bad[first]]} on the grid",
                point=kernels.lattice_points(box.lower, box.upper, m, flats[first])[0],
            )
        yield start, block, low, high
        del block


def grid_values(objective, spec, out=None):
    """Objective values over every grid point, in flat-index order,
    filled from flat runs into ``out`` (a float64 vector of 2^(n*d)
    entries, new when None), which is returned; on success the
    evaluation counter advances by 2^(n*d).  The runs are the lattice
    kernel's of at most 2^16 states (kernels.lattice_value_runs), or
    those of the batch function that ``lattice_blocks`` gives, and a value
    that is not finite raises as there, before the runs after it are
    evaluated."""
    if objective.arity != spec.dimension:
        raise InvalidInputError("objective arity does not match grid dimension")
    values = np.empty(spec.total_points) if out is None else out
    runs = _evaluated(objective, spec.bounds, spec.points_per_dim, kernels.lattice_value_runs)
    for start, run, _, _ in runs:
        values[start:start + run.size] = run
        del run  # freed before the stream builds the next one
    return values


def distribution_from_values(spec, values, law=EncodingLaw.BOLTZMANN_PROBABILITY):
    """Boltzmann-encode a precomputed value vector (flat-index order) of
    2^(n*d) entries.  A copy is encoded (kernels.boltzmann), so the
    caller's vector is not changed, and the distribution owns it."""
    probs = np.array(values, dtype=np.float64)
    if probs.shape != (spec.total_points,):
        raise InvalidInputError("value vector must hold 2^(n*d) entries")
    index, _, sigma, bits = kernels.boltzmann(probs, law.exponent_scale)
    return QuantumDistribution(spec, probs, index, sigma, bits)


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


# draw_in_place frees each per-shot buffer once it is spent, so it holds
# at most three 8 B entries per shot: the drawn indices beside the
# uniforms, then beside the run starts and their differences, and at the
# end the support, the run starts and the counts.  The memory guard of
# driver.run counts them beside the register.
DRAW_BYTES_PER_SHOT = 24


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


def draw_in_place(probabilities, shots, seed):
    """``shots`` >= 1 inverse-CDF draws from the float64 vector
    ``probabilities``, as (support, counts): the distinct drawn states
    in ascending order and how many draws landed on each.  The vector
    is overwritten by its running sum, the cdf.

    Sorted uniforms scaled to the cdf's total are looked up in the cdf,
    so the counts follow the multinomial law in O(N + shots log N),
    without one binomial per basis state.
    """
    if shots < 1:
        raise InvalidInputError("a draw needs at least one shot")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(probabilities, out=probabilities)
    u = rng.random(shots)
    u.sort()
    u *= cdf[-1]
    idx = _cdf_indices(cdf, u)
    del u  # spent: see DRAW_BYTES_PER_SHOT
    # idx is sorted: each run of equal indices is one drawn state
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    support = idx[starts]
    del idx
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = shots - starts[-1]
    return support, counts


def draw(dist, shots, seed):
    """draw_in_place on a copy of dist's probabilities."""
    _check_integer("shots", shots, 0)
    _check_integer("seed", seed, 0)
    return draw_in_place(dist.probabilities.copy(), shots, seed)


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
    input distribution is returned unchanged.  A shots or seed that is
    not a non-negative integer raises InvalidInputError, as in draw.
    """
    _check_integer("shots", shots, 0)
    _check_integer("seed", seed, 0)
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
