"""End-to-end driver: grid, encode, measure, select, contract, refine.

``search`` is the iteration loop both methods share: it keeps the
records, the best point and the final refinement, asks
``contraction.should_terminate`` for each iteration's verdict, and takes
the method's contraction rule as a step function.  ``run`` is the qags
step; ``classical.run_ags`` is the classical one.

Each qags iteration rebuilds the qubit grid on the contracted bounds (same
qubit count, so resolution rises as the volume shrinks), encodes the
objective into a measurement distribution, selects the high-probability
region, and contracts the bounds around it, all inside one lattice
vector that the run's first iteration makes and every later one reuses:
``grid_values`` fills it, ``kernels.boltzmann`` turns the values into
the probabilities, and at exact readout
``contraction.contract_region`` streams ``select_region`` and
``contract_bounds`` over its blocks.  At shots > 0 the region comes from
the draw's support and frequencies (``quantum.draw_in_place``, which
writes the cdf over the probabilities, and
``contraction.select_support``): the same selection, threshold and
entropy as ``select_region`` on ``sample``'s empirical vector, bit for
bit, without that vector.  No distribution object is built on the
way.  On termination a bounded quasi-Newton refinement polishes the
best grid point seen anywhere in the run, clamped into the final box.

A method whose iteration is a pure function of its box (qags at exact
readout, shots = 0, and the classical baseline) is ``repeatable``: one
iteration that leaves the box unchanged proves every later one would
repeat it bit for bit, so the loop stops there with verdict FIXED_POINT
instead of re-evaluating the same lattice up to k_max.  The width
floor, iteration cap and concentration rules keep precedence.
Finite-shot runs draw with a new seed each iteration and never stop
this way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import kernels
from .contraction import (
    TerminationPolicy,
    Verdict,
    contract_bounds,
    contract_region,
    select_region,  # noqa: F401  (re-exported: contract_region streams it)
    select_support,
    should_terminate,
)
from .errors import InvalidInputError, _check_integer
from .grid import GridSpec, SearchBox, decode
from .quantum import (
    DRAW_BYTES_PER_SHOT,
    EncodingLaw,
    distribution_from_values,  # noqa: F401  (re-exported: the step encodes its own vector)
    draw_in_place,
    entropy_bits_of,
    frequencies,
    grid_values,
    sample,  # noqa: F401  (re-exported: draw is its finite-shot step)
)
from .refine import RefinerConfig, refine

# Model-based accounting: 8-byte amplitudes plus 8-byte probabilities per
# basis state for the quantum model, 8-byte stored values per classical
# grid point.  Pure functions of configuration, identical on any machine.
# ``run`` refuses a register whose model bytes, plus a finite-shot draw's
# DRAW_BYTES_PER_SHOT per shot, exceed physical memory.  The model
# overstates a qags run, which holds one 8 B/state vector (values, then
# probabilities in place) and measures about 9.2 B/state under
# tracemalloc on 2^20 states, so the guard errs on the safe side.
QUANTUM_BYTES_PER_STATE = 16
CLASSICAL_BYTES_PER_POINT = 8


def physical_memory_bytes():
    """This machine's physical memory in bytes, from POSIX sysconf."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class QagsConfig:
    """Driver configuration; seed feeds the per-iteration sampling stream
    (iteration k samples with seed + k - 1) and is unused at shots = 0."""

    qubits_per_dim: int
    quantile: float = 0.75
    law: EncodingLaw = EncodingLaw.BOLTZMANN_PROBABILITY
    shots: int = 0
    seed: int = 0
    termination: TerminationPolicy = field(default_factory=TerminationPolicy)
    refiner: RefinerConfig = field(default_factory=RefinerConfig)

    def __post_init__(self):
        _check_integer("qubits_per_dim", self.qubits_per_dim, 1)
        if not 0.0 < self.quantile < 1.0:
            raise InvalidInputError("quantile must lie strictly inside (0, 1)")
        _check_integer("shots", self.shots, 0)
        _check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class IterationRecord:
    """One contraction step; entropy_fraction is None for runs that have
    no measurement distribution (the classical baseline).  The last
    record's verdict says why the run stopped; every earlier one is
    CONTINUE.  A FIXED_POINT record has bounds_after equal to
    bounds_before."""

    k: int
    bounds_before: SearchBox
    bounds_after: SearchBox
    selected_count: int
    entropy_fraction: Optional[float]
    best_point_so_far: np.ndarray
    best_value_so_far: float
    verdict: Verdict


@dataclass
class RunReport:
    """Aggregate result of one optimization run (either method)."""

    method: str
    function_name: str
    dimension: int
    found_point: np.ndarray
    found_value: float
    abs_error: Optional[float]
    iterations: List[IterationRecord]
    total_f_evals: int
    grid_points_per_iteration: int
    peak_model_bytes: int

    def to_dict(self):
        """JSON-ready dict; boxes as [lower_i, upper_i] pairs."""
        return {
            "method": self.method,
            "function": self.function_name,
            "dimension": self.dimension,
            "found_point": [float(v) for v in self.found_point],
            "found_value": float(self.found_value),
            "abs_error": None if self.abs_error is None else float(self.abs_error),
            "total_f_evals": int(self.total_f_evals),
            "grid_points_per_iteration": int(self.grid_points_per_iteration),
            "peak_model_bytes": int(self.peak_model_bytes),
            "iterations": [
                {
                    "k": rec.k,
                    "bounds_before": rec.bounds_before.as_pairs(),
                    "bounds_after": rec.bounds_after.as_pairs(),
                    "selected_count": rec.selected_count,
                    "entropy_fraction": rec.entropy_fraction,
                    "best_point_so_far": [float(v) for v in rec.best_point_so_far],
                    "best_value_so_far": float(rec.best_value_so_far),
                    "verdict": rec.verdict.value,
                }
                for rec in self.iterations
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def search(
    method, f, initial_bounds, step, policy, repeatable, refiner_cfg, grid_points, bytes_per_point
):
    """The iteration loop both methods share; returns the run's report.

    ``step(box, k)`` evaluates one lattice over ``box`` at iteration k
    and returns (best point, its value, next box, selected_count,
    entropy_fraction).  The loop keeps the best point seen anywhere (the
    earliest on ties) and stops at the first verdict of
    ``should_terminate(box, next box, entropy_fraction, k, policy,
    repeatable)`` other than CONTINUE.  It then refines from the best
    point clamped into the final box, falling back to the raw best
    point if clamping pushed the start somewhere worse.  The
    objective's evaluation counter advances by exactly total_f_evals.
    """
    if f.arity != initial_bounds.dimension:
        raise InvalidInputError("objective arity does not match bounds")
    evals_at_start = f.eval_count
    records = []
    box = initial_bounds
    best_value = np.inf
    best_point = None
    k = 0
    verdict = Verdict.CONTINUE
    while verdict is Verdict.CONTINUE:
        k += 1
        point, value, box_next, selected, entropy = step(box, k)
        verdict = should_terminate(box, box_next, entropy, k, policy, repeatable)
        if value < best_value:
            best_point, best_value = point, value
        records.append(
            IterationRecord(
                k=k,
                bounds_before=box,
                bounds_after=box_next,
                selected_count=selected,
                entropy_fraction=entropy,
                best_point_so_far=best_point.copy(),
                best_value_so_far=best_value,
                verdict=verdict,
            )
        )
        box = box_next
    point, value, _ = refine(f, box, box.clip(best_point), refiner_cfg)
    if best_value < value:
        # The global best grid point fell outside the final box and the
        # clamped start refined to something worse; keep the best point.
        point, value = best_point.copy(), best_value
    abs_error = None
    if f.known_minimum_value is not None:
        abs_error = abs(value - f.known_minimum_value)
    return RunReport(
        method=method,
        function_name=f.name,
        dimension=f.arity,
        found_point=np.asarray(point, dtype=np.float64),
        found_value=float(value),
        abs_error=abs_error,
        iterations=records,
        total_f_evals=f.eval_count - evals_at_start,
        grid_points_per_iteration=grid_points,
        peak_model_bytes=grid_points * bytes_per_point,
    )


def run(f, initial_bounds, cfg):
    """Run the full adaptive search and return its report.

    Deterministic at shots = 0, where the loop also stops at the first
    iteration that leaves the box unchanged (FIXED_POINT); at shots > 0
    determinism holds for a fixed seed.  The objective's evaluation
    counter advances by exactly total_f_evals.  A register of
    2^(n*d) states whose QUANTUM_BYTES_PER_STATE bytes each, with a
    finite-shot draw's DRAW_BYTES_PER_SHOT per shot, exceed physical
    memory raises InvalidInputError before anything is allocated.
    """
    vector = None  # the run's one lattice vector, made by the first iteration

    def step(box, k):
        nonlocal vector
        spec = GridSpec(f.arity, cfg.qubits_per_dim, box)
        vector = grid_values(f, spec, out=vector)
        # the values become the probabilities; the point is the
        # first-index grid argmin.  A draw needs only the probabilities:
        # its entropy comes from its frequencies
        index, value, _, bits = kernels.boltzmann(vector, cfg.law.exponent_scale, cfg.shots == 0)
        if cfg.shots > 0:
            # read the draw off its support: the same selection and
            # entropy as sample's empirical vector, without building it
            support, counts = draw_in_place(vector, cfg.shots, cfg.seed + (k - 1))
            freq = frequencies(counts)
            selection = select_support(support, freq, spec.total_points, cfg.quantile)
            bits = entropy_bits_of(freq)
            box_next, selected = contract_bounds(spec, selection), selection.selected_indices.size
        else:
            box_next, selected = contract_region(spec, vector, index, cfg.quantile)
        entropy = bits / (spec.qubits_per_dim * spec.dimension)
        return decode(spec, index), value, box_next, int(selected), float(entropy)

    grid_points = 1 << (cfg.qubits_per_dim * f.arity)
    needed = grid_points * QUANTUM_BYTES_PER_STATE + cfg.shots * DRAW_BYTES_PER_SHOT
    memory = physical_memory_bytes()
    if needed > memory:
        draw = f" with a {cfg.shots}-shot draw" if cfg.shots else ""
        raise InvalidInputError(
            f"a {grid_points}-state register{draw} needs {needed} bytes, more "
            f"than the {memory} bytes of physical memory"
        )
    return search(
        "qags", f, initial_bounds, step, cfg.termination, cfg.shots == 0,
        cfg.refiner, grid_points, QUANTUM_BYTES_PER_STATE,
    )


def trace_boxes(report):
    """The bounding-box sequence: initial bounds, then each contraction."""
    if not report.iterations:
        return []
    boxes = [report.iterations[0].bounds_before]
    boxes.extend(rec.bounds_after for rec in report.iterations)
    return boxes
