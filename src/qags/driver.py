"""End-to-end driver: grid, encode, measure, select, contract, refine.

Each iteration rebuilds the qubit grid on the contracted bounds (same
qubit count, so resolution rises as the volume shrinks), encodes the
objective into a measurement distribution, selects the high-probability
region, and contracts the bounds around it.  On termination a bounded
quasi-Newton refinement polishes the best grid point seen anywhere in
the run, clamped into the final box.

At exact readout (shots = 0) an iteration is a pure function of its
box, so one that leaves the box unchanged proves every later iteration
would repeat it bit for bit; the loop stops there with verdict
FIXED_POINT instead of re-evaluating the same lattice up to k_max.  The
width floor, iteration cap and concentration rules keep precedence.
Finite-shot runs draw with a new seed each iteration and never stop
this way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .contraction import (
    TerminationPolicy,
    Verdict,
    contract_bounds,
    select_region,
    should_terminate,
)
from .errors import InvalidInputError
from .grid import GridSpec, SearchBox, decode
from .quantum import (
    EncodingLaw,
    distribution_from_values,
    entropy_fraction,
    grid_values,
    sample,
)
from .refine import RefinerConfig, refine

# Model-based accounting: 8-byte amplitudes plus 8-byte probabilities per
# basis state for the quantum model, 8-byte stored values per classical
# grid point.  Pure functions of configuration, identical on any machine.
QUANTUM_BYTES_PER_STATE = 16
CLASSICAL_BYTES_PER_POINT = 8


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
        if self.qubits_per_dim < 1:
            raise InvalidInputError("qubits_per_dim must be >= 1")
        if not 0.0 < self.quantile < 1.0:
            raise InvalidInputError("quantile must lie strictly inside (0, 1)")
        if self.shots < 0:
            raise InvalidInputError("shots must be non-negative")


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


def _finish_report(
    method, objective, best_point, best_value, final_box, refiner_cfg, records,
    total_evals_fn, grid_points, peak_bytes,
):
    """Shared tail of both drivers: refine, fall back to the raw best
    point if clamping pushed the start somewhere worse, build the report."""
    start = final_box.clip(best_point)
    point, value, _ = refine(objective, final_box, start, refiner_cfg)
    if best_value < value:
        # The global best grid point fell outside the final box and the
        # clamped start refined to something worse; keep the best point.
        point, value = best_point.copy(), best_value
    abs_error = None
    if objective.known_minimum_value is not None:
        abs_error = abs(value - objective.known_minimum_value)
    return RunReport(
        method=method,
        function_name=objective.name,
        dimension=objective.arity,
        found_point=np.asarray(point, dtype=np.float64),
        found_value=float(value),
        abs_error=abs_error,
        iterations=records,
        total_f_evals=total_evals_fn(),
        grid_points_per_iteration=grid_points,
        peak_model_bytes=peak_bytes,
    )


def run(f, initial_bounds, cfg):
    """Run the full adaptive search and return its report.

    Deterministic at shots = 0, where the loop also stops at the first
    iteration that leaves the box unchanged (FIXED_POINT); at shots > 0
    determinism holds for a fixed seed.  The objective's evaluation
    counter advances by exactly total_f_evals.
    """
    if f.arity != initial_bounds.dimension:
        raise InvalidInputError("objective arity does not match bounds")
    evals_at_start = f.eval_count
    records = []
    box = initial_bounds
    best_value = np.inf
    best_point = None
    k = 0
    while True:
        k += 1
        spec = GridSpec(f.arity, cfg.qubits_per_dim, box)
        values = grid_values(f, spec)
        dist = distribution_from_values(spec, values, cfg.law)
        # exact readout: the first-index grid argmin
        argmin_index = dist.f_min_index
        if float(values[argmin_index]) < best_value:
            best_value = float(values[argmin_index])
            best_point = decode(spec, argmin_index)
        # hold at most one lattice's arrays at a time
        del values
        if cfg.shots > 0:
            dist = sample(dist, cfg.shots, cfg.seed + (k - 1))
        selection = select_region(dist, cfg.quantile)
        box_next = contract_bounds(spec, selection)
        verdict = should_terminate(box, box_next, dist, k, cfg.termination)
        if verdict is Verdict.CONTINUE and cfg.shots == 0 and box_next == box:
            verdict = Verdict.FIXED_POINT
        records.append(
            IterationRecord(
                k=k,
                bounds_before=box,
                bounds_after=box_next,
                selected_count=int(selection.selected_indices.size),
                entropy_fraction=float(entropy_fraction(dist)),
                best_point_so_far=best_point.copy(),
                best_value_so_far=best_value,
                verdict=verdict,
            )
        )
        del dist, selection
        box = box_next
        if verdict is not Verdict.CONTINUE:
            break
    spec_points = 1 << (cfg.qubits_per_dim * f.arity)
    return _finish_report(
        "qags",
        f,
        best_point,
        best_value,
        box,
        cfg.refiner,
        records,
        lambda: f.eval_count - evals_at_start,
        spec_points,
        spec_points * QUANTUM_BYTES_PER_STATE,
    )


def trace_boxes(report):
    """The bounding-box sequence: initial bounds, then each contraction."""
    if not report.iterations:
        return []
    boxes = [report.iterations[0].bounds_before]
    boxes.extend(rec.bounds_after for rec in report.iterations)
    return boxes
