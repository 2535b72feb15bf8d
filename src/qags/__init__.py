"""Quantum-inspired adaptive grid search with a classical baseline.

The core loop lays a uniform qubit grid over a search box, encodes
objective values into a simulated measurement distribution, keeps the
high-probability region, contracts the box around it, and repeats; a
bounded quasi-Newton pass then polishes the best grid point.
"""

from .classical import AgsConfig, run_ags
from .contraction import (
    RegionSelection,
    TerminationPolicy,
    Verdict,
    contract_bounds,
    select_region,
    should_terminate,
)
from .driver import IterationRecord, QagsConfig, RunReport, run, trace_boxes
from .errors import (
    EvaluationError,
    InvalidInputError,
    OffGridError,
    QagsError,
    RefinementError,
)
from .grid import GridSpec, SearchBox, coordinate, decode, decode_many, encode
from .objectives import (
    REGISTRY,
    ObjectiveFunction,
    get_objective,
    make_rastrigin,
    make_rosenbrock,
    make_sphere,
    make_styblinski_tang,
    rastrigin,
    rosenbrock,
    sphere,
    styblinski_tang,
)
from .quantum import (
    EncodingLaw,
    QuantumDistribution,
    build_distribution,
    distribution_from_values,
    entropy_fraction,
    grid_values,
    sample,
)
from .refine import RefinerConfig, refine

__version__ = "0.1.0"

__all__ = [
    "AgsConfig",
    "EncodingLaw",
    "EvaluationError",
    "GridSpec",
    "InvalidInputError",
    "IterationRecord",
    "ObjectiveFunction",
    "OffGridError",
    "QagsConfig",
    "QagsError",
    "QuantumDistribution",
    "REGISTRY",
    "RefinementError",
    "RefinerConfig",
    "RegionSelection",
    "RunReport",
    "SearchBox",
    "TerminationPolicy",
    "Verdict",
    "build_distribution",
    "contract_bounds",
    "coordinate",
    "decode",
    "decode_many",
    "distribution_from_values",
    "encode",
    "entropy_fraction",
    "get_objective",
    "grid_values",
    "make_rastrigin",
    "make_rosenbrock",
    "make_sphere",
    "make_styblinski_tang",
    "rastrigin",
    "refine",
    "rosenbrock",
    "run",
    "run_ags",
    "sample",
    "select_region",
    "should_terminate",
    "sphere",
    "styblinski_tang",
    "trace_boxes",
    "__version__",
]
