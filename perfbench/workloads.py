"""The benchmark's workloads: which runs each one makes, built from public API.

Every case is one call of ``qags.run`` or ``qags.run_ags`` on a fixed
objective, box and config.  ``build`` is what ``setup_s`` times in a fresh
interpreter, so it constructs objects only and evaluates nothing.

The presets copy the CLI's: ``bench --table t1..t4`` for ``tables`` and
``compare --dims 2,5,7,8,10 --bounds=-5,5`` for ``compare``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import checkout  # noqa: F401  (before qags)
import qags
from qags.classical import AgsConfig
from qags.grid import SearchBox
from qags.objectives import ObjectiveFunction, get_objective

WORKLOADS = ("tables", "wide-lattice", "compare", "custom-objective")

TABLE_PAIRS = ((2, 5), (3, 4), (5, 3), (8, 2))
TABLE_PRESETS = (
    ("t1", "rastrigin", (-5.12, 5.12), TABLE_PAIRS),
    ("t2", "styblinski_tang", (-5.0, 5.0), TABLE_PAIRS),
    ("t3", "rosenbrock", (-500.0, 500.0), ((2, 5), (3, 4))),
    ("t4", "rosenbrock", (-10.0, 10.0), ((5, 3), (8, 2))),
)
COMPARE_DIMS = (2, 5, 7, 8, 10)
COMPARE_QUBITS = {2: 5, 5: 3, 7: 2, 8: 2, 10: 2}
COMPARE_AGS_BUDGET = 10**7
WIDE_SHOTS = 4096

# Rows whose accuracy tests/test_acceptance.py pins, with its tolerance:
# ("abs", tol) bounds |found_value - minimum|, ("value", tol) bounds
# found_value itself, ("styblinski", tol) is criterion 2's check.
T1_ACCURACY = ("abs", 1e-8)
T2_ACCURACY = ("styblinski", 1e-2)
ROSENBROCK_ACCURACY = ("value", 1e-6)
SPHERE_ACCURACY = ("value", 1e-6)

# Criterion 1's strict xfail: on the symmetric box the quantile hull is a
# fixed point before the lattice resolves the central basin.
TRAPPED_T1 = {(2, 5), (5, 3), (8, 2)}
TRAPPED_NOTE = "rastrigin hull fixed point on a symmetric box (criterion 1 xfail)"


@dataclass
class Case:
    """One run of a workload, and what its checks need to know about it.

    ``formula`` names the benchmark's own formula for the objective and
    ``params`` holds that formula's constants; the checks never read the
    objective's code.
    """

    label: str
    method: str
    objective: ObjectiveFunction
    box: SearchBox
    config: object
    formula: str
    params: dict = field(default_factory=dict)
    accuracy: Optional[tuple] = None
    known_fault: Optional[str] = None


def _registry_case(label, name, dim, lo, hi, config, method="qags", **extra):
    return Case(
        label=label,
        method=method,
        objective=get_objective(name, dim),
        box=SearchBox.cube(dim, lo, hi),
        config=config,
        formula=name,
        params={"shift": np.zeros(dim)} if name == "sphere" else {},
        **extra,
    )


def _tables():
    cases = []
    accuracy = {"t1": T1_ACCURACY, "t2": T2_ACCURACY}
    for table, name, (lo, hi), pairs in TABLE_PRESETS:
        for dim, qubits in pairs:
            trapped = table == "t1" and (dim, qubits) in TRAPPED_T1
            cases.append(
                _registry_case(
                    f"{table} {name} d={dim} q={qubits}",
                    name, dim, lo, hi,
                    qags.QagsConfig(qubits_per_dim=qubits),
                    accuracy=accuracy.get(table, ROSENBROCK_ACCURACY),
                    known_fault=TRAPPED_NOTE if trapped else None,
                )
            )
    return cases


def _wide_lattice(seed):
    return [
        _registry_case(
            "sphere d=10 q=2", "sphere", 10, -5.0, 5.0,
            qags.QagsConfig(qubits_per_dim=2), accuracy=SPHERE_ACCURACY,
        ),
        _registry_case(
            "sphere d=2 q=10", "sphere", 2, -5.0, 5.0, qags.QagsConfig(qubits_per_dim=10)
        ),
        _registry_case(
            "rastrigin d=5 q=4", "rastrigin", 5, -5.12, 5.12,
            qags.QagsConfig(qubits_per_dim=4),
        ),
        _registry_case(
            f"sphere d=10 q=2 shots={WIDE_SHOTS}", "sphere", 10, -5.0, 5.0,
            qags.QagsConfig(qubits_per_dim=2, shots=WIDE_SHOTS, seed=seed),
        ),
    ]


def _compare():
    cases = []
    for dim in COMPARE_DIMS:
        cases.append(
            _registry_case(
                f"qags sphere d={dim}", "sphere", dim, -5.0, 5.0,
                qags.QagsConfig(qubits_per_dim=COMPARE_QUBITS[dim]),
                accuracy=SPHERE_ACCURACY,
            )
        )
        cases.append(
            _registry_case(
                f"ags sphere d={dim}", "sphere", dim, -5.0, 5.0,
                AgsConfig(budget_points=COMPARE_AGS_BUDGET),
                method="ags", accuracy=SPHERE_ACCURACY,
            )
        )
    return cases


def ackley_batch(pts):
    d = pts.shape[1]
    rms = np.sqrt(np.sum(pts * pts, axis=1) / d)
    mean_cos = np.sum(np.cos(2.0 * np.pi * pts), axis=1) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e


def ellipsoid_params(dim, seed):
    """Seeded rotation (Haar-random orthogonal), centre in [-2, 2]^d and
    weights 10^(3i/(d-1)), so the condition number is 1000."""
    rng = np.random.default_rng([seed, dim])
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    rotation = q * np.sign(np.diag(r))[None, :]
    centre = rng.uniform(-2.0, 2.0, dim)
    weights = 10.0 ** (3.0 * np.arange(dim) / (dim - 1))
    return {"rotation": rotation, "centre": centre, "weights": weights}


def ellipsoid_batch(params):
    rotation, centre, weights = params["rotation"], params["centre"], params["weights"]

    def batch(pts):
        z = (pts - centre[None, :]) @ rotation.T
        return (z * z) @ weights

    return batch


def _batch_only(name, dim, batch):
    """A user objective defined by its vectorised form alone: no lattice
    kernel, and the scalar form goes through the same batch code."""
    return ObjectiveFunction(
        name=name,
        arity=dim,
        fn=lambda x: float(batch(x[None, :])[0]),
        batch_fn=batch,
    )


def _custom_objective(seed):
    cases = []
    for dim, qubits in ((2, 8), (3, 6)):
        cases.append(
            Case(
                label=f"ackley d={dim} q={qubits}",
                method="qags",
                objective=_batch_only("ackley", dim, ackley_batch),
                box=SearchBox.cube(dim, -32.768, 32.768),
                config=qags.QagsConfig(qubits_per_dim=qubits),
                formula="ackley",
            )
        )
    for dim, qubits in ((4, 4), (5, 4)):
        params = ellipsoid_params(dim, seed)
        cases.append(
            Case(
                label=f"rotated ellipsoid d={dim} q={qubits}",
                method="qags",
                objective=_batch_only("ellipsoid", dim, ellipsoid_batch(params)),
                box=SearchBox.cube(dim, -5.0, 5.0),
                config=qags.QagsConfig(qubits_per_dim=qubits),
                formula="ellipsoid",
                params=params,
            )
        )
    return cases


def build(workload, seed):
    """The cases of one workload, in the order a pass runs them."""
    if workload == "tables":
        return _tables()
    if workload == "wide-lattice":
        return _wide_lattice(seed)
    if workload == "compare":
        return _compare()
    if workload == "custom-objective":
        return _custom_objective(seed)
    raise KeyError(workload)
