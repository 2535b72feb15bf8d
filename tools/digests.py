"""Digests of one checkout's benchmark runs and CLI presets, to show that
a change keeps the same bits.

    python3 tools/digests.py --tree DIR --out FILE [--workload W ...] [--seed S ...]
    python3 tools/digests.py --compare A B

``--tree`` imports ``DIR/perfbench/workloads.py``, whose ``checkout``
module loads qags from ``DIR/src``, and runs every case of the
benchmark's four workloads at seeds 0, 1 and 3, each qags case again
under the amplitude law (165 runs).  It then runs the nine criterion-7
presets of this checkout's ``tests/test_acceptance.py`` through
``python -m qags.cli`` with ``DIR/src`` first on ``PYTHONPATH``.  Per run
it records the SHA-256 of the report's ``to_json()``, ``total_f_evals``
and the advance of the objective's evaluation counter; per preset, the
exit code and the SHA-256 of stdout.  NumPy's version, its active
SIMD dispatch targets and the OpenBLAS core go beside them (``host``,
which CI prints too): the last digits of ``entropy_fraction`` and of
batch functions that call ``np.exp`` can depend on that path, and those
of batch functions that call ``@`` on the core (``OPENBLAS_CORETYPE``
picks it).

``--compare`` names every entry that differs between two such files,
or that only one of them has, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("tables", "wide-lattice", "compare", "custom-objective")
SEEDS = (0, 1, 3)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def cli_presets():
    """The ``CLI_PRESETS`` list of tests/test_acceptance.py, read without
    importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "CLI_PRESETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("no CLI_PRESETS in tests/test_acceptance.py")


def _load(tree):
    """perfbench's workloads module of ``tree``, and the qags it loaded."""
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads
    import qags

    src = (tree / "src").resolve()
    if src not in Path(qags.__file__).resolve().parents:
        raise SystemExit(f"qags was loaded from {qags.__file__}, not from {src}")
    return workloads, qags


def _openblas_core(numpy):
    """The kernel set NumPy's bundled OpenBLAS picked for this CPU, such as
    ``SkylakeX`` or ``Haswell``; None when NumPy bundles no such library."""
    libs = sorted(Path(numpy.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def host():
    """NumPy's version, its SIMD dispatch targets and the active ones, and
    the OpenBLAS core (None when NumPy bundles no OpenBLAS): the host
    record of a digest file, and what CI's "NumPy dispatch" step prints."""
    import numpy

    umath = (getattr(numpy, "_core", None) or numpy.core)._multiarray_umath
    return {
        "numpy": numpy.__version__,
        "dispatch": list(umath.__cpu_dispatch__),
        "active": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
        "openblas": _openblas_core(numpy),
    }


def _run_entry(run_fn, case, config):
    before = case.objective.eval_count
    report = run_fn(case.objective, case.box, config)
    return {
        "sha256": _sha256(report.to_json().encode()),
        "total_f_evals": int(report.total_f_evals),
        "evals": int(case.objective.eval_count - before),
    }


def digests(tree, workload_names=WORKLOADS, seeds=SEEDS):
    """{entry name: record} for the runs and presets of ``tree``."""
    workloads, qags = _load(tree)
    run_fns = {"qags": qags.driver.run, "ags": qags.classical.run_ags}
    amplitude = qags.EncodingLaw.BOLTZMANN_AMPLITUDE
    entries = {}
    for name in workload_names:
        for seed in seeds:
            for case in workloads.build(name, seed):
                key = f"{name} seed={seed} {case.label}"
                entries[key] = _run_entry(run_fns[case.method], case, case.config)
            for case in workloads.build(name, seed):
                if case.method == "qags":
                    config = dataclasses.replace(case.config, law=amplitude)
                    key = f"{name} seed={seed} {case.label} law={amplitude.value}"
                    entries[key] = _run_entry(run_fns["qags"], case, config)
    paths = [str(tree / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for args in cli_presets():
        done = subprocess.run(
            [sys.executable, "-m", "qags.cli", *args], capture_output=True, cwd=tree, env=env
        )
        entries["cli " + " ".join(args)] = {
            "exit": done.returncode,
            "sha256": _sha256(done.stdout),
        }
    return entries


def compare(a, b):
    """Lines naming each entry that differs; an empty list when none does."""
    lines = []
    for key in list(a["entries"]) + [k for k in b["entries"] if k not in a["entries"]]:
        left, right = a["entries"].get(key), b["entries"].get(key)
        if left != right:
            lines.append(f"differs: {key}: {left or 'absent'} != {right or 'absent'}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, help="checkout whose src/ and perfbench/ to run")
    parser.add_argument("--out", type=Path, help="file to write the digests to")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default all four)")
    parser.add_argument("--seed", action="append", type=int,
                        help="run only this seed (repeatable; default 0, 1 and 3)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two digest files; exit 1 if any entry differs")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        for side, data in zip("AB", (a, b)):
            record = data["host"]
            print(f"{side}: numpy {record['numpy']}, active {record['active']}, "
                  f"openblas {record.get('openblas')}")
        lines = compare(a, b)
        for line in lines:
            print(line)
        total = len(set(a["entries"]) | set(b["entries"]))
        print(f"{total - len(lines)} of {total} entries equal")
        return 1 if lines else 0
    if args.tree is None or args.out is None:
        parser.error("give --tree and --out, or --compare")
    tree = args.tree.resolve()
    entries = digests(tree, args.workload or WORKLOADS, args.seed or SEEDS)
    args.out.write_text(json.dumps({"host": host(), "entries": entries}, indent=1) + "\n")
    print(f"{len(entries)} entries written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
