"""tools/digests.py, the same-bits check over the benchmark's runs and the
CLI presets.  It imports perfbench/workloads.py, so these tests skip where
the benchmark is absent, as tests/test_call_sites.py does."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qags
from qags.grid import SearchBox
from qags.objectives import get_objective

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "digests.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


@pytest.fixture(scope="module")
def tables_file(tmp_path_factory):
    if not (ROOT / "perfbench" / "workloads.py").is_file():
        pytest.skip("no perfbench/ here")
    out = tmp_path_factory.mktemp("digests") / "tables.json"
    done = _tool("--tree", str(ROOT), "--out", str(out), "--workload", "tables", "--seed", "0")
    assert done.returncode == 0, done.stderr
    return out


@pytest.fixture
def tables(tables_file):
    return json.loads(tables_file.read_text())


def test_entries_and_host(tables):
    entries = tables["entries"]
    runs = [key for key in entries if key.startswith("tables seed=0 ")]
    presets = [key for key in entries if key.startswith("cli ")]
    # the 12 table cases, each again under the amplitude law, and 9 presets
    assert len(runs) == 24 and len(presets) == 9 and len(entries) == 33
    assert sum(key.endswith(" law=boltzmann-amp") for key in runs) == 12
    for key in runs:
        assert entries[key]["evals"] == entries[key]["total_f_evals"], key
    assert all(entries[key]["exit"] == 0 for key in presets)
    host = tables["host"]
    assert host["numpy"] == np.__version__
    assert set(host["active"]) <= set(host["dispatch"])


def test_host_names_the_openblas_core(tables):
    # the kernel set NumPy's bundled OpenBLAS picked, which
    # OPENBLAS_CORETYPE overrides
    if tables["host"]["openblas"] is None:
        pytest.skip("NumPy bundles no OpenBLAS here")
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import digests; print(digests.host()['openblas'])", str(TOOL.parent)],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
    )
    assert done.stdout == "Haswell\n", done.stderr


def test_a_run_entry_is_its_report(tables):
    report = qags.run(
        get_objective("rastrigin", 2), SearchBox.cube(2, -5.12, 5.12),
        qags.QagsConfig(qubits_per_dim=5),
    )
    assert tables["entries"]["tables seed=0 t1 rastrigin d=2 q=5"] == {
        "sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
        "total_f_evals": report.total_f_evals,
        "evals": report.total_f_evals,
    }


def test_a_preset_entry_is_its_stdout(tables, run_qags):
    done = run_qags("bench", "--table", "t3", text=False)
    assert tables["entries"]["cli bench --table t3"] == {
        "exit": 0,
        "sha256": hashlib.sha256(done.stdout).hexdigest(),
    }


def test_compare_names_every_entry_that_differs(tables_file, tables, tmp_path):
    same = _tool("--compare", str(tables_file), str(tables_file))
    assert same.returncode == 0, same.stdout
    assert same.stdout.splitlines()[-1] == "33 of 33 entries equal"
    host = tables["host"]
    assert same.stdout.splitlines()[:2] == [
        f"{side}: numpy {host['numpy']}, active {host['active']}, openblas {host['openblas']}"
        for side in "AB"
    ]

    entries = tables["entries"]
    entries["tables seed=0 t4 rosenbrock d=8 q=2"]["total_f_evals"] += 1
    del entries["cli bench --table t1"]
    entries["cli extra"] = {"exit": 0, "sha256": "0" * 64}
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(tables))
    done = _tool("--compare", str(tables_file), str(changed))
    assert done.returncode == 1
    named = [line.split(": ")[1] for line in done.stdout.splitlines() if line.startswith("differs: ")]
    assert named == ["tables seed=0 t4 rosenbrock d=8 q=2", "cli bench --table t1", "cli extra"]
    assert done.stdout.splitlines()[-1] == "31 of 34 entries equal"
