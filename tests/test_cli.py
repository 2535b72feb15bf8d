"""Command-line interface; runs the console entry through subprocesses
for end-to-end coverage and through main() for fast paths."""

import csv
import io
import json

import pytest

from qags.classical import AgsConfig, run_ags
from qags.cli import main
from qags.driver import QagsConfig, run
from qags.grid import SearchBox
from qags.objectives import get_objective


def run_main(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimize:
    def test_json_report(self, capsys):
        code, out, _ = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "2",
            "--qubits", "4", "--bounds=-5,5",
        )
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "qags"
        assert data["found_value"] < 1e-10
        assert len(data["iterations"]) >= 1

    def test_shifted_sphere(self, capsys):
        code, out, _ = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "2", "--qubits", "5",
            "--bounds=-500,500", "--shift", "100,100",
        )
        assert code == 0
        data = json.loads(out)
        assert data["found_point"] == pytest.approx([100.0, 100.0], abs=1e-4)

    def test_csv_format(self, capsys):
        code, out, _ = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "1",
            "--qubits", "3", "--bounds", "0,1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["method", "function", "dim"]
        assert len(rows) == 2

    def test_md_format(self, capsys):
        code, out, _ = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "1",
            "--qubits", "3", "--bounds", "0,1", "--format", "md",
        )
        assert code == 0
        assert out.startswith("| method |")

    def test_missing_function_flag(self, capsys):
        code, _, err = run_main(
            capsys, "optimize", "--dim", "2", "--qubits", "4", "--bounds", "0,1"
        )
        assert code == 2
        assert "--function" in err

    def test_unknown_function_lists_registry(self, capsys):
        code, _, err = run_main(
            capsys,
            "optimize", "--function", "banana", "--dim", "2",
            "--qubits", "4", "--bounds", "0,1",
        )
        assert code == 2
        for name in ("rastrigin", "rosenbrock", "sphere", "styblinski_tang"):
            assert name in err

    def test_qubit_cap_exceeded(self, capsys):
        code, _, err = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "16",
            "--qubits", "2", "--bounds", "0,1",
        )
        assert code == 2

    def test_register_over_physical_memory(self, capsys, monkeypatch):
        import qags.driver

        monkeypatch.setattr(qags.driver, "physical_memory_bytes", lambda: 1 << 20)
        monkeypatch.setattr(qags.driver, "grid_values", None)  # never reached
        code, out, err = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "10",
            "--qubits", "3", "--bounds", "0,1",
        )
        assert code == 2
        assert out == ""
        assert "physical memory" in err

    def test_shift_on_non_sphere(self, capsys):
        code, _, err = run_main(
            capsys,
            "optimize", "--function", "rastrigin", "--dim", "2",
            "--qubits", "4", "--bounds", "0,1", "--shift", "1,1",
        )
        assert code == 2

    def test_bad_bounds(self, capsys):
        code, _, _ = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "2",
            "--qubits", "4", "--bounds", "1,2,3",
        )
        assert code == 2

    def test_overflowing_box_width_is_usage_error(self, capsys):
        code, out, err = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "2",
            "--qubits", "3", "--bounds=-1e308,1e308",
        )
        assert (code, out) == (2, "")
        assert "width" in err

    def test_law_flag(self, capsys):
        code, out, _ = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "1", "--qubits", "3",
            "--bounds", "0,1", "--law", "boltzmann-amp",
        )
        assert code == 0
        code, _, err = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "1", "--qubits", "3",
            "--bounds", "0,1", "--law", "boltzmann-xyz",
        )
        assert code == 2

    def test_shots_path(self, capsys):
        code, out, _ = run_main(
            capsys,
            "optimize", "--function", "sphere", "--dim", "1", "--qubits", "3",
            "--bounds=-1,1", "--shots", "2048", "--seed", "5",
        )
        assert code == 0
        assert json.loads(out)["found_value"] < 1e-8


class TestConfigFile:
    def test_file_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "function = sphere\n"
            "dim = 2\n"
            "qubits = 4\n"
            "bounds = -5,5\n"
            "# a comment line\n"
            "format = csv\n"
        )
        code, out, _ = run_main(capsys, "optimize", "--config", str(cfg))
        assert code == 0
        assert out.startswith("method,")
        flags = ("--function", "sphere", "--dim", "2", "--qubits", "4", "--bounds=-5,5")
        assert run_main(capsys, "optimize", *flags, "--format", "csv") == (code, out, "")

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("function = sphere\ndim = 2\nqubits = 4\nbounds = -5,5\nformat = csv\n")
        code, out, _ = run_main(
            capsys, "optimize", "--config", str(cfg), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["dimension"] == 2
        flags = ("--function", "sphere", "--dim", "2", "--qubits", "4", "--bounds=-5,5")
        assert run_main(capsys, "optimize", *flags) == (code, out, "")

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("function = sphere\nwibble = 3\n")
        code, _, err = run_main(capsys, "optimize", "--config", str(cfg))
        assert code == 2
        assert "wibble" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_main(capsys, "optimize", "--config", "/no/such/file.cfg")
        assert code == 2

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("function sphere\n")
        code, _, _ = run_main(capsys, "optimize", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("line", ["dim = abc", "quantile = x", "dim ="])
    def test_bad_value_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"function = sphere\ndim = 2\nqubits = 4\nbounds = -5,5\n{line}\n")
        code, out, _ = run_main(capsys, "optimize", "--config", str(cfg))
        assert code == 2
        assert out == ""

    def test_no_timing_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dims = 2\nno-timing = yes\n")
        code, out, _ = run_main(capsys, "compare", "--config", str(cfg))
        assert code == 0
        assert all(row[2] == "0" for row in list(csv.reader(io.StringIO(out)))[1:])
        cfg.write_text("dims = 2\nno-timing = maybe\n")
        assert run_main(capsys, "compare", "--config", str(cfg))[0] == 2


class TestBench:
    def test_t1_csv_shape(self, capsys):
        code, out, _ = run_main(capsys, "bench", "--table", "t1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["Dim", "Config", "FoundPoint", "Result", "RealMinimum", "AbsError"]
        assert [r[0] for r in rows[1:]] == ["2", "3", "5", "8"]
        assert [r[1] for r in rows[1:]] == [
            "5 qubits/dim", "4 qubits/dim", "3 qubits/dim", "2 qubits/dim",
        ]

    def test_t3_two_rows(self, capsys):
        code, out, _ = run_main(capsys, "bench", "--table", "t3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 3
        assert [r[0] for r in rows[1:]] == ["2", "3"]
        for row in rows[1:]:
            assert float(row[5]) <= 1e-6

    def test_unknown_table(self, capsys):
        code, _, _ = run_main(capsys, "bench", "--table", "t9")
        assert code == 2

    def test_missing_table(self, capsys):
        code, _, _ = run_main(capsys, "bench")
        assert code == 2


class TestCompare:
    def test_columns_and_rows(self, capsys):
        code, out, _ = run_main(
            capsys, "compare", "--dims", "2,3", "--bounds=-5,5", "--no-timing"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "dim", "time_s", "model_bytes", "solution_value"]
        assert [r[:2] for r in rows[1:]] == [
            ["qags", "2"], ["ags", "2"], ["qags", "3"], ["ags", "3"],
        ]
        for row in rows[1:]:
            assert row[2] == "0"
            assert float(row[4]) <= 1e-6

    def test_empty_dims(self, capsys):
        code, _, _ = run_main(capsys, "compare", "--dims", "")
        assert code == 2

    def test_out_of_range_dim(self, capsys):
        code, _, _ = run_main(capsys, "compare", "--dims", "1,2")
        assert code == 2
        code, _, _ = run_main(capsys, "compare", "--dims", "11")
        assert code == 2

    def test_reversed_bounds_is_usage_error(self, capsys):
        code, out, err = run_main(capsys, "compare", "--dims", "2", "--bounds=5,-5", "--no-timing")
        assert (code, out) == (2, "")
        assert "lower bound exceeds upper bound" in err

    def test_overflowing_box_width_is_usage_error(self, capsys):
        code, out, err = run_main(
            capsys, "compare", "--dims", "2", "--bounds=-1e308,1e308", "--no-timing"
        )
        assert (code, out) == (2, "")
        assert "width" in err

    def test_duplicate_dims_collapse(self, capsys):
        code, out, _ = run_main(
            capsys, "compare", "--dims", "2,2,2", "--bounds=-5,5", "--no-timing"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 3  # header + one dim pair


class TestLibraryParity:
    """What the CLI prints is the library's result in the chosen format."""

    def test_optimize_defaults_are_the_library_defaults(self, capsys):
        code, out, _ = run_main(
            capsys,
            "optimize", "--function", "rastrigin", "--dim", "2",
            "--qubits", "4", "--bounds=-5.12,5.12",
        )
        report = run(
            get_objective("rastrigin", 2),
            SearchBox.cube(2, -5.12, 5.12),
            QagsConfig(qubits_per_dim=4),
        )
        assert (code, out) == (0, report.to_json() + "\n")

    def test_bench_json_is_the_direct_runs(self, capsys):
        code, out, _ = run_main(capsys, "bench", "--table", "t3", "--format", "json")
        payload = [
            {
                "dim": dim,
                "qubits_per_dim": qubits,
                "report": run(
                    get_objective("rosenbrock", dim),
                    SearchBox.cube(dim, -500.0, 500.0),
                    QagsConfig(qubits_per_dim=qubits),
                ).to_dict(),
            }
            for dim, qubits in ((2, 5), (3, 4))
        ]
        assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")

    def test_compare_formats(self, capsys):
        box = SearchBox.cube(2, -5.0, 5.0)
        q = run(get_objective("sphere", 2), box, QagsConfig(qubits_per_dim=5))
        a = run_ags(get_objective("sphere", 2), box, AgsConfig(budget_points=10**7))
        rows = [
            ("qags", 2, 0.0, q.peak_model_bytes, q.found_value),
            ("ags", 2, 0.0, a.peak_model_bytes, a.found_value),
        ]
        header = ("method", "dim", "time_s", "model_bytes", "solution_value")
        cells = [
            (method, str(dim), "0", str(size), format(value, ".6g"))
            for method, dim, _, size, value in rows
        ]
        expected = {
            "json": json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n",
            "csv": "".join(",".join(line) + "\n" for line in [header] + cells),
            "md": "| method | dim | time_s | model_bytes | solution_value |\n"
            "| --- | --- | --- | --- | --- |\n"
            + "".join("| " + " | ".join(row) + " |\n" for row in cells),
        }
        for fmt, text in expected.items():
            args = ("compare", "--dims", "2", "--no-timing", "--format", fmt)
            assert run_main(capsys, *args)[:2] == (0, text), fmt


class TestTrace:
    def test_jsonl_boxes(self, capsys):
        code, out, _ = run_main(
            capsys,
            "trace", "--function", "sphere", "--dim", "2", "--qubits", "5",
            "--bounds=-200,200", "--shift", "0,0",
        )
        assert code == 0
        lines = out.strip().split("\n")
        boxes = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])
        assert boxes[0] == {"k": 0, "lower": [-200.0, -200.0], "upper": [200.0, 200.0]}
        assert all(b["k"] == i for i, b in enumerate(boxes))
        assert summary["found_value"] < 1e-10
        for box in boxes:
            assert box["lower"][0] <= 0.0 <= box["upper"][0]
            assert box["lower"][1] <= 0.0 <= box["upper"][1]

    def test_single_iteration_emits_two_boxes(self, capsys, tmp_path):
        # termination after one contraction: initial box plus one more
        code, out, _ = run_main(
            capsys,
            "trace", "--function", "sphere", "--dim", "1", "--qubits", "2",
            "--bounds", "0,0.0000001",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3  # two boxes + summary


    def test_format_is_usage_error(self, capsys, tmp_path):
        # trace writes JSON lines only, so it takes no --format
        flags = ("--function", "sphere", "--dim", "1", "--qubits", "2", "--bounds", "0,1")
        code, out, err = run_main(capsys, "trace", *flags, "--format", "csv")
        assert (code, out) == (2, "")
        assert "--format" in err
        cfg = tmp_path / "trace.cfg"
        cfg.write_text("function = sphere\ndim = 1\nqubits = 2\nbounds = 0,1\nformat = csv\n")
        code, out, err = run_main(capsys, "trace", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "format" in err


class TestEntryPoint:
    def test_module_invocation(self, run_qags):
        proc = run_qags(
            "optimize", "--function", "sphere", "--dim", "1",
            "--qubits", "2", "--bounds", "0,1",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "qags"

    def test_no_command_is_usage_error(self, run_qags):
        proc = run_qags()
        assert proc.returncode == 2

    def test_unknown_command(self, run_qags):
        proc = run_qags("frobnicate")
        assert proc.returncode == 2

    def test_byte_identical_runs(self, run_qags):
        args = (
            "optimize", "--function", "rastrigin", "--dim", "2",
            "--qubits", "4", "--bounds=-5.12,5.12",
        )
        a = run_qags(*args)
        b = run_qags(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
