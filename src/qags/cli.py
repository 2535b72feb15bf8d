"""Command-line interface: optimize | bench | compare | trace.

Exit codes: 0 success, 1 runtime error, 2 usage error.  Output goes to
stdout; JSON carries full float precision, CSV and Markdown round to 6
significant digits.  Each flag's default is the library's (QagsConfig)
and is stated once, in the parser.  A key=value config file can supply
any flag; its values are checked as flags are, and flags given on the
command line win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .classical import AgsConfig, run_ags
from .driver import QagsConfig, run, trace_boxes
from .errors import InvalidInputError, QagsError
from .grid import GridSpec, SearchBox
from .objectives import REGISTRY, get_objective
from .quantum import EncodingLaw

_TABLE_PAIRS = ((2, 5), (3, 4), (5, 3), (8, 2))

# Benchmark presets: function, symmetric domain, (dimension, qubits) pairs.
_BENCH_PRESETS = {
    "t1": ("rastrigin", (-5.12, 5.12), _TABLE_PAIRS),
    "t2": ("styblinski_tang", (-5.0, 5.0), _TABLE_PAIRS),
    "t3": ("rosenbrock", (-500.0, 500.0), ((2, 5), (3, 4))),
    "t4": ("rosenbrock", (-10.0, 10.0), ((5, 3), (8, 2))),
}

# Qubits per dimension for the method comparison, keeping n*d <= 30.
_COMPARE_QUBITS = {2: 5, 3: 4, 4: 4, 5: 3, 6: 3, 7: 2, 8: 2, 9: 2, 10: 2}
_COMPARE_AGS_BUDGET = 10**7


class _UsageError(Exception):
    """Invalid flags or config; mapped to exit code 2."""


# Flags whose values may start with "-" (negative numbers).  argparse
# treats a bare "-5.12,5.12" token as an option string, so fold these
# into --flag=value form before parsing.
_VALUE_FLAGS = ("--bounds", "--shift", "--dims")


def _absorb_value_flags(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_floats(text):
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise _UsageError("expected at least one number")
    return values


def _parse_bounds(text):
    values = _parse_floats(text)
    if len(values) != 2:
        raise _UsageError(f"--bounds expects LO,HI, got {text!r}")
    return values


def _parse_ints(text):
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}")


def _parse_law(text):
    try:
        return EncodingLaw(text)
    except ValueError:
        choices = ", ".join(law.value for law in EncodingLaw)
        raise _UsageError(f"unknown law {text!r}; choose one of: {choices}")


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"expected a boolean, got {text!r}")


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}")
    data = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        data[key.strip().replace("-", "_")] = value.strip()
    return data


def _config_tokens(args):
    """The config file's pairs as --key=value tokens.  main parses them
    again ahead of the command line's own flags, so file values get the
    flags' checks and the command line wins (argparse keeps the last)."""
    tokens = []
    for key, raw in _load_config(args.config).items():
        if not hasattr(args, key) or key in ("handler", "command"):
            raise _UsageError(f"unknown config key {key!r} for this command")
        if key == "no_timing":
            if _parse_bool(raw):
                tokens.append("--no-timing")
        elif key != "config":
            tokens.append(f"--{key.replace('_', '-')}={raw}")
    return tokens


def _g6(value):
    return format(float(value), ".6g")


def _point_str(point):
    return "[" + ", ".join(_g6(v) for v in point) + "]"


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required")


def _setup_single(args):
    """Build (objective, box, config) for optimize/trace; usage errors
    surface as exit code 2."""
    _require(args, ("function", "dim", "qubits", "bounds"))
    if args.dim < 1:
        raise _UsageError("--dim must be >= 1")
    try:
        objective = get_objective(args.function, args.dim, shift=args.shift)
    except KeyError:
        raise _UsageError(
            f"unknown function {args.function!r}; available: "
            + ", ".join(sorted(REGISTRY))
        )
    lo, hi = args.bounds
    box = SearchBox.cube(args.dim, lo, hi)
    cfg = QagsConfig(
        qubits_per_dim=args.qubits,
        quantile=args.quantile,
        law=args.law,
        shots=args.shots,
        seed=args.seed,
    )
    GridSpec(args.dim, cfg.qubits_per_dim, box)  # validates the qubit cap
    return objective, box, cfg


_SUMMARY_HEADER = (
    "method",
    "function",
    "dim",
    "found_point",
    "found_value",
    "abs_error",
    "iterations",
    "f_evals",
    "model_bytes",
)


def _summary_row(report):
    return (
        report.method,
        report.function_name,
        str(report.dimension),
        _point_str(report.found_point),
        _g6(report.found_value),
        "" if report.abs_error is None else _g6(report.abs_error),
        str(len(report.iterations)),
        str(report.total_f_evals),
        str(report.peak_model_bytes),
    )


def _emit(fmt, payload, header, rows):
    """Write one result to stdout: payload as indented JSON, or the
    header and the rows of text cells as CSV or a Markdown table."""
    out = sys.stdout
    if fmt == "json":
        out.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
    else:
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join(" --- " for _ in header) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(row) + " |\n")


def _cmd_optimize(args):
    objective, box, cfg = _setup_single(args)
    report = run(objective, box, cfg)
    _emit(args.format, report.to_dict(), _SUMMARY_HEADER, [_summary_row(report)])
    return 0


def _cmd_bench(args):
    _require(args, ("table",))
    name, (lo, hi), pairs = _BENCH_PRESETS[args.table]
    reports = []
    for dim, qubits in pairs:
        objective = get_objective(name, dim)
        box = SearchBox.cube(dim, lo, hi)
        cfg = QagsConfig(qubits_per_dim=qubits, seed=args.seed)
        reports.append((dim, qubits, objective, run(objective, box, cfg)))
    payload = [
        {"dim": dim, "qubits_per_dim": qubits, "report": rep.to_dict()}
        for dim, qubits, _, rep in reports
    ]
    header = ("Dim", "Config", "FoundPoint", "Result", "RealMinimum", "AbsError")
    rows = [
        (
            str(dim),
            f"{qubits} qubits/dim",
            _point_str(rep.found_point),
            _g6(rep.found_value),
            _g6(objective.known_minimum_value),
            _g6(rep.abs_error),
        )
        for dim, qubits, objective, rep in reports
    ]
    _emit(args.format, payload, header, rows)
    return 0


def _cmd_compare(args):
    _require(args, ("dims",))
    if len(args.dims) == 0:
        raise _UsageError("--dims must list at least one dimension")
    for dim in args.dims:
        if dim not in _COMPARE_QUBITS:
            raise _UsageError(f"--dims entries must lie in 2..10, got {dim}")
    lo, hi = args.bounds
    boxes = {dim: SearchBox.cube(dim, lo, hi) for dim in args.dims}
    timing = not args.no_timing
    rows = []
    for dim, box in boxes.items():
        qubits = _COMPARE_QUBITS[dim]
        started = time.perf_counter()
        q_report = run(
            get_objective("sphere", dim), box, QagsConfig(qubits_per_dim=qubits)
        )
        q_time = time.perf_counter() - started if timing else 0.0
        started = time.perf_counter()
        a_report = run_ags(
            get_objective("sphere", dim),
            box,
            AgsConfig(budget_points=_COMPARE_AGS_BUDGET),
        )
        a_time = time.perf_counter() - started if timing else 0.0
        rows.append(("qags", dim, q_time, q_report.peak_model_bytes, q_report.found_value))
        rows.append(("ags", dim, a_time, a_report.peak_model_bytes, a_report.found_value))
    header = ("method", "dim", "time_s", "model_bytes", "solution_value")
    text_rows = [
        (method, str(dim), _g6(seconds), str(bytes_), _g6(value))
        for method, dim, seconds, bytes_, value in rows
    ]
    _emit(args.format, [dict(zip(header, row)) for row in rows], header, text_rows)
    return 0


def _cmd_trace(args):
    objective, box, cfg = _setup_single(args)
    report = run(objective, box, cfg)
    lines = [
        {"k": k, "lower": [float(v) for v in b.lower], "upper": [float(v) for v in b.upper]}
        for k, b in enumerate(trace_boxes(report))
    ]
    lines.append(
        {
            "found_point": [float(v) for v in report.found_point],
            "found_value": float(report.found_value),
        }
    )
    sys.stdout.write("".join(json.dumps(line) + "\n" for line in lines))
    return 0


def _add_output_flags(sub, fmt):
    """--format, defaulting to this command's own format (trace, with
    one format, passes None and has none), and --config."""
    if fmt is not None:
        sub.add_argument("--format", choices=("json", "csv", "md"), default=fmt, metavar="FORMAT")
    sub.add_argument("--config", default=None, help="key=value file supplying defaults")


def _add_single_flags(sub, fmt):
    # Library defaults come from QagsConfig; None marks the flags that
    # _require checks, which a config file may supply.
    sub.add_argument("--function", default=None, help="objective name from the registry")
    sub.add_argument("--dim", type=int, default=None, help="problem dimension")
    sub.add_argument("--qubits", type=int, default=None, help="qubits per dimension")
    sub.add_argument("--bounds", type=_parse_bounds, default=None, metavar="LO,HI")
    sub.add_argument("--quantile", type=float, default=QagsConfig.quantile)
    sub.add_argument("--shots", type=int, default=QagsConfig.shots)
    sub.add_argument("--seed", type=int, default=QagsConfig.seed)
    sub.add_argument("--law", type=_parse_law, default=QagsConfig.law)
    sub.add_argument("--shift", type=_parse_floats, default=None, metavar="X1,X2,...")
    _add_output_flags(sub, fmt)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qags", description="Adaptive quantum-grid global optimizer"
    )
    subs = parser.add_subparsers(dest="command")

    opt = subs.add_parser("optimize", help="run one optimization")
    _add_single_flags(opt, "json")
    opt.set_defaults(handler=_cmd_optimize)

    bench = subs.add_parser("bench", help="run a benchmark table preset")
    bench.add_argument("--table", choices=sorted(_BENCH_PRESETS), default=None, metavar="TABLE")
    bench.add_argument("--seed", type=int, default=QagsConfig.seed)
    _add_output_flags(bench, "csv")
    bench.set_defaults(handler=_cmd_bench)

    comp = subs.add_parser("compare", help="compare against the classical baseline")
    comp.add_argument("--dims", type=_parse_ints, default=None, metavar="D1,D2,...")
    comp.add_argument("--bounds", type=_parse_bounds, default=(-5.0, 5.0), metavar="LO,HI")
    comp.add_argument(
        "--no-timing",
        action="store_true",
        help="report 0.0 wall time for bitwise-stable output",
    )
    _add_output_flags(comp, "csv")
    comp.set_defaults(handler=_cmd_compare)

    trace = subs.add_parser("trace", help="emit the bounding-box trace as JSONL")
    _add_single_flags(trace, None)
    trace.set_defaults(handler=_cmd_trace)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _absorb_value_flags(list(argv))
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
            if getattr(args, "config", None):
                args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 2
        return args.handler(args)
    except (_UsageError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QagsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
