"""Shared test plumbing.

Tests marked with @pytest.mark.criterion(N, "description") feed a
per-criterion PASS/FAIL summary printed after the run, so the acceptance
gate reads as one line per criterion regardless of how many test
functions implement it.
"""

import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_RESULTS = collections.defaultdict(list)
_DESCRIPTIONS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, description): acceptance-criterion membership",
    )


@pytest.fixture
def run_qags():
    """Run ``python -m qags.cli ARGS`` (or another ``module``) in a child
    process, capturing its output.  pytest's ``pythonpath`` setting
    reaches only this process, so the child gets the checkout's src/
    first on PYTHONPATH."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}

    def run(*args, text=True, module="qags.cli"):
        return subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, text=text, env=env
        )

    return run


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number = marker.args[0]
    if len(marker.args) > 1:
        _DESCRIPTIONS.setdefault(number, marker.args[1])
    if hasattr(report, "wasxfail"):
        status = "xfail" if report.skipped else "xpass"
    elif report.passed:
        status = "passed"
    elif report.failed:
        status = "failed"
    else:
        status = "skipped"
    _RESULTS[number].append((item.name, status))


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        statuses = [status for _, status in _RESULTS[number]]
        if any(s in ("failed", "xpass") for s in statuses):
            verdict = "FAIL"
        elif any(s == "xfail" for s in statuses):
            verdict = "FAIL (documented shortfall, see README limitations)"
        elif all(s == "passed" for s in statuses):
            verdict = "PASS"
        else:
            verdict = "SKIPPED"
        desc = _DESCRIPTIONS.get(number, "")
        terminalreporter.write_line(f"[criterion {number}] {verdict} - {desc}")
