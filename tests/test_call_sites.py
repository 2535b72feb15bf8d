"""The benchmark's traced pass wraps layer functions by attribute name
(``CALL_SITES`` in perfbench/tracing.py), including some that no code in
src/ calls; each must stay a callable attribute of its owner."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.skipif(not (PERFBENCH / "tracing.py").is_file(), reason="no perfbench/ here")
def test_benchmark_call_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.CALL_SITES
    for owner, attr, span, _ in tracing.CALL_SITES:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)
