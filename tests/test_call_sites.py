"""The benchmark's traced pass wraps layer functions by attribute name
(``CALL_SITES`` in perfbench/tracing.py), including some that no code in
src/ calls; each must stay a callable attribute of its owner."""

import importlib
from pathlib import Path

import pytest

import qags.driver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def call_sites(monkeypatch):
    if not (PERFBENCH / "tracing.py").is_file():
        pytest.skip("no perfbench/ here")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing").CALL_SITES


def test_benchmark_call_sites_resolve(call_sites):
    assert call_sites
    for owner, attr, span, _ in call_sites:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)


def test_driver_call_sites_are_the_layer_functions(call_sites):
    # a span on a driver name times the layer function of that name, so
    # the name must not be a copy or a stand-in
    owned = [attr for owner, attr, _, _ in call_sites if owner is qags.driver]
    assert {"sample", "select_region", "contract_bounds", "distribution_from_values"} <= set(owned)
    for attr in owned:
        fn = getattr(qags.driver, attr)
        assert fn.__module__ in ("qags.quantum", "qags.contraction", "qags.refine"), attr
        assert getattr(importlib.import_module(fn.__module__), attr) is fn, attr
