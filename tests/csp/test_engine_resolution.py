"""Engine resolution: the ``auto`` rule, explicit specs, env overrides.

Two engines exist: ``bitset`` (the reference semantics and the
compilerless fallback) and ``native``.  ``auto`` picks native from
``NATIVE_MIN_SUPPORT_CELLS`` directed support cells up when a kernel
can be loaded, and bitset otherwise.  The ``REPRO_CSP_ENGINE`` env
override forces one engine; an unrecognized value -- a typo, or the
retired ``numpy`` engine -- is logged once, counted, and resolved as
``auto``.
"""

import logging

import pytest

from repro.bench import benchmark_build_options, build_benchmark
from repro.csp import vectorized
from repro.csp.compiled import compile_network
from repro.csp.network import ConstraintNetwork
from repro.csp.random_networks import random_network
from repro.csp.vectorized import (
    ENGINE_ENV,
    batch_min_conflicts,
    resolve_engine,
    support_cells,
)
from repro.obs import metrics
from repro.opt.network_builder import build_layout_network


@pytest.fixture
def kernel():
    return compile_network(
        random_network(5, 4, density=0.9, tightness=0.4, seed=11)
    )


@pytest.fixture
def tiny_kernel():
    return compile_network(random_network(2, 2, 0.5, 0.3, seed=1))


@pytest.fixture
def table1_kernel():
    program = build_benchmark("Med-Im04")
    return build_layout_network(program, benchmark_build_options()).kernel()


@pytest.fixture(autouse=True)
def _fresh_env(monkeypatch):
    """Isolate each test's env override and warn-once set."""
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    vectorized._DEGRADATIONS_WARNED.clear()
    yield
    vectorized._DEGRADATIONS_WARNED.clear()


def test_resolve_engine_rejects_unknown_spec(kernel):
    with pytest.raises(ValueError):
        resolve_engine("gpu", kernel)
    with pytest.raises(ValueError):
        resolve_engine("numpy", kernel)


def test_resolve_engine_explicit_bitset(kernel):
    assert resolve_engine("bitset", kernel) == "bitset"


def test_auto_prefers_native_from_the_crossover_up(
    tiny_kernel, table1_kernel, monkeypatch
):
    monkeypatch.setattr(vectorized, "_native_usable", lambda: True)
    assert support_cells(tiny_kernel) < vectorized.NATIVE_MIN_SUPPORT_CELLS
    assert resolve_engine("auto", tiny_kernel) == "bitset"
    assert support_cells(table1_kernel) >= vectorized.NATIVE_MIN_SUPPORT_CELLS
    assert resolve_engine("auto", table1_kernel) == "native"


def test_auto_without_native_is_bitset(tiny_kernel, table1_kernel, monkeypatch):
    monkeypatch.setattr(vectorized, "_native_usable", lambda: False)
    assert resolve_engine("auto", tiny_kernel) == "bitset"
    assert resolve_engine("auto", table1_kernel) == "bitset"


def test_bitset_env_override_wins_over_size(table1_kernel, monkeypatch):
    monkeypatch.setattr(vectorized, "_native_usable", lambda: True)
    monkeypatch.setenv(ENGINE_ENV, "bitset")
    assert resolve_engine("auto", table1_kernel) == "bitset"
    # The explicit argument is not overridden by the environment.
    monkeypatch.setenv(ENGINE_ENV, "native")
    assert resolve_engine("bitset", table1_kernel) == "bitset"


@pytest.mark.parametrize("override", ["numpy", "natve"])
def test_unknown_override_degrades_loudly(
    override, tiny_kernel, table1_kernel, monkeypatch, caplog
):
    monkeypatch.setattr(vectorized, "_native_usable", lambda: True)
    monkeypatch.setenv(ENGINE_ENV, override)
    registry = metrics.MetricsRegistry()
    previous = metrics.set_registry(registry)
    metrics.set_enabled(True)
    try:
        with caplog.at_level(logging.WARNING, logger="repro.csp.vectorized"):
            # Resolved as auto: the size rule still decides.
            for _ in range(3):
                assert resolve_engine("auto", table1_kernel) == "native"
            assert resolve_engine("auto", tiny_kernel) == "bitset"
    finally:
        metrics.set_enabled(False)
        metrics.set_registry(previous)
    warnings = [r for r in caplog.records if override in r.getMessage()]
    assert len(warnings) == 1, "the unknown override must be logged exactly once"
    rows = [
        row
        for row in registry.snapshot()["metrics"]
        if row["name"] == "repro_engine_degradations_total"
        and dict(row["labels"]) == {"reason": "unknown-override"}
    ]
    assert len(rows) == 1
    assert rows[0]["value"] == 4


def test_auto_env_value_is_silent(table1_kernel, monkeypatch, caplog):
    monkeypatch.setattr(vectorized, "_native_usable", lambda: False)
    monkeypatch.setenv(ENGINE_ENV, "auto")
    with caplog.at_level(logging.WARNING, logger="repro.csp.vectorized"):
        assert resolve_engine("auto", table1_kernel) == "bitset"
    assert not caplog.records


def test_empty_network_solves():
    kernel = compile_network(ConstraintNetwork())
    assert support_cells(kernel) == 0
    results = batch_min_conflicts(kernel, [3], max_steps=5, engine="auto")
    assert results[0].assignment == {}
