"""Import hygiene: the library path loads only the layers it uses, and
every package's lazy re-exports still resolve."""

import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module

import pytest

import repro

#: Modules the optimize path never calls: the simulator, cache model,
#: cost models, visualizations and the service stack, plus the heavy
#: third-party and stdlib machinery only they import.
NOT_ON_OPTIMIZE_PATH = (
    "numpy",
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "repro.service",
    "repro.simul",
    "repro.cachesim",
    "repro.eval",
    "repro.viz",
)

_OPTIMIZE_PROBE = """
import json, sys
from repro import LayoutOptimizer, parse_program
from repro.bench import benchmark_build_options, build_benchmark

program = parse_program('''
array Q1[520][260]
array Q2[520][260]
nest fig2 { for i1 = 0 .. 259 { for i2 = 0 .. 259 { Q1[i1+i2][i2] = Q2[i1+i2][i1] } } }
''')
assert LayoutOptimizer(scheme="enhanced").optimize(program).exact
outcome = LayoutOptimizer(scheme="enhanced", options=benchmark_build_options()).optimize(
    build_benchmark("Med-Im04"))
assert outcome.exact
print(json.dumps(sorted(sys.modules)))
"""

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def test_optimize_path_loads_only_what_it_uses():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _OPTIMIZE_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    assert "repro.opt.optimizer" in loaded
    assert [name for name in NOT_ON_OPTIMIZE_PATH if name in loaded] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    package = import_module(name)
    listed = dir(package)
    star = {}
    exec(f"from {name} import *", star)
    for export in package.__all__:
        assert getattr(package, export) is star[export], export
        assert export in listed, export


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    assert not hasattr(import_module("repro.csp"), "no_such_name")
