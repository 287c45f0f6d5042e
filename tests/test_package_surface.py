"""The package's public surface, the names the benchmark tracer binds to it,
and the modules that importing the package loads.

``perfbench/tracer.py`` wraps functions by dotted name and classifies trial
boundaries and set-up work by those names; a renamed or privatized function
would silently drop out of its metrics, so each name must resolve here. The
calls ``perfbench/workloads.py`` makes must also still bind to their
functions' signatures, and every failure class the tracer counts must belong
to the failure taxonomy that a trial catches (``kernels.EstimationError``).
The package loads numpy and the standard library only, and refuses a numpy
whose OpenBLAS lacks the LAPACKE entry points it calls.
"""

import ctypes
import ctypes.util
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import espritsim
from espritsim import kernels
from espritsim.kernels import EstimationError

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    """Load the tracer module by path, to read its name tables; nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracer = load_tracer()


def traced_names():
    names = {tracer.TRIAL_START, *tracer.CONFIG_LEVEL, *tracer.SETUP_FUNCTIONS}
    names.update(name for name, _ in tracer.TRIAL_METRICS)
    names.update(name for name, _ in tracer.TRIAL_COUNTERS.values())
    names.update(f"{module}.{cls}" for module, cls in tracer.ERROR_KEYS)
    return sorted(names)


@pytest.mark.parametrize("dotted", traced_names())
def test_tracer_name_resolves_to_public_attribute(dotted):
    module, *attrs = dotted.split(".")
    assert module in tracer.TRACED_MODULES
    obj = importlib.import_module(f"espritsim.{module}")
    for attr in attrs:
        assert not attr.startswith("_"), dotted
        obj = getattr(obj, attr)
    assert callable(obj), dotted


@pytest.mark.parametrize("module, cls", tracer.ERROR_KEYS,
                         ids=[f"{module}.{cls}" for module, cls in tracer.ERROR_KEYS])
def test_traced_error_is_an_estimation_error(module, cls):
    # a class outside the taxonomy would abort a sweep instead of failing a trial
    error = getattr(importlib.import_module(f"espritsim.{module}"), cls)
    assert issubclass(error, EstimationError)


# (function, positional argument count, keyword names) of each call that
# perfbench/workloads.py makes, in the form it makes it
BENCHMARK_CALLS = (
    ("esprit.esprit_pipeline", 5, ("method", "rng")),
    ("channel.observe_and_estimate", 3, ("n0",)),
    ("channel.params_from_geometry", 1, ()),
    ("channel.scenario_transforms", 2, ()),
    ("perturbation.build_kit", 4, ()),
    ("slac.localize_scenario", 2, ()),
    ("slac.rate", 4, ()),
    ("harness.match_paths", 2, ()),
    ("fastsvd.fast_signal_subspace", 2, ()),
    ("esprit.spatial_smooth", 2, ()),
    ("kernels.svd_thin", 1, ()),
)


@pytest.mark.parametrize("dotted, n_args, keywords", BENCHMARK_CALLS,
                         ids=[dotted for dotted, _, _ in BENCHMARK_CALLS])
def test_benchmark_call_binds(dotted, n_args, keywords):
    module, name = dotted.split(".")
    fn = getattr(importlib.import_module(f"espritsim.{module}"), name)
    # raises TypeError on a missing, surplus or renamed argument
    inspect.signature(fn).bind(*range(n_args), **dict.fromkeys(keywords))


@pytest.mark.parametrize("name", espritsim.__all__)
def test_all_names_import(name):
    namespace = {}
    exec(f"from espritsim import {name}", namespace)
    assert namespace[name] is getattr(espritsim, name)


def test_import_leaves_heavy_scipy_unloaded():
    # no scipy module at all: scipy.linalg alone was half of every process's
    # footprint, and scipy.optimize pulled in sparse, spatial and special
    # a fresh interpreter: this one has loaded whatever the other tests import
    script = ("import sys, espritsim, espritsim.harness, espritsim.cli; "
              "print(' '.join(sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "numpy" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_binder_refuses_a_library_without_lapacke():
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    with pytest.raises(ImportError, match="numpy's PyPI wheel, whose bundled "
                                          "scipy-openblas64 exports LAPACKE"):
        kernels._bind_openblas(libc)
