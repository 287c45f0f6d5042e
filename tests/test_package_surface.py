"""The package's public surface, and the names the benchmark tracer binds to it.

``perfbench/tracer.py`` wraps functions by dotted name and classifies trial
boundaries and set-up work by those names; a renamed or privatized function
would silently drop out of its metrics, so each name must resolve here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import espritsim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


@pytest.mark.parametrize("name", espritsim.__all__)
def test_all_names_import(name):
    namespace = {}
    exec(f"from espritsim import {name}", namespace)
    assert namespace[name] is getattr(espritsim, name)
