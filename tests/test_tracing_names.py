"""The benchmark's tracer wraps spheremem functions and methods by name
(``perfbench/tracing.py``); a rename or deletion in the package breaks the
traced benchmark with an AttributeError, so every listed name must resolve."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("home, attr, span", tracing.FUNCTIONS,
                         ids=[f"{home}.{attr}" for home, attr, _ in tracing.FUNCTIONS])
def test_traced_function_exists(home, attr, span):
    assert callable(getattr(importlib.import_module(home), attr))


@pytest.mark.parametrize("home, cls, attr, span", tracing.METHODS,
                         ids=[f"{home}.{cls}.{attr}" for home, cls, attr, _ in tracing.METHODS])
def test_traced_method_exists(home, cls, attr, span):
    assert callable(getattr(getattr(importlib.import_module(home), cls), attr))
