"""The names the benchmark binds in the package must keep resolving.

``perfbench/tracer.py`` wraps each function in ``LAYER_FUNCTIONS`` by its
module and name, and ``perfbench/checks.py`` lowers ``detlog._DENSE_CELL_CAP``
to keep the trace-log series off the dense kernel (it then takes the lattice
or the paired route); a rename would break the benchmark.
"""

import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import LAYER_FUNCTIONS, PACKAGE  # noqa: E402


@pytest.mark.parametrize("qualname", LAYER_FUNCTIONS)
def test_layer_function_resolves(qualname):
    module, name = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"{PACKAGE}.{module}"), name))


def test_dense_cell_cap_resolves():
    from padic_entropy import detlog

    assert isinstance(detlog._DENSE_CELL_CAP, int)
