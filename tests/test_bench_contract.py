"""The names the benchmark binds in the package must keep resolving.

``perfbench/tracer.py`` wraps each function in ``LAYER_FUNCTIONS`` by its
module and name, ``perfbench/checks.py`` imports its second routes from the
package, and it lowers ``detlog._DENSE_CELL_CAP`` to keep the trace-log
series off the dense kernel (it then takes the lattice or the paired route);
a rename would break the benchmark.  The checker's imports are read from its
source, so a missing name fails here by name, not as a collection error of
``perfbench/test_checks.py``.
"""

import ast
import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import LAYER_FUNCTIONS, PACKAGE  # noqa: E402


@pytest.mark.parametrize("qualname", LAYER_FUNCTIONS)
def test_layer_function_resolves(qualname):
    module, name = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"{PACKAGE}.{module}"), name))


def test_dense_cell_cap_resolves():
    from padic_entropy import detlog

    assert isinstance(detlog._DENSE_CELL_CAP, int)


CHECKER_IMPORTS = [
    f"{node.module}.{alias.name}"
    for node in ast.walk(ast.parse((PERFBENCH / "checks.py").read_text()))
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE
    for alias in node.names
]


@pytest.mark.parametrize("qualname", CHECKER_IMPORTS)
def test_checker_import_resolves(qualname):
    module, name = qualname.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), name)
