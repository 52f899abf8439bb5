"""Every annotation in the package resolves at run time.

Modules use ``from __future__ import annotations`` and import numpy only
inside the routes that need it, so an annotation naming ``np`` would stay a
string that ``typing.get_type_hints`` cannot evaluate.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import padic_entropy

MODULES = sorted(
    f"{padic_entropy.__name__}.{info.name}" for info in pkgutil.iter_modules(padic_entropy.__path__)
)


def _defined_functions(module):
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_type_hints_resolve(module_name):
    module = importlib.import_module(module_name)
    functions = list(_defined_functions(module))
    assert functions
    for name, fn in functions:
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            pytest.fail(f"{module_name}.{name}: {exc}")
