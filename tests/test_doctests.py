"""Run the docstring examples of every dyerlashof module."""

import doctest
import importlib
import pkgutil

import pytest

import dyerlashof

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(dyerlashof.__path__, "dyerlashof.")
)


@pytest.mark.parametrize("name", ["dyerlashof", *MODULES])
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
