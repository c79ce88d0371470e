"""The docstring examples of every chowlab module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import chowlab

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(chowlab.__path__, "chowlab.")
    if info.name != "chowlab.__main__"  # importing it runs the CLI
)


@pytest.mark.parametrize("name", ["chowlab"] + MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
