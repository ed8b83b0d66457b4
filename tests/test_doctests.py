"""Run every module's doctests — examples in docstrings must stay true."""

import doctest
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.endswith("__main__")
)


def test_module_discovery_found_the_tree():
    assert "repro.plan.codegen" in MODULES
    assert "repro.labeled.graphs" in MODULES
    assert len(MODULES) > 30


@pytest.mark.parametrize("module_name", MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(
        module, verbose=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failures"
