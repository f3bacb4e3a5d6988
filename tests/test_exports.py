"""The package exports every name in each module's ``__all__``, so
``detsize.X`` and ``detsize.module.X`` are the same object."""

from __future__ import annotations

import importlib

import pytest

import detsize

MODULES = ("fsa", "boolmat", "determinize", "bounds", "generators")


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_the_package_name(module):
    mod = importlib.import_module(f"detsize.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"detsize.{module}.__all__ lists {name}, which it does not define"
        assert getattr(detsize, name, None) is getattr(mod, name), f"detsize.{name} is not detsize.{module}.{name}"


def test_no_name_exported_twice():
    # a star import would silently let the later module's name shadow the earlier one
    owners: dict[str, list[str]] = {}
    for module in MODULES:
        for name in importlib.import_module(f"detsize.{module}").__all__:
            owners.setdefault(name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
