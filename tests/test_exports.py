"""The package exports every name in each module's ``__all__``, so
``detsize.X`` and ``detsize.module.X`` are the same object. A module loads
when one of its names is first used."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import detsize
from conftest import child_env

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


def fresh(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter right after ``import detsize``."""
    result = subprocess.run([sys.executable, "-c", "import json, detsize\n" + code], capture_output=True, text=True,
                            env=child_env())
    assert result.stderr == ""
    return json.loads(result.stdout)


EXPORTED = sorted({"__version__"}.union(*(importlib.import_module(f"detsize.{m}").__all__ for m in MODULES)))


def test_star_import_binds_every_export():
    ns = fresh("ns = {}\nexec('from detsize import *', ns)\nprint(json.dumps(sorted(ns.keys() - {'__builtins__'})))")
    assert ns == EXPORTED


def test_dir_lists_every_export():
    names = fresh("print(json.dumps(dir(detsize)))")
    assert [name for name in EXPORTED if name not in names] == []


def test_module_is_a_first_attribute():
    assert fresh("print(json.dumps(detsize.bounds.report_to_json is detsize.report_to_json))") is True


def test_unknown_name_is_absent():
    assert fresh("print(json.dumps(hasattr(detsize, 'no_such_name')))") is False
