"""Every public function with a cap or size parameter refuses a value below its
floor with ValueError before any work (``matrix_range`` one above its ceiling
too), and the table below names every such parameter, so a new entry point
cannot skip the rule unnoticed."""

from __future__ import annotations

import importlib
import inspect

import pytest

from detsize.boolmat import MAX_RANGE_CAP, BoolMatrix, matrix_range
from detsize.bounds import all_but_one_bound, full_report, monoid_bound, monoid_closure, range_bound, subset_complexity
from detsize.determinize import (
    distinguishing_word,
    equivalent,
    is_universal,
    state_complexity,
    subset_construct,
    universality_witness,
)
from detsize.generators import gen_moore

MODULES = ("fsa", "boolmat", "determinize", "bounds", "generators")
CAP_PARAMETERS = {"cap", "monoid_cap", "range_cap", "max_states"}
# what builds matrices, tables, ranges, closures or subset automata
WORK = (
    "detsize.bounds.transition_matrices",
    "detsize.determinize.transition_matrices",
    "detsize.determinize._subset_steps",
    "detsize.bounds._closure",
    "detsize.bounds._construct",
    "detsize.determinize._construct",
    "detsize.boolmat._unions",
)

M16 = gen_moore(16)
I16 = BoolMatrix.identity(16)

# (function, parameter) -> (a call with that parameter one below its floor, the error it raises)
BELOW_FLOOR = {
    ("matrix_range", "cap"): (lambda: matrix_range(I16, cap=-1), "cap must be at least 0"),
    ("monoid_closure", "cap"): (lambda: monoid_closure([I16], cap=0), "cap must be at least 1"),
    ("monoid_bound", "cap"): (lambda: monoid_bound(M16, cap=0), "monoid_cap must be at least 1"),
    ("range_bound", "range_cap"): (lambda: range_bound(M16, range_cap=-1), "range_cap must be at least 0"),
    ("subset_complexity", "monoid_cap"): (
        lambda: subset_complexity(M16, monoid_cap=0), "monoid_cap must be at least 1"),
    ("subset_complexity", "range_cap"): (
        lambda: subset_complexity(M16, range_cap=-1), "range_cap must be at least 0"),
    ("all_but_one_bound", "monoid_cap"): (
        lambda: all_but_one_bound(M16, "a", monoid_cap=0), "monoid_cap must be at least 1"),
    ("all_but_one_bound", "range_cap"): (
        lambda: all_but_one_bound(M16, "a", range_cap=-1), "range_cap must be at least 0"),
    ("full_report", "monoid_cap"): (lambda: full_report(M16, monoid_cap=0), "monoid_cap must be at least 1"),
    ("full_report", "range_cap"): (lambda: full_report(M16, range_cap=-1), "range_cap must be at least 0"),
    ("full_report", "max_states"): (lambda: full_report(M16, max_states=0), "max_states must be at least 1"),
    ("subset_construct", "max_states"): (
        lambda: subset_construct(M16, max_states=0), "max_states must be at least 1"),
    ("state_complexity", "max_states"): (
        lambda: state_complexity(M16, max_states=0), "max_states must be at least 1"),
    ("equivalent", "max_states"): (lambda: equivalent(M16, M16, max_states=0), "max_states must be at least 1"),
    ("distinguishing_word", "max_states"): (
        lambda: distinguishing_word(M16, M16, max_states=0), "max_states must be at least 1"),
    ("is_universal", "max_states"): (lambda: is_universal(M16, max_states=0), "max_states must be at least 1"),
    ("universality_witness", "max_states"): (
        lambda: universality_witness(M16, max_states=0), "max_states must be at least 1"),
}


def test_table_names_every_cap_parameter():
    found = set()
    for module in MODULES:
        mod = importlib.import_module(f"detsize.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                found |= {(name, p) for p in inspect.signature(obj).parameters if p in CAP_PARAMETERS}
    assert set(BELOW_FLOOR) == found


@pytest.fixture
def no_work(monkeypatch):
    """Make every entry of ``WORK`` fail, so a check that runs after any work shows."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    for target in WORK:
        monkeypatch.setattr(target, fail)


@pytest.mark.parametrize("key", sorted(BELOW_FLOOR), ids="{0[0]}-{0[1]}".format)
def test_below_floor_is_refused_before_any_work(key, no_work):
    call, message = BELOW_FLOOR[key]
    with pytest.raises(ValueError, match=message):
        call()


def test_range_cap_above_ceiling_is_refused_before_any_work(no_work):
    with pytest.raises(ValueError, match=f"cap must be at most {MAX_RANGE_CAP}"):
        matrix_range(I16, cap=MAX_RANGE_CAP + 1)
