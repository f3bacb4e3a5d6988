"""Every public function with a cap or size parameter refuses a value below its
floor, or one that is not an int, with ValueError before any work
(``matrix_range`` one above its ceiling too), and the table below names every
such parameter, so a new entry point cannot skip the rule unnoticed."""

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
from detsize.generators import RandomNfaSpec, gen_moore

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

# (function, parameter) -> (a call with that parameter set to its one argument, the parameter's floor, the name its
# errors give)
CAPS = {
    ("matrix_range", "cap"): (lambda v: matrix_range(I16, cap=v), 0, "cap"),
    ("monoid_closure", "cap"): (lambda v: monoid_closure([I16], cap=v), 1, "cap"),
    ("monoid_bound", "cap"): (lambda v: monoid_bound(M16, cap=v), 1, "monoid_cap"),
    ("range_bound", "range_cap"): (lambda v: range_bound(M16, range_cap=v), 0, "range_cap"),
    ("subset_complexity", "monoid_cap"): (lambda v: subset_complexity(M16, monoid_cap=v), 1, "monoid_cap"),
    ("subset_complexity", "range_cap"): (lambda v: subset_complexity(M16, range_cap=v), 0, "range_cap"),
    ("all_but_one_bound", "monoid_cap"): (lambda v: all_but_one_bound(M16, "a", monoid_cap=v), 1, "monoid_cap"),
    ("all_but_one_bound", "range_cap"): (lambda v: all_but_one_bound(M16, "a", range_cap=v), 0, "range_cap"),
    ("full_report", "monoid_cap"): (lambda v: full_report(M16, monoid_cap=v), 1, "monoid_cap"),
    ("full_report", "range_cap"): (lambda v: full_report(M16, range_cap=v), 0, "range_cap"),
    ("full_report", "max_states"): (lambda v: full_report(M16, max_states=v), 1, "max_states"),
    ("subset_construct", "max_states"): (lambda v: subset_construct(M16, max_states=v), 1, "max_states"),
    ("state_complexity", "max_states"): (lambda v: state_complexity(M16, max_states=v), 1, "max_states"),
    ("equivalent", "max_states"): (lambda v: equivalent(M16, M16, max_states=v), 1, "max_states"),
    ("distinguishing_word", "max_states"): (lambda v: distinguishing_word(M16, M16, max_states=v), 1, "max_states"),
    ("is_universal", "max_states"): (lambda v: is_universal(M16, max_states=v), 1, "max_states"),
    ("universality_witness", "max_states"): (lambda v: universality_witness(M16, max_states=v), 1, "max_states"),
}


def test_table_names_every_cap_parameter():
    found = set()
    for module in MODULES:
        mod = importlib.import_module(f"detsize.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                found |= {(name, p) for p in inspect.signature(obj).parameters if p in CAP_PARAMETERS}
    assert set(CAPS) == found


@pytest.fixture
def no_work(monkeypatch):
    """Make every entry of ``WORK`` fail, so a check that runs after any work shows."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    for target in WORK:
        monkeypatch.setattr(target, fail)


@pytest.mark.parametrize("key", sorted(CAPS), ids="{0[0]}-{0[1]}".format)
def test_below_floor_is_refused_before_any_work(key, no_work):
    call, floor, name = CAPS[key]
    with pytest.raises(ValueError, match=f"{name} must be at least {floor}"):
        call(floor - 1)


@pytest.mark.parametrize("key", sorted(CAPS), ids="{0[0]}-{0[1]}".format)
def test_non_integer_is_refused_before_any_work(key, no_work):
    # a float cap passes the range checks, and a closure that stops at len(queue) == cap then runs to its end
    call, floor, name = CAPS[key]
    for value in (floor + 3.5, float(floor + 3), str(floor + 3)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            call(value)


@pytest.mark.parametrize("make", [gen_moore, lambda n: RandomNfaSpec(n=n)], ids=["gen_moore", "RandomNfaSpec"])
def test_non_integer_size_is_refused(make):
    with pytest.raises(ValueError, match="^n must be an integer$"):
        make(4.0)


def test_range_cap_above_ceiling_is_refused_before_any_work(no_work):
    with pytest.raises(ValueError, match=f"cap must be at most {MAX_RANGE_CAP}"):
        matrix_range(I16, cap=MAX_RANGE_CAP + 1)
