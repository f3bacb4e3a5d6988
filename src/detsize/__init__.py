"""Determinize NFAs via the subset construction and bound the resulting DFA
size ahead of time from transition-monoid size, Boolean-matrix ranges, GF(2)
ranks, and precedence-graph cyclicity.

The package exports every name in each module's ``__all__``. A module loads
when one of its names is first used, and ``detsize.X`` is ``detsize.module.X``."""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load the modules in order, binding each one's ``__all__``, until ``name`` is bound (PEP 562)."""
    exported = ["__version__"]
    for module in ("fsa", "generators", "boolmat", "determinize", "bounds"):  # each imports only the ones before it
        mod = importlib.import_module(f"{__name__}.{module}")  # binds the module's own name too
        globals().update((n, getattr(mod, n)) for n in mod.__all__)
        exported += mod.__all__
        if name in globals():
            return globals()[name]
    if name == "__all__":
        return exported
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
