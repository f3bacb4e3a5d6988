"""Determinize NFAs via the subset construction and bound the resulting DFA
size ahead of time from transition-monoid size, Boolean-matrix ranges, GF(2)
ranks, and precedence-graph cyclicity.

The package exports every name in each module's ``__all__``."""

from .boolmat import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .determinize import *  # noqa: F401,F403
from .fsa import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403

__version__ = "0.1.0"
