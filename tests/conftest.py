"""Shared seeded corpora; everything is a deterministic function of the seeds."""

from __future__ import annotations

import sys

import pytest

from detsize.fsa import Fsa
from detsize.generators import (
    RandomNfaSpec,
    gen_meyer_fischer,
    gen_mf_gadget,
    gen_modified_moore,
    gen_moore,
    gen_random,
    gen_union_gadget,
    gen_universal,
)

_DENSITIES = (0.1, 0.2, 0.3, 0.45, 0.6)


def two_state_universal() -> Fsa:
    return Fsa.make(
        [("u0", "a", "u1"), ("u0", "b", "u1"), ("u1", "a", "u0"), ("u1", "b", "u0")],
        initial=["u0"],
        final=["u0", "u1"],
    )


def cycle_and_identity(k: int) -> Fsa:
    """``a`` walks a k-cycle and ``b`` fixes every state: both matrices have GF(2) rank k, so the all-but-one
    estimate is 2 * (c + k**2) << ceil(k**2 / 4) + 2k for c = 1 or k, 6,960 digits at k = 300."""
    names = [f"c{i}" for i in range(k)]
    return Fsa.make([(q, "a", names[(i + 1) % k]) for i, q in enumerate(names)] + [(q, "b", q) for q in names],
                    names[:1], names[:1])


def build_random_nfas(count: int = 1000) -> list[Fsa]:
    """Plain random NFAs with n <= 7 and at most 3 symbols."""
    return [
        gen_random(
            RandomNfaSpec(
                n=2 + seed % 6,
                alphabet_size=1 + (seed // 6) % 3,
                density=_DENSITIES[seed % 5],
                initial_density=0.4,
                final_density=0.4,
                seed=seed,
            )
        )
        for seed in range(count)
    ]


def build_unary_nfas(count: int = 500) -> list[Fsa]:
    return [
        gen_random(
            RandomNfaSpec(
                n=1 + seed % 6,
                alphabet_size=1,
                density=_DENSITIES[seed % 5],
                initial_density=0.5,
                final_density=0.4,
                seed=10_000 + seed,
            )
        )
        for seed in range(count)
    ]


def build_total_nfas(count: int = 300) -> list[Fsa]:
    return [
        gen_random(
            RandomNfaSpec(
                n=2 + seed % 4,
                alphabet_size=2,
                density=(0.35, 0.5, 0.65)[seed % 3],
                initial_density=0.5,
                final_density=0.5,
                seed=20_000 + seed,
                force_total=True,
            )
        )
        for seed in range(count)
    ]


def build_codeterministic_nfas(count: int = 200) -> list[Fsa]:
    return [
        gen_random(
            RandomNfaSpec(
                n=2 + seed % 7,
                alphabet_size=2,
                final_density=0.5,
                seed=30_000 + seed,
                force_codeterministic=True,
            )
        )
        for seed in range(count)
    ]


def build_families() -> list[Fsa]:
    u2 = two_state_universal()
    autos: list[Fsa] = [gen_universal(), u2]
    autos.extend(gen_moore(n) for n in range(2, 9))
    autos.extend(gen_meyer_fischer(n) for n in range(2, 9))
    autos.extend(gen_modified_moore(n) for n in range(2, 11))
    autos.append(gen_union_gadget(u2))
    autos.append(gen_union_gadget(gen_moore(4)))
    autos.extend(gen_mf_gadget(u2, t) for t in (4, 6))
    autos.extend(gen_mf_gadget(gen_moore(4), t) for t in (4, 6))
    return autos


@pytest.fixture(scope="session")
def random_nfas() -> list[Fsa]:
    return build_random_nfas()


@pytest.fixture(scope="session")
def unary_nfas() -> list[Fsa]:
    return build_unary_nfas()


@pytest.fixture(scope="session")
def total_nfas() -> list[Fsa]:
    return build_total_nfas()


@pytest.fixture(scope="session")
def codeterministic_nfas() -> list[Fsa]:
    return build_codeterministic_nfas()


@pytest.fixture(scope="session")
def family_nfas() -> list[Fsa]:
    return build_families()


@pytest.fixture
def int_str_limit():
    """``sys.set_int_max_str_digits`` for one test, the limit restored after it; skips before Python 3.10.7,
    which has no int-to-str limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str limit before Python 3.10.7")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)
