"""Executable congruence predicates for coprime-to-3 representation.

Each entry pairs a diagonal form with the congruence conditions under
which every qualifying value is representable with all coordinates
coprime to 3.  The checks scan a whole range at once: these lemmas through
the packed sum-set sieve, and the scaled-count identity r(9v) > r(v) for
sums of three squares through one ellipsoid box sweep that counts every
value up to 9 times the bound.  So a full 10^4 sweep is cheap; any
counterexamples are returned, never swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable

from .lattice import GramMatrix, coprime3_values_up_to, jones_strengthen, lattice_counts_up_to
# unused here; perfbench/tracer.py wraps lemmas.count_representations by name
from .lattice import count_representations  # noqa: F401
from .polygonal import build_sieve, insert_sorted

__all__ = [
    "CongruenceLemma",
    "CONGRUENCE_LEMMAS",
    "congruence_counterexamples",
    "jones_counterexamples",
    "counting_counterexamples",
    "pair_2233_counterexamples",
    "family_2233t_counterexamples",
]


def _strip4(v: int) -> int:
    while v % 4 == 0:
        v //= 4
    return v


def _two_adic(v: int) -> tuple[int, int]:
    a = 0
    while v % 2 == 0:
        v //= 2
        a += 1
    return a, v


def excluded_4a_8b7(v: int) -> bool:
    """v = 4^a (8b + 7): the classical three-squares exceptions."""
    return _strip4(v) % 8 == 7


def excluded_2odd_8b5(v: int) -> bool:
    """v = 2^(2a+1) (8b + 5)."""
    a, odd = _two_adic(v)
    return a % 2 == 1 and odd % 8 == 5


def excluded_2odd_8b7(v: int) -> bool:
    """v = 2^(2a+1) (8b + 7)."""
    a, odd = _two_adic(v)
    return a % 2 == 1 and odd % 8 == 7


def is_square(v: int) -> bool:
    r = isqrt(v)
    return r * r == v


def _q111(v: int) -> bool:
    return v % 3 == 0 and not excluded_4a_8b7(v)


def _q123(v: int) -> bool:
    return v % 6 == 0 and not excluded_2odd_8b5(v)


def _q113(v: int) -> bool:
    return v % 12 in (5, 8)


def _q233(v: int) -> bool:
    return v % 24 in (8, 14)


def _q346(v: int) -> bool:
    return v >= 13 and v % 24 in (16, 22) and not excluded_2odd_8b7(v) and not is_square(v)


def _q234(v: int) -> bool:
    if v % 3 != 0:
        return False
    if v % 16 == 2 or v % 64 in (8, 24, 56):
        return True
    return (
        v % 9 == 3
        and not excluded_2odd_8b5(v)
        and not (v % 3 == 0 and is_square(v // 3))
    )


def _q334(v: int) -> bool:
    return v >= 10 and v % 24 == 7


def _q356(v: int) -> bool:
    return v >= 14 and v % 48 in (8, 32, 38) and v % 5 != 0


def _q3456(v: int) -> bool:
    if v % 3 != 0:
        return False
    if v > 99 and v % 16 not in (1, 2, 7, 9, 14, 15):
        return True
    if v > 24 and v % 18 == 6:
        return True
    return v % 18 == 0 and v % 16 != 14


@dataclass(frozen=True)
class CongruenceLemma:
    name: str
    diag: tuple[int, ...]
    qualifies: Callable[[int], bool]
    description: str


CONGRUENCE_LEMMAS: tuple[CongruenceLemma, ...] = (
    CongruenceLemma("111", (1, 1, 1), _q111,
                    "multiples of 3 outside 4^a(8b+7)"),
    CongruenceLemma("123", (1, 2, 3), _q123,
                    "multiples of 6 outside 2^(2a+1)(8b+5)"),
    CongruenceLemma("113", (1, 1, 3), _q113,
                    "5 or 8 mod 12"),
    CongruenceLemma("233", (2, 3, 3), _q233,
                    "8 or 14 mod 24"),
    CongruenceLemma("346", (3, 4, 6), _q346,
                    ">= 13, 16 or 22 mod 24, outside 2^(2a+1)(8b+7), non-square"),
    CongruenceLemma("234", (2, 3, 4), _q234,
                    "multiples of 3: 2 mod 16 / 8,24,56 mod 64, or 3 mod 9 outside bad sets"),
    CongruenceLemma("334", (3, 3, 4), _q334,
                    ">= 10, 7 mod 24"),
    CongruenceLemma("356", (3, 5, 6), _q356,
                    ">= 14, 8/32/38 mod 48, prime to 5"),
    CongruenceLemma("3456", (3, 4, 5, 6), _q3456,
                    "multiples of 3 in three congruence families"),
)


def congruence_counterexamples(lemma: CongruenceLemma, bound: int = 10_000) -> list[int]:
    """All qualifying values <= bound NOT coprime-to-3 representable (expected none)."""
    mask = coprime3_values_up_to(lemma.diag, bound)
    return [v for v in range(1, bound + 1) if lemma.qualifies(v) and not (mask >> v) & 1]


def jones_counterexamples(bound: int = 10_000) -> list[int]:
    """Multiples of 3 where x^2 + 2y^2 = v is solvable but never prime to 3."""
    bad = []
    for v in range(3, bound + 1, 3):
        try:
            if jones_strengthen(v) is None:
                bad.append(v)
        except ValueError:
            continue  # equation unsolvable; nothing to strengthen
    return bad


def counting_counterexamples(bound: int = 2000) -> list[int]:
    """v <= bound where scaling by 9 fails to add sum-of-three-squares vectors."""
    r = lattice_counts_up_to(GramMatrix.diagonal((1, 1, 1)), 9 * bound)
    return [v for v in range(1, bound + 1) if not excluded_4a_8b7(9 * v) and r[9 * v] <= r[v]]


def pair_2233_counterexamples(bound: int = 10_000) -> list[int]:
    """Values the form (2,2,3,3) must take: all u != 1 mod 4 except 11 and 14."""
    sieve = build_sieve((2, 2, 3, 3), bound)
    return [
        u
        for u in range(1, bound + 1)
        if u % 4 != 1 and u not in (11, 14) and u not in sieve
    ]


def family_2233t_counterexamples(
    ts=(1, 2, 3, 5, 6, 7, 9, 10), bound: int = 2000
) -> list[tuple[int, int]]:
    """(t, u) pairs with u >= t + 15 missed by (2,2,3,3,t); t must avoid multiples of 4."""
    bad = []
    for t in ts:
        if t % 4 == 0:
            raise ValueError(f"t divisible by 4 is outside the family: {t}")
        sieve = build_sieve(insert_sorted((2, 2, 3, 3), t), bound)
        bad.extend((t, u) for u in range(t + 15, bound + 1) if u not in sieve)
    return bad
