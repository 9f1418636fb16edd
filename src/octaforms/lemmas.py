"""Executable congruence predicates for coprime-to-3 representation.

Each entry pairs a diagonal form with the congruence conditions under
which every qualifying value is representable with all coordinates
coprime to 3.  Every check scans a whole range at once: it reads the bits
of packed sum-set folds (polygonal.fold) once, so a full 10^4 sweep is
cheap; any counterexamples are returned, never swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable

from .lattice import coprime3_values_up_to
# unused here; perfbench/tracer.py wraps lemmas.count_representations by name
from .lattice import count_representations  # noqa: F401
from .polygonal import _bit_scan, _decode, build_sieve, fold

__all__ = [
    "CongruenceLemma",
    "CONGRUENCE_LEMMAS",
    "congruence_counterexamples",
    "jones_counterexamples",
    "counting_counterexamples",
    "pair_2233_counterexamples",
    "FAMILY_2233T_TS",
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


def congruence_counterexamples(lemma: CongruenceLemma, bound: int) -> list[int]:
    """All qualifying values <= bound NOT coprime-to-3 representable (expected none)."""
    mask = coprime3_values_up_to(lemma.diag, bound)
    # the clear bits are read once, only in the words that hold one: linear in the bound
    gaps = _bit_scan(_decode(mask, bound), 1, bound, missing=True)
    return [v for v in gaps if lemma.qualifies(v)]


def jones_counterexamples(bound: int) -> list[int]:
    """Multiples of 3 where x^2 + 2y^2 = v is solvable but never prime to 3."""
    squares = [x * x for x in range(isqrt(bound) + 1)]
    solvable = fold((squares, [2 * s for s in squares]), bound)  # zeros included
    bad = solvable & ~coprime3_values_up_to((1, 2), bound)
    return [v for v in _bit_scan(_decode(bad, bound), 1, bound, missing=False) if v % 3 == 0]


def counting_counterexamples(bound: int) -> list[int]:
    """v <= bound where scaling by 9 fails to add sum-of-three-squares vectors.

    x -> 3x maps the vectors of norm v one-to-one onto the vectors of norm
    9v that are 0 mod 3, so r(9v) > r(v) iff 9v = a^2 + b^2 + c^2 with some
    coordinate prime to 3, by symmetry a: one fold of the three square sets.
    """
    top = 9 * bound
    squares = [x * x for x in range(isqrt(top) + 1)]
    bits = fold(([s for x, s in enumerate(squares) if x % 3], squares, squares), top)
    gaps = _bit_scan(_decode(bits, top), 9, top, missing=True)
    return [g // 9 for g in gaps if g % 9 == 0 and not excluded_4a_8b7(g)]


def pair_2233_counterexamples(bound: int) -> list[int]:
    """Values the form (2,2,3,3) must take: all u != 1 mod 4 except 11 and 14."""
    gaps = build_sieve((2, 2, 3, 3), bound).missing_in_range(0, bound)  # 0 is never a gap
    return [u for u in gaps if u % 4 != 1 and u not in (11, 14)]


# the t of the family (2,2,3,3,t) that the lemma covers: 1..10, no multiple of 4
FAMILY_2233T_TS = (1, 2, 3, 5, 6, 7, 9, 10)


def family_2233t_counterexamples(bound: int) -> list[tuple[int, int]]:
    """(t, u) pairs with u >= t + 15 missed by (2,2,3,3,t), t in FAMILY_2233T_TS."""
    base = build_sieve((2, 2, 3, 3), bound)
    bad = []
    for t in FAMILY_2233T_TS:
        if t + 15 <= bound:
            bad.extend((t, u) for u in base.extend(t).missing_in_range(t + 15, bound))
    return bad
