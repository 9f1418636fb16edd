"""Generalized polygonal numbers and representation by octagonal forms.

A sum c1*P8(x1) + ... + ck*P8(xk) with positive integer coefficients is
decided here two ways: a bit-sieve over a value range (fast, bulk; one
uint64 word-array fold kernel) and a pruned depth-first search (single
values, produces witnesses).  Both paths are exact integer arithmetic
throughout.  The search is the package's only one:
lattice.represents_coprime3 answers through it, since y = |3x - 1| turns
b*y^2 with y prime to 3 into 3*b*P8(x) + b.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

__all__ = [
    "ResourceBudgetError",
    "polygonal_number",
    "octagonal_numbers_up_to",
    "coeff_vector",
    "insert_sorted",
    "is_proper_subsequence",
    "RepresentationSieve",
    "fold",
    "build_sieve",
    "represents",
    "witness",
    "missing_in_range",
]

# The one memory limit, for any single dense allocation: 256 MiB, which
# is a sieve of 2**31 bits.  There is no per-call override.
BYTE_LIMIT = 2**28


class ResourceBudgetError(Exception):
    """A requested computation exceeds the byte limit or a point budget."""


def check_bytes(nbytes: int, what: str) -> None:
    """Raise ResourceBudgetError if what needs more than BYTE_LIMIT bytes."""
    if nbytes > BYTE_LIMIT:
        raise ResourceBudgetError(f"{what} needs {nbytes} bytes, over the {BYTE_LIMIT}-byte limit")


def polygonal_number(m: int, x: int) -> int:
    """Value of the generalized m-gonal number ((m-2)x^2 - (m-4)x) / 2.

    Defined for every integer x (negative arguments give the "generalized"
    values).  For m=8 this is 3x^2 - 2x.  Arithmetic is arbitrary precision,
    so no overflow is possible.
    """
    if m < 3:
        raise ValueError(f"polygonal order must be >= 3, got {m}")
    # (m-2)x^2 - (m-4)x is even for all integer x, so // is exact.
    return ((m - 2) * x * x - (m - 4) * x) // 2


def octagonal_number(x: int) -> int:
    """3x^2 - 2x, the octagonal case of polygonal_number."""
    return x * (3 * x - 2)


def octagonal_numbers_up_to(bound: int) -> list[int]:
    """Sorted list of all values 3x^2 - 2x <= bound over integer x.

    Duplicate-free; always contains 0 when bound >= 0.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return term_values(1, bound)


def coeff_vector(entries) -> tuple[int, ...]:
    """Validate a coefficient vector: positive integers, non-decreasing.

    Returns the canonical tuple form used throughout the package.
    """
    a = tuple(int(e) for e in entries)
    if len(a) < 1:
        raise ValueError("coefficient vector must have length >= 1")
    if any(e < 1 for e in a):
        raise ValueError(f"coefficients must be positive: {a}")
    if any(a[i] > a[i + 1] for i in range(len(a) - 1)):
        raise ValueError(f"coefficients must be non-decreasing: {a}")
    return a


def insert_sorted(a, g: int) -> tuple[int, ...]:
    """Insert a new coefficient g into a, keeping the entries sorted."""
    return _insert_sorted(coeff_vector(a), g)


def _insert_sorted(a: tuple[int, ...], g: int) -> tuple[int, ...]:
    # insert_sorted for a canonical tuple, which it does not re-validate
    if g < 1:
        raise ValueError(f"coefficient must be positive: {g}")
    i = bisect_right(a, g)
    return a[:i] + (g,) + a[i:]


def is_proper_subsequence(b, a) -> bool:
    """True iff b is a proper subsequence of a (multiset containment).

    Both vectors are sorted, so subsequence containment coincides with
    multiset containment with strictly smaller length.
    """
    return _is_proper_subsequence(coeff_vector(b), coeff_vector(a))


def _is_proper_subsequence(b: tuple[int, ...], a: tuple[int, ...]) -> bool:
    # is_proper_subsequence for canonical tuples, which it does not re-validate
    if len(b) >= len(a):
        return False
    i = 0
    for e in a:
        if i < len(b) and b[i] == e:
            i += 1
    return i == len(b)


def term_values(coefficient: int, cap: int) -> list[int]:
    """All nonnegative values coefficient * P8(x) <= cap, ascending.

    P8(x) = x(3x - 2) for x >= 1 and x(3x + 2) for x <= -1; with
    s = isqrt(1 + 3 * (cap // coefficient)) there are (s + 1) // 3 values
    of the first kind and (s - 1) // 3 of the second.  Since
    x(3x - 2) < x(3x + 2) < (x + 1)(3x + 1), the two arms interleave.
    """
    if cap < 0:
        return []
    s = isqrt(1 + 3 * (cap // coefficient))
    out = [0] * (1 + (s + 1) // 3 + (s - 1) // 3)
    out[1::2] = [coefficient * x * (3 * x - 2) for x in range(1, (s + 1) // 3 + 1)]
    out[2::2] = [coefficient * x * (3 * x + 2) for x in range(1, (s - 1) // 3 + 1)]
    return out


@dataclass(frozen=True)
class RepresentationSieve:
    """Bit array over [0, bound] marking the values taken by an octagonal form.

    bits holds bit v set iff v = c1*P8(x1)+...+ck*P8(xk) for some integers
    x1..xk (packed into a single Python int; bit 0 is always set).
    """

    coeffs: tuple[int, ...]
    bound: int
    bits: int

    def __contains__(self, v: int) -> bool:
        if not 0 <= v <= self.bound:
            raise ValueError(f"value {v} outside sieve range [0, {self.bound}]")
        return bool((self.bits >> v) & 1)

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= self.bound:
            raise ValueError(f"range [{lo}, {hi}] outside sieve range [0, {self.bound}]")

    def _scan(self, lo: int, hi: int, missing: bool, limit: int | None = None) -> list[int]:
        # The values in [lo, hi] that are represented (or missing), ascending;
        # at most limit of them.  The bytes are unpacked one fixed slice at a
        # time, so the cost is linear in the bound and a limit ends it early.
        self._check_range(lo, hi)
        buf = np.frombuffer(self.bits.to_bytes((self.bound + 8) // 8, "little"), dtype=np.uint8)
        out: list[int] = []
        for i in range(lo // 8, hi // 8 + 1, _READ_BYTES):
            if limit is not None and len(out) >= limit:
                break
            chunk = buf[i : min(i + _READ_BYTES, hi // 8 + 1)]
            pos = np.flatnonzero(np.unpackbits(~chunk if missing else chunk, bitorder="little"))
            pos += 8 * i
            out.extend(pos[(pos >= lo) & (pos <= hi)].tolist())
        return out[:limit]

    def missing_in_range(self, lo: int, hi: int, limit: int | None = None) -> list[int]:
        """Sorted list of the values in [lo, hi] NOT represented.

        With limit, stops after that many gaps (cheap peek at huge ranges).
        """
        return self._scan(lo, hi, missing=True, limit=limit)

    def count_represented(self, lo: int, hi: int) -> int:
        """Number of represented values in [lo, hi]."""
        self._check_range(lo, hi)
        return (self.bits >> lo).bit_count() - (self.bits >> (hi + 1)).bit_count()

    def first_missing(self, lo: int, hi: int) -> int | None:
        """Smallest value in [lo, hi] not represented, or None."""
        self._check_range(lo, hi)
        rest = ~(self.bits >> lo)  # negative; its lowest set bit is the first gap from lo
        gap = lo + (rest & -rest).bit_length() - 1
        return gap if gap <= hi else None

    def values(self) -> list[int]:
        """Sorted list of all represented values <= bound."""
        return self._scan(0, self.bound, missing=False)

    def extend(self, g: int) -> RepresentationSieve:
        """Sieve of insert_sorted(coeffs, g) at the same bound.

        The sumset does not depend on the order of its terms, so this is
        one fold of g's term values into bits.
        """
        coeffs = _insert_sorted(self.coeffs, g)
        bits = fold([term_values(g, self.bound)], self.bound, self.bits)
        return RepresentationSieve(coeffs=coeffs, bound=self.bound, bits=bits)


_READ_BYTES = 1 << 11  # read-out slice: 16,384 bits
_FULL = np.uint64(2**64 - 1)
_GAP_CHUNK, _TERM_CHUNK = 256, 64  # one 128 KiB int64 block per gap-test step


def fold(term_lists, bound: int, bits: int = 1) -> int:
    """Packed bit array over [0, bound] of the sumset bits + T1 + T2 + ...

    bits is a packed set S within [0, bound], by default {0}.  The fold runs
    on nw = (bound + 64) // 64 uint64 words, and each term list T takes the
    cheapest of three exact ways to S + T:

    - S = {0} (the first list of a fold from the default bits): S + T is
      T's own bitmap, scattered one bit position v & 63 at a time.
    - 0 in T and S misses at most nw / 16 values: S is then a subset of
      S + T, so only a gap g of S can change, and it joins iff g - t is in
      S for some t in T with 0 < t <= g.  The gaps are tested against T in
      fixed-size blocks, and each is dropped once it is covered.
    - Otherwise the values v of T are grouped by v & 63, the words are
      shifted once per group, and each v ORs that shifted copy into the
      accumulator from word v >> 6 on.

    The byte limit is checked before anything is allocated, so term_lists
    may be a lazy iterable that is only consumed once the bound is accepted.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    nw = (bound + 64) // 64
    check_bytes(8 * nw, f"sieve of {bound + 1} bits")
    words = np.frombuffer(bits.to_bytes(8 * nw, "little"), dtype="<u8")
    top = np.uint64((1 << (bound % 64 + 1)) - 1)  # the last word's bits within bound
    seed = bits == 1
    for terms in term_lists:
        terms = list(terms)  # read twice: the test for 0, then the fold
        if seed:
            words = _fold_seed(_group(terms, bound), nw)
        elif 0 in terms and (gaps := _few_gaps(words, top)) is not None:
            words = _fold_gaps(words, gaps, terms, bound, top)
        else:
            words = _fold_dense(words, _group(terms, bound), top)
        seed = False
    return int.from_bytes(words.tobytes(), "little")


def _group(terms: list[int], bound: int) -> list[list[int]]:
    # the word offsets v >> 6 of the values v <= bound, bucketed by v & 63
    groups: list[list[int]] = [[] for _ in range(64)]
    for v in terms:
        if v <= bound:
            groups[v & 63].append(v >> 6)
    return groups


def _fold_seed(groups: list[list[int]], nw: int) -> np.ndarray:
    # {0} + T, T's bitmap: one bit position per bucket.  A repeated offset
    # sets the same bit, so the buffered fancy-index OR is exact.
    acc = np.zeros(nw, dtype="<u8")
    for r, offsets in enumerate(groups):
        if offsets:
            acc[offsets] |= np.uint64(1 << r)
    return acc


def _few_gaps(words: np.ndarray, top: np.uint64) -> np.ndarray | None:
    # The values missing from the set, ascending, if at most nw / 16; else None.
    # Every open word holds a gap, so the open words are counted first.
    nw = words.size
    is_open = words != _FULL
    is_open[-1] = words[-1] != top
    if 16 * np.count_nonzero(is_open) > nw:
        return None
    idx = np.flatnonzero(is_open)
    holes = ~words[idx]
    if idx.size and idx[-1] == nw - 1:
        holes[-1] &= top
    pos = np.flatnonzero(np.unpackbits(holes.view(np.uint8), bitorder="little"))
    if 16 * pos.size > nw:
        return None
    return idx[pos >> 6] * 64 + (pos & 63)


def _fold_gaps(
    words: np.ndarray, gaps: np.ndarray, terms: list[int], bound: int, top: np.uint64
) -> np.ndarray:
    # S + T for 0 in T: the gaps of S that some positive t covers join S.
    t_all = np.asarray(terms)
    t_all = t_all[(t_all > 0) & (t_all <= bound)].astype(np.int64)
    covered = []
    for i in range(0, t_all.size, _TERM_CHUNK):
        t = t_all[i : i + _TERM_CHUNK]
        start = np.searchsorted(gaps, t.min())  # the gaps below every t here stay
        if start == gaps.size:
            continue
        hit = np.zeros(gaps.size, dtype=bool)
        for j in range(start, gaps.size, _GAP_CHUNK):
            d = gaps[j : j + _GAP_CHUNK, None] - t
            found = words[d >> 6]  # a d < 0 reads a wrapped word, masked out below
            found >>= (d & 63).view(np.uint64)
            found &= d >= 0  # bit d of S, where t <= g
            hit[j : j + _GAP_CHUNK] = found.any(axis=1)
        covered.append(gaps[hit])
        gaps = gaps[~hit]
    acc = words.copy()
    if covered:
        new = np.concatenate(covered)
        np.bitwise_or.at(acc, new >> 6, np.left_shift(np.uint64(1), (new & 63).astype(np.uint64)))
    acc[-1] &= top
    return acc


def _fold_dense(words: np.ndarray, groups: list[list[int]], top: np.uint64) -> np.ndarray:
    # S + T by one shifted copy of the words per bucket and one OR per term
    nw = words.size
    shifted = np.empty(nw, dtype="<u8")
    acc = np.zeros(nw, dtype="<u8")
    for r, offsets in enumerate(groups):
        if not offsets:
            continue
        src = words
        if r:
            np.left_shift(words, r, out=shifted)
            shifted[1:] |= words[:-1] >> (64 - r)
            src = shifted
        for q in offsets:
            acc[q:] |= src[: nw - q]
    acc[-1] &= top
    return acc


def build_sieve(a, bound: int) -> RepresentationSieve:
    """Sieve of all values of the octagonal form with coefficients a, up to bound.

    Iterated sumset: start from {0} and fold in the term values of each
    coefficient (see fold).
    """
    a = coeff_vector(a)
    bits = fold((term_values(c, bound) for c in a), bound)
    return RepresentationSieve(coeffs=a, bound=bound, bits=bits)


def _descending_positions(a: tuple[int, ...]) -> list[int]:
    # Largest coefficient first; ties keep ascending position order.
    return sorted(range(len(a)), key=lambda i: (-a[i], i))


def _search(a: tuple[int, ...], v: int, want_witness: bool):
    if v % gcd(*a):
        return None if want_witness else False
    order = _descending_positions(a)
    xs: list[int] = [0] * len(a)
    dead: set[tuple[int, int]] = set()  # (depth, rem) states that cannot finish

    def go(depth: int, rem: int):
        if depth == len(order):
            return rem == 0
        if (depth, rem) in dead:
            return False
        c = a[order[depth]]
        # P8 arguments in the order 0, 1, -1, 2, -2, ...; P8(-x) > P8(x) for
        # x >= 1, so once the positive branch overshoots nothing else fits.
        x = 0
        while True:
            val = c * octagonal_number(x)
            if x > 0 and val > rem:
                dead.add((depth, rem))
                return False
            if val <= rem and go(depth + 1, rem - val):
                xs[order[depth]] = x
                return True
            x = -x if x > 0 else -x + 1

    found = go(0, v)
    if not want_witness:
        return found
    return tuple(xs) if found else None


def represents(a, v: int) -> bool:
    """True iff v is a value of the octagonal form with coefficients a.

    Depth-first search over coefficients in descending order with
    remaining-value pruning; every term is nonnegative, so the search
    is finite.
    """
    a = coeff_vector(a)
    if v < 0:
        raise ValueError("v must be >= 0")
    return _search(a, v, want_witness=False)


def witness(a, v: int) -> tuple[int, ...] | None:
    """Arguments (x1, ..., xk) with sum(a[i] * P8(x[i])) == v, or None.

    The witness is deterministic: coefficients are searched in descending
    order and P8 arguments in the order 0, 1, -1, 2, -2, ...
    """
    a = coeff_vector(a)
    if v < 0:
        raise ValueError("v must be >= 0")
    return _search(a, v, want_witness=True)


def missing_in_range(a, lo: int, hi: int) -> list[int]:
    """Sorted list of the values in [lo, hi] not represented by the form."""
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    return build_sieve(a, hi).missing_in_range(lo, hi)
