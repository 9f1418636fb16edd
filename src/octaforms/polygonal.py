"""Generalized polygonal numbers and representation by octagonal forms.

A sum c1*P8(x1) + ... + ck*P8(xk) with positive integer coefficients is
decided here two ways: a bit-sieve over a value range (fast, bulk; one
uint64 word-array fold kernel) and a pruned depth-first search (single
values, produces witnesses).  The fold spends its time on shifted ORs, one
byte-offset OR per term folded densely and one shifted copy of the set
per residue mod 8 among the terms (at most two nonzero ones for an
octagonal list).  So a form's fold first tries to prove every value past
a small W from the gaps of one of its lists, folding only below W, in
Python ints.  Failing that, it folds the long lists last, hands the rest
of a dense list over to a gap test once its smallest terms have nearly
filled the set, and, from the first list on that does not start from
{0}, folds only the smallest terms of every list left (12, and 24 on a
first retry) and folds exactly only below the largest value they miss,
once that cuts the bound at least in half (see fold); build_sieve builds
only the terms that this reads.  The sieves of a list of forms are one
such fold from {0} per form.  Both paths are exact integer arithmetic
throughout.
The search is the package's only one: lattice.represents_coprime3
answers through it, since y = |3x - 1| turns b*y^2 with y prime to 3
into 3*b*P8(x) + b.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt
from typing import NamedTuple

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
    return _first_terms(coefficient, _term_count(coefficient, cap)) if cap >= 0 else []


def _term_count(c: int, cap: int) -> int:
    # the number of values c * P8(x) <= cap >= 0 (see term_values)
    s = isqrt(1 + 3 * (cap // c))
    return 1 + (s + 1) // 3 + (s - 1) // 3


def _first_terms(c: int, k: int) -> list[int]:
    # the k smallest values c * P8(x), ascending: x = 0, 1, -1, 2, -2, ...
    out = [0] * k
    out[1::2] = [c * x * (3 * x - 2) for x in range(1, k // 2 + 1)]
    out[2::2] = [c * x * (3 * x + 2) for x in range(1, (k + 1) // 2)]
    return out


class _Terms:
    # term_values(c, cap) as a sequence that builds only the slices read, of
    # the length term_values counts: the terms strictly increase, so a slice
    # is built from the first terms up to its last.  It is read only by
    # slices with a positive step: the fold reads prefixes, and counts the
    # terms <= W or <= L by term_values' formula (_count_upto).

    def __init__(self, c: int, cap: int):
        self.c, self.size = c, _term_count(c, cap)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: slice) -> list[int]:
        r = range(self.size)[i]
        return _first_terms(self.c, r[-1] + 1)[r.start :: r.step] if r else []


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

    def missing_in_range(self, lo: int, hi: int, limit: int | None = None) -> list[int]:
        """Sorted list of the values in [lo, hi] NOT represented.

        With limit, stops after that many gaps (cheap peek at huge ranges);
        a negative limit is a ValueError.
        """
        self._check_range(lo, hi)
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        return _bit_scan(_decode(self.bits, self.bound), lo, hi, missing=True, limit=limit)

    def count_represented(self, lo: int, hi: int) -> int:
        """Number of represented values in [lo, hi]."""
        self._check_range(lo, hi)
        return (self.bits >> lo).bit_count() - (self.bits >> (hi + 1)).bit_count()

    def first_missing(self, lo: int, hi: int) -> int | None:
        """Smallest value in [lo, hi] not represented, or None."""
        self._check_range(lo, hi)
        return _first_gap(_decode(self.bits, self.bound), lo, hi)

    def values(self) -> list[int]:
        """Sorted list of all represented values <= bound."""
        return _bit_scan(_decode(self.bits, self.bound), 0, self.bound, missing=False)

    def extend(self, g: int) -> RepresentationSieve:
        """Sieve of insert_sorted(coeffs, g) at the same bound.

        The sumset does not depend on the order of its terms, so this is
        one fold of g's term values into bits.
        """
        coeffs = _insert_sorted(self.coeffs, g)
        bits = fold([term_values(g, self.bound)], self.bound, self.bits)
        return RepresentationSieve(coeffs=coeffs, bound=self.bound, bits=bits)


_READ_BYTES = 1 << 11  # read-out slice: 256 words, 16,384 bits


def _bit_scan(
    words: np.ndarray, lo: int, hi: int, missing: bool, limit: int | None = None
) -> list[int]:
    # The v in [lo, hi] whose bit is set (or clear) in words, ascending; at
    # most limit of them.  One compare per word marks the words that hold
    # such a bit, and the words are read one fixed slice at a time,
    # unpacking only the marked ones: the cost is linear in the range, a
    # nearly full (or empty) range unpacks almost nothing, the temporaries
    # are one bool per word and one slice's, and a limit ends the scan early.
    words = words[lo // 64 : hi // 64 + 1]
    wanted = words != (_FULL if missing else 0)
    out: list[int] = []
    for i in range(0, words.size, _READ_BYTES // 8):
        if limit is not None and len(out) >= limit:
            break
        idx = np.flatnonzero(wanted[i : i + _READ_BYTES // 8]) + i
        if not idx.size:
            continue
        chunk = ~words[idx] if missing else words[idx]
        pos = np.flatnonzero(np.unpackbits(chunk.view(np.uint8), bitorder="little"))
        pos += 64 * (idx + lo // 64 - np.arange(idx.size))[pos >> 6]  # unpacked word -> its word
        out.extend(pos[(pos >= lo) & (pos <= hi)].tolist())
    return out[:limit]


def _first_gap(words: np.ndarray, lo: int, hi: int) -> int | None:
    # The smallest v in [lo, hi] whose bit is clear in words, or None: the
    # first word from lo's on that is not all ones, with the bits below lo
    # and past hi set.  lo's word and hi's are read as ints with those bits
    # set, the words between them by one compare, so nothing bound-sized is
    # built but one bool per word.
    first, last = lo >> 6, hi >> 6
    i, word = first, int(words[first]) | ((1 << (lo & 63)) - 1)
    if word == _ONES and first < last:
        between = words[first + 1 : last] != _FULL
        i = first + 1 + int(np.argmax(between)) if between.any() else last
        word = int(words[i])
    if i == last:
        word |= _ONES ^ ((2 << (hi & 63)) - 1)
    return 64 * i + (~word & (word + 1)).bit_length() - 1 if word != _ONES else None


_ONES = 2**64 - 1
_FULL = np.uint64(_ONES)
_GAP_CHUNK, _TERM_CHUNK = 256, 64  # one 128 KiB int64 block per gap-test step


def fold(term_lists, bound: int, bits: int = 1) -> int:
    """Packed bit array over [0, bound] of the sumset bits + T1 + T2 + ...

    bits is a packed set S within [0, bound], by default {0}.  The lists
    are folded in the order given.  The sumset does not depend on it, but
    the cost does: a fold from {0} is cheapest with the longest list first,
    as its seed, and the rest shortest first, so the dense folds get the
    fewest terms and the long lists come last, when their small terms fill
    the set (see build_sieve).  The fold runs on nw = (bound + 64) // 64
    uint64 words, and each term list T takes one of two exact ways to
    S + T:

    - S = {0} (the first list of a fold from the default bits, or of a
      fold below L whose S within [0, L] is {0}): S + T is T's own
      bitmap, set by one indexed OR.
    - Otherwise dense (see _fold_dense): the values v of T are grouped by
      v & 7, the words are shifted once per group, and each v ORs the
      bytes of that shifted copy into the accumulator's from byte v >> 3
      on.  A list c * P8 fills at most three of the eight groups, one of
      them unshifted.  The 12 smallest terms T' go first.  If S + T'
      misses at most nw / 16 values, the rest of T goes to a gap test
      instead: a gap g of S + T' joins iff g - t is in S for some t of
      the rest with 0 <= t <= g.  The gaps are tested against those terms
      in one block when there are few pairs, else in fixed-size blocks,
      each gap dropped once it is covered.

    A fold from S = {0} of two or more lists, the first of them
    build_sieve's lazy list, first tries the gap proof, with each distinct
    coefficient's lazy list in turn as the seed T0, smallest coefficient
    first, until one proves.  G is the widest gap between consecutive
    terms of T0, up to its first term past the bound, W = min(bound, 2 G),
    and C the sumset of the other lists within [0, W], folded from their
    terms <= W.  If C holds a run [b, b + G), every v in [b, bound] is in
    the sumset F: with s the largest term of T0 <= v - b, the next term is
    at most s + G, so v - s lies in [b, b + G).  C holds nothing past W,
    so b + G - 1 <= W, and F is (T0 within [0, W]) + C within [0, W] plus
    all of (W, bound]; at W = bound that sum is F whether or not C holds a
    run.  C and F within [0, W] take a few thousand bits, so they are
    Python-int shift-ORs, not words.  If no seed proves, the fold goes on
    by the routes above.  Of the 252 tabulated forms at bound 200,000, 221
    are proved by their first list and 23 more by a later one, such as
    (2, 3, 4, 5) by its list of 4.

    A fold from {0} that its first seed does not prove (or that has no
    seed) runs the class test before any other seed: do the sums all lie
    in one class mod M, M the gcd of the differences of each list's terms
    (c for c * P8, a multiple of 3 for b * y^2 with y prime to 3), or miss
    a class mod 144 (as (8, 11, 11, 28) misses 1 and 5 mod 8)?  Then F
    misses a value in every m consecutive ones, m = M or 144, so no gaps
    prove F past a W below bound - m + 1, and the head step's L is at
    least bound - m + 1: no other seed and no head step is tried.  The
    first seed comes before the test, as it proves most forms and the
    test costs about 20 us a form.

    As soon as S != {0} and two or more lists are left, the head step tries
    to fold them all (see _fold_words).  A = S + H1 + ... + Hk, Hi the 12
    smallest terms of Ti, is folded densely, and L is the largest value
    <= bound that A misses (0 if none).  The step is exact for any S, any
    nonnegative lists and any heads Hi within them: A is a subset of the
    sumset F, so every value above L is in F; and a value <= L is a sum of
    parts <= L, so F's values <= L are one low fold of S and the lists cut
    to <= L, at bound L, by the routes above.  An L above bound / 2 cuts
    too little.  The first such try is retried at once with the 24
    smallest terms of every list left, unless A misses the bound itself
    (L = bound), as a fold whose sums miss a whole residue class most often
    does and no number of heads can mend; if there is no retry or it fails
    too, and at every later try that fails, the next list is folded by its
    route and the step tried again before the one after it.  Of the 8
    tabulated forms at bound 200,000 that no seed proves, none cuts at the
    first try or its retry; 7 fold a list and cut at the next try, at
    L <= 14, and (2, 3, 4, 6) never cuts.
    The fold reads a list only through its terms <= W, its heads, its
    terms <= L and, when it folds the list whole, all of it; so
    build_sieve's lists build only those terms.  A proved or cut fold ends
    as its words up to W or L (see _Folded), and only this int is widened
    to the bound.

    The byte limit is checked before anything is allocated, so term_lists
    may be a lazy iterable that is only consumed once the bound is accepted.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    check_bytes(8 * ((bound + 64) // 64), f"sieve of {bound + 1} bits")
    folded = _fold_words(None if bits == 1 else _decode(bits, bound), term_lists, bound)
    return folded.packed(bound)


def _decode(bits: int, bound: int) -> np.ndarray:
    # the packed set bits within [0, bound] as nw = (bound + 64) // 64 read-only words
    return np.frombuffer(bits.to_bytes(8 * ((bound + 64) // 64), "little"), dtype="<u8")


class _Folded(NamedTuple):
    # A fold's sumset F within [0, bound], as _fold_words ends it: low holds
    # F's words within [0, cut] and nothing past the cut, and every value
    # in (cut, bound] is in F.  Only these methods read the cut, so the
    # verdicts and the Z rows read F without widening low to the bound.
    low: np.ndarray
    cut: int

    def packed(self, top: int) -> int:
        # F within [0, top], top <= bound, as a packed int
        if top <= self.cut:
            return int.from_bytes(self.low[: top // 64 + 1].tobytes(), "little") & (2 << top) - 1
        return int.from_bytes(self.low.tobytes(), "little") | (2 << top) - (2 << self.cut)

    def first_gap(self, lo: int, hi: int) -> int | None:
        # the smallest value in [lo, hi], hi <= bound, that F misses, or None
        return _first_gap(self.low, lo, min(hi, self.cut)) if lo <= self.cut else None

    def gaps(self, lo: int, hi: int) -> list[int]:
        # the values in [lo, hi], hi <= bound, that F misses, ascending
        return _bit_scan(self.low, lo, min(hi, self.cut), missing=True) if lo <= self.cut else []


def _fold_words(words: np.ndarray | None, term_lists, bound: int) -> _Folded:
    # F = S + T1 + T2 + ... (see _Folded), S the set in words, or {0} for
    # None.  One route per list, the seed scatter or the dense fold (see
    # fold).  The lists are read ascending, and only through slices.  A
    # fold from {0} first tries the gap proof from its first seed (see
    # _seeds), then the class test (see _misses_a_class), and the other
    # seeds only if the sums miss no class; a proof ends the fold at
    # cut = W.  Unless the sums miss a class, while S != {0} and two or
    # more lists are left, the head step reads L (see _head_miss) before
    # each list, from the _HEAD smallest terms of every list left.  An L
    # above bound / 2 would cut less than half: the first time, if
    # L < bound, the step is tried again at once with 2 * _HEAD heads, and
    # after that (or when the retry fails too) the list is folded by its
    # route and the step tried again; else the step cuts the words, the
    # bound and the lists to [0, L], and the loop folds those by the same
    # routes, never trying the step again, to cut = L.  words never holds
    # a value past the bound, so S = {0} is read from it exactly.
    lists = [_ascending(terms) for terms in term_lists]
    step = True  # the head step (and a gap proof's later seeds) may be tried
    if (words is None or _is_zero(words)) and len(lists) > 1:
        seeds = _seeds(lists) if isinstance(lists[0], _Terms) else []
        proof = _gap_proof(lists, seeds[0], bound) if seeds else None
        if proof is None:
            step = not _misses_a_class(lists)
            for i in seeds[1:] if step else ():
                if proof := _gap_proof(lists, i, bound):
                    break
        if proof is not None:
            width, bits = proof  # W, and F within [0, W]
            return _Folded(_decode(bits, width), width)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)  # the last word's bits within bound
    retry = True  # before the first try, retried with 2 * _HEAD heads if it fails with L < bound
    lists = iter(lists)
    while (terms := next(lists, None)) is not None:
        seed = words is None or _is_zero(words)
        if step and not seed and len(rest := [terms, *lists]) > 1:
            low = _head_miss(words, [terms[:_HEAD] for terms in rest], bound, top)
            if retry and bound // 2 < low < bound:
                low = _head_miss(words, [terms[: 2 * _HEAD] for terms in rest], bound, top)
            retry = False
            if 2 * low <= bound:
                step = False
                words, bound = words[: low // 64 + 1].copy(), low
                top = np.uint64((1 << (low % 64 + 1)) - 1)
                words[-1] &= top
                lists = (terms[: _count_upto(terms, low)] for terms in rest)
                continue
            terms, lists = rest[0], iter(rest[1:])  # fold one list and try again
        terms = terms[:]  # the whole list: a _Terms list is built here
        if seed:
            v = np.array(terms, dtype=np.int64)
            words = _set(np.zeros((bound + 64) // 64, dtype="<u8"), v[v <= bound], top)
        else:
            words = _fold_dense(words, terms, bound, top)
    return _Folded(_decode(1, bound) if words is None else words, bound)


def _is_zero(words: np.ndarray) -> bool:
    # whether the set in words is {0}
    return words[0] == 1 and not words[1:].any()


def _group(terms: list[int], bound: int) -> list[list[int]]:
    # the byte offsets v >> 3 of the values v <= bound, bucketed by v & 7
    groups: list[list[int]] = [[] for _ in range(8)]
    for v in terms:
        if v <= bound:
            groups[v & 7].append(v >> 3)
    return groups


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


def _cover(
    words: np.ndarray, gaps: np.ndarray, terms, bound: int
) -> tuple[np.ndarray, np.ndarray]:
    # Split the ascending gaps of S (the set in words) into those that some
    # term 0 <= t <= g covers, g - t in S, and the rest, still ascending.
    # terms may be in any order and repeat.  One block tests them all when
    # gaps x terms is at most half a block; otherwise the terms go in chunks,
    # and a covered gap is dropped from the later chunks.  Past half a block
    # the chunks win, as most gaps are covered by the first chunk's terms.
    t_all = np.asarray(terms, dtype=np.int64)
    t_all = t_all[(t_all >= 0) & (t_all <= bound)]
    if gaps.size * t_all.size <= _GAP_CHUNK * _TERM_CHUNK // 2:
        hit = _hits(words, gaps, t_all)
        return gaps[hit], gaps[~hit]
    covered = []
    for i in range(0, t_all.size, _TERM_CHUNK):
        t = t_all[i : i + _TERM_CHUNK]
        start = np.searchsorted(gaps, t.min())  # the gaps below every t here stay
        hit = np.zeros(gaps.size, dtype=bool)
        for j in range(start, gaps.size, _GAP_CHUNK):
            hit[j : j + _GAP_CHUNK] = _hits(words, gaps[j : j + _GAP_CHUNK], t)
        covered.append(gaps[hit])
        gaps = gaps[~hit]
    return np.concatenate(covered), gaps


def _hits(words: np.ndarray, gaps: np.ndarray, t: np.ndarray) -> np.ndarray:
    # one gap-test block: g - t in S for some t of t, per gap g.  d becomes
    # the word indices in place and the shifts are kept as bytes, so no
    # more than two int64 blocks are held at once.
    d = gaps[:, None] - t
    ok = d >= 0  # t <= g
    shift = (d & 63).astype(np.uint8)
    d >>= 6
    found = words[d]  # a d < 0 reads a wrapped word, masked out below
    del d
    found >>= shift
    found &= ok  # bit d of S, where t <= g
    return found.any(axis=1)


def _set(acc: np.ndarray, new: np.ndarray, top: np.uint64) -> np.ndarray:
    # acc with the bits at the positions new set in place, cut to the bound
    np.bitwise_or.at(acc, new >> 6, np.left_shift(np.uint64(1), (new & 63).astype(np.uint64)))
    acc[-1] &= top
    return acc


# the terms of a list that _fold_dense and the head step OR in first (measured)
_HEAD = 12


def _fold_dense(words: np.ndarray, terms: list[int], bound: int, top: np.uint64) -> np.ndarray:
    # S + T for S in words, in a new accumulator.  The first _HEAD terms T'
    # (the smallest, as fold passes T ascending) are ORed in first.  If
    # S + T' misses at most nw / 16 values, its gaps are tested against the
    # other terms T'' and the covered ones set: S + T = (S + T') | (S + T'')
    # for any split of T, and a gap g is in S + T'' iff g - t is in S
    # (words, not the partial sum) for some t in T''.  Otherwise T'' is
    # ORed in as well, after at most two more shifted copies.
    acc = np.zeros(words.size, dtype="<u8")
    _or_shifts(acc, words, _group(terms[:_HEAD], bound))
    if len(terms) > _HEAD:
        acc[-1] &= top
        if (gaps := _few_gaps(acc, top)) is not None:
            return _set(acc, _cover(words, gaps, terms[_HEAD:], bound)[0], top)
        _or_shifts(acc, words, _group(terms[_HEAD:], bound))
    acc[-1] &= top
    return acc


def _ascending(terms):
    # terms in ascending order; a _Terms list is, and is not built here
    return terms if isinstance(terms, _Terms) else sorted(terms)


def _count_upto(terms, v: int) -> int:
    # the number of the ascending terms <= v, v >= 0: a _Terms list counts
    # them by term_values' formula, with no indexed read; a plain list bisects
    return _term_count(terms.c, v) if isinstance(terms, _Terms) else bisect_right(terms, v)


def _class_modulus(lists: list) -> int:
    # M (see fold): the gcd of the differences of each ascending list's
    # terms, 0 where no list has two terms.  c * P8 has the terms 0, c and
    # 5 c, whose differences have gcd c.
    return gcd(*(
        (terms.c if len(terms) > 1 else 0) if isinstance(terms, _Terms)
        else gcd(*(t - terms[0] for t in terms))
        for terms in lists
    ))


# the modulus of the class test's residue sums: 16 * 9, so that it reads
# the sums mod 16 and mod 9, and mod every divisor of 144, at once
_CLASSES = 144


@cache
def _octagonal_classes(c: int) -> tuple[int, ...]:
    # the classes mod _CLASSES of c * P8(x) over all integers x: P8(x + m)
    # = P8(x) + m (6x + 3m - 2), so those of x in [0, _CLASSES)
    return tuple(sorted({c * x * (3 * x - 2) % _CLASSES for x in range(_CLASSES)}))


def _misses_a_class(lists: list) -> bool:
    # Whether every sum of one term from each list lies outside some class:
    # one mod M (see _class_modulus) when M > 1, or else one mod _CLASSES,
    # found by adding the lists' classes as rotations of a bitmask.  A
    # _Terms list reads the classes of c * P8 over all x, which hold those
    # of its terms, so a class missed is missed by the sums of the terms.
    # An empty list leaves no sums, and a full set of classes stays full.
    if not all(lists) or _class_modulus(lists) > 1:
        return True
    full = (1 << _CLASSES) - 1
    sums = 1  # the classes of the sums so far: {0}
    for terms in lists:
        if isinstance(terms, _Terms):
            classes = _octagonal_classes(terms.c % _CLASSES)
        else:
            classes = {t % _CLASSES for t in terms}
        acc = 0
        for r in classes:
            acc |= sums << r | sums >> (_CLASSES - r)
        sums = acc & full
        if sums == full:
            return False
    return True


def _seeds(lists: list) -> list[int]:
    # the gap proof's seeds (see fold): the index of each distinct
    # coefficient's lazy list, the smallest coefficient first
    first: dict[int, int] = {}
    for i, terms in enumerate(lists):
        if isinstance(terms, _Terms):
            first.setdefault(terms.c, i)
    return [first[c] for c in sorted(first)]


def _gap_proof(lists: list, i: int, bound: int) -> tuple[int, int] | None:
    # (W, the bits of F within [0, W]) if the gaps of the seed, the lazy
    # list lists[i], prove every value of F in (W, bound] (see fold), C
    # being the sumset of the other lists; else None.  The difference after
    # term i of c * P8 is c (i + 1) for even i and 2 c (i + 1) for odd i, so
    # G, the widest one up to the first term past the bound (term k), is
    # the larger of the last two.
    seed = lists[i]
    k, c = len(seed), seed.c
    gap = c * max(k, 2 * (k - k % 2))
    width = min(bound, 2 * gap)
    mask = (2 << width) - 1
    bits = 1
    for terms in lists[:i] + lists[i + 1 :]:  # C within [0, W]
        bits = _shift_or(bits, terms[: _count_upto(terms, width)], mask)
    run, span = bits, 1  # bit b of run: [b, b + span) in C, so b + span - 1 <= W
    while run and span < gap:
        step = min(span, gap - span)
        run, span = run & run >> step, span + step
    if not run and width < bound:
        return None
    return width, _shift_or(bits, seed[: _count_upto(seed, width)], mask)


def _shift_or(bits: int, terms: list[int], mask: int) -> int:
    # the set bits plus the terms, within mask: Python-int shifts, as at a
    # few thousand bits a numpy call costs more than the OR it makes
    acc = 0
    for t in terms:
        acc |= bits << t
    return acc & mask


def _head_miss(words: np.ndarray, heads: list, bound: int, top: np.uint64) -> int:
    # L for the head step (see fold): the largest value <= bound that
    # A = S + H1 + ... + Hk misses, S in words and the Hi the heads, or 0 if
    # A misses none.  Each head but the first shifts the sum before it in
    # place, and A is gone on return, so no more sieve-sized arrays are
    # held than in _fold_dense.
    acc = words
    for head in heads:
        src = acc
        acc = np.zeros(words.size, dtype="<u8")
        _or_shifts(acc, src, _group(head, bound), in_place=src is not words)
    acc[-1] |= ~top  # the bits past the bound are not missed
    is_open = acc != _FULL
    w = acc.size - 1 - int(np.argmax(is_open[::-1]))  # the last open word, if any
    return 64 * w + int(~acc[w]).bit_length() - 1 if is_open[w] else 0


def _or_shifts(
    acc: np.ndarray, words: np.ndarray, groups: list[list[int]], in_place: bool = False
) -> None:
    # acc |= S + {8 q + r : q in groups[r]}, by one shifted copy of the
    # words per bucket r and one OR per offset q, of that copy's bytes into
    # acc's from byte q on: in the little-endian words, bit v is bit v & 7
    # of byte v >> 3.  As 3 P8(x) + 1 = (3x - 1)^2, P8(x) mod 8 is 0, 1 or
    # 5, so a list c * P8 needs at most two shifted copies.  in_place
    # shifts the words themselves, from bucket to bucket, and leaves them
    # shifted: the bits pushed past the last word are past the bound for
    # every later bucket.
    nw = words.size
    shifted = words if in_place else np.empty(nw, dtype="<u8")
    acc_bytes, nb = acc.view(np.uint8), 8 * nw
    held = 0  # the shift that the words hold already (in place)
    for r, offsets in enumerate(groups):
        if not offsets:
            continue
        if r:
            carry = words[:-1] >> (64 - r + held)
            np.left_shift(words, r - held, out=shifted)
            shifted[1:] |= carry
            del carry  # before the next bucket's
            if in_place:
                held = r
        src = (shifted if r else words).view(np.uint8)
        for q in offsets:
            acc_bytes[q:] |= src[: nb - q]


def build_sieve(a, bound: int) -> RepresentationSieve:
    """Sieve of all values of the octagonal form with coefficients a, up to bound.

    Iterated sumset: start from {0} and fold in the term values of each
    coefficient (see fold), the smallest coefficient first (its list is the
    longest, and a fold from {0} scatters it at no fold cost) and then the
    largest to the second smallest, so the dense folds get the shortest
    lists.  Each list is built only as far as the fold reads it: its
    terms <= W when the gaps of one list prove the rest, else those, the
    first list's whole, and the others' heads and terms <= L unless one is
    folded whole.
    """
    a = coeff_vector(a)
    return RepresentationSieve(coeffs=a, bound=bound, bits=fold(_form_lists(a, bound), bound))


def _form_lists(a: tuple[int, ...], bound: int):
    # build_sieve's term lists, in its order, each built as far as it is read
    return (_Terms(c, bound) for c in (a[0], *reversed(a[1:])))


def _walk(forms, bound: int):
    # (form, F) for each form in the order given: its sieve folded from {0}
    # as build_sieve folds it, as a _Folded that the tight verdicts and the
    # Z rows read as it is, without widening it to the bound.  Every form
    # and the bound are checked, and one sieve's bytes, before the first fold.
    forms = [coeff_vector(a) for a in forms]
    if bound < 0:
        raise ValueError("bound must be >= 0")
    check_bytes(8 * ((bound + 64) // 64), f"a sieve of {bound + 1} bits per form")
    return ((a, _fold_words(None, _form_lists(a, bound), bound)) for a in forms)


def _extensions(words: np.ndarray, bound: int, gs, n: int, terms, reserve):
    # (g, truant, child) for each g of gs: the words of the parent's set
    # (words, over [0, bound]) plus g's term values terms(g), and its truant,
    # the smallest value >= n it misses (None up to the bound).  When the
    # parent misses at most nw / 16 values, its gap list is tested against
    # the terms: the truant is the smallest uncovered gap >= n, and a child
    # with none gets no words (None).  Otherwise each child is folded densely
    # and its truant read from its words.  reserve(k) runs before k more
    # sieve-sized arrays are held: once for the parent's read, then before
    # each child for the child and the dense fold's shifted copy.
    top = np.uint64((1 << (bound % 64 + 1)) - 1)
    reserve(1)
    gaps = _few_gaps(words, top)
    for g in gs:
        if gaps is None:
            reserve(2)
            child = _fold_dense(words, terms(g), bound, top)
            yield g, _first_gap(child, n, bound), child
            continue
        covered, rest = _cover(words, gaps, terms(g), bound)
        i = int(np.searchsorted(rest, n))
        if i == rest.size:
            yield g, None, None
            continue
        reserve(2)
        yield g, int(rest[i]), _set(words.copy(), covered, top)


def _descending_positions(a: tuple[int, ...]) -> list[int]:
    # Largest coefficient first; ties keep ascending position order.
    return sorted(range(len(a)), key=lambda i: (-a[i], i))


def _search(a: tuple[int, ...], v: int) -> tuple[int, ...] | None:
    # the witness of v (see witness), or None when a does not represent v
    if v % gcd(*a):
        return None
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

    return tuple(xs) if go(0, v) else None


def represents(a, v: int) -> bool:
    """True iff v is a value of the octagonal form with coefficients a.

    Depth-first search over coefficients in descending order with
    remaining-value pruning; every term is nonnegative, so the search
    is finite.
    """
    a = coeff_vector(a)
    if v < 0:
        raise ValueError("v must be >= 0")
    return _search(a, v) is not None


def witness(a, v: int) -> tuple[int, ...] | None:
    """Arguments (x1, ..., xk) with sum(a[i] * P8(x[i])) == v, or None.

    The witness is deterministic: coefficients are searched in descending
    order and P8 arguments in the order 0, 1, -1, 2, -2, ...
    """
    a = coeff_vector(a)
    if v < 0:
        raise ValueError("v must be >= 0")
    return _search(a, v)


def missing_in_range(a, lo: int, hi: int) -> list[int]:
    """Sorted list of the values in [lo, hi] not represented by the form."""
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    return build_sieve(a, hi).missing_in_range(lo, hi)
