"""Generalized polygonal numbers and representation by octagonal forms.

A sum c1*P8(x1) + ... + ck*P8(xk) with positive integer coefficients is
decided here two ways: a bit-sieve over a value range (fast, bulk; one
uint64 word-array fold kernel) and a pruned depth-first search (single
values, produces witnesses).  The fold spends its time on shifted ORs, one
byte-offset OR per term folded densely and one shifted copy of the set
per residue mod 8 among the terms (at most two nonzero ones for an
octagonal list).  So a form's fold first tries to prove every value past
a small W from the gaps of its first list, folding only below W, in
Python ints.  Failing that, it folds the long lists last, hands the rest
of a dense list over to a gap test once its smallest terms have nearly
filled the set, and, from the first list on that does not start from
{0}, folds only the smallest terms of every list left (12, and 24 on a
first retry) and folds exactly only below the largest value they miss,
once that cuts the bound at least in half (see fold); build_sieve builds
only the terms that this reads.  Both paths are exact integer arithmetic
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
    "build_sieves",
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
    uint64 words, and each term list T takes the cheapest of three exact
    ways to S + T:

    - S = {0} (the first list of a fold from the default bits, or of a
      fold below L whose S within [0, L] is {0}): S + T is T's own
      bitmap, set by one indexed OR.
    - 0 in T and S misses at most nw / 16 values: S is then a subset of
      S + T, so only a gap g of S can change, and it joins iff g - t is in
      S for some t in T with 0 <= t <= g.  The gaps are tested against T in
      one block when there are few pairs, else in fixed-size blocks, each
      gap dropped once it is covered.
    - Otherwise dense (see _fold_dense): the values v of T are grouped by
      v & 7, the words are shifted once per group, and each v ORs the
      bytes of that shifted copy into the accumulator's from byte v >> 3
      on.  A list c * P8 fills at most three of the eight groups, one of
      them unshifted.  The 12 smallest terms go first, and if their sum
      misses at most nw / 16 values the rest of T goes to the gap test
      instead.

    A fold from S = {0} whose first list T0 is build_sieve's lazy list,
    with more lists after it, first tries the gap proof.  G is the widest
    gap between consecutive terms of T0, up to its first term past the
    bound, W = min(bound, 2 G), and C the sumset of the other lists within
    [0, W], folded from their terms <= W.  If C holds a run [b, b + G),
    every v in [b, bound] is in the sumset F: with s the largest term of
    T0 <= v - b, the next term is at most s + G, so v - s lies in
    [b, b + G).  C holds nothing past W, so b + G - 1 <= W, and F is
    (T0 within [0, W]) + C within [0, W] plus all of (W, bound]; at
    W = bound that sum is F whether or not C holds a run.  Otherwise the
    fold goes on as below.  C and F within [0, W] take a few thousand bits,
    so they are Python-int shift-ORs, not words.  Of the 252 tabulated
    forms at bound 200,000, 221 are proved so.

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
    route and the step tried again before the one after it.  Of the 31
    tabulated forms at bound 200,000 that the gap proof leaves, 20 cut at
    the retry, at L <= 21, so each list left costs 36 ORs, at most two
    shifted copies per try and a fold of a few words; the other 11 go on.
    The fold reads a list only through its terms <= W, its heads, its
    terms <= L and, when it folds the list whole, all of it; so
    build_sieve's lists build only those terms.

    The byte limit is checked before anything is allocated, so term_lists
    may be a lazy iterable that is only consumed once the bound is accepted.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    check_bytes(8 * ((bound + 64) // 64), f"sieve of {bound + 1} bits")
    words = _fold_words(_decode(bits, bound), term_lists, bound)
    return int.from_bytes(words.tobytes(), "little")


def _decode(bits: int, bound: int) -> np.ndarray:
    # the packed set bits within [0, bound] as nw = (bound + 64) // 64 read-only words
    return np.frombuffer(bits.to_bytes(8 * ((bound + 64) // 64), "little"), dtype="<u8")


def _fold_words(words: np.ndarray, term_lists, bound: int) -> np.ndarray:
    # The words of S + T1 + T2 + ... for S in words: one route per list (see
    # fold).  The lists are read ascending, and only through slices.  While
    # S != {0} and two or more lists are left, the head step reads L (see
    # _head_miss) before each list, from the _HEAD smallest terms of every
    # list left.  An L above bound / 2 would cut less than half: the first
    # time, if L < bound, the step is tried again at once with 2 * _HEAD
    # heads, and after that (or when the retry fails too) the list is
    # folded by its route and the step tried again; else the step cuts the
    # words, the bound and the lists to [0, L], the loop folds those by the
    # same routes, never trying the step again, and (L, bound] is set at
    # the end.  words never holds a value past the bound, so S = {0} is
    # read from it exactly.  The gap proof comes first (see fold): it folds
    # below W, and (W, bound] is set as (L, bound] is.
    top = np.uint64((1 << (bound % 64 + 1)) - 1)  # the last word's bits within bound
    whole = None  # (nw, top) of the fold, once the head step or the gap proof has cut it
    retry = True  # before the first try, retried with 2 * _HEAD heads if it fails with L < bound
    lists = map(_ascending, term_lists)
    while (terms := next(lists, None)) is not None:
        seed = words[0] == 1 and not words[1:].any()  # S = {0}
        if seed and isinstance(terms, _Terms) and (rest := [*lists]):
            if (proof := _gap_proof(terms, rest, bound)) is not None:
                whole = (words.size, top)
                bound, bits = proof  # W, and F within [0, W]
                words, top = _decode(bits, bound), np.uint64((1 << (bound % 64 + 1)) - 1)
                break
            lists = iter(rest)
        if whole is None and not seed and len(rest := [terms, *lists]) > 1:
            low = _head_miss(words, [terms[:_HEAD] for terms in rest], bound, top)
            if retry and bound // 2 < low < bound:
                low = _head_miss(words, [terms[: 2 * _HEAD] for terms in rest], bound, top)
            retry = False
            if 2 * low <= bound:
                whole = (words.size, top)
                words, bound = words[: low // 64 + 1].copy(), low
                top = np.uint64((1 << (low % 64 + 1)) - 1)
                words[-1] &= top
                lists = (terms[: _count_upto(terms, low)] for terms in rest)
                continue
            terms, lists = rest[0], iter(rest[1:])  # fold one list and try again
        terms = terms[:]  # the whole list: a _Terms list is built here
        if seed:
            v = np.array(terms, dtype=np.int64)
            words = _set(np.zeros(words.size, dtype="<u8"), v[v <= bound], top)
        elif 0 in terms and (gaps := _few_gaps(words, top)) is not None:
            words = _set(words.copy(), _cover(words, gaps, terms, bound)[0], top)
        else:
            words = _fold_dense(words, terms, bound, top)
    if whole is not None:
        nw, whole_top = whole
        low_words, words = words, np.full(nw, _FULL, dtype="<u8")
        words[: low_words.size] = low_words
        words[low_words.size - 1] |= ~top  # (L, the end of L's word]
        words[-1] &= whole_top
    return words


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
    # one gap-test block: g - t in S for some t of t, per gap g
    d = gaps[:, None] - t
    found = words[d >> 6]  # a d < 0 reads a wrapped word, masked out below
    found >>= (d & 63).view(np.uint64)
    found &= d >= 0  # bit d of S, where t <= g
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


def _gap_proof(seed: _Terms, rest: list, bound: int) -> tuple[int, int] | None:
    # (W, the bits of F within [0, W]) for F = seed + T1 + ... + Tk, the Ti
    # the lists of rest, if seed's gaps prove every value in (W, bound] (see
    # fold); else None.  The difference after term i of c * P8 is c (i + 1)
    # for even i and 2 c (i + 1) for odd i, so G, the widest one up to the
    # first term past the bound (term k), is the larger of the last two.
    k = len(seed)
    gap = seed.c * max(k, 2 * (k - k % 2))
    width = min(bound, 2 * gap)
    mask = (2 << width) - 1
    bits = 1
    for terms in rest:  # C = (T1 + ... + Tk) within [0, W]
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
    terms <= W when the gaps of the first list prove the rest, else those,
    the seed's whole, and the others' heads and terms <= L unless one is
    folded whole.
    """
    a = coeff_vector(a)
    return RepresentationSieve(coeffs=a, bound=bound, bits=fold(_form_lists(a, bound), bound))


def _form_lists(a: tuple[int, ...], bound: int):
    # build_sieve's term lists, in its order, each built as far as it is read
    return (_Terms(c, bound) for c in (a[0], *reversed(a[1:])))


def build_sieves(forms, bound: int):
    """Sieves of the forms up to bound, yielded in the order given: a prefix walk.

    Every form, and the bound, is validated before the first sieve is built.
    Form i resumes from the longest prefix it shares with form i - 1.  It
    folds one coefficient at a time only as far as the prefix it shares with
    form i + 1, keeping each of those prefixes as its uint64 words, and folds
    the rest from the last kept words in one pass, largest coefficient first
    (see build_sieve); the words become a packed sieve once, for the form
    yielded.  A form that shares nothing with either neighbour is folded as
    build_sieve folds it.  The kept steps and the tails build each
    coefficient's term values once per walk.  So the walk keeps
    k <= len(form) word arrays, and before folding each form it checks the
    k kept arrays plus the one it builds, (k + 1) * 8 * nw bytes, against
    BYTE_LIMIT.
    """
    walk = _walk(forms, bound)
    return (RepresentationSieve(a, bound, int.from_bytes(w.tobytes(), "little")) for a, w in walk)


def _shared_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _walk(forms, bound: int):
    # (form, words) for each form in the order given, by the prefix walk of
    # build_sieves: the words are the form's sieve, and the tight verdicts
    # and the Z rows read them as they are.  Every form and the bound are
    # checked here, before the first fold.
    forms = [coeff_vector(a) for a in forms]
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return zip(forms, _walk_words(forms, bound))


def _walk_words(forms: list[tuple[int, ...]], bound: int):
    nw = (bound + 64) // 64
    kept: list[np.ndarray] = []  # kept[j]: the words of the form's first j + 1 coefficients
    terms = cache(lambda c: term_values(c, bound))  # once per coefficient per walk
    for i, a in enumerate(forms):
        keep = _shared_prefix(a, forms[i + 1]) if i + 1 < len(forms) else 0
        check_bytes((max(len(kept), keep) + 1) * 8 * nw, f"prefix walk of {a} to {bound}")
        while len(kept) < keep:
            words = kept[-1] if kept else _decode(1, bound)
            kept.append(_fold_words(words, [terms(a[len(kept)])], bound))
        p = len(kept)
        if p == 0:
            yield _fold_words(_decode(1, bound), _form_lists(a, bound), bound)
        else:
            yield _fold_words(kept[-1], map(terms, reversed(a[p:])), bound)
        del kept[keep:]


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
