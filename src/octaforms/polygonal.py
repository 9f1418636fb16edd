"""Generalized polygonal numbers and representation by octagonal forms.

A sum c1*P8(x1) + ... + ck*P8(xk) with positive integer coefficients is
decided here two ways: a bit-sieve over a value range (fast, bulk; one
uint64 word-array fold kernel) and a pruned depth-first search (single
values, produces witnesses).  The fold spends its time on shifted ORs, one
byte-offset OR per term folded densely and one shifted copy of the set
per residue mod 8 among the terms (at most two nonzero ones for an
octagonal list).  So it folds the long lists last, hands the rest of a
dense list over to a gap test once its smallest terms have nearly filled
the set, and, from the first list on that does not start from {0}, folds
only the smallest terms of every list left and folds exactly only below
the largest value they miss, once that cuts the bound at least in half
(see fold).  Both paths are exact integer arithmetic throughout.
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

    def missing_in_range(self, lo: int, hi: int, limit: int | None = None) -> list[int]:
        """Sorted list of the values in [lo, hi] NOT represented.

        With limit, stops after that many gaps (cheap peek at huge ranges);
        a negative limit is a ValueError.
        """
        self._check_range(lo, hi)
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        return _bit_scan(self.bits, self.bound, lo, hi, missing=True, limit=limit)

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
        return _bit_scan(self.bits, self.bound, 0, self.bound, missing=False)

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
    bits: int, bound: int, lo: int, hi: int, missing: bool, limit: int | None = None
) -> list[int]:
    # The v in [lo, hi] whose bit is set (or clear) in bits, a bit array over
    # [0, bound], ascending; at most limit of them.  One compare per word
    # marks the words that hold such a bit, and the words are read one fixed
    # slice at a time, unpacking only the marked ones: the cost is linear in
    # the bound, a nearly full (or empty) range unpacks almost nothing, the
    # temporaries are one bool per word and one slice's, and a limit ends
    # the scan early.
    words = _decode(bits, bound)[lo // 64 : hi // 64 + 1]
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


_FULL = np.uint64(2**64 - 1)
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

    - S = {0} (the first list of a fold from the default bits): S + T is
      T's own bitmap, set by one indexed OR.
    - 0 in T and S misses at most nw / 16 values: S is then a subset of
      S + T, so only a gap g of S can change, and it joins iff g - t is in
      S for some t in T with 0 <= t <= g.  The gaps are tested against T in
      one block when there are few pairs, else in fixed-size blocks, each
      gap dropped once it is covered.
    - Otherwise dense (see _fold_dense): the values v of T are grouped by
      v & 7, the words are shifted once per group, and each v ORs the
      bytes of that shifted copy into the accumulator's from byte v >> 3
      on.  A list c * P8 fills at most three of the eight groups, one of
      them unshifted.  The smallest terms go first, and once their sum
      misses at most nw / 16 values the rest of T goes to the gap test
      instead.

    As soon as S != {0} and two or more lists are left, the head step tries
    to fold them all (see _fold_words).  A = S + H1 + ... + Hk, Hi the 12
    smallest terms of Ti, is folded densely, and L is the largest value
    <= bound that A misses (0 if none).  The step is exact for any S and
    any nonnegative lists: A is a subset of the sumset F, so every value
    above L is in F; and a value <= L is a sum of parts <= L, so F's values
    <= L are one low fold of S and the lists cut to <= L, at bound L, by
    the routes above.  An L above bound / 2 cuts too little: the next list
    is folded by its route and the step tried again before the one after
    it.  For all but one of the tabulated forms at bound 200,000, L is
    n - 1 or the largest exception, at the first or second try, so each
    list left costs 12 ORs, at most two shifted copies and a fold of a few
    words.

    The byte limit is checked before anything is allocated, so term_lists
    may be a lazy iterable that is only consumed once the bound is accepted.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    check_bytes(8 * ((bound + 64) // 64), f"sieve of {bound + 1} bits")
    words, _ = _fold_words(_decode(bits, bound), bits.bit_count(), term_lists, bound)
    return int.from_bytes(words.tobytes(), "little")


def _decode(bits: int, bound: int) -> np.ndarray:
    # the packed set bits within [0, bound] as nw = (bound + 64) // 64 read-only words
    return np.frombuffer(bits.to_bytes(8 * ((bound + 64) // 64), "little"), dtype="<u8")


def _fold_words(words: np.ndarray, size: int, term_lists, bound: int) -> tuple[np.ndarray, int]:
    # The words of S + T1 + T2 + ... for S in words, of at most size values,
    # and at most how many values that sumset has: one route per list (see
    # fold).  While S != {0} and two or more lists are left, the head step
    # reads L (see _head_miss) before each list.  An L above bound / 2
    # would cut less than half, so the list is folded by its route and the
    # step tried again; else the step cuts the words, the bound and the
    # lists to [0, L], the loop folds those by the same routes, never
    # trying the step again, and (L, bound] is set at the end.  words is
    # rebound at every list, so S can go once the first cut list is folded.
    # As size bounds |S|, size == 1 with bit 0 set means S = {0}.
    top = np.uint64((1 << (bound % 64 + 1)) - 1)  # the last word's bits within bound
    whole = None  # (nw, top, bound) of the fold, once the head step has cut it
    lists = iter(term_lists)
    while (terms := next(lists, None)) is not None:
        seed = size == 1 and words[0] == 1  # S = {0}
        if whole is None and not seed and len(rest := [terms, *lists]) > 1:
            del terms  # rest holds it, and _head_miss swaps it for a sorted copy
            low = _head_miss(words, rest, bound, top)
            if 2 * low <= bound:
                whole = (words.size, top, bound)
                words, bound, size = words[: low // 64 + 1], low, min(size, low + 1)
                top = np.uint64((1 << (low % 64 + 1)) - 1)
                lists = (terms[: bisect_right(terms, low)] for terms in rest)
                continue
            terms, lists = rest[0], iter(rest[1:])  # fold one list and try again
        terms = sorted(terms)  # read more than once, and ascending for _fold_dense
        if seed:
            v = np.array(terms, dtype=np.int64)
            words = _set(np.zeros(words.size, dtype="<u8"), v[v <= bound], top)
        elif 0 in terms and (gaps := _few_gaps(words, top)) is not None:
            words = _set(words.copy(), _cover(words, gaps, terms, bound)[0], top)
        else:
            words = _fold_dense(words, size, terms, bound, top)
        size = min(size * len(terms), bound + 1)
    if whole is not None:
        nw, whole_top, whole_bound = whole
        low_words, words = words, np.full(nw, _FULL, dtype="<u8")
        words[: low_words.size] = low_words
        words[low_words.size - 1] |= ~top  # (L, the end of L's word]
        words[-1] &= whole_top
        size += whole_bound - bound  # |F| <= |F within [0, L]| + bound - L
    return words, size


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


# The hand-over of _fold_dense, both measured: the terms ORed in before
# the gap test, and the fewest terms a list needs to try it at all.
_HEAD, _SPLIT_MIN = 12, 96


def _fold_dense(
    words: np.ndarray, size: int, terms: list[int], bound: int, top: np.uint64
) -> np.ndarray:
    # S + T for S in words, of at most size values, in a new accumulator.
    # The first _HEAD terms T' (the smallest, as fold passes T ascending)
    # are ORed in first.  If S + T' misses at most nw / 16 values, its gaps
    # are tested against the other terms T'' and the covered ones set:
    # S + T = (S + T') | (S + T'') for any split of T, and a gap g is in
    # S + T'' iff g - t is in S (words, not the partial sum) for some t in
    # T''.  Otherwise T'' is ORed in as well.  T is ORed in whole when the
    # test cannot pass (S + T' has at most size * |T'| values) or cannot
    # pay: a failed test re-shifts up to _HEAD buckets, which a short T''
    # does not win back.
    nw = words.size
    split = len(terms) >= _SPLIT_MIN and 16 * (bound + 1 - size * _HEAD) <= nw
    k = _HEAD if split else len(terms)
    acc = np.zeros(nw, dtype="<u8")
    _or_shifts(acc, words, _group(terms[:k], bound))
    rest = terms[k:]
    if rest:
        acc[-1] &= top
        if (gaps := _few_gaps(acc, top)) is not None:
            return _set(acc, _cover(words, gaps, rest, bound)[0], top)
        _or_shifts(acc, words, _group(rest, bound))
    acc[-1] &= top
    return acc


def _head_miss(words: np.ndarray, term_lists: list, bound: int, top: np.uint64) -> int:
    # L for the head step (see fold): the largest value <= bound that
    # A = S + H1 + ... + Hk misses, S in words and Hi the _HEAD smallest
    # terms of the ith list, or 0 if A misses none.  Each list is swapped
    # for a sorted copy.  Each head but the first shifts the sum before it
    # in place, and A is gone on return, so no more sieve-sized arrays are
    # held than in _fold_dense.
    term_lists[:] = map(sorted, term_lists)
    acc = words
    for terms in term_lists:
        src = acc
        acc = np.zeros(words.size, dtype="<u8")
        _or_shifts(acc, src, _group(terms[:_HEAD], bound), in_place=src is not words)
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
    lists.
    """
    a = coeff_vector(a)
    bits = fold((term_values(c, bound) for c in (a[0], *reversed(a[1:]))), bound)
    return RepresentationSieve(coeffs=a, bound=bound, bits=bits)


def build_sieves(forms, bound: int):
    """Sieves of the forms up to bound, yielded in the order given: a prefix walk.

    Every form, and the bound, is validated before the first sieve is built.
    Form i resumes from the longest prefix it shares with form i - 1.  It
    folds one coefficient at a time only as far as the prefix it shares with
    form i + 1, keeping each of those prefixes as its uint64 words, and folds
    the rest from the last kept words in one pass, largest coefficient first
    (see build_sieve); the words become a packed sieve once, for the form
    yielded.  A form that shares nothing with either neighbour costs one
    build_sieve.  The kept steps and the tails build each coefficient's term
    values once per walk.  So the walk keeps k <= len(form) word arrays, and
    before folding each form it checks the k kept arrays plus the one it
    builds, (k + 1) * 8 * nw bytes, against BYTE_LIMIT.
    """
    forms = [coeff_vector(a) for a in forms]
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return _walk(forms, bound)


def _shared_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _walk(forms: list[tuple[int, ...]], bound: int):
    nw = (bound + 64) // 64
    # kept[j]: the words and size (see _fold_words) of the form's first j + 1
    # coefficients; size stays a bound, as a popcount per step costs more than it saves
    kept: list[tuple[np.ndarray, int]] = []
    terms = cache(lambda c: term_values(c, bound))  # once per coefficient per walk
    for i, a in enumerate(forms):
        keep = _shared_prefix(a, forms[i + 1]) if i + 1 < len(forms) else 0
        check_bytes((max(len(kept), keep) + 1) * 8 * nw, f"prefix walk of {a} to {bound}")
        while len(kept) < keep:
            words, size = kept[-1] if kept else (_decode(1, bound), 1)
            kept.append(_fold_words(words, size, [terms(a[len(kept)])], bound))
        p = len(kept)
        if p == 0:
            yield build_sieve(a, bound)
        else:
            words, _ = _fold_words(*kept[-1], map(terms, reversed(a[p:])), bound)
            yield RepresentationSieve(a, bound, int.from_bytes(words.tobytes(), "little"))
        del kept[keep:]


def _extensions(parent: RepresentationSieve, gs, n: int, reserve):
    # (g, truant, sieve) for each g of gs: the sieve of parent + (g) and its
    # truant, the smallest value >= n it misses (None up to the bound).  The
    # parent's bits are decoded once.  When it misses at most nw / 16 values,
    # its gap list is tested against g's term values: the truant is the
    # smallest uncovered gap >= n, and a child with none gets no sieve (None).
    # Otherwise each child is folded densely from the decoded words, with no
    # second look at the parent's gaps.  reserve(k) runs before k more
    # sieve-sized arrays are held: the words, then the words and each child.
    bound = parent.bound
    reserve(1)
    words = _decode(parent.bits, bound)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)
    gaps = _few_gaps(words, top)
    size = parent.bits.bit_count()
    for g in gs:
        if gaps is None:
            reserve(2)
            child = _fold_dense(words, size, term_values(g, bound), bound, top)
        else:
            covered, rest = _cover(words, gaps, term_values(g, bound), bound)
            i = int(np.searchsorted(rest, n))
            if i == rest.size:
                yield g, None, None
                continue
            reserve(2)
            child = _set(words.copy(), covered, top)
        bits = int.from_bytes(child.tobytes(), "little")
        sieve = RepresentationSieve(_insert_sorted(parent.coeffs, g), bound, bits)
        yield g, (sieve.first_missing(n, bound) if gaps is None else int(rest[i])), sieve


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
