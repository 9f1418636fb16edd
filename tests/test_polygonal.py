"""Core representation machinery against an independent brute-force oracle."""

import contextlib
import hashlib
import random
import time
import tracemalloc
from bisect import bisect_right
from itertools import permutations, product
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaforms import lattice, polygonal, tables
from octaforms.escalation import CriterionSet, check_tight_universal, tight_verdicts
from octaforms.polygonal import (
    ResourceBudgetError,
    build_sieve,
    coeff_vector,
    fold,
    insert_sorted,
    is_proper_subsequence,
    missing_in_range,
    octagonal_numbers_up_to,
    polygonal_number,
    represents,
    term_values,
    witness,
)


# --- independent oracle: plain set arithmetic, no bit tricks, no DFS ------

def oracle_octagonal(limit):
    vals = {0}
    x = 1
    while 3 * x * x - 2 * x <= limit:
        vals.add(3 * x * x - 2 * x)
        if 3 * x * x + 2 * x <= limit:
            vals.add(3 * x * x + 2 * x)
        x += 1
    return sorted(vals)


def oracle_values(a, bound):
    """All values of the form up to bound by nested sum-set folding."""
    sums = {0}
    for c in a:
        terms = [c * p for p in oracle_octagonal(bound // c)]
        sums = {s + t for s in sums for t in terms if s + t <= bound}
    return sums


def oracle_represents(a, v):
    """Literal product-loop: try every tuple of term values."""
    lists = [[c * p for p in oracle_octagonal(v // c)] for c in a]
    return any(sum(combo) == v for combo in product(*lists))


def test_polygonal_number_values():
    assert polygonal_number(8, 0) == 0
    assert polygonal_number(8, 2) == 8
    assert polygonal_number(8, -2) == 16
    assert polygonal_number(3, 3) == 6
    with pytest.raises(ValueError):
        polygonal_number(2, 1)


def test_polygonal_number_closed_form_agrees_with_recurrence():
    # m-gonal numbers: P(x+1) - P(x) = (m-2)x + 1 for x >= 0
    for m in range(3, 12):
        acc = 0
        for x in range(0, 50):
            assert polygonal_number(m, x) == acc
            acc += (m - 2) * x + 1


def test_octagonal_numbers_up_to():
    assert octagonal_numbers_up_to(25) == [0, 1, 5, 8, 16, 21]
    assert octagonal_numbers_up_to(0) == [0]
    assert octagonal_numbers_up_to(40) == [0, 1, 5, 8, 16, 21, 33, 40]
    assert octagonal_numbers_up_to(1000) == oracle_octagonal(1000)


def test_coeff_vector_validation():
    assert coeff_vector([2, 2, 3]) == (2, 2, 3)
    with pytest.raises(ValueError):
        coeff_vector([3, 2])
    with pytest.raises(ValueError):
        coeff_vector([0, 1])
    with pytest.raises(ValueError):
        coeff_vector([])


def test_insert_sorted():
    built = (3,)
    for g in (7, 2, 5):
        built = insert_sorted(built, g)
    assert built == (2, 3, 5, 7)
    assert insert_sorted((2, 2, 3), 2) == (2, 2, 2, 3)
    assert insert_sorted((2, 3, 4), 8) == (2, 3, 4, 8)
    with pytest.raises(ValueError, match="positive"):
        insert_sorted((2, 3), 0)
    with pytest.raises(ValueError, match="non-decreasing"):
        insert_sorted((3, 2), 4)
    with pytest.raises(ValueError, match="positive"):
        build_sieve((2,), 50).extend(0)


def test_is_proper_subsequence():
    assert is_proper_subsequence((2, 3), (2, 3, 4))
    assert not is_proper_subsequence((2, 2), (2, 3, 4))
    assert not is_proper_subsequence((2, 3, 4), (2, 3, 4))
    assert is_proper_subsequence((3,), (2, 3, 4))
    assert not is_proper_subsequence((5,), (2, 3, 4))


def test_build_sieve_single_variable():
    s = build_sieve((1,), 25)
    assert s.values() == [0, 1, 5, 8, 16, 21]


def test_sieve_base_bits():
    # zero is always a value, and so is each coefficient alone
    rng = random.Random(2)
    for _ in range(20):
        a = tuple(sorted(rng.randint(1, 40) for _ in range(rng.randint(1, 5))))
        s = build_sieve(a, 40)
        assert 0 in s
        for c in a:
            assert c in s


def test_build_sieve_known_exception_sets():
    s = build_sieve((2, 2, 2, 3), 40)
    assert 8 not in s and 11 not in s
    s = build_sieve((2, 2, 3, 4), 100)
    assert s.missing_in_range(2, 100) == [] and 1 not in s and 0 in s


def test_build_sieve_resource_guard():
    with pytest.raises(ResourceBudgetError):
        build_sieve((1,), 2**31)


def test_fold_is_the_sumset_and_checks_its_budget_first():
    a = (1, 2, 5)
    terms = [[c * p for p in oracle_octagonal(60 // c)] for c in a]
    bits = fold(terms, 60)
    assert bits == build_sieve(a, 60).bits
    assert [v for v in range(61) if (bits >> v) & 1] == sorted(oracle_values(a, 60))

    def never_consumed():
        raise AssertionError("term lists read before the budget check")
        yield

    with pytest.raises(ResourceBudgetError):
        fold(never_consumed(), 2**31)
    with pytest.raises(ValueError):
        fold(never_consumed(), -1)


# values on and around the 64-bit word boundaries of the fold
EDGE_TERMS = st.lists(
    st.one_of(st.sampled_from([0, 63, 64, 65, 127, 128]), st.integers(0, 450)),
    min_size=1, max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(bound=st.integers(0, 400), term_lists=st.lists(EDGE_TERMS, max_size=4))
@example(bound=62, term_lists=[[0, 63], [64, 65]])
@example(bound=63, term_lists=[[0, 63], [0, 63, 64]])
@example(bound=64, term_lists=[[0, 64], [0, 63, 65]])
@example(bound=127, term_lists=[[0, 63, 64], [0, 64, 127]])
@example(bound=128, term_lists=[[0, 64, 65], [0, 63, 128]])
@example(bound=191, term_lists=[[0, 127, 128], [0, 63, 64, 65]])
def test_fold_matches_a_set_sumset_across_word_boundaries(bound, term_lists):
    sums = {0}
    for terms in term_lists:
        sums = {s + t for s in sums for t in terms if s + t <= bound}
    bits = fold(term_lists, bound)
    assert bits >> (bound + 1) == 0
    assert {v for v in range(bound + 1) if (bits >> v) & 1} == sums


@settings(max_examples=60, deadline=None)
@given(
    bound=st.sampled_from([0, 62, 63, 64, 127, 128, 191, 400]),
    a=st.lists(st.integers(1, 70), min_size=1, max_size=4),
)
def test_extend_is_the_sieve_of_the_inserted_form(bound, a):
    for order in set(permutations(a)):
        sieve = build_sieve(order[:1], bound)
        for g in order[1:]:
            sieve = sieve.extend(g)
        assert sieve == build_sieve(sorted(a), bound)


@st.composite
def form_lists(draw):
    # each form keeps some prefix of the one before it (all of it, or none)
    # and appends a sorted tail, so neighbours share prefixes, repeat, are
    # prefixes of each other in either order, or are unrelated
    forms: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 6))):
        prev = forms[-1] if forms else ()
        keep = draw(st.integers(0, len(prev)))
        tail = draw(st.lists(st.integers(prev[keep - 1] if keep else 1, 70),
                             min_size=0 if keep else 1, max_size=3))
        forms.append(prev[:keep] + tuple(sorted(tail)))
    return forms


@settings(max_examples=80, deadline=None)
@given(bound=st.sampled_from([0, 62, 63, 64, 127, 128, 191, 400, 4095]), forms=form_lists(),
       n=st.integers(0, 3), values=st.sets(st.integers(0, 60), max_size=4))
@example(bound=128, forms=[], n=2, values={3, 5})
@example(bound=191, forms=[(2, 3), (2, 3), (2, 3, 4), (2, 3, 4, 4), (2, 3), (5,), (1, 1, 2)],
         n=2, values={3, 5})
@example(bound=4095, forms=[(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3), (1, 2), (1, 2, 3, 4, 5)],
         n=2, values={3, 5})
def test_a_list_of_forms_gets_each_forms_own_verdict_and_sieve(bound, forms, n, values):
    # the verdicts of a list are the one-form checks, and the words read
    # for each form are its own sieve's; n and the criterion values are
    # cut to lie within the bound
    n = min(n, bound)
    crit = CriterionSet(n=n, values=tuple(sorted({n} | {v for v in values if n <= v <= bound})))
    assert tight_verdicts(forms, n, crit, bound) == [
        check_tight_universal(a, n, crit, bound) for a in forms]
    walked = [(a, _folded(*sieve, bound)) for a, sieve in polygonal._walk(forms, bound)]
    assert walked == [(a, build_sieve(a, bound).bits) for a in forms]


def _z_rows(forms):
    return [tables.TableRow(prefix=a, slot=None, expect_kind="Z", expect_z=()) for a in forms]


def test_a_list_of_forms_is_validated_before_the_first_sieve():
    # tight_verdicts and verify_z_rows raise on any bad form, or a negative
    # bound, before they fold any form's sieve
    good = [(1, 2), (1, 2, 3)]
    crit = CriterionSet(n=2, values=(2, 3))
    with mock.patch.object(polygonal, "_fold_words", side_effect=AssertionError("folded")):
        for bad in [(3, 2)], [(0, 1)], [()], [(1, "x")]:
            with pytest.raises(ValueError):
                tight_verdicts(good + bad + good, 2, crit, 100)
            with pytest.raises(ValueError):
                tables.verify_z_rows(_z_rows(good + bad + good), 100)
        with pytest.raises(ValueError):
            tight_verdicts(good, 2, crit, -1)
        with pytest.raises(ValueError):
            tables.verify_z_rows(_z_rows(good), -1)


def test_a_list_of_forms_checks_one_sieves_bytes_before_allocating():
    # a sieve of 2**31 + 1 bits is one word over the 256 MiB limit, so a
    # list of forms raises before it folds the first form.  A fold from {0}
    # fills a sieve-sized array first by the seed scatter's _set or, when
    # the gap proof holds, by _decode; both fail here, so a missing check
    # stops before it folds a 256 MiB sieve
    crit = CriterionSet(n=2, values=(2, 3))
    tracemalloc.start()
    try:
        with mock.patch.multiple(polygonal, _decode=mock.DEFAULT, _set=mock.DEFAULT) as spies:
            for spy in spies.values():
                spy.side_effect = AssertionError("allocated")
            with pytest.raises(ResourceBudgetError):
                tight_verdicts([(1, 2, 3), (1, 2, 4)], 2, crit, 2**31)
            with pytest.raises(ResourceBudgetError):
                tables.verify_z_rows(_z_rows([(1, 2, 3), (1, 2, 4)]), 2**31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sieve_bits_at_a_million_are_pinned():
    # (3,3,4,4) misses a whole residue class, so its last fold stays dense;
    # the tail of (8, ..., 16) folds only the gaps of a nearly full sieve.
    pins = {
        (2, 3, 4, 5): "8cfa615d44571b1f55519a82c420423e21158ae36ca4e8fa66b494a4b00c79c9",
        (2, 2, 2, 3): "c9675414b6cb5a6b20679be4d0694dbf835cf36478e382af2b233166f1b7bd35",
        (3, 4, 5, 6, 8): "a0d3b21a9640ae321ac9d51705053d563b2c0138df497b5b96044620621f1f30",
        (3, 3, 4, 4, 5): "b50afdffe7bcc051947fcece1986f089e306d1fecd02bc9e0fa4428fbb493f8f",
        tuple(range(8, 17)): "b5beb15f07ef4075a91ebd548b58351697d242c499f43fd07525a51d89ea9874",
    }
    for a, pin in pins.items():
        bits = build_sieve(a, 10**6).bits.to_bytes((10**6 + 8) // 8, "little")
        assert hashlib.sha256(bits).hexdigest() == pin, a
    # coprime-to-3 values: term lists b*y^2 with y >= 1, so no list holds 0
    bits = lattice.coprime3_values_up_to((3, 4, 5, 6), 10**6).to_bytes((10**6 + 8) // 8, "little")
    assert hashlib.sha256(bits).hexdigest() == (
        "2aca8ee65667975a539eeec2fc6648d75e6fab9189eeda5b152b37e555443b05"
    )


def test_sieve_bits_at_ten_million_are_pinned():
    # (2, 3, 4, 5, 6) is proved by the gaps of its first list (see fold),
    # (2, 3, 4, 5) by those of its list of 4, the third seed tried, and
    # (2, 3, 4, 6) by none of its four; the first two miss 1 alone up to
    # 10^7, so their bits agree, and (2, 3, 4, 6) misses 1 and 18
    pins = {
        (2, 3, 4, 5, 6): (1, "38dbcb71e794a2ab6d3ce90eefb9979f31581c16596b03b051b842fb3caf5ef4"),
        (2, 3, 4, 5): (3, "38dbcb71e794a2ab6d3ce90eefb9979f31581c16596b03b051b842fb3caf5ef4"),
        (2, 3, 4, 6): (None, "96a885aca2e40b450aa85fb533e87cd3a7469e65dfbec15aa354e274fed1ebef"),
    }
    for a, (proved_at, pin) in pins.items():
        proofs = []
        with _proving(proofs):
            bits = build_sieve(a, 10**7).bits.to_bytes((10**7 + 8) // 8, "little")
        assert [c for c, _, _ in proofs] == sorted(set(a))[: proved_at or len(set(a))], a
        assert [proved for _, _, proved in proofs][-1] == (proved_at is not None), a
        assert hashlib.sha256(bits).hexdigest() == pin, a


def _as_words(bits, bound):
    nw = (bound + 64) // 64
    return np.frombuffer(bits.to_bytes(8 * nw, "little"), dtype="<u8"), nw


def _as_int(words):
    return int.from_bytes(words.tobytes(), "little")


def _folded(low, cut, bound):
    # the packed bits over [0, bound] of a fold's (low, cut): low holds the
    # values within [0, cut] and nothing past it, and every value in
    # (cut, bound] is in the set
    bits = _as_int(low)
    assert cut <= bound and bits >> cut + 1 == 0
    return bits | (2 << bound) - (2 << cut)


# sets that are full but for 0-8 gaps, on bounds of 16 to 160 words;
# -1 stands for a gap at the bound itself
NEAR_FULL = st.lists(
    st.one_of(st.sampled_from([0, 63, 64, -1]), st.integers(0, 160 * 64)), max_size=8
)


@settings(max_examples=80, deadline=None)
@given(
    bound=st.integers(16 * 64 - 1, 160 * 64 - 1),
    gaps=NEAR_FULL,
    terms=st.lists(st.integers(1, 160 * 64 + 10), max_size=10),
    with_zero=st.booleans(),
)
@example(bound=1023, gaps=[0], terms=[1, 64], with_zero=True)
@example(bound=1023, gaps=[-1], terms=[1, 1023], with_zero=False)
@example(bound=8191, gaps=[0, 63, 64, -1, 100, 4000, 8000, 8190], terms=[1, 63, 64, 65],
         with_zero=True)
@example(bound=8191, gaps=[0, 63, 64, -1, 100, 4000, 8000, 8190],
         terms=[8190, 1, 63, 9000, 64, 65, 127, 128, 500, 1000, 4000, 7999, 8191], with_zero=True)
def test_fold_regimes_agree_on_nearly_full_sets(bound, gaps, terms, with_zero):
    gaps = {g % (bound + 1) for g in gaps}
    S = set(range(bound + 1)) - gaps
    T = terms + [0] if with_zero else terms
    expect = {s + t for s in S for t in T if s + t <= bound}
    bits = (1 << (bound + 1)) - 1 - sum(1 << g for g in gaps)
    words, nw = _as_words(bits, bound)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)

    dense = polygonal._fold_dense(words, T, bound, top)
    assert {v for v in range(bound + 1) if (_as_int(dense) >> v) & 1} == expect
    if with_zero:
        # the gap route is exact for any gap list once 0 is a term
        every_gap = np.array(sorted(gaps), dtype=np.int64)
        covered, _ = polygonal._cover(words, every_gap, T, bound)
        assert _as_int(polygonal._set(words.copy(), covered, top)) == _as_int(dense)
        few = polygonal._few_gaps(words, top)
        assert (few is not None) == (16 * len(gaps) <= nw)
        if few is not None:
            assert few.tolist() == sorted(gaps)

    # S is not {0}, so fold folds T densely.  fold sorts T, so with 0 in T
    # the _HEAD smallest terms T' hold 0 and S + T' holds S; when S misses
    # at most nw / 16 values, a longer T hands the rest over to the gap test
    with mock.patch.object(polygonal, "_fold_dense", wraps=polygonal._fold_dense) as spy, \
            mock.patch.object(polygonal, "_cover", wraps=polygonal._cover) as cover:
        assert fold([T], bound, bits) == _as_int(dense)
    assert spy.call_count == 1
    assert cover.called or not (with_zero and len(T) > polygonal._HEAD and 16 * len(gaps) <= nw)


@settings(max_examples=150, deadline=None)
@given(
    bound=st.integers(0, 40 * 64 - 1),
    step=st.integers(1, 4),
    gaps=st.lists(st.integers(0, 40 * 64), max_size=6),
    terms=st.lists(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 128]), st.integers(0, 41 * 64)),
                   max_size=16),
    head=st.integers(1, 4),
)
@example(bound=2047, step=1, gaps=[1, 2, 3], terms=[0, 1, 2], head=2)
@example(bound=2047, step=1, gaps=[1, 2, 3], terms=[2, 1, 2, 0, 3000], head=2)
@example(bound=2047, step=3, gaps=[], terms=[0, 3, 6, 1, 2, 64], head=2)
@example(bound=1023, step=2, gaps=[0], terms=[1, 64, 0, 65, 1], head=1)
@example(bound=960, step=1, gaps=[], terms=[1, 0], head=1)  # 0 in T'' covers 0
def test_the_dense_hand_over_is_the_set_sumset(bound, step, gaps, terms, head):
    # S is every step-th value up to the bound less a few gaps, so S + T' is
    # at times nearly full and at times not; the terms are unsorted, repeat,
    # may lack 0, and sit on word edges and past the bound.  With _HEAD
    # patched small, the first head terms T' are ORed in and the rest go to
    # the gap test exactly when S + T' misses at most nw / 16 values.
    S = set(range(0, bound + 1, step)) - set(gaps)
    expect = {s + t for s in S for t in terms if s + t <= bound}
    partial = {s + t for s in S for t in terms[:head] if s + t <= bound}
    words, nw = _as_words(sum(1 << v for v in S), bound)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)
    hand_over = len(terms) > head and 16 * (bound + 1 - len(partial)) <= nw
    with mock.patch.object(polygonal, "_HEAD", head), \
            mock.patch.object(polygonal, "_cover", wraps=polygonal._cover) as spy:
        dense = polygonal._fold_dense(words, terms, bound, top)
    assert {v for v in range(bound + 1) if (_as_int(dense) >> v) & 1} == expect
    assert _as_int(dense) >> (bound + 1) == 0
    assert spy.called == hand_over


def test_every_fold_order_gives_the_same_bits():
    # The sumset does not depend on the order of its lists, nor on folding
    # the last one alone onto the sieve of the others.  From {0} every order
    # ends in the head step.  Alone, each list folds densely, and the
    # gap test serves only its hand-over: a _cover call on T'', which lacks
    # 0, the smallest term.  The coprime-to-3 lists have no 0 and their
    # sums lie in one class mod 3, so theirs stay dense.
    bound = 200_000
    a = (1, 2, 3, 5)
    want = build_sieve(a, bound).bits
    with mock.patch.object(polygonal, "_cover", wraps=polygonal._cover) as cover:
        for order in permutations(a):
            assert fold((term_values(c, bound) for c in order), bound) == want, order
        for i, c in enumerate(a):
            others = build_sieve(a[:i] + a[i + 1:], bound).bits
            assert fold([term_values(c, bound)], bound, others) == want, c
    terms = [call.args[2] for call in cover.call_args_list]
    assert terms and all(0 not in t for t in terms)
    diag = (1, 2, 4, 6)
    units = {b: [b * y * y for y in lattice._coprime_units(bound // b)] for b in diag}
    want = lattice.coprime3_values_up_to(diag, bound)
    for order in permutations(diag):
        assert lattice.coprime3_values_up_to(order, bound) == want, order
        assert fold((units[b] for b in order), bound) == want, order


def test_the_dense_fold_holds_no_more_than_three_sieves_and_a_carry():
    # The hand-over sets the covered gaps in its own accumulator, and its
    # gap test holds two int64 blocks at once, so build_sieve peaks no
    # higher than the all-dense fold in the given order: the source, the
    # shifted copy, the accumulator and one carry.  With _HEAD past every
    # list's length, no list is split, and the head step ORs in every list
    # whole.  No seed's gaps prove (2, 3, 4, 6) (see fold) and no head step
    # cuts it, so build_sieve folds it densely at the full bound and hands
    # its last list over to the gap test.
    a, bound = (2, 3, 4, 6), 10**6
    build_sieve(a, 1_000)  # imports and caches outside the traced span

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with mock.patch.object(polygonal, "_HEAD", bound + 1):
        dense = peak(lambda: fold((term_values(c, bound) for c in a), bound))
    assert peak(lambda: build_sieve(a, bound)) <= dense < 5 * 8 * ((bound + 64) // 64)
    proofs, tries = [], []  # the spies hold their calls' arrays, so they stay out of the peak
    with _proving(proofs), _recording(tries), mock.patch.object(
        polygonal, "_fold_dense", wraps=polygonal._fold_dense
    ) as folds, mock.patch.object(polygonal, "_cover", wraps=polygonal._cover) as cover:
        build_sieve(a, bound)
    assert [proved for _, _, proved in proofs] == [False] * 4
    assert all(2 * low > bound for _, low in tries)
    assert folds.call_count == 3 and cover.called


def _shift_or_fold(bits, term_lists, bound):
    # the sumset S + T1 + T2 + ... within [0, bound] by Python-int shift-ors
    for terms in term_lists:
        acc = 0
        for t in set(terms):
            acc |= bits << t
        bits = acc & ((1 << (bound + 1)) - 1)
    return bits


# values on byte and word edges: v mod 64 in {0, 1, 7, 8, 9, 56, 63}
BYTE_EDGES = st.builds(lambda q, r: 64 * q + r, st.integers(0, 40),
                       st.sampled_from([0, 1, 7, 8, 9, 56, 63]))


@settings(max_examples=200, deadline=None)
@given(
    nw=st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)),
    S=st.sets(st.one_of(BYTE_EDGES, st.integers(0, 40 * 64)), max_size=40),
    before=st.sets(st.integers(0, 40 * 64), max_size=4),
    terms=st.lists(st.one_of(BYTE_EDGES, st.integers(0, 41 * 64)), max_size=14),
)
@example(nw=1, S={0, 1, 7, 8, 63}, before=set(), terms=[0, 1, 7, 8, 9, 56, 63])
@example(nw=2, S={0, 63, 64, 127}, before={5}, terms=[1, 56, 63, 64, 65, 71, 72, 120, 127])
@example(nw=2, S={0}, before=set(), terms=[127, 126, 121, 120, 64, 0])  # the last word's bytes
def test_the_byte_offset_kernel_is_the_sumset(nw, S, before, terms):
    # acc |= S + T within the nw words, whether the words are shifted into a
    # copy or in place (and left shifted); terms past the words drop out
    bound = 64 * nw - 1
    bits = sum(1 << v for v in S if v <= bound)
    start = sum(1 << v for v in before if v <= bound)
    want = start | _shift_or_fold(bits, [terms], bound)
    for in_place in (False, True):
        words = np.array(_as_words(bits, bound)[0])
        acc = np.array(_as_words(start, bound)[0])
        polygonal._or_shifts(acc, words, polygonal._group(terms, bound), in_place=in_place)
        assert _as_int(acc) == want, in_place
        if not in_place:
            assert _as_int(words) == bits


def test_octagonal_terms_fall_in_three_residues_mod_8():
    # 3 P8(x) + 1 = (3x - 1)^2, and an odd square is 1 mod 8, an even one 0
    # or 4, so P8(x) mod 8 is 0, 5 or 1
    for c in range(1, 65):
        assert {v & 7 for v in term_values(c, 20_000)} <= {0, c & 7, 5 * c & 7}, c


def test_an_octagonal_list_makes_at_most_two_shifted_copies():
    # the byte kernel shifts the words once per nonzero bucket v & 7, and a
    # list c * P8 fills at most two of them, whole or as its heads
    bound = 20_000
    words, nw = _as_words(build_sieve((1, 2), bound).bits, bound)
    for c in range(1, 41):
        terms = term_values(c, bound)
        for part, in_place in ((terms, False), (terms[: polygonal._HEAD], True)):
            acc = np.zeros(nw, dtype="<u8")
            with mock.patch.object(np, "left_shift", wraps=np.left_shift) as shift:
                polygonal._or_shifts(acc, np.array(words), polygonal._group(part, bound),
                                     in_place=in_place)
            assert shift.call_count <= 2, (c, in_place)


@st.composite
def head_steps(draw):
    # (bound, S, two to four term lists, the planted L or None).  Planted:
    # S is full but for gaps <= L, L one of them, and each list is 0 and
    # terms > L, so A = S + H1 + ... + Hk misses L and nothing above it.
    # Else S is any set in [0, bound] (without 0, empty, sparse or dense)
    # and the lists are octagonal term lists, coprime-to-3 lists (no 0) or
    # terms on word edges; all are shuffled and may repeat.
    bound = draw(st.integers(0, 40 * 64 - 1))
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        low = draw(st.one_of(st.sampled_from([-1, 63, 64, 65, bound - 1, bound]),
                             st.integers(-1, bound)))
        low = min(low, bound)
        gaps = {low} | draw(st.sets(st.integers(0, low), max_size=8)) if low >= 0 else set()
        S = set(range(bound + 1)) - gaps
        lists = [[0] + draw(st.lists(st.integers(low + 1, bound + 70), max_size=20))
                 for _ in range(k)]
    else:
        low = None
        step = draw(st.integers(1, 5))
        S = set(range(draw(st.integers(0, 3)), bound + 1, step))
        S -= draw(st.sets(st.integers(0, bound), max_size=8))
        lists = [draw(st.one_of(
            st.integers(1, 40).map(lambda c: term_values(c, bound)),
            st.integers(1, 40).map(
                lambda b: [b * y * y for y in lattice._coprime_units(bound // b)]),
            EDGE_TERMS,
        )) for _ in range(k)]
    lists = [draw(st.permutations(terms + terms[: draw(st.integers(0, 3))])) for terms in lists]
    return bound, S, lists, low


def _recording(tries):
    # _head_miss, patched to record each try: its heads (one per list left) and the L it returns
    real = polygonal._head_miss

    def head_miss(words, heads, *args):
        tries.append(([list(head) for head in heads], real(words, heads, *args)))
        return tries[-1][1]

    return mock.patch.object(polygonal, "_head_miss", head_miss)


def _assert_step_contract(tries, lists, bound):
    # The first try comes with every list left and reads the _HEAD smallest
    # terms of each.  A try whose L is above bound / 2 would cut too little:
    # the first one is retried at once if A holds the bound (L < bound),
    # with the same lists left and the 2 * _HEAD smallest terms of each;
    # after that the next list is folded and the step tried again, with a
    # list fewer and _HEAD heads, while two or more are left.  A try that
    # cuts is the last.
    h, k = polygonal._HEAD, len(lists)
    retry = [(0, 2 * h)] if tries[0][1] < bound else []
    plan = [(0, h), *retry] + [(j, h) for j in range(1, k - 1)]
    assert len(tries) <= len(plan)
    for (heads, _), (j, width) in zip(tries, plan):
        assert heads == [sorted(terms)[:width] for terms in lists[j:]]
    assert all(2 * low > bound for _, low in tries[:-1])
    assert 2 * tries[-1][1] <= bound or len(tries) == len(plan)


@settings(max_examples=150, deadline=None)
@given(case=head_steps())
@example(case=(127, set(range(128)), [[0, 64], [0, 1]], -1))
@example(case=(1023, set(range(1024)) - {5, 63}, [[0, 64, 64], [900, 0]], 63))
@example(case=(1023, set(range(1024)) - {64}, [[65, 0], [0, 700]], 64))
@example(case=(1023, set(range(1024)) - {0, 65}, [[0, 66], [66, 0, 66]], 65))
@example(case=(1023, set(range(1024)) - {3, 1022}, [[0, 1023], [1023, 0]], 1022))
@example(case=(1023, set(range(1024)) - {1023}, [[0], [0, 2000]], 1023))
@example(case=(100, {0, *range(51, 101)}, [[50, *range(12, -1, -1)], [0]], 50))  # 50 is a term
def test_the_head_step_is_the_ordinary_loop(case):
    # The step for every list left equals the Python-int sumset and one
    # route per list, as single-list folds take.  Unless S = {0}, whose
    # first list is scattered, the step is tried at the first list (see
    # _assert_step_contract).  Every try reads the planted L, or 0 where A
    # misses nothing.
    bound, S, lists, low = case
    bits = sum(1 << v for v in S)
    words, _ = _as_words(bits, bound)
    tries = []
    with _recording(tries):
        stepped = _folded(*polygonal._fold_words(words, lists, bound), bound)
    plain = words
    for terms in lists:
        plain, cut = polygonal._fold_words(plain, [terms], bound)
        assert cut == bound  # one list: no cut
    want = _shift_or_fold(bits, lists, bound)
    assert stepped == _as_int(plain) == want
    if S == {0}:  # the seed route, as from the default bits
        assert all(len(heads) < len(lists) for heads, _ in tries)
    else:
        _assert_step_contract(tries, lists, bound)
        assert low is None or {miss for _, miss in tries} == {max(low, 0)}
    assert fold(lists, bound, bits) == want


@settings(max_examples=150, deadline=None)
@given(
    bound=st.integers(0, 40 * 64 - 1),
    start=st.integers(0, 3),
    step=st.integers(1, 5),
    above=st.integers(-1, 40 * 64),
    zero=st.booleans(),
    cs=st.lists(st.integers(1, 40), min_size=2, max_size=5),
    lazy=st.booleans(),
)
@example(bound=2202, start=0, step=4, above=1367, zero=True, cs=[21, 39, 9, 2], lazy=True)
@example(bound=308, start=2, step=2, above=298, zero=True, cs=[1, 13, 3, 37], lazy=True)
@example(bound=1779, start=0, step=5, above=1270, zero=True, cs=[12, 11, 11, 10], lazy=False)
@example(bound=1616, start=0, step=4, above=1121, zero=True, cs=[4, 23, 21, 10], lazy=True)
def test_the_retry_is_the_sumset(bound, start, step, above, zero, cs, lazy):
    # Octagonal lists, built as far as they are read (_Terms) or whole and
    # shuffled, folded from S: the values from start, step apart, above
    # `above`, and 0 or not.  Whether the first try cuts, its retry does
    # (as in the examples) or neither, the bits are the Python-int sumset
    # and the tries keep the step's contract.  A bound below 408 c =
    # c P8(12) leaves a list shorter than 2 * _HEAD terms.
    S = {v for v in range(start, bound + 1, step) if v > above} | ({0} if zero else set())
    bits = sum(1 << v for v in S)
    words, _ = _as_words(bits, bound)
    whole = [term_values(c, bound) for c in cs]
    lists = ([polygonal._Terms(c, bound) for c in cs] if lazy
             else [random.Random(c).sample(terms, len(terms)) for c, terms in zip(cs, whole)])
    tries = []
    with _recording(tries):
        folded = _folded(*polygonal._fold_words(words, lists, bound), bound)
    assert folded == _shift_or_fold(bits, whole, bound)
    if S != {0}:
        _assert_step_contract(tries, whole, bound)


TERM_CAPS = st.one_of(
    BYTE_EDGES,
    st.builds(lambda c, x, d: c * polygonal.octagonal_number(x) + d,
              st.integers(1, 40), st.integers(-20, 20), st.sampled_from([-1, 0, 1])),
)


@settings(max_examples=300, deadline=None)
@given(
    c=st.integers(1, 40),
    cap=st.one_of(TERM_CAPS, st.integers(0, 10**6)),
    start=st.none() | st.integers(-40, 40),
    stop=st.none() | st.integers(-40, 40),
    step=st.none() | st.integers(1, 3),
    v=TERM_CAPS,
)
@example(c=1, cap=0, start=None, stop=None, step=None, v=0)
@example(c=3, cap=63, start=None, stop=12, step=None, v=64)
@example(c=1, cap=64, start=None, stop=-1, step=None, v=65)
def test_a_lazy_term_list_slices_as_its_whole_list(c, cap, start, stop, step, v):
    # _Terms(c, cap) reads as term_values(c, cap): its length, any slice
    # with a positive step, and the count of its terms <= v that the cut
    # below L takes; caps on byte and word edges and at a term value or
    # next to one
    cap = max(cap, 0)
    v = min(max(v, 0), cap)  # the cut counts at an L within the list's cap
    whole, lazy = term_values(c, cap), polygonal._Terms(c, cap)
    assert len(lazy) == len(whole)
    assert lazy[start:stop:step] == whole[start:stop:step]
    assert lazy[: 2 * polygonal._HEAD] == whole[: 2 * polygonal._HEAD]
    assert lazy[:] == whole
    assert polygonal._count_upto(lazy, v) == bisect_right(whole, v)


@pytest.mark.parametrize("c", [1, 2, 5, 13, 40])
def test_the_cut_below_L_counts_a_lazy_list_as_a_bisection(c):
    # a _Terms list counts its terms <= L by term_values' formula, a plain
    # list by bisection: the same count for L = 0, L < c, L = c and L on
    # and next to a term value
    cap = 5000
    whole = term_values(c, cap)
    edges = {0, c - 1, c, c + 1, cap} | {v + d for v in whole[:40] for d in (-1, 0, 1)}
    for low in sorted(L for L in edges if 0 <= L <= cap):
        count = polygonal._count_upto(polygonal._Terms(c, cap), low)
        assert count == bisect_right(whole, low) == polygonal._count_upto(whole, low), (c, low)
        assert polygonal._Terms(c, cap)[:count] == [t for t in whole if t <= low]


def _table_forms():
    # the 252 forms that certify_tables checks: table 1's prefixes and every tight form
    return [row.prefix for row in tables.load_table(1)] + [
        a for t in (2, 3, 4) for row in tables.load_table(t) for a in tables.expand_row(row)]


def _cut_at(tries, bound):
    # where a fold whose tries keep the step's contract cut: at the first
    # try, at its retry (with the same lists left), or later or never
    if 2 * tries[-1][1] > bound or len(tries[-1][0]) < len(tries[0][0]):
        return "later"
    return "first" if len(tries) == 1 else "retry"


def _proving(proofs):
    # _gap_proof, patched to record each try: (its seed's coefficient, W =
    # min(bound, 2 G) for the seed's own widest gap G, whether it proved);
    # a proof must end the fold at that W
    real = polygonal._gap_proof

    def gap_proof(lists, i, bound):
        proof = real(lists, i, bound)
        width = min(bound, 2 * _widest_gap(lists[i].c, bound))
        assert proof is None or proof[0] == width
        proofs.append((lists[i].c, width, proof is not None))
        return proof

    return mock.patch.object(polygonal, "_gap_proof", gap_proof)


def test_table_forms_take_the_head_step_once():
    # Every tabulated form at bound 200,000 first tries the gap proof (see
    # fold) with each distinct coefficient as the seed, smallest first,
    # until one proves: 221 of the 252 are proved by their first list and
    # 23 more by a later one, so 244 try no head step.  The other 8 try
    # every seed, and then the head step as soon as their first list is
    # scattered, by the contract above.  None cuts at the first try or its
    # retry: each folds a list and tries again (one, whose A misses the
    # bound, without a retry), and all but (2, 3, 4, 6) cut then, at
    # L <= 14.  (2, 3, 4, 6) never cuts: its heads leave 199,995, 199,547
    # and then 199,163 open, and it folds its last list whole.
    # Every table 4 form is proved, (4, 5, 6, 7, 8) by its list of 5, and
    # (2, 3, 4, 5) and (3, 3, 4, 4, 5) by their lists of 4.
    bound = 200_000
    split = {"proved": 0, "first": 0, "retry": 0, "later": 0}
    later_seed = 0
    for a in _table_forms():
        tries, proofs = [], []
        with _recording(tries), _proving(proofs):
            build_sieve(a, bound)
        seeds = sorted(set(a))
        assert [c for c, _, _ in proofs] == seeds[: len(proofs)], a
        assert [proved for _, _, proved in proofs[:-1]] == [False] * (len(proofs) - 1), a
        if proofs[-1][2]:
            assert tries == [], a
            split["proved"] += 1
            later_seed += len(proofs) > 1
            continue
        assert len(proofs) == len(seeds), a
        _assert_step_contract(tries, [term_values(c, bound) for c in reversed(a[1:])], bound)
        split[_cut_at(tries, bound)] += 1
    assert split == {"proved": 244, "first": 0, "retry": 0, "later": 8}
    assert later_seed == 23
    cases = [(a, 4, (), None) for row in tables.load_table(4) for a in tables.expand_row(row)]
    cases += [((3, 3, 4, 4, 5), 3, (17, 21), None), ((2, 3, 4, 5), 2, (), None),
              ((2, 3, 4, 6), 2, (18,), 199_163), ((2, 3, 4, 5, 6), 2, (), None),
              ((2, 2, 2, 3), 2, (8, 11), 11)]
    for a, n, exceptions, low in cases:
        tries, proofs = [], []
        with _recording(tries), _proving(proofs):
            sieve = build_sieve(a, bound)
        if low is None:
            assert proofs[-1][2] and tries == [], a
        else:
            assert not any(proved for _, _, proved in proofs), a
            assert tries[-1][1] == low and len(tries) <= 3, a
        assert sieve.missing_in_range(n, bound) == list(exceptions), a


def test_a_form_that_cuts_builds_no_whole_list_past_its_seed():
    # build_sieve's lists are built only as far as the fold reads them.  A
    # form that a seed's gaps prove builds no list whole and no term past
    # the largest W of its tries, and folds nothing at the full bound: no
    # _or_shifts call, no head step.  One that cuts at the head step's
    # first try or retry builds, in this order, each list's terms <= W for
    # the gap proofs that failed, its first list whole, and at most
    # 2 * _HEAD terms of each other list, its heads and its terms <= L;
    # _first_terms builds them all.  Of the tabulated forms, 244 are proved
    # and none cuts so; of three more forms, each cuts at the retry.
    bound = 200_000
    real = polygonal._first_terms
    proved = cut = 0
    for a in [*_table_forms(), (1, 2, 5, 7), (1, 2, 7, 9), (1, 4, 6, 9)]:
        tries, proofs, built = [], [], []

        def spy(c, k):
            built.append((c, k))
            return real(c, k)

        with _recording(tries), _proving(proofs), mock.patch.object(
            polygonal, "_first_terms", spy
        ), mock.patch.object(polygonal, "_or_shifts", wraps=polygonal._or_shifts) as shifts:
            sieve = build_sieve(a, bound)
        whole = [i for i, (c, k) in enumerate(built) if k == len(term_values(c, bound))]
        width = max(w for _, w, _ in proofs)
        if proofs[-1][2]:
            proved += 1
            assert width < bound and whole == [] and shifts.call_count == 0, a
            assert all(k <= len(term_values(c, width)) for c, k in built), a
        elif _cut_at(tries, bound) != "later":
            cut += 1
            assert len(whole) == 1 and built[whole[0]][0] == a[0], a
            assert all(k <= len(term_values(c, width)) for c, k in built[: whole[0]]), a
            assert max(k for _, k in built[whole[0] + 1 :]) <= 2 * polygonal._HEAD, a
    assert (proved, cut) == (244, 3)
    assert sieve.bits == fold([term_values(c, bound) for c in a], bound)  # the last form


def _widest_gap(c, bound):
    # G: the widest difference of consecutive terms c * P8(x) <= bound and
    # the first term past the bound, from the terms themselves (the oracle's,
    # so that a spy on the fold's term builder does not see them)
    ahead = [c * p for p in oracle_octagonal(2 * (bound // c) + 8)]
    k = sum(t <= bound for t in ahead)
    ahead = ahead[: k + 1]  # 2 c k <= bound + 8 c / 3 + 2 c
    assert len(ahead) == k + 1
    return max(b - a for a, b in zip(ahead, ahead[1:]))


@st.composite
def gap_proofs(draw):
    # (bound, c, rest): a fold from {0} of c's lazy list and the lists of
    # rest, an int b for b's lazy list or a plain list.  The bounds are
    # tiny (W = bound), below c, on word edges, or at a term of c * P8 or
    # next to one; the plain lists are runs of G - 1, G or G + 1 values
    # from 0 or from W - G + 1, so that C holds a run that just misses G,
    # just fills [β, β + G) up to W, or runs past W, or shorter runs from
    # 0, which fill [0, W] with c's list but leave its wider gaps past W
    # open.
    c = draw(st.integers(1, 30))
    bound = draw(st.one_of(
        st.integers(0, 300), BYTE_EDGES, st.integers(0, 20_000),
        st.builds(lambda x, d: max(c * polygonal.octagonal_number(x) + d, 0),
                  st.integers(-40, 40), st.sampled_from([-1, 0, 1])),
    ))
    gap = _widest_gap(c, bound)
    width = min(bound, 2 * gap)
    run = st.one_of(
        st.builds(lambda start, d: list(range(start, start + gap + d)),
                  st.sampled_from([0, max(width - gap + 1, 0)]), st.sampled_from([-1, 0, 1])),
        st.integers(1, max(gap, 1)).map(lambda r: list(range(r))),
    )
    rest = draw(st.lists(st.one_of(st.integers(1, 30), st.integers(31, 300), run),
                         min_size=1, max_size=4))
    return bound, c, rest


def _gap_lists(bound, c, rest):
    # a gap_proofs case as the lists the fold reads and the same lists whole
    lists = [polygonal._Terms(c, bound)] + [
        polygonal._Terms(b, bound) if isinstance(b, int) else b for b in rest]
    return lists, [terms[:] for terms in lists]


@settings(max_examples=200, deadline=None)
@given(case=gap_proofs())
@example(case=(84, 1, [list(range(19))]))  # G = 20 after 65, so F misses 84; C runs 19
@example(case=(84, 1, [list(range(21, 41))]))  # β + G - 1 = W = 40
@example(case=(49, 1, [24, 13, 11]))  # C's run at W is shorter than G
@example(case=(1, 17, [25]))  # bound < c: G is the gap past the bound
@example(case=(2, 1, [2]))  # W = bound
@example(case=(2000, 2, [4, 3]))  # ternary: C = T1 + T2 has no run
@example(case=(5000, 8, [28, 11, 11]))  # (8, 11, 11, 28) misses 1 and 5 mod 8
@example(case=(800, 4, [4, 4, 4]))  # repeated coefficients
@example(case=(200_000, 2, [5, 4, 3]))  # (2, 3, 4, 5): the list of 4 proves
@example(case=(500, 4, [60, list(range(32))]))  # only the list of 60, by its own G
def test_the_gap_proof_is_the_sumset(case):
    # The fold of case's lists from {0} equals the Python-int sumset.  It
    # tries the gap proof with the distinct lazy coefficients as seeds,
    # smallest first, until one proves, each at W = min(bound, 2 G) for its
    # own G; after the first, only if the sums miss no class (see
    # _sums_miss_a_class), and a fold whose sums miss one tries no head
    # step.  A fold it proves ORs nothing at the full bound (no _or_shifts
    # call, no head step) and builds no term past the largest W tried.
    bound, c, rest = case
    lists, whole = _gap_lists(bound, c, rest)
    real = polygonal._first_terms
    tries, proofs, built = [], [], []

    def spy(b, k):
        built.append((b, k))
        return real(b, k)

    with _recording(tries), _proving(proofs), mock.patch.object(
        polygonal, "_first_terms", spy
    ), mock.patch.object(polygonal, "_or_shifts", wraps=polygonal._or_shifts) as shifts:
        low, cut = polygonal._fold_words(None, lists, bound)
    want = _shift_or_fold(1, whole, bound)
    assert _folded(low, cut, bound) == want
    seeds = sorted({terms.c for terms in lists if isinstance(terms, polygonal._Terms)})
    assert [b for b, _, _ in proofs] == seeds[: len(proofs)]
    assert [width for _, width, _ in proofs] == [
        min(bound, 2 * _widest_gap(b, bound)) for b, _, _ in proofs]
    assert not any(proved for _, _, proved in proofs[:-1])
    width = max(width for _, width, _ in proofs)
    if proofs[-1][2]:
        assert cut == proofs[-1][1]
        assert tries == [] and shifts.call_count == 0
        assert all(k <= len(term_values(b, width)) for b, k in built)
    elif _sums_miss_a_class(lists, whole):
        assert len(proofs) == 1 and tries == []
    else:
        assert len(proofs) == len(seeds)


@settings(max_examples=200, deadline=None)
@given(case=gap_proofs())
@example(case=(500, 4, [60, list(range(32))]))  # the list of 60 proves only by its own G
@example(case=(50, 2, [8, 7, 4]))  # C without the seed's list: (2, 4, 7, 8) misses 3
def test_every_seed_the_gap_proof_may_pick_gives_the_sumset(case):
    # Whichever lazy list is the seed, with G its own widest gap and
    # W = min(bound, 2 G), the proof holds exactly when W is the bound or
    # C, the sumset of the other lists within [0, W], holds a run of G
    # values; and then the seed's terms <= W plus C within [0, W], with all
    # of (W, bound] set, is the sumset.
    bound, c, rest = case
    lists, whole = _gap_lists(bound, c, rest)
    want = _shift_or_fold(1, whole, bound)
    for i, seed in enumerate(lists):
        if not isinstance(seed, polygonal._Terms):
            continue
        gap = _widest_gap(seed.c, bound)
        width = min(bound, 2 * gap)
        C = _shift_or_fold(1, whole[:i] + whole[i + 1 :], width)
        proof = polygonal._gap_proof(lists, i, bound)
        assert (proof is not None) == (width == bound or "1" * gap in format(C, "b")), i
        if proof is not None:
            assert proof == (width, _shift_or_fold(C, [whole[i]], width)), i
            assert proof[1] | (2 << bound) - (2 << width) == want, i


def _sums_miss_a_class(lists, whole):
    # whether the sums of one term from each list all lie in one class mod
    # M > 1, M the gcd of the differences of each list's terms, or miss a
    # class mod 144, by set arithmetic: a lazy list c * P8 takes the
    # classes of c * P8(x) for every x, those of x in [0, 144)
    M = gcd(*(t - terms[0] for terms in whole for t in terms))
    sums = {0}
    for terms, values in zip(lists, whole):
        if isinstance(terms, polygonal._Terms):
            values = [terms.c * polygonal.octagonal_number(x) for x in range(144)]
        sums = {(s + t) % 144 for s in sums for t in values}
    return M > 1 or len(sums) < 144


FORMS_THAT_MISS_HIGH_UP = st.one_of(
    st.lists(st.integers(1, 12), min_size=2, max_size=3),  # ternary and binary
    st.builds(lambda m, a: [m * c for c in a], st.integers(2, 4),
              st.lists(st.integers(1, 8), min_size=2, max_size=5)),  # non-primitive
    st.sampled_from([[8, 11, 11, 28], [3, 3, 4, 4], [2, 3, 4, 6], [2, 3, 4, 5]]),
    st.lists(st.integers(1, 30), min_size=4, max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(a=FORMS_THAT_MISS_HIGH_UP.map(sorted), bound=st.integers(0, 30_000),
       proof=st.booleans(), missed=st.sampled_from([None, True, False]))
@example(a=[8, 11, 11, 28], bound=5000, proof=True, missed=None)
@example(a=[2, 4, 6, 8], bound=3000, proof=True, missed=None)
@example(a=[2, 3, 4, 5], bound=20_000, proof=False, missed=None)
def test_the_class_test_never_changes_bits(a, bound, proof, missed):
    # The class test (missed; None is the fold's own) chooses whether the
    # later seeds and the head step are tried, and a fold whose gap proofs
    # are taken away (proof False) goes on by the head step and the dense
    # folds: every choice gives the sumset.  The fold's own test is
    # _sums_miss_a_class, and a form whose sums miss a class tries no head
    # step.
    lists = list(polygonal._form_lists(tuple(a), bound))
    whole = [term_values(c, bound) for c in (a[0], *reversed(a[1:]))]
    want = _shift_or_fold(1, whole, bound)
    patches = []
    if not proof:
        patches.append(mock.patch.object(polygonal, "_gap_proof", return_value=None))
    if missed is not None:
        patches.append(mock.patch.object(polygonal, "_misses_a_class", return_value=missed))
    tries = []
    with _recording(tries), contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        folded = polygonal._fold_words(None, lists, bound)
    assert _folded(*folded, bound) == want
    if _sums_miss_a_class(lists, whole) if missed is None else missed:
        assert tries == []


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(FORMS_THAT_MISS_HIGH_UP, st.lists(st.integers(1, 200), min_size=1, max_size=6)),
    plain=st.lists(st.lists(st.integers(0, 400), max_size=6), max_size=2),
    bound=st.one_of(st.integers(0, 200), st.integers(0, 5000)),
)
@example(a=[8, 11, 11, 28], plain=[], bound=3000)  # misses 1 and 5 mod 8
@example(a=[1, 2, 25, 30], plain=[], bound=3000)  # misses no class mod 144
@example(a=[3], plain=[[1, 4], [2, 8, 32]], bound=100)  # M = 3
@example(a=[2, 3, 4, 6], plain=[[]], bound=0)  # all classes, then an empty list: no sums
def test_the_class_test_finds_a_class_the_sums_miss(a, plain, bound):
    # _misses_a_class answers as the set arithmetic of _sums_miss_a_class,
    # and when it finds a miss, the sumset within [0, bound] lies in fewer
    # than all classes mod 144 or mod M, as no value of that class is a sum
    lists = [polygonal._Terms(c, bound) for c in sorted(a)] + plain
    whole = [terms[:] for terms in lists]
    missed = polygonal._misses_a_class(lists)
    assert missed == _sums_miss_a_class(lists, whole)
    if missed:
        values = _shift_or_fold(1, whole, bound)
        values = [v for v in range(bound + 1) if values >> v & 1]
        M = gcd(*(t - terms[0] for terms in whole for t in terms))
        assert M > 1 or len({v % 144 for v in values}) < 144


def test_a_fold_whose_sums_lie_in_one_class_tries_no_head_step():
    # M is the gcd of the differences of each list's terms, not of the
    # terms: b * y^2 with y prime to 3 is b mod 3 b, so the coprime-to-3
    # folds have M = 3 gcd(b) and try no head step, though gcd(b) may be 1.
    assert polygonal._class_modulus([[1, 4, 16, 25, 49], [2, 8, 32]]) == 3
    assert polygonal._class_modulus([[2, 5], [3]]) == 3
    assert polygonal._class_modulus([[7], [3]]) == 0
    assert polygonal._class_modulus([polygonal._Terms(6, 100), [0, 9]]) == 3
    assert polygonal._class_modulus([polygonal._Terms(6, 5), [0, 9]]) == 9
    for diag, bound in (((3, 4, 5, 6), 10_000), ((1, 2), 3000), ((1, 1, 1), 2000)):
        tries = []
        with _recording(tries):
            bits = lattice.coprime3_values_up_to(diag, bound)
        assert tries == [], diag
        lists = [[b * y * y for y in lattice._coprime_units(bound // b)] for b in diag]
        assert bits == _shift_or_fold(1, lists, bound), diag
    # (8, 11, 11, 28) has M = 1 but misses 1 and 5 mod 8, so it tries its
    # first seed alone and no head step; at 10^6 that was 2 seeds and 2
    # head tries more, all failing
    a, bound = (8, 11, 11, 28), 10**6
    tries, proofs = [], []
    with _recording(tries), _proving(proofs):
        sieve = build_sieve(a, bound)
    assert polygonal._class_modulus(list(polygonal._form_lists(a, bound))) == 1
    assert [c for c, _, _ in proofs] == [8] and tries == []
    assert sieve.missing_in_range(10**6 - 7, 10**6) == [v for v in range(10**6 - 7, 10**6 + 1)
                                                         if v % 8 in (1, 5)]


EDGY = st.one_of(st.sampled_from([1, 63, 64, 65, 128]), st.integers(1, 160 * 64 + 10))


@settings(max_examples=80, deadline=None)
@given(
    bound=st.integers(16 * 64 - 1, 160 * 64 - 1),
    gaps=NEAR_FULL,
    terms=st.lists(EDGY, max_size=10),
    g=EDGY,
    n=st.integers(1, 300),
)
@example(bound=1023, gaps=[5, 64, 70, -1], terms=[65, 6, 6, 1023, 1024, 59], g=64, n=5)
@example(bound=1087, gaps=[0, 63, 64, 1087], terms=[64, 1, 1, 1087], g=1087, n=1)
@example(bound=10239, gaps=[5, 64, 70, -1], terms=[1], g=1, n=5)  # gap list, no truant
@example(bound=10239, gaps=[5, 64, 70, -1], terms=[64, 6], g=64, n=5)  # gap list, truant 5
def test_a_child_from_its_parents_gap_list_matches_one_fold(bound, gaps, terms, g, n):
    # the escalation's gap-list child: its truant (>= n) and, when it has one,
    # its bits equal one fold of the terms (or extend(g)) and first_missing
    gaps = {v % (bound + 1) for v in gaps}
    bits = (1 << (bound + 1)) - 1 - sum(1 << v for v in gaps)
    words, _ = _as_words(bits, bound)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)
    gap_list = np.array(sorted(gaps), dtype=np.int64)
    child = fold([terms + [0]], bound, bits)
    # unsorted and repeated terms: the truant is the first uncovered gap >= n
    covered, rest = polygonal._cover(words, gap_list, terms + [0] + terms, bound)
    truant = int(rest[rest >= n][0]) if (rest >= n).any() else None
    assert truant == polygonal.RepresentationSieve((1,), bound, child).first_missing(n, bound)
    assert _as_int(polygonal._set(words.copy(), covered, top)) == child

    parent = polygonal.RepresentationSieve(coeffs=(1,), bound=bound, bits=bits)
    reserved = []
    [(h, truant, child)] = polygonal._extensions(
        words, bound, [g], n, lambda c: term_values(c, bound), reserved.append)
    expect = parent.extend(g)
    assert h == g and truant == expect.first_missing(n, bound)
    # a dense parent folds every child
    assert (truant is None and child is None) or _as_int(child) == expect.bits
    assert reserved == [1] + [2] * (child is not None)  # before the read, then before the child


def test_the_chunked_gap_test_matches_a_set_oracle():
    # about 1,100 gaps x 120 terms is past half a block, so the terms go in
    # chunks and covered gaps drop out; the terms are unsorted, repeat and
    # pass the bound.  S holds multiples of 5 only, so a gap is covered only
    # by terms of its own residue mod 5 and about half stay open.
    rng = random.Random(20)
    bound = 64 * 20 - 1
    S = {v for v in range(0, bound + 1, 5) if rng.random() < 0.7} | {0}
    gaps = sorted(set(range(bound + 1)) - S)
    terms = [5 * rng.randrange(1, bound // 5 + 40) for _ in range(100)] + [64, 63, 1, 1, bound] * 4
    words, _ = _as_words(sum(1 << v for v in S), bound)
    covered, rest = polygonal._cover(words, np.array(gaps, dtype=np.int64), terms, bound)
    assert len(gaps) * len(terms) > polygonal._GAP_CHUNK * polygonal._TERM_CHUNK // 2
    expect = [g for g in gaps if any(0 < t <= g and g - t in S for t in terms)]
    assert sorted(covered.tolist()) == expect and 0 < len(expect) < len(gaps)
    assert rest.tolist() == sorted(set(gaps) - set(expect))


@settings(max_examples=40, deadline=None)
@given(bound=st.integers(0, 3000), terms=st.lists(st.integers(0, 3100), max_size=12))
def test_a_fold_from_zero_scatters_the_terms(bound, terms):
    words, _ = _as_words(1, bound)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)
    # from {0}, the list is scattered: neither gap-tested nor folded densely
    with mock.patch.multiple(polygonal, _cover=mock.DEFAULT, _fold_dense=mock.DEFAULT) as spies:
        seeded = _folded(*polygonal._fold_words(words, [terms], bound), bound)
    assert not any(spy.called for spy in spies.values())
    assert seeded == _as_int(polygonal._fold_dense(words, terms, bound, top))
    assert fold([terms], bound) == seeded == sum(1 << t for t in set(terms) if t <= bound)


@settings(max_examples=60, deadline=None)
@given(bound=st.integers(1, 3000), v=st.integers(1, 3000), terms=st.lists(st.integers(0, 3100),
                                                                           max_size=12))
@example(bound=200, v=64, terms=[0, 1, 3])  # bit 0 alone in the first word
@example(bound=200, v=200, terms=[5])
def test_only_a_start_of_zero_alone_is_scattered(bound, v, terms):
    # The fold reads S = {0} from the words.  A start of {0, v} is folded
    # densely, never scattered, whatever the word of v.
    bits = 1 | 1 << min(v, bound)
    words, _ = _as_words(bits, bound)
    with mock.patch.object(polygonal, "_fold_dense", wraps=polygonal._fold_dense) as dense:
        folded = _folded(*polygonal._fold_words(words, [terms], bound), bound)
    assert dense.called
    assert folded == _shift_or_fold(bits, [terms], bound)


def test_a_start_of_zero_is_scattered_wherever_the_fold_finds_it():
    # S = {0} is read from the words, not from a count of the values folded
    # so far.  So a list whose other terms pass the bound leaves {0}, and
    # the next list is scattered; and a fold below L whose S within [0, L]
    # is {0} scatters its cut lists.  Here S misses 1-9, every head holds 0
    # and terms above 9 but 3, so A misses 9 and nothing above it.  The
    # class test is held off (the first lists' sums miss classes mod 144),
    # so that only S = {0} keeps the head step away from the first case.
    bound = 1023
    for bits, lists, tries_left in [
        (1, [[0, bound + 5], [0, 3, 700]], []),
        (1 | (2**(bound + 1) - 2**10), [[0, 700], [0, 3, 900]], [2]),
    ]:
        words, _ = _as_words(bits, bound)
        tries = []
        with _recording(tries), mock.patch.object(
                polygonal, "_misses_a_class", return_value=False), mock.patch.multiple(
                polygonal, _cover=mock.DEFAULT, _fold_dense=mock.DEFAULT) as spies:
            folded = _folded(*polygonal._fold_words(words, lists, bound), bound)
        assert not any(spy.called for spy in spies.values())
        assert [len(heads) for heads, _ in tries] == tries_left
        assert folded == _shift_or_fold(bits, lists, bound)
        assert fold(lists, bound, bits) == folded


def test_read_outs_match_a_string_oracle_past_a_hundred_thousand_gaps():
    bound = 300_000
    sieve = build_sieve((1, 1), bound)
    flags = bin(sieve.bits)[2:].zfill(bound + 1)[::-1]  # flags[v] == "1" iff v represented
    assert flags.count("0") > 10**5
    edge = 8 * polygonal._READ_BYTES  # bits per read-out slice
    windows = [(0, bound), (1, bound), (7, 9), (edge - 1, edge), (edge - 3, 2 * edge + 5),
               (bound - 70, bound), (bound, bound), (12_345, 250_001), (0, 1)]
    for lo, hi in windows:
        gaps = [v for v in range(lo, hi + 1) if flags[v] == "0"]
        for limit in (None, 0, 1, 100, len(gaps), len(gaps) + 1):
            assert sieve.missing_in_range(lo, hi, limit) == gaps[:limit], (lo, hi, limit)
        assert sieve.count_represented(lo, hi) == hi - lo + 1 - len(gaps), (lo, hi)
        assert sieve.first_missing(lo, hi) == (gaps[0] if gaps else None), (lo, hi)
    assert sieve.values() == [v for v in range(bound + 1) if flags[v] == "1"]

    t0 = time.perf_counter()
    sieve.missing_in_range(1, bound)
    sieve.values()
    assert time.perf_counter() - t0 < 1.5  # a per-bit read-out takes seconds at this bound


@settings(max_examples=100, deadline=None)
@given(
    bound=st.integers(0, 40_000),
    runs=st.lists(st.tuples(st.booleans(), st.integers(1, 5000)), max_size=12),
    data=st.data(),
)
def test_read_outs_unpack_only_the_words_that_hold_a_wanted_bit(bound, runs, data):
    # bits in long runs of ones and zeros, so that many words are full or
    # empty and the wanted words span several read-out slices; any range
    # and limit, both kinds of read-out, against a per-bit oracle
    flags = "".join(("1" if on else "0") * n for on, n in runs)[: bound + 1].ljust(bound + 1, "0")
    bits = int(flags[::-1], 2)
    lo = data.draw(st.integers(0, bound))
    hi = data.draw(st.integers(lo, bound))
    limit = data.draw(st.none() | st.integers(0, 300))
    for missing, flag in ((True, "0"), (False, "1")):
        expect = [v for v in range(lo, hi + 1) if flags[v] == flag][:limit]
        assert polygonal._bit_scan(_as_words(bits, bound)[0], lo, hi, missing, limit) == expect


def _near_full_sets(bound):
    # the full set, S = {0}, the full set but for one value at each word
    # edge, and full sets but for a few values, over [0, bound]
    full = set(range(bound + 1))
    rng = random.Random(bound)
    return [full, {0}, *(full - {v} for v in (0, 1, 62, 63, 64, 65, 66, 127, 128, bound)),
            *(full - set(rng.sample(sorted(full), 3)) for _ in range(8))]


@pytest.mark.parametrize("bound", [63, 64, 65, 127, 128, 191, 200])
def test_the_word_read_out_finds_the_first_gap_of_a_set_oracle(bound):
    # the escalation's truants, the verdicts' gap scan and first_missing all
    # read the first gap in [lo, hi] from the words; lo and hi on and next
    # to a word edge, the bound on and off one
    ends = sorted({v for v in (0, 1, 63, 64, 65, 127, 128, bound) if v <= bound})
    for S in _near_full_sets(bound):
        words, _ = _as_words(sum(1 << v for v in S), bound)
        for lo in ends:
            for hi in (v for v in ends if v >= lo):
                expect = min((v for v in range(lo, hi + 1) if v not in S), default=None)
                assert polygonal._first_gap(words, lo, hi) == expect, (len(S), lo, hi)


def test_term_values_match_the_per_x_loop():
    for c in range(1, 41):
        for cap in range(-1, 2001):
            expect = {c * p for p in oracle_octagonal(cap // c)} if cap >= 0 else set()
            assert term_values(c, cap) == sorted(expect), (c, cap)


def test_represents_examples():
    assert not represents((2, 2, 2, 3), 8)
    assert not represents((2, 2, 2, 3), 11)
    assert represents((1, 1, 3, 3), 7)
    assert represents((5,), 0)


def test_search_stays_fast_on_hopeless_targets():
    import time

    t0 = time.perf_counter()
    assert not represents((2, 2, 2, 2, 2, 2), 99_999)  # parity obstruction
    assert not represents((2, 2, 2, 2, 2, 3), 1)       # below every nonzero value
    assert not represents((4, 5, 11, 13, 17, 19), 2)   # coprime coefficients
    assert time.perf_counter() - t0 < 2


def test_witness_examples():
    assert witness((1,), 5) == (-1,)
    assert witness((2, 3), 5) == (1, 1)
    assert witness((2, 2, 2, 3), 8) is None


def test_witness_soundness_random():
    rng = random.Random(1)
    for _ in range(300):
        k = rng.randint(1, 5)
        a = tuple(sorted(rng.randint(1, 9) for _ in range(k)))
        v = rng.randint(0, 250)
        xs = witness(a, v)
        assert (xs is not None) == represents(a, v)
        if xs is not None:
            assert sum(c * polygonal_number(8, x) for c, x in zip(a, xs)) == v


def test_missing_in_range_examples():
    assert missing_in_range((2, 3, 4, 6), 2, 100) == [18]
    assert missing_in_range((3, 4, 5, 6, 9), 3, 200) == [36]
    assert missing_in_range((1,), 0, 4) == [2, 3, 4]


def test_sieve_agrees_with_oracle_random_forms():
    rng = random.Random(20260810)
    for _ in range(60):
        k = rng.randint(1, 4)
        a = tuple(sorted(rng.randint(1, 6) for _ in range(k)))
        expect = oracle_values(a, 300)
        got = set(build_sieve(a, 300).values())
        assert got == expect, a


def test_sieve_agrees_with_dfs():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(1, 4)
        a = tuple(sorted(rng.randint(1, 6) for _ in range(k)))
        s = build_sieve(a, 120)
        for v in range(121):
            assert (v in s) == represents(a, v), (a, v)


def test_represents_agrees_with_product_oracle():
    rng = random.Random(99)
    for _ in range(150):
        k = rng.randint(1, 4)
        a = tuple(sorted(rng.randint(1, 6) for _ in range(k)))
        v = rng.randint(0, 120)
        assert represents(a, v) == oracle_represents(a, v), (a, v)


def test_sieve_monotone_under_extension():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 4)
        a = tuple(sorted(rng.randint(1, 8) for _ in range(k)))
        g = rng.randint(1, 10)
        s = build_sieve(a, 400)
        t = build_sieve(insert_sorted(a, g), 400)
        assert s.bits & ~t.bits == 0  # bitwise containment


def test_value_set_scales_with_the_form():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.randint(1, 3)
        a = tuple(sorted(rng.randint(1, 5) for _ in range(k)))
        c = rng.randint(2, 5)
        base = set(build_sieve(a, 1000 // c).values())
        scaled = set(build_sieve(tuple(c * e for e in a), 1000).values())
        assert scaled == {c * v for v in base}


def test_sieve_range_errors():
    s = build_sieve((2,), 50)
    with pytest.raises(ValueError):
        s.missing_in_range(10, 60)
    with pytest.raises(ValueError):
        51 in s


def test_missing_in_range_rejects_a_negative_limit():
    # a negative limit used to return [], which reads as "no gaps"
    s = build_sieve((3, 4, 5), 1000)
    assert s.missing_in_range(1, 1000, limit=5) == [1, 2, 6, 10, 11]
    with pytest.raises(ValueError):
        s.missing_in_range(1, 1000, limit=-1)
