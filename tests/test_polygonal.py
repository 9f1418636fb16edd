"""Core representation machinery against an independent brute-force oracle."""

import hashlib
import random
import time
import tracemalloc
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaforms import lattice, polygonal
from octaforms.polygonal import (
    ResourceBudgetError,
    build_sieve,
    build_sieves,
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
def form_walks(draw):
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
@given(bound=st.sampled_from([0, 62, 63, 64, 127, 128, 191, 400, 4095]), forms=form_walks())
@example(bound=128, forms=[])
@example(bound=191, forms=[(2, 3), (2, 3), (2, 3, 4), (2, 3, 4, 4), (2, 3), (5,), (1, 1, 2)])
@example(bound=4095, forms=[(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3), (1, 2), (1, 2, 3, 4, 5)])
def test_the_prefix_walk_gives_each_forms_own_sieve(bound, forms):
    assert [s.bits for s in build_sieves(forms, bound)] == [build_sieve(a, bound).bits for a in forms]
    assert [s.coeffs for s in build_sieves(forms, bound)] == forms


def test_the_prefix_walk_validates_every_form_before_the_first_sieve():
    good = [(1, 2), (1, 2, 3)]
    with mock.patch.object(polygonal, "_fold_words", side_effect=AssertionError("folded")):
        for bad in [(3, 2)], [(0, 1)], [()], [(1, "x")]:
            with pytest.raises(ValueError):
                next(build_sieves(good + bad + good, 100))
        with pytest.raises(ValueError):
            next(build_sieves(good, -1))


def test_the_prefix_walk_checks_its_kept_sieves_before_allocating():
    # a 2**30 sieve is 128 MiB: the two kept prefix sieves of (1, 2) and
    # the one being built are 384 MiB together, over the 256 MiB limit
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            next(build_sieves([(1, 2, 3), (1, 2, 4)], 2**30))
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


def _as_words(bits, bound):
    nw = (bound + 64) // 64
    return np.frombuffer(bits.to_bytes(8 * nw, "little"), dtype="<u8"), nw


def _as_int(words):
    return int.from_bytes(words.tobytes(), "little")


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
def test_fold_regimes_agree_on_nearly_full_sets(bound, gaps, terms, with_zero):
    gaps = {g % (bound + 1) for g in gaps}
    S = set(range(bound + 1)) - gaps
    T = terms + [0] if with_zero else terms
    expect = {s + t for s in S for t in T if s + t <= bound}
    bits = (1 << (bound + 1)) - 1 - sum(1 << g for g in gaps)
    words, nw = _as_words(bits, bound)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)

    dense = polygonal._fold_dense(words, bits.bit_count(), T, bound, top)
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

    # T has under _SPLIT_MIN terms, so no dense fold hands over here and a
    # _cover call is the gap route's
    with mock.patch.object(polygonal, "_cover", wraps=polygonal._cover) as spy:
        assert fold([T], bound, bits) == _as_int(dense)
    assert spy.called == (with_zero and 16 * len(gaps) <= nw)


@settings(max_examples=150, deadline=None)
@given(
    bound=st.integers(0, 40 * 64 - 1),
    step=st.integers(1, 4),
    gaps=st.lists(st.integers(0, 40 * 64), max_size=6),
    terms=st.lists(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 128]), st.integers(0, 41 * 64)),
                   max_size=16),
    head=st.integers(1, 4),
    exact_size=st.booleans(),
)
@example(bound=2047, step=1, gaps=[1, 2, 3], terms=[0, 1, 2], head=2, exact_size=True)
@example(bound=2047, step=1, gaps=[1, 2, 3], terms=[2, 1, 2, 0, 3000], head=2, exact_size=False)
@example(bound=2047, step=3, gaps=[], terms=[0, 3, 6, 1, 2, 64], head=2, exact_size=True)
@example(bound=1023, step=2, gaps=[0], terms=[1, 64, 0, 65, 1], head=1, exact_size=True)
@example(bound=960, step=1, gaps=[], terms=[1, 0], head=1, exact_size=True)  # 0 in T'' covers 0
def test_the_dense_hand_over_is_the_set_sumset(bound, step, gaps, terms, head, exact_size):
    # S is every step-th value up to the bound less a few gaps, so S + T' is
    # at times nearly full and at times not; the terms are unsorted, repeat,
    # may lack 0, and sit on word edges and past the bound.  With the split
    # patched small, the first head terms T' are ORed in and the rest go to
    # the gap test exactly when S + T' misses at most nw / 16 values.
    S = set(range(0, bound + 1, step)) - set(gaps)
    expect = {s + t for s in S for t in terms if s + t <= bound}
    partial = {s + t for s in S for t in terms[:head] if s + t <= bound}
    words, nw = _as_words(sum(1 << v for v in S), bound)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)
    size = len(S) if exact_size else bound + 1
    can_pass = 16 * (bound + 1 - size * head) <= nw
    hand_over = len(terms) > head and can_pass and 16 * (bound + 1 - len(partial)) <= nw
    with mock.patch.multiple(polygonal, _HEAD=head, _SPLIT_MIN=0), \
            mock.patch.object(polygonal, "_cover", wraps=polygonal._cover) as spy:
        dense = polygonal._fold_dense(words, size, terms, bound, top)
    assert {v for v in range(bound + 1) if (_as_int(dense) >> v) & 1} == expect
    assert _as_int(dense) >> (bound + 1) == 0
    assert spy.called == hand_over


def test_every_fold_order_gives_the_same_bits():
    # The sumset does not depend on the order of its lists.  In some of these
    # orders a dense fold hands its last terms over to the gap test: a
    # _cover call on T'', which lacks the 0 that the gap route's whole T
    # holds.  The coprime-to-3 lists have no 0 and their sums lie in one
    # class mod 3, so theirs stay dense.
    bound = 200_000
    a = (1, 2, 3, 5)
    want = build_sieve(a, bound).bits
    with mock.patch.object(polygonal, "_cover", wraps=polygonal._cover) as cover:
        for order in permutations(a):
            assert fold((term_values(c, bound) for c in order), bound) == want, order
    terms = [call.args[2] for call in cover.call_args_list]
    assert any(0 in t for t in terms) and any(0 not in t for t in terms)
    diag = (1, 2, 4, 6)
    units = {b: [b * y * y for y in lattice._coprime_units(bound // b)] for b in diag}
    want = lattice.coprime3_values_up_to(diag, bound)
    for order in permutations(diag):
        assert lattice.coprime3_values_up_to(order, bound) == want, order
        assert fold((units[b] for b in order), bound) == want, order


def test_the_dense_fold_holds_no_more_than_three_sieves_and_a_carry():
    # The hand-over sets the covered gaps in its own accumulator, so
    # build_sieve peaks no higher than the all-dense fold in the given
    # order: the source, the shifted copy, the accumulator and one carry.
    a, bound = (2, 3, 4, 5), 10**6
    build_sieve(a, 1_000)  # imports and caches outside the traced span

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with mock.patch.object(polygonal, "_SPLIT_MIN", float("inf")):
        dense = peak(lambda: fold((term_values(c, bound) for c in a), bound))
    assert peak(lambda: build_sieve(a, bound)) <= dense < 5 * 8 * ((bound + 64) // 64)


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
    [(h, truant, sieve)] = polygonal._extensions(parent, [g], n, reserved.append)
    expect = parent.extend(g)
    assert h == g and truant == expect.first_missing(n, bound)
    assert sieve == expect or (truant is None and sieve is None)  # a dense parent folds every child
    assert reserved == [1] + [2] * (sieve is not None)  # before the words, then before the child


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
    # from {0} of size 1, the list is scattered: neither gap-tested nor folded densely
    with mock.patch.multiple(polygonal, _cover=mock.DEFAULT, _fold_dense=mock.DEFAULT) as spies:
        seeded, size = polygonal._fold_words(words, 1, [terms], bound)
    assert not any(spy.called for spy in spies.values())
    assert size == min(len(terms), bound + 1)
    assert _as_int(seeded) == _as_int(polygonal._fold_dense(words, 1, terms, bound, top))
    assert fold([terms], bound) == _as_int(seeded) == sum(1 << t for t in set(terms) if t <= bound)


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
