"""Core representation machinery against an independent brute-force oracle."""

import hashlib
import random
import time
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

    dense = polygonal._fold_dense(words, polygonal._group(T, bound), top)
    assert {v for v in range(bound + 1) if (_as_int(dense) >> v) & 1} == expect
    if with_zero:
        # the gap route is exact for any gap list once 0 is a term
        every_gap = np.array(sorted(gaps), dtype=np.int64)
        assert _as_int(polygonal._fold_gaps(words, every_gap, T, bound, top)) == _as_int(dense)
        few = polygonal._few_gaps(words, top)
        assert (few is not None) == (16 * len(gaps) <= nw)
        if few is not None:
            assert few.tolist() == sorted(gaps)

    with mock.patch.object(polygonal, "_fold_gaps", wraps=polygonal._fold_gaps) as spy:
        assert fold([T], bound, bits) == _as_int(dense)
    assert spy.called == (with_zero and 16 * len(gaps) <= nw)


@settings(max_examples=40, deadline=None)
@given(bound=st.integers(0, 3000), terms=st.lists(st.integers(0, 3100), max_size=12))
def test_a_fold_from_zero_scatters_the_terms(bound, terms):
    words, nw = _as_words(1, bound)
    top = np.uint64((1 << (bound % 64 + 1)) - 1)
    groups = polygonal._group(terms, bound)
    seeded = polygonal._fold_seed(groups, nw)
    assert _as_int(seeded) == _as_int(polygonal._fold_dense(words, groups, top))
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
