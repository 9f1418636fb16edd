"""Lattice representation, similitudes, and the two transfer checks."""

import hashlib
import json
import math
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octaforms import lattice
from octaforms.fixtures import load_fixtures
from octaforms.lattice import (
    ConditionFailed,
    GenusFixture,
    GramMatrix,
    TransferInstance,
    check_bad_partition,
    check_prec,
    coprime3_values_up_to,
    count_representations,
    jones_strengthen,
    lattice_counts_up_to,
    lattice_vectors,
    octagonal_via_lattice,
    represents_coprime3,
    represents_lattice,
    residues,
    transfer_matrices,
    two_threes_params,
    two_threes_sufficient,
    _CUBE_BYTES,
    _column_subgroup,
    _covered_mask,
    _disc_fits_int64,
    _fixed_line,
    _iter_similitudes,
    _kernel_keys,
    _range_bounds,
    _vector_batches,
    _vector_batches_exact,
    _vectors_cached,
)
from octaforms.polygonal import (
    BYTE_LIMIT,
    ResourceBudgetError,
    build_sieve,
    polygonal_number,
    represents,
    witness,
)

D = GramMatrix.diagonal


def oracle_count_cube(v):
    """Independent triple loop for x^2 + y^2 + z^2 = v."""
    from math import isqrt

    n = 0
    r = isqrt(v)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            rest = v - x * x - y * y
            if rest < 0:
                continue
            z = isqrt(rest)
            if z * z == rest:
                n += 2 if z else 1
    return n


def test_gram_matrix_validation():
    with pytest.raises(ValueError, match=re.escape("not symmetric at (1,2)")):
        GramMatrix([[2, 1, 0], [1, 3, 1], [0, 0, 4]])
    # not positive definite, with only the first, only the second or only the
    # third leading minor negative
    for diag in ((-1, -1, 1), (1, -1, -1), (1, 1, -1)):
        with pytest.raises(ValueError, match="not positive definite"):
            D(diag)
    m = GramMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert m.det == 2 * 11 - 1 * 4 and not m.is_diagonal and D((1, 2, 3)).is_diagonal
    # ternary by construction: 1x1, 2x2 and 4x4 positive definite matrices,
    # and ragged or not square input, are refused
    for rows in ([[1]], [[2, 1], [1, 3]], [[int(i == j) for j in range(4)] for i in range(4)],
                 [[1, 0, 0], [0, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]],
                 [[1, 0], [0, 1], [0, 0]], []):
        with pytest.raises(ValueError, match="must be 3x3"):
            GramMatrix(rows)
    for entries in ((1,), (1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="must be 3x3"):
            D(entries)


def test_gram_matrix_is_a_frozen_value():
    m = GramMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert m.rows == ((2, 1, 0), (1, 3, 1), (0, 1, 4)) and m != m.rows
    assert m == GramMatrix(((2, 1, 0), (1, 3, 1), (0, 1, 4))) and hash(m) == hash(GramMatrix(m.rows))
    with pytest.raises(AttributeError):
        m.rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert repr(m) == "GramMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])"
    assert repr(D((1, 2, 3))) == "GramMatrix.diagonal([1, 2, 3])"
    for u in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="vector length mismatch"):
            m.value(u)


def test_gram_value_examples():
    assert D((1, 1, 1)).value((1, 2, 2)) == 9
    assert GramMatrix([[1, 0, 0], [0, 4, 1], [0, 1, 7]]).value((1, 1, 0)) == 5
    assert D((2, 3, 3)).value((1, 1, 1)) == 8
    m = GramMatrix([[2, -1, 1], [-1, 4, 1], [1, 1, 5]])
    assert m.bilinear((1, 0, 0), (0, 1, 0)) == -1


def test_representation_counts_match_oracle():
    cube = D((1, 1, 1))
    assert not represents_lattice(cube, 7)
    assert represents_lattice(cube, 9)
    assert count_representations(cube, 9) == 30
    assert count_representations(cube, 0) == 1
    for v in range(0, 60):
        assert count_representations(cube, v) == oracle_count_cube(v), v
    assert lattice_counts_up_to(cube, 0).tolist() == [1]
    assert lattice_counts_up_to(cube, 59).tolist() == [oracle_count_cube(v) for v in range(60)]


def test_representation_nondiagonal():
    m = GramMatrix([[2, -1, 1], [-1, 4, 1], [1, 1, 5]])
    # against direct evaluation over a box
    vals = set()
    for x in range(-6, 7):
        for y in range(-6, 7):
            for z in range(-6, 7):
                vals.add(m.value((x, y, z)))
    for v in range(0, 30):
        assert represents_lattice(m, v) == (v in vals), v
    assert represents_lattice(D((1, 2, 3)), 6)


def test_bulk_values_agree_with_pointwise():
    for m in (D((1, 1, 1)), D((6, 12, 27)), GramMatrix([[7, 2, 0], [2, 16, 0], [0, 0, 27]])):
        bulk = lattice_counts_up_to(m, 400) > 0
        for v in range(401):
            assert bulk[v] == represents_lattice(m, v), (m, v)


@st.composite
def ternary_grams(draw):
    diag = [draw(st.integers(1, 9)) for _ in range(3)]
    off = [draw(st.integers(-4, 4)) for _ in range(3)]
    rows = [[diag[0], off[0], off[1]], [off[0], diag[1], off[2]], [off[1], off[2], diag[2]]]
    try:
        return GramMatrix(rows)
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(ternary_grams())
def test_bulk_counts_agree_with_per_value_counts(m):
    # the per-value ellipsoid scan is the oracle for the box sweep
    top = 40
    counts = lattice_counts_up_to(m, top).tolist()
    assert counts == [count_representations(m, v) for v in range(top + 1)]


def _box_counts(m, top):
    # every point of the full box, x1 < 0 included, evaluated at once
    axes = [np.arange(-b, b + 1) for b in _range_bounds(m, top)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    q = np.einsum("ni,ij,nj->n", x, m.as_array(), x)
    return np.bincount(q[q <= top], minlength=top + 1).tolist()


def test_half_box_counts_match_the_full_box():
    # the sweep takes x1 >= 0 and doubles each x1 > 0 slice: cross terms
    # m12, m13 != 0 and both parities of b1 must not matter, nor a slice
    # split into several blocks of x2 rows
    grams = [
        GramMatrix([[4, 2, 1], [2, 3, 1], [1, 1, 2]]),
        GramMatrix([[2, -1, 1], [-1, 4, 1], [1, 1, 5]]),
        GramMatrix([[7, 3, -2], [3, 9, 4], [-2, 4, 11]]),
        D((1, 1, 1)),
    ]
    parities = set()
    for m in grams:
        for top in (0, 1, 2, 40, 41, 300, 1200):
            b1, b2, b3 = _range_bounds(m, top)
            parities.add(b1 % 2)
            assert lattice_counts_up_to(m, top).tolist() == _box_counts(m, top), (m, top)
    assert parities == {0, 1}
    # <1,1,1> at 1200: 69 x 69 slices, so blocks of 59 x2 rows, then 10
    assert _range_bounds(grams[3], 1200) == [34, 34, 34]


@settings(max_examples=200, deadline=None)
@given(ternary_grams(), st.integers(0, 10**18))
def test_range_bounds_are_exact(m, v):
    # b_i is the largest b with b^2 det <= v adj_i, adj_i the complementary 2x2 minor
    r = m.rows
    for i, b in enumerate(_range_bounds(m, v)):
        j, k = (c for c in range(3) if c != i)
        adj = r[j][j] * r[k][k] - r[j][k] * r[k][j]
        assert b * b * m.det <= v * adj < (b + 1) * (b + 1) * m.det


def test_vector_enumeration_budget():
    with pytest.raises(ResourceBudgetError):
        lattice_vectors(D((1, 1, 1)), 10**8)
    with pytest.raises(ResourceBudgetError):
        residues(D((1, 1, 1)), 1000, 1)


def test_coprime3_bulk_guard_fires_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            coprime3_values_up_to((1, 1, 1), 2**31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bulk_counts_guards_fire_before_allocating():
    # the point budget, the int64 guard, then the bytes of the counts and of
    # one box slice, all before the count array exists
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="point budget"):
            lattice_counts_up_to(D((1, 1, 1)), 10**9)
        # 6.7e7 box points, within the point budget, but a discriminant past int64
        with pytest.raises(ResourceBudgetError, match="int64"):
            lattice_counts_up_to(D((1, 1, 2**40)), 2**24)
        # 64 GiB of counts; a slice is 181 x 181 points (0.25 MiB)
        with pytest.raises(ResourceBudgetError, match="counts to"):
            lattice_counts_up_to(D((2**20, 2**20, 2**20)), 2**33)
        # 92 MiB of counts; a slice is 6929 x 6929 points (366 MiB)
        with pytest.raises(ResourceBudgetError, match="box slices"):
            lattice_counts_up_to(D((10**9, 1, 1)), 12_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_vector_row_guard_fires_before_allocating():
    # x1 = 0 is the only row, within the point budget, but each of its int64
    # temporaries has 97,979,589 entries (784 MB)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="ellipsoid rows"):
            represents_lattice(D((10**16, 1, 1)), 24 * 10**14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_residue_cube_guard_fires_before_allocating():
    # counted at 96 bytes a residue (checked against measured peaks below):
    # 141 is the first d refused, so 141^3 residues are never laid out
    assert _CUBE_BYTES == 96
    assert _CUBE_BYTES * 140**3 <= BYTE_LIMIT < _CUBE_BYTES * 141**3
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    inst = TransferInstance("big", D((1, 1, 1)), D((1, 1, 1)), 141, 1, (identity,), excluded=(0,))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="residue cube"):
            residues(D((1, 1, 1)), 141, 1)
        with pytest.raises(ResourceBudgetError, match="residue cube"):
            check_prec(D((1, 1, 1)), D((1, 1, 1)), 141, 1)
        with pytest.raises(ResourceBudgetError, match="residue cube"):
            check_bad_partition(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# self-similitudes of <d, d, d> of ratio d^2 and infinite order: d times a
# rational rotation (trace 2/3 and 11/7) whose denominator divides d
_ROTATIONS = {
    36: ((24, 12, -24), (24, -24, 12), (12, 24, 24)),
    49: ((21, -42, 14), (42, 14, -21), (14, 21, 42)),
}


@pytest.mark.parametrize("d", sorted(_ROTATIONS))
def test_residue_cube_constant_bounds_the_measured_peaks(d):
    # with every residue in the class (N = <d, d, d>, a = 0), each consumer's
    # tracemalloc peak stays within the bytes the guard counts.  M = <1, d, d^2>
    # has similitudes that cover part of the class, the heaviest case for
    # check_prec's open-row walk; M = <7, 7, 7> has none (7 does not divide
    # d^3, nor is 49^3 / 7 a sum of three squares), so every residue is left
    # for check_bad_partition's block walk
    N = D((d, d, d))
    inst = TransferInstance("cube", D((7, 7, 7)), N, d, 0, (_ROTATIONS[d],), excluded=(0,))
    runs = {
        "residues": lambda: len(residues(N, d, 0)) == d**3,
        "check_prec": lambda: not check_prec(D((1, d, d * d)), N, d, 0),
        "check_bad_partition": lambda: pytest.raises(ConditionFailed, check_bad_partition, inst),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            assert run(), name
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _CUBE_BYTES * d**3, (name, peak / d**3)
        assert peak >= 40 * d**3, (name, peak / d**3)  # the cube's rows were built


def test_similitude_pairing_guard_fires_before_allocating():
    # 672945 = 3*5*7*13*17*29 has 6144 representations by x^2 + y^2 + z^2, so
    # pairing the first two columns would take 6144^2 int64 entries (302 MB)
    v = 672945
    assert 8 * 6144**2 > BYTE_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="pairing 6144 x 6144"):
            transfer_matrices(D((1, 1, 1)), D((v, v, v)), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24


def _scaled(m, s):
    return GramMatrix([[s * e for e in row] for row in m.rows])


def _largest_int64_scale(m, w):
    # largest s for which the int64 batches handle s*M at s*w; the box does not depend on s
    b1, b2, _ = _range_bounds(m, w)

    def fits(s):
        return _disc_fits_int64(_scaled(m, s).rows, s * w, b1, b2)

    lo, hi = 1, 2
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


@settings(max_examples=80, deadline=None)
@given(ternary_grams(), st.integers(1, 30), st.sampled_from([None, -1, 0, 1]))
def test_int64_batches_match_exact_fallback(m, w, near_switch):
    # near_switch scales M and w to just below (-1, 0) or just past (1) the 2^62 switch
    s = 1 if near_switch is None else _largest_int64_scale(m, w) + near_switch
    m, v = _scaled(m, s), s * w
    b1, b2, _ = _range_bounds(m, v)
    assert _disc_fits_int64(m.rows, v, b1, b2) == (near_switch != 1)

    def vectors(batches):
        return sorted(tuple(int(e) for e in row) for batch in batches for row in batch)

    fast = vectors(_vector_batches(m, v))
    assert fast == vectors(_vector_batches_exact(m.rows, v, b1, b2))
    assert all(m.value(x) == v for x in fast)


def _per_row_batches(M, v):
    # one x1 row at a time: the reference order for the blocked sweep
    if v == 0:
        yield np.zeros((1, 3), dtype=np.int64)
        return
    m = M.rows
    b1, b2, _ = _range_bounds(M, v)
    a33 = m[2][2]
    x2 = np.arange(-b2, b2 + 1, dtype=np.int64)
    for x1 in range(-b1, b1 + 1):
        e = m[0][2] * x1 + m[1][2] * x2
        f = m[0][0] * x1 * x1 + 2 * m[0][1] * x1 * x2 + m[1][1] * x2 * x2 - v
        disc = e * e - a33 * f
        ok = disc >= 0
        if not ok.any():
            continue
        r = np.sqrt(disc.clip(min=0)).astype(np.int64)
        ok &= r * r == disc
        rows = []
        for sign in (1, -1):
            num = -e + sign * r
            good = ok & (num % a33 == 0)
            if sign == -1:
                good &= r != 0
            if good.any():
                rows.append(np.column_stack((np.full(good.sum(), x1), x2[good], num[good] // a33)))
        if rows:
            yield np.concatenate(rows)


def _rows_in_order(batches):
    return [tuple(int(e) for e in row) for batch in batches for row in batch]


@pytest.mark.parametrize("m, v", [
    (D((1, 1, 1)), 0),
    # 89 points a row, 4096 // 89 = 46 rows a block: 89 rows take two blocks
    (D((1, 1, 1)), 2000),
    (D((1, 1, 1)), 12345),
    # 6325 points a row: every block is one row
    (D((10**6, 1, 1)), 10**7),
    (GramMatrix([[2, -1, 1], [-1, 4, 1], [1, 1, 5]]), 5000),
    (GramMatrix([[9, 3, 0], [3, 15, 6], [0, 6, 18]]), 81 * 27),
])
def test_blocked_vector_batches_keep_the_per_row_order(m, v):
    expected = _rows_in_order(_per_row_batches(m, v))
    assert _rows_in_order(_vector_batches(m, v)) == expected
    assert count_representations(m, v) == len(expected)


@settings(max_examples=60, deadline=None)
@given(ternary_grams(), st.integers(0, 6000))
def test_blocked_vector_batches_match_the_per_row_scan(m, v):
    assert _rows_in_order(_vector_batches(m, v)) == _rows_in_order(_per_row_batches(m, v))


def test_huge_entries_fall_back_to_exact_arithmetic():
    # discriminants beyond int64 switch to plain-int batches, same answers
    scale = 10**14
    big = D((scale, scale, scale))
    assert count_representations(big, 100 * scale) == 30
    for row in lattice_vectors(big, 100 * scale):
        assert big.value(tuple(int(e) for e in row)) == 100 * scale
    assert not represents_lattice(big, 7 * scale)


def test_represents_coprime3_examples():
    assert represents_coprime3((1, 1, 3), 5)
    assert represents_coprime3((1, 1, 1), 3)
    assert represents_coprime3((1, 1, 1), 9)  # (2, 2, 1)
    assert not represents_coprime3((1, 1, 1), 1)
    assert not represents_coprime3((1, 1, 1), 0)
    assert represents_coprime3((2, 2, 3, 3), 16)
    assert represents_coprime3((3, 2, 3, 2), 16)  # any order of the diagonal
    assert represents((2, 2, 3, 3), 2)
    for diag in ((), (0,), (1, 0, 2), (-1, 1)):
        with pytest.raises(ValueError):
            represents_coprime3(diag, 0)
    with pytest.raises(ValueError):
        represents_coprime3((1, 1, 1), -1)


def test_coprime3_bulk_agrees_with_search():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(1, 4)
        diag = tuple(sorted(rng.randint(1, 9) for _ in range(k)))
        mask = coprime3_values_up_to(diag, 150)
        for v in range(151):
            assert bool((mask >> v) & 1) == represents_coprime3(diag, v), (diag, v)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=5),
    st.integers(0, 300),
    st.integers(0, 3 * 300 + 5 * 12),
)
def test_sieve_dfs_and_correspondence_agree(diag, u, v):
    # three routes to u -> p8(a): the sieve's fold, the DFS, the coprime-to-3 fold
    a = tuple(sorted(diag))
    assert (u in build_sieve(a, 300)) == represents(a, u) == octagonal_via_lattice(a, u)
    xs = witness(a, u)
    if xs is not None:
        assert sum(c * polygonal_number(8, x) for c, x in zip(a, xs)) == u
    mask = coprime3_values_up_to(diag, 3 * 300 + 5 * 12)
    for t in (v, 3 * u + sum(a)):
        assert represents_coprime3(diag, t) == bool((mask >> t) & 1), (diag, t)


def test_octagonal_via_lattice_examples():
    assert octagonal_via_lattice((1,), 1)
    assert not octagonal_via_lattice((2, 2, 2, 3), 8)
    assert octagonal_via_lattice((2, 3, 4, 5), 2)


def test_correspondence_random_sample():
    rng = random.Random(20260810)
    for _ in range(1500):
        k = rng.randint(1, 5)
        a = tuple(sorted(rng.randint(1, 10) for _ in range(k)))
        u = rng.randint(0, 200)
        assert represents(a, u) == octagonal_via_lattice(a, u), (a, u)


def test_residues_examples():
    cube = D((1, 1, 1))
    odd = residues(cube, 2, 1)
    assert odd.dtype == np.int64 and odd.shape == (4, 3)
    assert odd.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]
    even = residues(cube, 2, 0)
    assert even.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert len(residues(D((2, 3, 4)), 3, 1)) <= 27
    # an entry past int64 / 4: the residues follow from the entries mod d
    big = 2**62 + 1
    assert residues(D((big, 1, 1)), 5, 1).tolist() == [
        [x, y, z] for x in range(5) for y in range(5) for z in range(5)
        if (big * x * x + y * y + z * z) % 5 == 1
    ]
    for a in (-1, 5):
        with pytest.raises(ValueError, match="0 <= a < d"):
            residues(cube, 5, a)
        with pytest.raises(ValueError, match="0 <= a < d"):
            check_prec(cube, cube, 5, a)


@settings(max_examples=25, deadline=None)
@given(ternary_grams(), st.integers(1, 30))
def test_residue_array_is_the_lexicographic_cube_scan(m, d):
    by_class = [[] for _ in range(d)]
    for x in range(d):
        for y in range(d):
            for z in range(d):
                by_class[m.value((x, y, z)) % d].append([x, y, z])
    for a in range(d):
        assert residues(m, d, a).tolist() == by_class[a], a


def test_covered_mask_is_the_union_over_transfer_matrices():
    fixtures = load_fixtures()
    insts = list(fixtures.prec.values()) + list(fixtures.bad.values())
    assert len(insts) == 29
    for inst in insts:
        R = residues(inst.N, inst.d, inst.a)
        union = np.zeros(len(R), dtype=bool)
        for T in transfer_matrices(inst.M, inst.N, inst.d):
            union |= ((np.array(T) @ R.T) % inst.d == 0).all(axis=0)
        assert np.array_equal(_covered_mask(inst.M, inst.N, inst.d, R), union), inst.name
    # the stable-vector instances stay partly uncovered, so every similitude is tried
    assert not any(
        _covered_mask(i.M, i.N, i.d, residues(i.N, i.d, i.a)).all()
        for i in fixtures.bad.values()
    )


_FIXTURES = load_fixtures()
_TRANSFER_TRIPLES = sorted(
    {(i.M, i.N, i.d) for i in (*_FIXTURES.prec.values(), *_FIXTURES.bad.values())}, key=repr
)


def _kernel_union(M, N, d, R):
    # per row of R: does some T of transfer_matrices send it to 0 mod d
    union = np.zeros(len(R), dtype=bool)
    for T in transfer_matrices(M, N, d):
        union |= ((np.array(T) @ R.T) % d == 0).all(axis=0)
    return union


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_TRANSFER_TRIPLES), st.data())
def test_covered_mask_on_rows_not_closed_under_units(triple, data):
    # the orbit of a row under the units mod d need not lie in R: a random
    # subset of a class, in random order and with repeats, is covered row by
    # row as the union says
    M, N, d = triple
    R = residues(N, d, data.draw(st.integers(0, d - 1)))
    assume(len(R))
    idx = data.draw(st.lists(st.integers(0, len(R) - 1), min_size=1, max_size=60))
    sub = R[idx]
    flat = set((sub @ [d * d, d, 1]).tolist())
    units = [u for u in range(2, d) if math.gcd(u, d) == 1]
    assume(any(not set((u * sub % d @ [d * d, d, 1]).tolist()) <= flat for u in units))
    assert np.array_equal(_covered_mask(M, N, d, sub), _kernel_union(M, N, d, sub))


@pytest.mark.parametrize("d", range(1, 13))
def test_similitudes_with_equal_kernel_keys_have_equal_kernels(d):
    # T v = 0 (mod d) over the whole cube H_d^3, for every similitude of ratio
    # d^2 between small lattices and of each fixture triple with this d
    cube = np.array(np.unravel_index(np.arange(d**3), (d, d, d)))
    pairs = [(D(e), D(e)) for e in ((1, 1, 1), (1, 1, 2), (1, 2, 3))]
    pairs += [(M, N) for M, N, e in _TRANSFER_TRIPLES if e == d]
    merged = 0
    for M, N in pairs:
        kernels = {}
        for Ts in _iter_similitudes(M, N, d):
            for T, key in zip(Ts, _kernel_keys(Ts, d)):
                kernel = ((T @ cube) % d == 0).all(axis=0).tobytes()
                assert kernels.setdefault(key, kernel) == kernel, (M, N, T)
                merged += 1
        merged -= len(kernels)
    # the keys do merge similitudes, so the test is not vacuous
    assert merged > 0


def _cube_subgroup(Td, d):
    # the shifts T s (mod d) over every s in H_d^3, reduced from the d^3 cube
    x, y, z = np.ogrid[:d, :d, :d]
    s = np.ravel_multi_index([(r[0] * x + r[1] * y + r[2] * z) % d for r in Td], (d, d, d))
    return np.unique(s)


def test_column_subgroup_is_the_cube_of_shifts():
    def flat(Td, d):
        return np.ravel_multi_index(_column_subgroup(Td, d), (d, d, d))

    sizes = []
    for _, inst in sorted(load_fixtures().bad.items()):
        for T in inst.transforms:
            Td = np.array(T) % inst.d
            sizes.append(flat(Td, inst.d).size)
            assert np.array_equal(flat(Td, inst.d), _cube_subgroup(Td, inst.d))
    assert sizes == [9, 9, 8, 3, 24]
    rng = np.random.default_rng(7)
    for d in (1, 2, 4, 6, 9, 12, 16):
        for _ in range(20):
            Td = rng.integers(0, d, size=(3, 3))
            assert np.array_equal(flat(Td, d), _cube_subgroup(Td, d)), (d, Td)


def test_check_prec_peak_memory_is_pinned():
    # d = 48, cold vector cache: 1.26 MiB measured; laying out the d^3 cube
    # and testing every similitude against every residue took 2.6 MiB
    inst = load_fixtures().prec["356-n1-a38"]
    _vectors_cached.cache_clear()
    tracemalloc.start()
    try:
        assert check_prec(inst.M, inst.N, inst.d, inst.a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_transfer_matrices_small():
    cube = D((1, 1, 1))
    mats = transfer_matrices(cube, cube, 1)
    assert len(mats) == 48  # signed permutation matrices
    for d in (2, 3):
        mats = transfer_matrices(cube, cube, d)
        assert tuple(tuple(d if i == j else 0 for j in range(3)) for i in range(3)) in mats
    # every similitude certificate checks out exactly
    N = D((2, 3, 3))
    for T in transfer_matrices(D((1, 1, 3)), N, 3):
        Ta = np.array(T)
        assert np.array_equal(Ta.T @ D((1, 1, 3)).as_array() @ Ta, 9 * N.as_array())


def test_similitude_pairing_blocks_find_the_same_similitudes(monkeypatch):
    # 356-n2-a38 pairs 250 first with 290 second columns, so by default the
    # first-column pairing runs in 5 blocks of C1 rows; one row a block and
    # one block for all must give the same similitudes, each a certificate
    inst = load_fixtures().prec["356-n2-a38"]
    M, N, d = inst.M, inst.N, inst.d
    found = {}
    for block in (1, 1 << 14, 1 << 17):
        monkeypatch.setattr(lattice, "_BLOCK_PAIRS", block)
        found[block] = transfer_matrices(M, N, d)
    assert found[1] == found[1 << 14] == found[1 << 17] != []
    for T in found[1 << 14]:
        Ta = np.array(T)
        assert np.array_equal(Ta.T @ M.as_array() @ Ta, d * d * N.as_array())


def test_recorded_self_similitude():
    N = D((6, 12, 27))
    T1 = np.array([[3, 0, -18], [0, 9, 0], [4, 0, 3]])
    assert np.array_equal(T1.T @ N.as_array() @ T1, 81 * N.as_array())


def test_check_prec_trivial_and_negative():
    cube = D((1, 1, 1))
    assert check_prec(cube, cube, 1, 0)
    # <1,1,1> transfers nothing into <2,3,10> at depth 1: no similitude exists
    assert transfer_matrices(D((2, 3, 10)), cube, 1) == []
    assert not check_prec(D((2, 3, 10)), cube, 1, 0)


def test_check_prec_fixture_instance():
    M = GramMatrix([[1, 0, 0], [0, 4, 1], [0, 1, 7]])
    for N in (GramMatrix([[2, -1, 1], [-1, 4, 1], [1, 1, 5]]), D((1, 1, 27))):
        for a in (0, 1):
            assert check_prec(M, N, 4, a)


def test_check_prec_soundness_desk_scale():
    # when the check passes, values of N in the progression are values of M
    M = GramMatrix([[1, 0, 0], [0, 4, 1], [0, 1, 7]])
    N = D((1, 1, 27))
    top = 3000
    rn = lattice_counts_up_to(N, top) > 0
    rm = lattice_counts_up_to(M, top) > 0
    for a in (0, 1):
        assert check_prec(M, N, 4, a)
        for v in range(a, top + 1, 4):
            if rn[v]:
                assert rm[v], (a, v)


MOD9 = GramMatrix([[9, 3, 0], [3, 15, 6], [0, 6, 18]])


def stable_instance(n_diag, transform):
    # check_bad_partition returns the excluded classes and never reads the
    # recorded ones, so these instances record 0, which no class can be
    return TransferInstance(
        "test", MOD9, n_diag, 9, 3, transforms=(transform,), excluded=(0,)
    )


T_FIRST = ((3, 0, -18), (0, 9, 0), (4, 0, 3))
T_SECOND = ((9, 0, 0), (0, 3, -36), (0, 2, 3))


def test_check_bad_partition_instances():
    assert check_bad_partition(stable_instance(D((6, 12, 27)), T_FIRST)) == [12]
    assert check_bad_partition(stable_instance(D((3, 6, 108)), T_SECOND)) == [3]


def test_check_bad_partition_explicit_block():
    block = tuple(
        (0, v2, v3) for v2 in range(9) if v2 % 3 for v3 in (0, 3, 6)
    )
    inst = TransferInstance(
        "test", MOD9, D((6, 12, 27)), 9, 3, transforms=(T_FIRST,), blocks=(block,), excluded=(12,)
    )
    assert check_bad_partition(inst) == [12]
    wrong = replace(inst, blocks=(block[:-1],))
    with pytest.raises(ValueError):
        check_bad_partition(wrong)
    # every listed residue is three integers in [0, 9), listed once: (0, 7, 15)
    # and (1, -1, 6) share the flat index 78 of the missing (0, 8, 6) in H_9^3
    assert block[-1] == (0, 8, 6)
    for last in ((0, 7, 15), (1, -1, 6), (10**30, 0, 0), (0, 8), (0, 8, 6, 0)):
        with pytest.raises(ValueError):
            check_bad_partition(replace(inst, blocks=(block[:-1] + (last,),)))
    with pytest.raises(ValueError):
        check_bad_partition(replace(inst, blocks=(block + block[:1],)))


def test_transfer_instance_checks_its_shape():
    # the fixture grammar's structural rules hold wherever an instance is built
    block = ((0, 1, 0), (0, 1, 3))
    base = TransferInstance("test", MOD9, D((6, 12, 27)), 9, 3, transforms=(T_FIRST,),
                            blocks=(block,), excluded=(12,))
    cases = {
        "3x3 integer matrix": dict(transforms=(((3, 0), (0, 9)),)),
        "one transform per block": dict(transforms=(T_FIRST, T_FIRST)),
        "[0, 9)": dict(blocks=(((0, 1, 30),),)),
        "per block": dict(excluded=(12, 3)),
        "0 <= a < d": dict(a=9),
    }
    for message, change in cases.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(base, **change)
    # a P block needs its T; without blocks there is at most one T
    for change in (dict(transforms=()), dict(blocks=None, transforms=(T_FIRST, T_FIRST)),
                   dict(blocks=((),)), dict(excluded=())):
        with pytest.raises(ValueError):
            replace(base, **change)
    # plain progression transfer records no transform and no excluded class
    assert TransferInstance("plain", MOD9, MOD9, 9, 3).excluded == ()
    # transforms are normalised to tuples of exact ints
    listed = replace(base, transforms=[np.array(T_FIRST)])
    assert listed == base and isinstance(listed.transforms[0][0][0], int)


def test_check_bad_partition_rejects_finite_order():
    scaled_identity = tuple(tuple(9 if i == j else 0 for j in range(3)) for i in range(3))
    inst = stable_instance(D((6, 12, 27)), scaled_identity)
    with pytest.raises(ConditionFailed) as e:
        check_bad_partition(inst)
    assert e.value.condition == "i"


def test_check_bad_partition_checks_the_similitude_in_exact_ints():
    # an entry beyond int64 is rejected before any array is built
    huge = ((300000000000000000000, 0, -18), (0, 9, 0), (4, 0, 3))
    with pytest.raises(ValueError, match="not a self-similitude"):
        check_bad_partition(stable_instance(D((6, 12, 27)), huge))
    # t(T) T = I + 2^64 I wraps to I in int64; exact ints see it
    cube = D((1, 1, 1))
    wraps = ((1, 2**32, 0), (-(2**32), 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="not a self-similitude"):
        check_bad_partition(
            TransferInstance("test", cube, cube, 1, 0, transforms=(wraps,), excluded=(0,)))


def test_check_bad_partition_rejects_wrong_dynamics():
    # a genuine infinite-order self-similitude whose dynamics leave the block
    N = D((6, 12, 27))
    wrong = None
    for T in transfer_matrices(N, N, 9):
        inst = stable_instance(N, T)
        try:
            if check_bad_partition(inst) != [12]:
                continue
        except ConditionFailed as e:
            if e.condition == "ii":
                wrong = e
                break
        except ValueError:
            continue
    assert wrong is not None and wrong.witness is not None
    # every such T for two N against MOD9 at a = 3, then the bundled fixtures:
    # the excluded classes, or the failing condition, block, witness and
    # message.  Pinned from the tuple-set walk, where the 176 transforms
    # split into 16 passes, 64 (i) and 96 (ii) failures.
    outcomes = [
        _outcome(stable_instance(lat, T))
        for lat in (N, D((3, 6, 108)))
        for T in transfer_matrices(lat, lat, 9)
    ]
    assert [sum(o[0] == c for o in outcomes) for c in ("ok", "i", "ii")] == [16, 64, 96]
    outcomes += [_outcome(inst) for _, inst in sorted(load_fixtures().bad.items())]
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "b461662014c46978fda1e3a7ca9c0f1582be28f857f6b205f53c339be31f011a"


def _outcome(inst):
    try:
        return ["ok", check_bad_partition(inst)]
    except ConditionFailed as e:
        return [e.condition, e.block, e.witness and list(e.witness), str(e)]


def test_check_bad_partition_reports_the_first_escape():
    # split each fixture's uncovered residues into two blocks under the same T:
    # blocks are walked in file order, and the escaping residue reported is
    # the lexicographically smallest one.  Pinned from the tuple-set walk.
    outcomes = []
    for _, inst in sorted(load_fixtures().bad.items()):
        R = residues(inst.N, inst.d, inst.a)
        rest = [tuple(v.tolist()) for v in R[~_covered_mask(inst.M, inst.N, inst.d, R)]]
        splits = [(rest[i + 1:] + rest[:i], rest[i:i + 1]) for i in range(4)]
        splits.append((rest[0::2], rest[1::2]))
        outcomes += [
            _outcome(replace(inst, transforms=inst.transforms * 2, blocks=b,
                             excluded=inst.excluded * 2))
            for b in splits
        ]
    assert outcomes[0] == [
        "ii", 1, [0, 1, 3],
        "condition (ii) fails for block 1 at (0, 1, 3): residue (0, 1, 0) escapes the block",
    ]
    assert len(outcomes) == 25 and all("escapes the block" in o[-1] for o in outcomes)
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "a6e0cffbc3514238eb8da2a677e6f98f484cddd4e68c87922fda68eb60074be7"


def test_check_bad_partition_rejects_non_similitude():
    inst = stable_instance(D((6, 12, 27)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        check_bad_partition(inst)


def test_eigenvector_error_paths():
    # _fixed_line raises nothing: every T that reaches it has a fixed line
    # (see test_finite_order_is_read_off_the_trace)
    inst = TransferInstance(
        "test", MOD9, D((6, 12, 27)), 9, 3, transforms=(((3, 0, -18), (0, 9, 0), (4, 0, 3)),),
        excluded=(12,),
    )
    assert check_bad_partition(inst) == [12]  # sanity: the good path still works


def _power_oracle(T, d):
    # T^k = d^k I for some k <= 12, by exact matrix powers
    P = T
    for k in range(1, 13):
        if P == [[d**k if i == j else 0 for j in range(3)] for i in range(3)]:
            return True
        P = [[sum(P[i][m] * T[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
    return False


def test_finite_order_is_read_off_the_trace():
    # every self-similitude of ratio d^2 of each stable-vector fixture's N:
    # condition (i)'s test, d | tr T, agrees with the power oracle, and each T
    # of infinite order has a primitive fixed line with a positive lead entry
    seen = 0
    for _, inst in sorted(load_fixtures().bad.items()):
        d = inst.d
        for T in transfer_matrices(inst.N, inst.N, d):
            T = [list(row) for row in T]
            finite = _power_oracle(T, d)
            assert (sum(T[i][i] for i in range(3)) % d == 0) == finite, T
            seen += 1
            if finite:
                continue
            w = _fixed_line(T, d)
            lam = round(np.linalg.det(np.array(T, dtype=float))) // d**3
            assert [sum(T[i][j] * w[j] for j in range(3)) for i in range(3)] == [lam * d * e for e in w]
            assert math.gcd(*w) == 1 and next(e for e in w if e) > 0, (T, w)
    assert seen == 824


def test_scaled_prime_squares_reach_the_mod9_lattice():
    # the square-class escape hatch: 3 p^2 lands back in the target lattice
    # for primes p > 3 (spot check)
    for p in (5, 7, 11):
        assert represents_lattice(MOD9, 3 * p * p), p
    # 12 itself only lands in the diagonal genus mate, not the target;
    # no 12 h^2 qualifies for the transfer anyway (all are 3 c^2)
    assert not represents_lattice(MOD9, 12)
    assert represents_lattice(D((6, 12, 27)), 12)


def test_stable_transfer_soundness_desk_scale():
    # outside the excluded square class, progression values of N are values of M
    top = 5000
    rm = lattice_counts_up_to(MOD9, top) > 0
    for N, exc in ((D((6, 12, 27)), 12), (D((3, 6, 108)), 3)):
        rn = lattice_counts_up_to(N, top) > 0
        squares = {exc * h * h for h in range(1, top) if exc * h * h <= top}
        for v in range(3, top + 1, 9):
            if rn[v] and v not in squares:
                assert rm[v], (N, v)


def test_genus_fixture_invariants():
    g = GenusFixture("1-1-27", (
        GramMatrix([[1, 0, 0], [0, 4, 1], [0, 1, 7]]),
        GramMatrix([[2, -1, 1], [-1, 4, 1], [1, 1, 5]]),
        D((1, 1, 27)),
    ))
    assert {c.det for c in g.classes} == {27}
    with pytest.raises(ValueError):
        GenusFixture("broken", (D((1, 1, 1)), D((1, 1, 2))))
    # class 2 mod 3 values land in this genus (desk scale)
    for v in range(1, 500):
        if v % 12 in (5, 8):
            assert any(represents_lattice(c, v) for c in g.classes), v


def test_two_threes_params():
    assert two_threes_params(4, 10) == (20, 140, 40)
    assert two_threes_params(2, 2) == (2, 4, -2)
    assert two_threes_params(1, 1) == (1, 2, -2)
    with pytest.raises(ValueError):
        two_threes_params(3, 3)
    with pytest.raises(ValueError):
        two_threes_params(1, 2)


def test_two_threes_sufficient():
    assert not two_threes_sufficient(2, 2, 20, 0)  # 22 is 1 mod 3
    assert any(two_threes_sufficient(4, 10, 3621, w) for w in range(-2, 4))
    # the sufficient test implies representability by (3, 3, a, b)
    for (a, b) in ((1, 1), (2, 2), (4, 10)):
        for u in range(0, 250):
            if any(two_threes_sufficient(a, b, u, w) for w in range(-3, 4)):
                assert represents(tuple(sorted((3, 3, a, b))), u), (a, b, u)


def test_jones_strengthen():
    assert jones_strengthen(3) == (1, 1)
    assert jones_strengthen(9) == (1, 2)
    x, y = jones_strengthen(33)
    assert x * x + 2 * y * y == 33 and x % 3 and y % 3
    with pytest.raises(ValueError):
        jones_strengthen(4)  # not a multiple of 3
    with pytest.raises(ValueError):
        jones_strengthen(15)  # multiple of 3 but not represented
