"""Lattice representation, similitudes, and the two transfer checks."""

import hashlib
import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octaforms.fixtures import load_fixtures
from octaforms.lattice import (
    ConditionFailed,
    GenusFixture,
    GramMatrix,
    NoEigenvector,
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
    _covered_mask,
    _disc_fits_int64,
    _range_bounds,
    _residue_array,
    _vector_batches,
    _vector_batches_exact,
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
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(ValueError):
        GramMatrix([[1, 0], [0, 1], [0, 0]])  # not square
    m = GramMatrix([[2, 1], [1, 3]])
    assert m.det == 5 and not m.is_diagonal


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
    # counted at 168 bytes a residue: with every residue in the class,
    # tracemalloc measured residues' set of tuples at 167.8 d^3 bytes (d = 108)
    # and check_bad_partition at 91 d^3 (d = 50 and 100); 117 is the first
    # d refused, so 117^3 residues are never laid out
    assert 168 * 116**3 <= BYTE_LIMIT < 168 * 117**3
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    inst = TransferInstance("big", D((1, 1, 1)), D((1, 1, 1)), 117, 1, (identity,))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="residue cube"):
            residues(D((1, 1, 1)), 117, 1)
        with pytest.raises(ResourceBudgetError, match="residue cube"):
            check_bad_partition(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    assert odd == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)}
    even = residues(cube, 2, 0)
    assert even == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert len(residues(D((2, 3, 4)), 3, 1)) <= 27
    # an entry past int64 / 4: the residues follow from the entries mod d
    big = 2**62 + 1
    assert residues(D((big, 1, 1)), 5, 1) == {
        (x, y, z) for x in range(5) for y in range(5) for z in range(5)
        if (big * x * x + y * y + z * z) % 5 == 1
    }


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
    return TransferInstance(
        "test", MOD9, n_diag, 9, 3, transforms=(transform,)
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
        "test", MOD9, D((6, 12, 27)), 9, 3, transforms=(T_FIRST,), blocks=(block,)
    )
    assert check_bad_partition(inst) == [12]
    wrong = TransferInstance(
        "test", MOD9, D((6, 12, 27)), 9, 3, transforms=(T_FIRST,), blocks=(block[:-1],)
    )
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


def test_check_bad_partition_rejects_finite_order():
    scaled_identity = tuple(tuple(9 if i == j else 0 for j in range(3)) for i in range(3))
    inst = stable_instance(D((6, 12, 27)), scaled_identity)
    with pytest.raises(ConditionFailed) as e:
        check_bad_partition(inst)
    assert e.value.condition == "i"


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
        R = _residue_array(inst.N, inst.d, inst.a)
        rest = [tuple(v.tolist()) for v in R[~_covered_mask(inst.M, inst.N, inst.d, R)]]
        two = replace(inst, transforms=inst.transforms * 2)
        splits = [(rest[i + 1:] + rest[:i], rest[i:i + 1]) for i in range(4)]
        splits.append((rest[0::2], rest[1::2]))
        outcomes += [_outcome(replace(two, blocks=tuple(map(tuple, b)))) for b in splits]
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
    # a self-similitude whose fixed line is irrational does not exist for
    # ratio d^2 with det +-d^3; feeding inconsistent data must raise
    inst = TransferInstance(
        "test", MOD9, D((6, 12, 27)), 9, 3, transforms=(((3, 0, -18), (0, 9, 0), (4, 0, 3)),)
    )
    assert check_bad_partition(inst) == [12]  # sanity: the good path still works
    from octaforms.lattice import _fixed_line

    with pytest.raises(NoEigenvector):
        _fixed_line(((2, 0, 0), (0, 2, 0), (0, 0, 2)), 9)
    # 9 I fixes all of Q^3 and the shear a plane: neither has a fixed line
    with pytest.raises(NoEigenvector):
        _fixed_line(((9, 0, 0), (0, 9, 0), (0, 0, 9)), 9)
    with pytest.raises(NoEigenvector):
        _fixed_line(((9, 9, 0), (0, 9, 0), (0, 0, 9)), 9)


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
            assert g.represents(v), v


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
