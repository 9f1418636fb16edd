"""Ternary integer quadratic lattices: representation, similitudes, and transfer.

Everything here is exact integer arithmetic; numpy is used only to batch
loops whose entries stay far inside int64, in small blocks whose bytes are
checked before they are allocated: an ellipsoid sweep takes at most 2^12
grid points (but never less than one row), the residue scan one plane of
d^2, the similitude pairing 2^14 pair x column entries, and the counting
sweep x2 rows of about twice as many points as it has counts.

Every lattice here is ternary, by type: GramMatrix refuses any Gram matrix
that is not 3x3, so no kernel checks the dimension again.  The central
objects are positive definite Gram matrices, the sets of integral
similitude matrices between two lattices, and two "transfer" checks that
push representations of an arithmetic progression from one lattice to
another:

* progression transfer: every residue vector of N in the class a (mod d)
  maps into M under some similitude of ratio d^2 (an emptiness check).
  T v = 0 (mod d) reads only T's rows mod d, as a set up to order and sign,
  so one similitude per such key is tested; and T (u v) = u T v for a unit
  u mod d, so past the first similitude one residue per unit orbit is;
* stable-vector transfer: leftover residues are recycled by an
  infinite-order self-similitude of N, losing only finitely many square
  classes along its fixed line.

A side door connects octagonal forms to lattices: u is a value of the
form with coefficients a iff 3u + sum(a) is represented by the diagonal
lattice <a> with every coordinate coprime to 3.  The door is crossed both
ways without a search of its own: represents_coprime3 asks polygonal's
DFS, and octagonal_via_lattice reads the coprime-to-3 sumset fold, so the
two routes check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .polygonal import (
    ResourceBudgetError, check_bytes, coeff_vector, fold, octagonal_number, represents
)

__all__ = [
    "GramMatrix",
    "GenusFixture",
    "TransferInstance",
    "ConditionFailed",
    "lattice_vectors",
    "represents_lattice",
    "count_representations",
    "lattice_counts_up_to",
    "represents_coprime3",
    "coprime3_values_up_to",
    "octagonal_via_lattice",
    "residues",
    "transfer_matrices",
    "check_prec",
    "check_bad_partition",
    "two_threes_params",
    "two_threes_sufficient",
    "jones_strengthen",
]

# Lattice points one ellipsoid scan may visit; dense arrays are held to
# polygonal.BYTE_LIMIT.  There is no per-call override.
POINT_BUDGET = 10**8
# block sizes, in grid points and in pairing entries (C1 rows x C2, pairs x C3)
_BLOCK_POINTS = 1 << 12
_BLOCK_PAIRS = 1 << 14
# bytes a residue of H_d^3 may cost residues or a consumer (67 measured; see README)
_CUBE_BYTES = 96
# the (i, j), i < j, of a 3x3 matrix
_OFF_DIAGONAL = ((0, 1), (0, 2), (1, 2))


class ConditionFailed(Exception):
    """A stable-vector transfer condition is violated by the given data."""

    def __init__(self, condition: str, block: int, witness=None, detail: str = ""):
        self.condition = condition  # "i" or "ii"
        self.block = block
        self.witness = witness
        msg = f"condition ({condition}) fails for block {block}"
        if witness is not None:
            msg += f" at {witness}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def _det(m) -> int:
    # a 3x3 determinant, expanded along the first row
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True, repr=False, slots=True)
class GramMatrix:
    """Symmetric positive definite 3x3 integer Gram matrix: a ternary lattice."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("Gram matrix must be 3x3")
        for i, j in _OFF_DIAGONAL:
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        # the three leading principal minors
        (a, b, _), (_, e, _), _ = rows
        if a <= 0 or a * e - b * b <= 0 or _det(rows) <= 0:
            raise ValueError("Gram matrix not positive definite")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def diagonal(cls, entries) -> "GramMatrix":
        entries = tuple(int(e) for e in entries)
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def det(self) -> int:
        return _det(self.rows)

    @property
    def is_diagonal(self) -> bool:
        return not any(self.rows[i][j] for i, j in _OFF_DIAGONAL)

    def value(self, v) -> int:
        """The quadratic value t(v) M v."""
        return self.bilinear(v, v)

    def bilinear(self, u, v) -> int:
        """The bilinear value t(u) M v."""
        u = tuple(int(e) for e in u)
        v = tuple(int(e) for e in v)
        if len(u) != 3 or len(v) != 3:
            raise ValueError("vector length mismatch")
        return sum(self.rows[i][j] * u[i] * v[j] for i in range(3) for j in range(3))

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)

    def __repr__(self) -> str:
        if self.is_diagonal:
            return f"GramMatrix.diagonal({[self.rows[i][i] for i in range(3)]})"
        return f"GramMatrix({list(map(list, self.rows))})"


@dataclass(frozen=True)
class GenusFixture:
    """A genus shipped as an explicit list of isometry class representatives."""

    name: str
    classes: tuple[GramMatrix, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("genus fixture needs at least one class")
        dets = {c.det for c in self.classes}
        if len(dets) != 1:
            raise ValueError(f"genus classes disagree on determinant: {sorted(dets)}")


@dataclass(frozen=True)
class TransferInstance:
    """One transfer check: lattices M, N, depth d, progression class a.

    transforms (with optional matching partition blocks) configure the
    stable-vector check; plain progression transfer needs neither.  Each T is
    a 3x3 integer matrix with one block of residues in H_d^3 and one expected
    excluded class; without blocks, the one T's block is every uncovered residue.
    """

    name: str
    M: GramMatrix
    N: GramMatrix
    d: int
    a: int
    transforms: tuple[tuple[tuple[int, ...], ...], ...] = ()
    blocks: tuple[tuple[tuple[int, ...], ...], ...] | None = None
    excluded: tuple[int, ...] = ()  # the expected square class of each T

    def __post_init__(self):
        d, n = self.d, len(self.transforms)
        if not 0 <= self.a < d:
            raise ValueError("a transfer needs 0 <= a < d")
        transforms = tuple(tuple(tuple(map(int, row)) for row in T) for T in self.transforms)
        if any(len(T) != 3 or any(len(row) != 3 for row in T) for T in transforms):
            raise ValueError("every transform must be a 3x3 integer matrix")
        object.__setattr__(self, "transforms", transforms)
        if self.blocks is not None and not all(
            len(B) and all(len(v) == 3 and 0 <= min(v) and max(v) < d for v in B) for B in self.blocks
        ):
            raise ValueError(f"block residues must be three integers in [0, {d})")
        if (n > 1) if self.blocks is None else (len(self.blocks) != n):
            raise ValueError("need exactly one transform per block (at most one without blocks)")
        if len(self.excluded) != n:
            raise ValueError("need exactly one excluded class per block")


def _range_bounds(M: GramMatrix, v: int) -> list[int]:
    # |x_i| <= sqrt(v * (M^-1)_ii); exact via the adjugate's diagonal over the determinant
    (a, b, c), (_, e, f), (_, _, k) = M.rows
    det = M.det
    # the largest b with b*b*det <= v*adj: b*b is an integer, so the floor loses nothing
    return [isqrt(v * adj // det) for adj in (e * k - f * f, a * k - c * c, a * e - b * b)]


def _disc_fits_int64(m, v: int, b1: int, b2: int) -> bool:
    # magnitude bound for e^2 - a33*f computed below; checked in exact ints
    emax = abs(m[0][2]) * b1 + abs(m[1][2]) * b2
    fmax = abs(m[0][0]) * b1 * b1 + 2 * abs(m[0][1]) * b1 * b2 + abs(m[1][1]) * b2 * b2 + v
    return emax * emax + m[2][2] * fmax < 2**62


def _vector_batches_exact(m, v: int, b1: int, b2: int):
    # plain-int fallback for magnitudes beyond int64
    a33 = m[2][2]
    for x1 in range(-b1, b1 + 1):
        found = []
        for x2 in range(-b2, b2 + 1):
            e = m[0][2] * x1 + m[1][2] * x2
            f = m[0][0] * x1 * x1 + 2 * m[0][1] * x1 * x2 + m[1][1] * x2 * x2 - v
            disc = e * e - a33 * f
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for num in {-e + r, -e - r}:
                if num % a33 == 0:
                    found.append((x1, x2, num // a33))
        if found:
            yield np.array(found, dtype=object)


def _vector_batches(M: GramMatrix, v: int):
    """Yield non-empty arrays of the solutions of Q_M(x) = v.

    Concatenated, the rows run x1 ascending; within one x1 come the
    solutions on the + root of the quadratic in x3, x2 ascending, then
    those on the - root.
    """
    if v < 0:
        return
    m = M.rows
    b1, b2, _ = _range_bounds(M, v)
    points = (2 * b1 + 1) * (2 * b2 + 1)
    if points > POINT_BUDGET:
        raise ResourceBudgetError(f"ellipsoid scan of {points} points, over budget {POINT_BUDGET}")
    if not _disc_fits_int64(m, v, b1, b2):
        yield from _vector_batches_exact(m, v, b1, b2)
        return
    # a block of whole x1 rows, never less than one, sweeps one (x1, x2) grid
    width = 2 * b2 + 1
    rows = max(1, _BLOCK_POINTS // width)
    # it peaks at about eight grid-sized int64 arrays (e, disc, r, both roots and temporaries)
    check_bytes(9 * 8 * rows * width, f"ellipsoid rows of {rows} x {width} points")
    a33 = m[2][2]
    x2 = np.arange(-b2, b2 + 1, dtype=np.int64)
    for lo in range(-b1, b1 + 1, rows):
        x1 = np.arange(lo, min(lo + rows, b1 + 1), dtype=np.int64)[:, None]
        e = m[0][2] * x1 + m[1][2] * x2
        disc = e * e - a33 * ((m[0][0] * x1 + 2 * m[0][1] * x2) * x1 + m[1][1] * x2 * x2 - v)
        # below 2^62 float64 sqrt of a square n^2 is n exactly, and a non-square fails r*r == disc
        r = np.sqrt(disc.clip(min=0)).astype(np.int64)
        ok = r * r == disc
        # axis 1 is the sign of the root, so nonzero() walks x1, then the sign, then x2
        num = np.stack((r - e, -r - e), axis=1)
        good = (num % a33 == 0) & ok[:, None]
        good[:, 1] &= r != 0
        i, sign, j = np.nonzero(good)
        if i.size:
            batch = np.empty((i.size, 3), dtype=np.int64)
            batch[:, 0] = x1[i, 0]
            batch[:, 1] = x2[j]
            batch[:, 2] = num[i, sign, j] // a33
            yield batch


@lru_cache(maxsize=4096)
def _vectors_cached(M: GramMatrix, v: int) -> np.ndarray:
    return np.concatenate([np.empty((0, 3), dtype=np.int64), *_vector_batches(M, v)])


def lattice_vectors(M: GramMatrix, v: int) -> np.ndarray:
    """All integer vectors x with Q_M(x) = v, as an (n, 3) array."""
    return _vectors_cached(M, v).copy()


def represents_lattice(M: GramMatrix, v: int) -> bool:
    """True iff the ternary lattice M represents v."""
    return next(_vector_batches(M, v), None) is not None


def count_representations(M: GramMatrix, v: int) -> int:
    """Number of integer vectors x with Q_M(x) = v (signs and order distinct)."""
    return _vectors_cached(M, v).shape[0]


def lattice_counts_up_to(M: GramMatrix, bound: int) -> np.ndarray:
    """int64 array r where r[v] counts the x with Q_M(x) = v, v = 0..bound.

    One sweep of the half box x1 >= 0 for every value at once; M represents
    v iff r[v] > 0.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    m = M.rows
    b1, b2, b3 = _range_bounds(M, bound)
    if (2 * b1 + 1) * (2 * b2 + 1) * (2 * b3 + 1) > POINT_BUDGET:
        raise ResourceBudgetError("ellipsoid box exceeds the point budget")
    if not _disc_fits_int64(m, bound, b1, b2) or m[2][2] * b3 * b3 >= 2**60:
        raise ResourceBudgetError("bulk scan bound too large for exact int64 batches")
    # the counts and one slice's bincount, both of length bound + 1
    check_bytes(2 * 8 * (bound + 1), f"counts to {bound}")
    # a block of x2 rows holds at most one slice, bounded by five slice-sized
    # int64 arrays
    check_bytes(5 * 8 * (2 * b2 + 1) * (2 * b3 + 1), f"box slices of {2 * b2 + 1} x {2 * b3 + 1}")
    counts = np.zeros(bound + 1, dtype=np.int64)
    x2 = np.arange(-b2, b2 + 1, dtype=np.int64)[:, None]
    x3 = np.arange(-b3, b3 + 1, dtype=np.int64)
    m33x3 = m[2][2] * x3
    # blocks of x2 rows with about twice as many points as there are counts,
    # so a block's bincount costs less than its sweep, in one reused buffer
    rows = max(1, max(_BLOCK_POINTS, 2 * bound + 2) // x3.size)
    buf = np.empty((min(rows, x2.size), x3.size), dtype=np.int64)
    # Q(-x) = Q(x), and the slice at -x1 is the slice at x1 turned over: sweep
    # x1 >= 0 and count each x1 > 0 slice twice
    for x1 in range(b1 + 1):
        lin = 2 * (m[0][2] * x1 + m[1][2] * x2)
        const = (m[0][0] * x1 + 2 * m[0][1] * x2) * x1 + m[1][1] * x2 * x2
        for lo in range(0, x2.size, rows):
            q = buf[: x2.size - lo]
            np.add(lin[lo : lo + rows], m33x3, out=q)
            q *= x3
            q += const[lo : lo + rows]  # >= 0: M is positive definite
            hist = np.bincount(q[q <= bound], minlength=bound + 1)
            counts += hist
            if x1:
                counts += hist
    return counts


def _coprime_units(cap: int) -> list[int]:
    # positive y with y % 3 != 0 and y*y <= cap
    return [y for y in range(1, isqrt(cap) + 1) if y % 3 != 0] if cap >= 1 else []


def represents_coprime3(diag, v: int) -> bool:
    """True iff v = sum(b_i * y_i^2) with every y_i coprime to 3.

    diag is the list of diagonal coefficients, in any order; coordinates
    equal to zero are not allowed (zero is divisible by 3).  Every y^2 is
    1 mod 3, and y = |3x - 1| gives b*y^2 = 3*b*P8(x) + b, so this is the
    octagonal search at (v - sum(diag)) / 3.
    """
    ds = coeff_vector(sorted(int(b) for b in diag))
    if v < 0:
        raise ValueError("v must be >= 0")
    s = sum(ds)
    return v >= s and (v - s) % 3 == 0 and represents(ds, (v - s) // 3)


def coprime3_values_up_to(diag, bound: int) -> int:
    """Packed bit array of all values representable with coordinates coprime to 3.

    Shares build_sieve's fold and its byte limit: a bound past
    8 * BYTE_LIMIT bits raises ResourceBudgetError before any allocation.
    """
    ds = coeff_vector(sorted(int(b) for b in diag))
    return fold(([b * y * y for y in _coprime_units(bound // b)] for b in ds), bound)


def octagonal_via_lattice(a, u: int) -> bool:
    """Decide u -> p8(a) through the lattice side of the correspondence.

    u is a value of the octagonal form with coefficients a exactly when
    3u + sum(a) is a coprime-to-3 value of the diagonal form <a>.  That
    bit is read from coprime3_values_up_to, so 3u + sum(a) + 1 is bounded
    by the fold's byte limit (ResourceBudgetError past it).
    """
    a = coeff_vector(a)
    if u < 0:
        raise ValueError("u must be >= 0")
    v = 3 * u + sum(a)
    return bool((coprime3_values_up_to(a, v) >> v) & 1)


def residues(N: GramMatrix, d: int, a: int) -> np.ndarray:
    """The v in H_d^3 with Q_N(v) = a (mod d), as (k, 3) int64 rows in lexicographic order."""
    if not 0 <= a < d:
        raise ValueError("need 0 <= a < d")
    check_bytes(_CUBE_BYTES * d**3, f"residue cube of size {d}^3")
    # entries reduced mod d keep q far inside int64 whatever N's size
    (n11, n12, n13), (_, n22, n23), (_, _, n33) = ([e % d for e in row] for row in N.rows)
    y, z = np.ogrid[:d, :d]
    # one x-plane at a time: q = n11 x^2 + x * lin + rest, so the flat indices
    # x*d^2 + y*d + z come out ascending and the d^3 cube is never laid out
    lin = 2 * (n12 * y + n13 * z) % d
    rest = (n22 * y * y + n33 * z * z + 2 * n23 * y * z) % d
    flat = np.concatenate(
        [x * d * d + np.flatnonzero((n11 * x * x + x * lin + rest) % d == a) for x in range(d)]
    )
    return np.column_stack(np.unravel_index(flat, (d, d, d)))


def _iter_similitudes(M: GramMatrix, N: GramMatrix, d: int):
    """Yield stacks (k, 3, 3) of all T with t(T) M T = d^2 N, column by column."""
    t = d * d
    C1, C2, C3 = (lattice_vectors(M, t * N.rows[j][j]) for j in range(3))
    if min(len(C1), len(C2), len(C3)) == 0:
        return
    if any(c.dtype == object for c in (C1, C2, C3)):
        raise ResourceBudgetError("similitude column sets too large to pair up")
    # G12 and its == mask: 9 bytes a pair, counted whole though they are built
    # a block of C1 rows at a time (never less than one row)
    check_bytes(9 * len(C1) * len(C2), f"pairing {len(C1)} x {len(C2)} similitude columns")
    Marr = M.as_array()
    MC2, rows = Marr @ C2.T, max(1, _BLOCK_PAIRS // len(C2))
    blocks = range(0, len(C1), rows)
    pairs = np.concatenate(
        [np.argwhere(C1[lo : lo + rows] @ MC2 == t * N.rows[0][1]) + (lo, 0) for lo in blocks]
    )
    if pairs.size == 0:
        return
    MC3 = Marr @ C3.T
    # a block of (i, j) pairs tests every third column at once, never less than one pair
    step = max(1, _BLOCK_PAIRS // len(C3))
    # two int64 products and three masks: 19 bytes an entry
    check_bytes(19 * step * len(C3), f"third columns of {step} x {len(C3)} similitude pairs")
    for lo in range(0, len(pairs), step):
        i, j = pairs[lo : lo + step].T
        p, k = np.nonzero((C1[i] @ MC3 == t * N.rows[0][2]) & (C2[j] @ MC3 == t * N.rows[1][2]))
        yield np.stack((C1[i[p]], C2[j[p]], C3[k]), axis=2)


def transfer_matrices(M: GramMatrix, N: GramMatrix, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """The full set of integer matrices T with t(T) M T = d^2 N.

    Finite because each column lies on an ellipsoid of M.  Returned sorted
    as nested tuples (deterministic).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return sorted({tuple(map(tuple, T)) for Ts in _iter_similitudes(M, N, d) for T in Ts.tolist()})


def check_prec(M: GramMatrix, N: GramMatrix, d: int, a: int) -> bool:
    """Progression transfer test: is every residue of N in class a covered?

    True iff each v in H_d^3 with Q_N(v) = a (mod d) satisfies T v = 0
    (mod d) for some similitude T of ratio d^2 from M to N.  True lets
    representations of d u + a by N transfer to M.
    """
    return bool(_covered_mask(M, N, d, residues(N, d, a)).all())


def _covered_mask(M: GramMatrix, N: GramMatrix, d: int, R: np.ndarray) -> np.ndarray:
    # which rows of R some similitude sends to 0 mod d, testing one T per kernel
    # (see _kernels) only against the rows still open, until none are (no T at
    # all if R is empty).  The first T is tested against every row.  As
    # T (u v) = u T v for a unit u mod d, the rows it leaves open are then tested
    # by unit orbit: one row per orbit name (see _orbit_names), and each open
    # row reads its orbit's answer
    kernels = _kernels(M, N, d) if len(R) else iter(())
    T = next(kernels, None)
    if T is None:
        return np.zeros(len(R), dtype=bool)
    images = T @ R.T
    images %= d
    covered = ~images.any(axis=0)
    del images  # freed before the open rows are named: see _CUBE_BYTES
    if covered.all():
        return covered
    names = _orbit_names(R[~covered], d)
    hit = np.zeros(d**3, dtype=bool)  # over H_d^3, by flat index: the orbits covered
    hit[names] = True
    open_rows = np.argwhere(hit.reshape(d, d, d)).T
    hit[:] = False
    w = np.array([d * d, d, 1])
    for T in kernels:
        found = ~(T @ open_rows % d).any(axis=0)
        if found.any():
            hit[w @ open_rows[:, found]] = True
            open_rows = open_rows[:, ~found]
            if open_rows.size == 0:
                break
    covered[~covered] = hit[names]
    return covered


def _kernels(M: GramMatrix, N: GramMatrix, d: int):
    # the similitudes of _iter_similitudes, one per kernel key (see _kernel_keys)
    seen: set[tuple[int, int, int]] = set()
    for Ts in _iter_similitudes(M, N, d):
        for T, key in zip(Ts, _kernel_keys(Ts, d)):
            if key not in seen:
                seen.add(key)
                yield T


def _orbit_names(R: np.ndarray, d: int) -> np.ndarray:
    # per row v of R, the name of its orbit under the units mod d: the least
    # flat index in H_d^3 of the u v (which need not lie in R)
    w = np.array([d * d, d, 1])
    names = R @ w
    for u in (u for u in range(2, d) if gcd(u, d) == 1):
        t = u * np.arange(d) % d * w[:, None]  # t[i, x] = (u x mod d) w_i
        image = t[0, R[:, 0]]
        image += t[1, R[:, 1]]
        image += t[2, R[:, 2]]
        np.minimum(names, image, out=names)
    return names


def _kernel_keys(Ts: np.ndarray, d: int) -> list[tuple[int, int, int]]:
    # T v = 0 (mod d) reads only T's rows mod d, as a set up to order and sign:
    # key each T of the stack by its rows' flat indices in H_d^3, each the
    # lesser of r and -r (mod d), sorted
    w = np.array([d * d, d, 1])
    keys = np.minimum(Ts % d @ w, -Ts % d @ w)
    keys.sort(axis=1)
    return list(map(tuple, keys.tolist()))


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _fixed_line(T, d: int) -> tuple[int, int, int]:
    """Primitive integer w with (1/d) T w = det((1/d)T) w, first nonzero entry positive.

    T must be a self-similitude of N of infinite order (see
    check_bad_partition): then det((1/d)T) is a simple eigenvalue, so
    T - det(T)/d^2 I has rank 2 and two of its rows cross to w.
    """
    lam = _det(T) // d**3
    A = [[T[i][j] - (lam * d if i == j else 0) for j in range(3)] for i in range(3)]
    w = next(w for w in (_cross(A[0], A[1]), _cross(A[0], A[2]), _cross(A[1], A[2])) if any(w))
    g = gcd(*w) if next(e for e in w if e) > 0 else -gcd(*w)
    return tuple(e // g for e in w)


def _column_subgroup(Td: np.ndarray, d: int) -> np.ndarray:
    # the subgroup {T s (mod d)} of H_d^3 as a (3, k) array in flat-index
    # order: the closure of {0} under each column of Td and its multiples
    cube = (d, d, d)
    H = np.zeros((3, 1), dtype=np.int64)
    for c in Td.T:
        sums = (H[:, :, None] + np.outer(c, np.arange(d))[:, None, :]) % d
        # a mark over H_d^3, not np.unique, which imports numpy.ma (0.5 MiB) on first use
        mark = np.zeros(d**3, dtype=bool)
        mark[np.ravel_multi_index(sums.reshape(3, -1), cube)] = True
        H = np.array(np.unravel_index(np.flatnonzero(mark), cube))
    return H


def check_bad_partition(inst: TransferInstance) -> list[int]:
    """Verify a stable-vector transfer instance; return the excluded classes.

    The uncovered residues of N in class a (mod d) are split into blocks,
    each recycled by its own self-similitude T of N with ratio d^2.  The
    two conditions checked exhaustively are: (i) (1/d) T has infinite
    order, and (ii) every residue reachable from a block stays in that
    block or becomes covered.  On success, values of N in the progression
    transfer to M except along each T's fixed line, whose square class
    t(w) N w is returned per block.

    Condition (i) is read off T's trace, exactly.  Once t(T) N T = d^2 N
    holds with N positive definite, S = (1/d) T is orthogonal for N: its
    eigenvalues are lam = det S = +-1 and e^(+-i theta), and
    tr S = lam + 2 cos theta makes 2 cos theta rational.  S has finite order
    iff e^(i theta) is a root of unity, iff 2 cos theta is an integer (a
    rational algebraic integer is one; an integer in [-2, 2] gives theta of
    order 1, 2, 3, 4 or 6), iff d divides tr T.  Of infinite order, theta is
    not 0 or pi, so lam is a simple eigenvalue and the fixed line exists.
    """
    M, N, d, a = inst.M, inst.N, inst.d, inst.a
    if not inst.transforms:
        raise ValueError("instance carries no transform matrices")
    # a residue is a row of R or its flat index x*d^2 + y*d + z in H_d^3
    cube = (d, d, d)
    R = residues(N, d, a)
    covered = _covered_mask(M, N, d, R)
    rest = R[~covered]
    if inst.blocks is None:
        blocks = [rest]
    else:
        blocks = [np.array(B, dtype=np.int64) for B in inst.blocks]
        listed = np.concatenate([np.ravel_multi_index(B.T, cube) for B in blocks])
        uncovered = np.ravel_multi_index(rest.T, cube)  # increasing, as R is sorted
        if not np.array_equal(np.sort(listed), uncovered):
            raise ValueError(
                f"blocks do not partition the uncovered residue set "
                f"({uncovered.size} uncovered, blocks cover {np.unique(listed).size})"
            )

    covered_bits = np.zeros(d**3, dtype=bool)
    covered_bits[np.ravel_multi_index(R[covered].T, cube)] = True
    excluded: list[int] = []
    for bi, (B, T) in enumerate(zip(blocks, inst.transforms), start=1):
        # self-similitude sanity, t(T) N T = d^2 N, in exact ints before any int64 array
        cols = tuple(zip(*T))
        if any(N.bilinear(cols[i], cols[j]) != d * d * N.rows[i][j]
               for i in range(3) for j in range(3)):
            raise ValueError(f"transform {bi} is not a self-similitude of ratio d^2")
        Ta = np.array(T, dtype=np.int64)
        if sum(T[i][i] for i in range(3)) % d == 0:
            raise ConditionFailed("i", bi, detail="(1/d) T has finite order")
        allowed = covered_bits.copy()
        allowed[np.ravel_multi_index(B.T, cube)] = True
        # residues reachable from x = v + d*s under x -> (1/d) T x are
        # (1/d) T v + T s (mod d); the shifts T s (mod d) are one subgroup of
        # H_d^3, the same for every v, so build it once
        shifts = _column_subgroup(Ta % d, d)
        for v in B:
            img = Ta @ v
            if (img % d).any():
                raise ConditionFailed(
                    "ii", bi, witness=tuple(v.tolist()), detail="(1/d) T v is not integral"
                )
            reach = np.ravel_multi_index(((img // d)[:, None] + shifts) % d, cube)
            escaping = reach[~allowed[reach]]
            if escaping.size:
                first = tuple(int(e) for e in np.unravel_index(escaping.min(), cube))
                raise ConditionFailed(
                    "ii", bi, witness=tuple(v.tolist()), detail=f"residue {first} escapes the block"
                )
        w = _fixed_line(T, d)
        excluded.append(N.value(w))
    return excluded


def two_threes_params(a: int, b: int) -> tuple[int, int, int]:
    """Constants (l, alpha, beta) of the coefficient-pair reduction for (3,3,a,b).

    Requires a = b (mod 3) with neither divisible by 3; beta is then an
    integer automatically.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    if a % 3 == 0 or a % 3 != b % 3:
        raise ValueError(f"need a = b (mod 3) and a,b not divisible by 3: ({a}, {b})")
    l = lcm(a, b)
    alpha = (a + b) * l * l // (a * b)
    assert (a + b) * l * l % (a * b) == 0
    num = alpha - a - b - 6
    assert num % 3 == 0, (a, b, alpha)
    return l, alpha, num // 3


def two_threes_sufficient(a: int, b: int, u: int, w: int) -> bool:
    """Sufficient test that u is a value of the quaternary form (3, 3, a, b).

    True iff u - alpha*P8(w) - beta is nonnegative, 2 mod 3, and represented
    by the diagonal ternary lattice <1, 1, 3(a+b)>.
    """
    _, alpha, beta = two_threes_params(a, b)
    val = u - alpha * octagonal_number(w) - beta
    if val < 0 or val % 3 != 2:
        return False
    return represents_lattice(GramMatrix.diagonal((1, 1, 3 * (a + b))), val)


def jones_strengthen(v: int) -> tuple[int, int] | None:
    """The first solution (x, y), x ascending, of x^2 + 2y^2 = v with xy coprime to 3.

    Requires v a positive multiple of 3 and the equation solvable at all;
    returns None when every solution has a coordinate divisible by 3, which
    would contradict the strengthening.
    """
    if v % 3 != 0 or v <= 0:
        raise ValueError(f"v must be a positive multiple of 3: {v}")
    solvable = False
    for x in range(isqrt(v) + 1):
        y = isqrt((v - x * x) // 2)
        if x * x + 2 * y * y == v:
            if x % 3 and y % 3:
                return (x, y)
            solvable = True
    if solvable:
        return None
    raise ValueError(f"x^2 + 2y^2 = {v} has no integer solution")
