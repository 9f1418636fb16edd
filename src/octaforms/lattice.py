"""Integer quadratic lattices: representation, similitudes, and transfer.

Everything here is exact integer arithmetic; numpy is used only to batch
loops whose entries stay far inside int64.  The central objects are
positive definite Gram matrices, the sets of integral similitude matrices
between two lattices, and two "transfer" checks that push representations
of an arithmetic progression from one lattice to another:

* progression transfer: every residue vector of N in the class a (mod d)
  maps into M under some similitude of ratio d^2 (an emptiness check);
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
    "NoEigenvector",
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


class NoEigenvector(Exception):
    """A self-similitude has no rational fixed line; the instance is malformed."""


def _det(m) -> int:
    # Laplace expansion along the first row; dimensions here never exceed 4.
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


class GramMatrix:
    """Symmetric positive definite integer Gram matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        for k in range(1, n + 1):
            minor = [row[:k] for row in rows[:k]]
            if _det(minor) <= 0:
                raise ValueError("Gram matrix not positive definite")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *_):
        raise AttributeError("GramMatrix is immutable")

    @classmethod
    def diagonal(cls, entries) -> "GramMatrix":
        entries = tuple(int(e) for e in entries)
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def det(self) -> int:
        return _det(self.rows)

    @property
    def is_diagonal(self) -> bool:
        return all(
            self.rows[i][j] == 0 for i in range(self.dim) for j in range(self.dim) if i != j
        )

    def value(self, v) -> int:
        """The quadratic value t(v) M v."""
        v = tuple(int(e) for e in v)
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != dimension {self.dim}")
        return sum(self.rows[i][j] * v[i] * v[j] for i in range(self.dim) for j in range(self.dim))

    def bilinear(self, u, v) -> int:
        """The bilinear value t(u) M v."""
        u = tuple(int(e) for e in u)
        v = tuple(int(e) for e in v)
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector length mismatch")
        return sum(self.rows[i][j] * u[i] * v[j] for i in range(self.dim) for j in range(self.dim))

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)

    def __eq__(self, other) -> bool:
        return isinstance(other, GramMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        if self.is_diagonal:
            return f"GramMatrix.diagonal({[self.rows[i][i] for i in range(self.dim)]})"
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

    def represents(self, v: int) -> bool:
        """Genus membership at desk scale: some listed class represents v."""
        return any(represents_lattice(c, v) for c in self.classes)


@dataclass(frozen=True)
class TransferInstance:
    """One transfer check: lattices M, N, depth d, progression class a.

    transforms (with optional matching partition blocks) configure the
    stable-vector check; plain progression transfer needs neither.
    """

    name: str
    M: GramMatrix
    N: GramMatrix
    d: int
    a: int
    transforms: tuple[tuple[tuple[int, ...], ...], ...] = ()
    blocks: tuple[tuple[tuple[int, ...], ...], ...] | None = None
    excluded: tuple[int, ...] | None = None  # expected square classes, if recorded


def _range_bounds(M: GramMatrix, v: int) -> list[int]:
    # |x_i| <= sqrt(v * (M^-1)_ii); exact via adjugate over determinant.
    det = M.det
    bounds = []
    for i in range(M.dim):
        minor = [
            [M.rows[r][c] for c in range(M.dim) if c != i]
            for r in range(M.dim)
            if r != i
        ]
        adj = _det(minor)
        # the largest b with b*b*det <= v*adj: b*b is an integer, so the floor loses nothing
        bounds.append(isqrt(v * adj // det))
    return bounds


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
    """Yield per-x1 arrays of solutions of Q_M(x) = v (dimension 3 only)."""
    if M.dim != 3:
        raise ValueError("vector enumeration requires a ternary lattice")
    if v < 0:
        return
    if v == 0:
        yield np.zeros((1, 3), dtype=np.int64)
        return
    m = M.rows
    b1, b2, _ = _range_bounds(M, v)
    points = (2 * b1 + 1) * (2 * b2 + 1)
    if points > POINT_BUDGET:
        raise ResourceBudgetError(f"ellipsoid scan of {points} points, over budget {POINT_BUDGET}")
    if not _disc_fits_int64(m, v, b1, b2):
        yield from _vector_batches_exact(m, v, b1, b2)
        return
    # one x1 row peaks at about eight row-sized int64 arrays (e, f, disc, r and their temporaries)
    check_bytes(9 * 8 * (2 * b2 + 1), f"ellipsoid rows of {2 * b2 + 1} points")
    a33 = m[2][2]
    x2 = np.arange(-b2, b2 + 1, dtype=np.int64)
    for x1 in range(-b1, b1 + 1):
        e = m[0][2] * x1 + m[1][2] * x2
        f = m[0][0] * x1 * x1 + 2 * m[0][1] * x1 * x2 + m[1][1] * x2 * x2 - v
        disc = e * e - a33 * f
        ok = disc >= 0
        if not ok.any():
            continue
        # below 2^62 float64 sqrt of a square n^2 is n exactly, and a non-square fails r*r == disc
        r = np.sqrt(disc.clip(min=0)).astype(np.int64)
        ok &= r * r == disc
        rows = []
        for sign in (1, -1):
            num = -e + sign * r
            good = ok & (num % a33 == 0)
            if sign == -1:
                good &= r != 0
            if good.any():
                xs2 = x2[good]
                xs3 = num[good] // a33
                batch = np.empty((xs2.size, 3), dtype=np.int64)
                batch[:, 0] = x1
                batch[:, 1] = xs2
                batch[:, 2] = xs3
                rows.append(batch)
        if rows:
            yield np.concatenate(rows)


@lru_cache(maxsize=4096)
def _vectors_cached(M: GramMatrix, v: int) -> np.ndarray:
    batches = list(_vector_batches(M, v))
    if not batches:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(batches)


def lattice_vectors(M: GramMatrix, v: int) -> np.ndarray:
    """All integer vectors x with Q_M(x) = v, as an (n, 3) array."""
    return _vectors_cached(M, v).copy()


def represents_lattice(M: GramMatrix, v: int) -> bool:
    """True iff the ternary lattice M represents v."""
    for batch in _vector_batches(M, v):
        if batch.size:
            return True
    return False


def count_representations(M: GramMatrix, v: int) -> int:
    """Number of integer vectors x with Q_M(x) = v (signs and order distinct)."""
    return _vectors_cached(M, v).shape[0]


def lattice_counts_up_to(M: GramMatrix, bound: int) -> np.ndarray:
    """int64 array r where r[v] counts the x with Q_M(x) = v, v = 0..bound.

    One sweep of the ellipsoid box for every value at once; M represents v
    iff r[v] > 0.
    """
    if M.dim != 3:
        raise ValueError("bulk enumeration requires a ternary lattice")
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
    # tail, cross, the last slice's q and two partial sums of the next one
    check_bytes(5 * 8 * (2 * b2 + 1) * (2 * b3 + 1), f"box slices of {2 * b2 + 1} x {2 * b3 + 1}")
    counts = np.zeros(bound + 1, dtype=np.int64)
    x2 = np.arange(-b2, b2 + 1, dtype=np.int64)[:, None]
    x3 = np.arange(-b3, b3 + 1, dtype=np.int64)[None, :]
    tail = m[1][1] * x2 * x2 + 2 * m[1][2] * x2 * x3 + m[2][2] * x3 * x3
    cross = 2 * (m[0][1] * x2 + m[0][2] * x3)
    for x1 in range(-b1, b1 + 1):
        q = m[0][0] * x1 * x1 + cross * x1 + tail
        counts += np.bincount(q[(q >= 0) & (q <= bound)], minlength=bound + 1)
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


def _residue_array(N: GramMatrix, d: int, a: int) -> np.ndarray:
    # rows v of H_d^3 with Q_N(v) = a (mod d), in lexicographic order.  Counted
    # at the heaviest consumer's peak with every residue in the class:
    # residues' set of tuples, 167.8 d^3 bytes at d = 108 (the block walk: 91)
    check_bytes(168 * d**3, f"residue cube of size {d}^3")
    x, y, z = np.ogrid[:d, :d, :d]
    # entries reduced mod d keep q far inside int64 whatever N's size
    (n11, n12, n13), (_, n22, n23), (_, _, n33) = ([e % d for e in row] for row in N.rows)
    q = n11 * x * x + n22 * y * y + n33 * z * z + 2 * (n12 * x * y + n13 * x * z + n23 * y * z)
    return np.argwhere(q % d == a)


def residues(N: GramMatrix, d: int, a: int) -> set[tuple[int, int, int]]:
    """Residue vectors v in H_d^3 whose value under N is a mod d."""
    if N.dim != 3:
        raise ValueError("residue scan requires a ternary lattice")
    if not 0 <= a < d:
        raise ValueError("need 0 <= a < d")
    return {tuple(int(e) for e in row) for row in _residue_array(N, d, a)}


def _iter_similitudes(M: GramMatrix, N: GramMatrix, d: int):
    """Yield all T (3x3 int64 arrays) with t(T) M T = d^2 N, column by column."""
    t = d * d
    C1, C2, C3 = (lattice_vectors(M, t * N.rows[j][j]) for j in range(3))
    if min(len(C1), len(C2), len(C3)) == 0:
        return
    if any(c.dtype == object for c in (C1, C2, C3)):
        raise ResourceBudgetError("similitude column sets too large to pair up")
    # G12 and its == mask: 9 bytes a pair
    check_bytes(9 * len(C1) * len(C2), f"pairing {len(C1)} x {len(C2)} similitude columns")
    Marr = M.as_array()
    G12 = C1 @ Marr @ C2.T
    pairs = np.argwhere(G12 == t * N.rows[0][1])
    if pairs.size == 0:
        return
    MC3 = Marr @ C3.T
    t13 = t * N.rows[0][2]
    t23 = t * N.rows[1][2]
    for i, j in pairs:
        ks = np.flatnonzero((C1[i] @ MC3 == t13) & (C2[j] @ MC3 == t23))
        for k in ks:
            yield np.column_stack((C1[i], C2[j], C3[k]))


def transfer_matrices(M: GramMatrix, N: GramMatrix, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """The full set of integer matrices T with t(T) M T = d^2 N.

    Finite because each column lies on an ellipsoid of M.  Returned sorted
    as nested tuples (deterministic).
    """
    if M.dim != 3 or N.dim != 3:
        raise ValueError("similitudes require ternary lattices")
    if d < 1:
        raise ValueError("d must be >= 1")
    out = {tuple(tuple(int(e) for e in row) for row in T) for T in _iter_similitudes(M, N, d)}
    return sorted(out)


def check_prec(M: GramMatrix, N: GramMatrix, d: int, a: int) -> bool:
    """Progression transfer test: is every residue of N in class a covered?

    True iff each v in H_d^3 with Q_N(v) = a (mod d) satisfies T v = 0
    (mod d) for some similitude T of ratio d^2 from M to N.  True lets
    representations of d u + a by N transfer to M.
    """
    if not 0 <= a < d:
        raise ValueError("need 0 <= a < d")
    return bool(_covered_mask(M, N, d, _residue_array(N, d, a)).all())


def _covered_mask(M: GramMatrix, N: GramMatrix, d: int, R: np.ndarray) -> np.ndarray:
    # which rows of R some similitude sends to 0 mod d; stops once all are
    covered = np.zeros(R.shape[0], dtype=bool)
    if R.shape[0] == 0:
        return covered  # nothing to cover, so no similitude is needed
    for T in _iter_similitudes(M, N, d):
        covered |= ((T @ R.T) % d == 0).all(axis=0)
        if covered.all():
            break
    return covered


def _matrix_power_is_identity(T, d: int) -> bool:
    # finite order in GL_3(Q) forces order 1, 2, 3, 4 or 6
    P = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for k in range(1, 7):
        P = [
            [sum(P[i][l] * T[l][j] for l in range(3)) for j in range(3)]
            for i in range(3)
        ]
        scale = d**k
        if all(P[i][j] == (scale if i == j else 0) for i in range(3) for j in range(3)):
            return True
    return False


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _primitive(w):
    g = gcd(gcd(abs(w[0]), abs(w[1])), abs(w[2]))
    if g == 0:
        return None
    w = tuple(e // g for e in w)
    for e in w:
        if e != 0:
            return w if e > 0 else tuple(-x for x in w)
    return None


def _fixed_line(T, d: int) -> tuple[int, int, int]:
    """Primitive integer w with (1/d) T w = det((1/d)T) w, deterministic sign."""
    detT = _det(T)
    if abs(detT) != d**3:
        raise NoEigenvector(f"determinant {detT} is not +-d^3")
    lam = detT // (d**3)
    A = [[T[i][j] - (lam * d if i == j else 0) for j in range(3)] for i in range(3)]
    if _det(A) != 0:
        raise NoEigenvector("eigenvalue has no rational line")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        w = _primitive(_cross(A[i], A[j]))
        if w is not None:
            return w
    raise NoEigenvector("the fixed space is not a line")


def check_bad_partition(inst: TransferInstance) -> list[int]:
    """Verify a stable-vector transfer instance; return the excluded classes.

    The uncovered residues of N in class a (mod d) are split into blocks,
    each recycled by its own self-similitude T of N with ratio d^2.  The
    two conditions checked exhaustively are: (i) (1/d) T has infinite
    order, and (ii) every residue reachable from a block stays in that
    block or becomes covered.  On success, values of N in the progression
    transfer to M except along each T's fixed line, whose square class
    t(w) N w is returned per block.
    """
    M, N, d, a = inst.M, inst.N, inst.d, inst.a
    if not 0 <= a < d:
        raise ValueError("need 0 <= a < d")
    if not inst.transforms:
        raise ValueError("instance carries no transform matrices")
    # a residue is a row of R or its flat index x*d^2 + y*d + z in H_d^3
    cube = (d, d, d)
    R = _residue_array(N, d, a)
    covered = _covered_mask(M, N, d, R)
    rest = R[~covered]
    uncovered = np.ravel_multi_index(rest.T, cube)  # increasing, as R is sorted

    if inst.blocks is not None:
        try:
            blocks = [np.array(block, dtype=np.int64, ndmin=2) for block in inst.blocks]
            listed = np.concatenate([np.ravel_multi_index(B.T, cube) for B in blocks])
        except (ValueError, OverflowError):
            raise ValueError(f"block residues must be three integers in [0, {d})") from None
        if not np.array_equal(np.sort(listed), uncovered):
            raise ValueError(
                f"blocks do not partition the uncovered residue set "
                f"({uncovered.size} uncovered, blocks cover {np.unique(listed).size})"
            )
    else:
        if len(inst.transforms) != 1:
            raise ValueError("implicit single block requires exactly one transform")
        blocks = [rest]
    if len(blocks) != len(inst.transforms):
        raise ValueError("need exactly one transform per block")

    Narr = N.as_array()
    covered_bits = np.zeros(d**3, dtype=bool)
    covered_bits[np.ravel_multi_index(R[covered].T, cube)] = True
    x, y, z = np.ogrid[:d, :d, :d]
    excluded: list[int] = []
    for bi, (B, T) in enumerate(zip(blocks, inst.transforms), start=1):
        Tm = tuple(tuple(int(e) for e in row) for row in T)
        # self-similitude sanity: t(T) N T = d^2 N
        Ta = np.array(Tm, dtype=np.int64)
        if not np.array_equal(Ta.T @ Narr @ Ta, d * d * Narr):
            raise ValueError(f"transform {bi} is not a self-similitude of ratio d^2")
        if _matrix_power_is_identity(Tm, d):
            raise ConditionFailed("i", bi, detail="(1/d) T has finite order")
        allowed = covered_bits.copy()
        allowed[np.ravel_multi_index(B.T, cube)] = True
        # residues reachable from x = v + d*s under x -> (1/d) T x are
        # (1/d) T v + T s (mod d); the shifts T s (mod d) are one subgroup of
        # H_d^3, the same for every v, so reduce them once
        s = np.ravel_multi_index([(r[0] * x + r[1] * y + r[2] * z) % d for r in Ta % d], cube)
        shifts = np.array(np.unravel_index(np.unique(s), cube))
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
        w = _fixed_line(Tm, d)
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
    """Solution (x, y) of x^2 + 2y^2 = v with xy coprime to 3, if one exists.

    Requires v divisible by 3 and the equation solvable at all (checked by
    enumeration); returns None when solutions exist but every one has a
    coordinate divisible by 3, which would contradict the strengthening.
    """
    if v % 3 != 0 or v <= 0:
        raise ValueError(f"v must be a positive multiple of 3: {v}")
    solutions = []
    for x in range(isqrt(v) + 1):
        rest = v - x * x
        if rest % 2 != 0:
            continue
        y2 = rest // 2
        y = isqrt(y2)
        if y * y == y2:
            solutions.append((x, y))
    if not solutions:
        raise ValueError(f"x^2 + 2y^2 = {v} has no integer solution")
    for x, y in solutions:
        if x % 3 != 0 and y % 3 != 0:
            return (x, y)
    return None
