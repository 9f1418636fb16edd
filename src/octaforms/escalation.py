"""Escalation search for tight universal octagonal forms.

Fix a floor n >= 1.  A form is "tight" for n when its nonzero values are
exactly the integers >= n.  Starting from the single coefficient vector (n),
each non-universal candidate is extended by every admissible next
coefficient, branching on its truant (the smallest integer >= n it misses).
The recursion terminates with the complete list of new tight forms and the
finite criterion set whose representation certifies tightness.

Universality cannot be decided by finite enumeration, so "no gap found up
to the bound" stands in for it; the default bound comfortably exceeds every
range that matters for n <= 10 and is configurable upward.

A universal form is new when no universal form found at an earlier depth is
a proper subsequence of it.  That test compares it with the earlier
universal forms that hold the coefficient it added, so its cost is
polynomial in the form length.

A sieve stays the fold's uint64 word array from the root to the last
truant; no packed int is built.  Each parent's children come from its
words (polygonal._extensions).  When the parent misses few values, its
gap list is tested against each new coefficient's term values (the gap
test of polygonal.fold): the child's truant is the smallest uncovered
gap >= n, and a child's words are built only when that truant exists, so
a universal child costs one gap test and no sieve.  A parent with many
gaps folds each child densely from the same words (polygonal._fold_dense,
hand-over included), and the child's truant is read from its words by
one word read-out (polygonal._first_gap).  Each coefficient's term
values are built once per run.  Only the words of active members are
kept, for their children.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .polygonal import (
    _decode,
    _extensions,
    _first_gap,
    _fold_words,
    _insert_sorted,
    _is_proper_subsequence,
    _walk,
    build_sieve,
    check_bytes,
    coeff_vector,
    term_values,
)

__all__ = [
    "DEFAULT_BOUND",
    "EscalationDepthError",
    "DepthRecord",
    "EscalationTrace",
    "CriterionSet",
    "Verdict",
    "psi",
    "run_escalation",
    "criterion_set",
    "check_tight_universal",
    "tight_verdicts",
    "trace_to_dict",
]

DEFAULT_BOUND = 50_000


class EscalationDepthError(Exception):
    """Escalation exceeded its depth limit; the bound is likely too small."""


@dataclass(frozen=True)
class DepthRecord:
    """One level of the escalation: candidates E, universal U, new NU, active A.

    psi maps each candidate to its truant, None when it has no gap up to the
    trace's bound.
    """

    k: int
    E: tuple[tuple[int, ...], ...]
    U: tuple[tuple[int, ...], ...]
    NU: tuple[tuple[int, ...], ...]
    A: tuple[tuple[int, ...], ...]
    psi: dict[tuple[int, ...], int | None]


@dataclass(frozen=True)
class EscalationTrace:
    n: int
    bound: int
    depths: tuple[DepthRecord, ...]
    terminated_at: int

    def depth(self, k: int) -> DepthRecord:
        if not 1 <= k <= self.terminated_at:
            raise ValueError(f"depth {k} outside [1, {self.terminated_at}]")
        return self.depths[k - 1]


@dataclass(frozen=True)
class CriterionSet:
    """The finite set whose representation certifies tightness for floor n."""

    n: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a tightness check; value carries the smallest offender."""

    kind: str  # "tight" | "represents_below_n" | "misses_criterion" | "misses_in_bound"
    value: int | None = None

    @property
    def is_tight(self) -> bool:
        return self.kind == "tight"

    def __str__(self) -> str:
        if self.kind == "tight":
            return "tight"
        return f"{self.kind}({self.value})"


def psi(a, n: int, bound: int = DEFAULT_BOUND) -> int | None:
    """Truant of the form a for floor n: the smallest integer >= n it misses.

    None when every integer in [n, bound] is represented (the form is
    universal as far as the bound certifies).
    """
    a = coeff_vector(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    if bound < 2 * n:
        raise ValueError("bound must be >= 2n")
    return build_sieve(a, bound).first_missing(n, bound)


def _new_coefficients(psi_value: int, n: int) -> list[int]:
    # n..psi_value-n and psi_value itself, ascending; when psi_value < 2n
    # that collapses to psi_value alone
    return list(range(n, psi_value - n + 1)) + [psi_value]


def run_escalation(n: int, bound: int = DEFAULT_BOUND) -> EscalationTrace:
    """Run the escalation for floor n to termination.

    Deterministic in (n, bound).  Past depth 3n + 10, a fixed limit, it
    raises EscalationDepthError: termination is expected by depth n + 1 for
    floors >= 5 and within a few more levels below that.  The sieves it
    holds, as uint64 words (the parents not yet expanded, the current parent
    and the children kept so far), are checked against polygonal.BYTE_LIMIT
    with one more array before the root is folded and before a parent is
    read, and with two more, the child and the dense fold's shifted copy,
    before each child is built.  Each coefficient's term values are built
    once per run.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if bound < 2 * n:
        raise ValueError("bound must be >= 2n")
    nw = (bound + 64) // 64

    def reserve(more: int) -> None:
        # the sieves held (the parents not yet expanded, the current parent and
        # the children kept so far) and more sieve-sized arrays
        held = len(sieves) + 1 + len(children)
        check_bytes((held + more) * 8 * nw, f"escalation for n={n} to {bound}")

    depths: list[DepthRecord] = []
    universal_with: dict[int, list[tuple[int, ...]]] = {}  # earlier universal forms by coefficient
    terms = cache(lambda c: term_values(c, bound))  # once per coefficient per run
    sieves, children = {}, {}  # the active candidates' words, and the kept children's
    reserve(1)  # the root's words and {0}'s
    sieves[(n,)] = _fold_words(_decode(1, bound), [terms(n)], bound)
    found = {(n,): _first_gap(sieves[(n,)], n, bound)}  # the candidates E and their truants
    added = {(n,): n}  # the coefficient each candidate added to its parent
    k = 1
    while True:
        members = sorted(found)
        psis = {a: found[a] for a in members}
        U = [a for a in members if psis[a] is None]
        A = [a for a in members if psis[a] is not None]
        # A universal u that is a proper subsequence of a = parent + (g) is not
        # one of the parent's subsequences: the parent would then represent all
        # that u does and be universal, not active.  So u holds g, and only the
        # earlier universal forms that hold g need testing.
        NU = [
            a
            for a in U
            if not any(_is_proper_subsequence(u, a) for u in universal_with.get(added[a], ()))
        ]
        depths.append(
            DepthRecord(k=k, E=tuple(members), U=tuple(U), NU=tuple(NU), A=tuple(A), psi=psis)
        )
        if not A:
            return EscalationTrace(n=n, bound=bound, depths=tuple(depths), terminated_at=k)
        if k == 3 * n + 10:
            raise EscalationDepthError(f"no empty active set by depth {k} (n={n}, bound={bound})")
        for u in U:
            for c in set(u):
                universal_with.setdefault(c, []).append(u)
        found, added, children = {}, {}, {}
        for a in A:
            words = sieves.pop(a)
            gs = [g for g in _new_coefficients(psis[a], n) if _insert_sorted(a, g) not in found]
            for g, truant, child_words in _extensions(words, bound, gs, n, terms, reserve):
                child = _insert_sorted(a, g)
                found[child], added[child] = truant, g
                if truant is not None:
                    children[child] = child_words
        sieves = children
        k += 1


def criterion_set(trace: EscalationTrace) -> CriterionSet:
    """Collect n and the truant of every active vector across the trace."""
    values = {trace.n}
    for rec in trace.depths:
        for a in rec.A:
            values.add(rec.psi[a])
    return CriterionSet(n=trace.n, values=tuple(sorted(values)))


def check_tight_universal(
    a,
    n: int,
    criterion: CriterionSet,
    bound: int = DEFAULT_BOUND,
) -> Verdict:
    """Decide tightness of the form a for floor n via the criterion set.

    Checks, in order: nothing below n is represented, every criterion value
    is represented, and (consistency) no gap exists in [n, bound].
    """
    return tight_verdicts([a], n, criterion, bound)[0]


def tight_verdicts(
    forms,
    n: int,
    criterion: CriterionSet,
    bound: int = DEFAULT_BOUND,
) -> list[Verdict]:
    """check_tight_universal for each form in turn, sieved by one prefix walk.

    Forms that share a coefficient prefix with the form before them resume
    from its sieve (polygonal.build_sieves), so list them in an order that
    keeps shared prefixes adjacent, as the tables do.
    """
    walk = _walk(forms, bound)
    if criterion.n != n:
        raise ValueError(f"criterion set is for n={criterion.n}, not n={n}")
    return [_verdict(words, bound, n, criterion) for _, words in walk]


def _verdict(words: np.ndarray, bound: int, n: int, criterion: CriterionSet) -> Verdict:
    # The values below n and the criterion values are read from one small int
    # of the sieve's low words, and the first gap >= n by one word read-out;
    # a value or a range outside [0, bound] raises, as it does on a sieve.
    top = min(max((0, n - 1, *criterion.values)), bound)
    low = int.from_bytes(words[: top // 64 + 1].tobytes(), "little")

    def has(v: int) -> bool:
        if not 0 <= v <= bound:
            raise ValueError(f"value {v} outside sieve range [0, {bound}]")
        return bool(low >> v & 1)

    for v in range(1, n):
        if has(v):
            return Verdict("represents_below_n", v)
    for c in criterion.values:
        if not has(c):
            return Verdict("misses_criterion", c)
    if not 0 <= n <= bound:
        raise ValueError(f"range [{n}, {bound}] outside sieve range [0, {bound}]")
    gap = _first_gap(words, n, bound)
    if gap is not None:
        return Verdict("misses_in_bound", gap)
    return Verdict("tight")


def trace_to_dict(trace: EscalationTrace) -> dict:
    """JSON-ready form of a trace (integers and nulls only)."""
    return {
        "n": trace.n,
        "bound": trace.bound,
        "terminated_at": trace.terminated_at,
        "depths": [
            {
                "k": rec.k,
                "E": [list(a) for a in rec.E],
                "U": [list(a) for a in rec.U],
                "NU": [list(a) for a in rec.NU],
                "A": [list(a) for a in rec.A],
                "psi": {",".join(map(str, a)): v for a, v in rec.psi.items()},
            }
            for rec in trace.depths
        ],
    }
