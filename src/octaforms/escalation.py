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
a proper subsequence of it.  That test compares it with each earlier
universal form in turn, so its cost is polynomial in the form length.

Each child's sieve is its parent's sieve with the new coefficient folded
in (RepresentationSieve.extend), so a depth costs one fold per candidate.
Only the sieves of active members are kept, for their children.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polygonal import (
    RepresentationSieve,
    _insert_sorted,
    _is_proper_subsequence,
    build_sieve,
    coeff_vector,
)

__all__ = [
    "DEFAULT_BOUND",
    "EscalationDepthError",
    "PsiResult",
    "DepthRecord",
    "EscalationTrace",
    "CriterionSet",
    "Verdict",
    "psi",
    "escalation_children",
    "run_escalation",
    "criterion_set",
    "check_tight_universal",
    "new_tight_list",
    "trace_to_dict",
]

DEFAULT_BOUND = 50_000


class EscalationDepthError(Exception):
    """Escalation exceeded its depth limit; the bound is likely too small."""


@dataclass(frozen=True)
class PsiResult:
    """Truant of a form: smallest integer >= n it misses, up to a bound.

    value is that integer, or None when every integer in [n, bound] is
    represented (the form is universal as far as the bound certifies).
    """

    value: int | None
    bound: int

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        if self.value is None:
            return f"none up to {self.bound}"
        return str(self.value)


@dataclass(frozen=True)
class DepthRecord:
    """One level of the escalation: candidates E, universal U, new NU, active A."""

    k: int
    E: tuple[tuple[int, ...], ...]
    U: tuple[tuple[int, ...], ...]
    NU: tuple[tuple[int, ...], ...]
    A: tuple[tuple[int, ...], ...]
    psi: dict[tuple[int, ...], PsiResult]


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


def psi(a, n: int, bound: int = DEFAULT_BOUND) -> PsiResult:
    """Truant of the form a relative to floor n, scanned up to bound."""
    a = coeff_vector(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    if bound < 2 * n:
        raise ValueError("bound must be >= 2n")
    return _truant(build_sieve(a, bound), n)


def _truant(sieve: RepresentationSieve, n: int) -> PsiResult:
    return PsiResult(value=sieve.first_missing(n, sieve.bound), bound=sieve.bound)


def _new_coefficients(psi_value: int, n: int) -> list[int]:
    # n..psi_value-n and psi_value itself, ascending
    return list(range(n, psi_value - n + 1)) + [psi_value]


def escalation_children(a, psi_value: int, n: int) -> set[tuple[int, ...]]:
    """Extensions of a by one coefficient, as dictated by its truant.

    The admissible new coefficients are n..psi_value-n together with
    psi_value itself; when psi_value < 2n that collapses to psi_value alone.
    """
    a = coeff_vector(a)
    if psi_value < n:
        raise ValueError("psi_value must be >= n")
    return {_insert_sorted(a, g) for g in _new_coefficients(psi_value, n)}


def run_escalation(
    n: int,
    bound: int = DEFAULT_BOUND,
    max_depth: int | None = None,
) -> EscalationTrace:
    """Run the escalation for floor n to termination.

    Deterministic in (n, bound).  The depth limit (default 3n + 10) is a
    safety valve: termination is expected by depth n + 1 for floors >= 5
    and within a few more levels below that, so blowing past the limit
    means the inputs are outside anything this recursion is built for.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if bound < 2 * n:
        raise ValueError("bound must be >= 2n")
    if max_depth is None:
        max_depth = 3 * n + 10

    depths: list[DepthRecord] = []
    universal_so_far: set[tuple[int, ...]] = set()
    root = build_sieve((n,), bound)
    found = {root.coeffs: _truant(root, n)}  # the candidates E and their truants
    sieves = {root.coeffs: root}  # the active candidates' sieves
    k = 1
    while True:
        members = sorted(found)
        psis = {a: found[a] for a in members}
        U = [a for a in members if not psis[a].is_finite]
        A = [a for a in members if psis[a].is_finite]
        NU = [
            a
            for a in U
            if not any(_is_proper_subsequence(u, a) for u in universal_so_far)
        ]
        depths.append(
            DepthRecord(k=k, E=tuple(members), U=tuple(U), NU=tuple(NU), A=tuple(A), psi=psis)
        )
        if not A:
            return EscalationTrace(n=n, bound=bound, depths=tuple(depths), terminated_at=k)
        if k >= max_depth:
            raise EscalationDepthError(
                f"no empty active set by depth {max_depth} (n={n}, bound={bound})"
            )
        universal_so_far.update(U)
        found, children = {}, {}
        for a in A:
            parent = sieves.pop(a)
            for g in _new_coefficients(psis[a].value, n):
                child = _insert_sorted(a, g)
                if child not in found:
                    sieve = parent.extend(g)
                    found[child] = _truant(sieve, n)
                    if found[child].is_finite:
                        children[child] = sieve
        sieves = children
        k += 1


def criterion_set(trace: EscalationTrace) -> CriterionSet:
    """Collect n and the truant of every active vector across the trace."""
    values = {trace.n}
    for rec in trace.depths:
        for a in rec.A:
            values.add(rec.psi[a].value)
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
    a = coeff_vector(a)
    if criterion.n != n:
        raise ValueError(f"criterion set is for n={criterion.n}, not n={n}")
    sieve = build_sieve(a, bound)
    for v in range(1, n):
        if v in sieve:
            return Verdict("represents_below_n", v)
    for c in criterion.values:
        if c not in sieve:
            return Verdict("misses_criterion", c)
    gap = sieve.first_missing(n, bound)
    if gap is not None:
        return Verdict("misses_in_bound", gap)
    return Verdict("tight")


def new_tight_list(trace: EscalationTrace, k: int) -> set[tuple[int, ...]]:
    """The new tight universal vectors of length k found by the trace."""
    return set(trace.depth(k).NU)


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
                "psi": {",".join(map(str, a)): r.value for a, r in rec.psi.items()},
            }
            for rec in trace.depths
        ],
    }
