"""Escalation recursion, criterion sets, and tightness verdicts."""

import pytest

from octaforms import escalation, polygonal
from octaforms.escalation import (
    CriterionSet,
    EscalationDepthError,
    Verdict,
    check_tight_universal,
    criterion_set,
    psi,
    run_escalation,
    tight_verdicts,
)
from octaforms.polygonal import (
    ResourceBudgetError,
    build_sieve,
    insert_sorted,
    is_proper_subsequence,
)
from octaforms.tables import family_pair

BOUND = 50_000


@pytest.fixture(scope="module")
def trace2():
    return run_escalation(2, BOUND)


def test_psi_examples():
    assert psi((2, 2, 3), 2) == 6
    assert psi((2, 3, 4), 2) == 8
    assert psi((2, 3, 3, 4), 2) == 11
    assert psi((5,), 5) == 6
    assert psi((2, 2, 3, 4), 2, BOUND) is None


def test_psi_validation():
    with pytest.raises(ValueError):
        psi((2,), 0)
    with pytest.raises(ValueError):
        psi((2,), 3, 4)


def test_child_rule_holds_at_every_depth():
    # depth k+1's candidates are the active vectors of depth k, each with one
    # coefficient g inserted: n <= g <= psi - n, or g = psi
    for n in range(1, 6):
        trace = run_escalation(n, BOUND)
        for k in range(1, trace.terminated_at):
            rec = trace.depth(k)
            expected = {
                insert_sorted(a, g)
                for a in rec.A
                for g in [*range(n, rec.psi[a] - n + 1), rec.psi[a]]
            }
            assert set(trace.depth(k + 1).E) == expected, (n, k)


def test_escalation_depth2_counts(trace2):
    sizes = [(len(r.E), len(r.U), len(r.NU), len(r.A)) for r in trace2.depths]
    assert sizes == [
        (1, 0, 0, 1),
        (1, 0, 0, 1),
        (2, 0, 0, 2),
        (9, 3, 3, 6),
        (52, 49, 39, 3),
        (30, 30, 15, 0),
    ]
    assert trace2.terminated_at == 6


def test_escalation_depth2_members(trace2):
    assert set(trace2.depth(4).U) == {(2, 2, 3, 4), (2, 3, 4, 5), (2, 3, 4, 8)}
    assert set(trace2.depth(5).A) == {(2, 2, 2, 3, 3), (2, 2, 3, 3, 3), (2, 2, 3, 3, 5)}
    d5 = trace2.depth(5)
    assert [d5.psi[a] for a in ((2, 2, 2, 3, 3), (2, 2, 3, 3, 3), (2, 2, 3, 3, 5))] == [11, 14, 14]
    d3 = trace2.depth(3)
    assert {a: d3.psi[a] for a in d3.E} == {(2, 2, 3): 6, (2, 3, 4): 8}
    d4 = trace2.depth(4)
    assert {a: d4.psi[a] for a in d4.A} == {
        (2, 2, 2, 3): 8,
        (2, 2, 3, 3): 9,
        (2, 2, 3, 6): 14,
        (2, 3, 3, 4): 11,
        (2, 3, 4, 4): 12,
        (2, 3, 4, 6): 18,
    }


def test_escalation_total_new_forms(trace2):
    assert sum(len(r.NU) for r in trace2.depths) == 57


def test_criterion_sets(trace2):
    assert criterion_set(trace2).values == (2, 3, 4, 6, 8, 9, 11, 12, 14, 18)
    assert criterion_set(run_escalation(4, BOUND)).values == (4, 5, 6, 7, 8, 23, 28)
    assert criterion_set(run_escalation(7, BOUND)).values == tuple(range(7, 15))


def test_floor_one_recovers_classical_universality_criterion():
    # tightness for floor 1 is plain universality; the recursion lands on
    # the classical twelve-value certificate ending at 60
    tr = run_escalation(1, BOUND)
    assert criterion_set(tr).values == (1, 2, 3, 4, 6, 7, 9, 12, 13, 14, 18, 60)
    assert tr.terminated_at == 5


def test_base_structure_small_floors():
    # for floors 2..10: depths 1..n are single straight runs with no universal
    # member, and depth n+1 holds exactly the two runs of length n+1
    for n in range(2, 11):
        tr = run_escalation(n, BOUND)
        for k in range(1, n + 1):
            rec = tr.depth(k)
            assert rec.E == (tuple(range(n, n + k)),)
            assert rec.U == () and rec.A == rec.E
        expected = {(n,) + tuple(range(n, 2 * n)), tuple(range(n, 2 * n + 1))}
        assert set(tr.depth(n + 1).E) == expected


def test_floor5_terminates_at_depth_6():
    tr = run_escalation(5, BOUND)
    assert tr.terminated_at == 6
    rec = tr.depth(6)
    assert set(rec.E) == {(5, 5, 6, 7, 8, 9), (5, 6, 7, 8, 9, 10)}
    assert rec.U == rec.E and rec.A == ()


def test_new_forms_by_depth(trace2):
    assert set(trace2.depth(4).NU) == {(2, 2, 3, 4), (2, 3, 4, 5), (2, 3, 4, 8)}
    assert trace2.depth(3).NU == ()
    tr9 = run_escalation(9, BOUND)
    assert set(tr9.depth(10).NU) == {
        (9,) + tuple(range(9, 18)),
        tuple(range(9, 19)),
    }


def test_new_forms_have_no_universal_proper_part(trace2):
    # minimality: every proper subsequence of a new form has a finite truant
    from itertools import combinations

    for rec in trace2.depths:
        for a in rec.NU:
            subs = {c for r in range(1, len(a)) for c in combinations(a, r)}
            for b in subs:
                assert psi(b, 2, 2000) is not None or psi(b, 2, BOUND) is not None, (a, b)


def test_criterion_matches_direct_universality(trace2):
    # the finite criterion test agrees with the scan-to-bound definition for
    # every candidate the escalation ever generated (floors 2 and 3)
    for trace in (trace2, run_escalation(3, BOUND)):
        crit = criterion_set(trace)
        for rec in trace.depths:
            for a in rec.E:
                verdict = check_tight_universal(a, trace.n, crit, BOUND)
                assert verdict.is_tight == (rec.psi[a] is None), (a, verdict)


def test_check_tight_universal_verdicts(trace2):
    crit = criterion_set(trace2)
    assert check_tight_universal((2, 3, 4, 5), 2, crit, BOUND).is_tight
    v = check_tight_universal((2, 2, 3), 2, crit, BOUND)
    assert v.kind == "misses_criterion" and v.value == 6
    v = check_tight_universal((1, 1, 3, 3), 2, crit, BOUND)
    assert v.kind == "represents_below_n" and v.value == 1
    crit5 = criterion_set(run_escalation(5, BOUND))
    assert check_tight_universal((5, 5, 6, 7, 8, 9), 5, crit5, BOUND).is_tight
    with pytest.raises(ValueError):
        check_tight_universal((2, 3), 3, crit, BOUND)


def _int_verdict(a, n, crit, bound):
    # the verdict by integer arithmetic on the packed bits of build_sieve,
    # sharing no read-out with tight_verdicts, which reads the walk's words
    bits = build_sieve(a, bound).bits
    below = [v for v in range(1, n) if bits >> v & 1]
    if below:
        return Verdict("represents_below_n", below[0])
    missed = [c for c in crit.values if not bits >> c & 1]
    if missed:
        return Verdict("misses_criterion", missed[0])
    rest = ~(bits >> n)  # negative; its lowest set bit is the first gap from n
    gap = n + (rest & -rest).bit_length() - 1
    return Verdict("misses_in_bound", gap) if gap <= bound else Verdict("tight")


def test_tight_verdicts_match_the_per_form_checks(trace2):
    # the batch resumes each form from its neighbour's prefix sieve; the
    # per-form check folds every form from {0}; the integer verdict reads
    # the packed bits of a sieve folded from {0}
    for trace in (trace2, run_escalation(3, BOUND)):
        crit = criterion_set(trace)
        for rec in trace.depths:
            expected = [check_tight_universal(a, trace.n, crit, BOUND) for a in rec.E]
            assert tight_verdicts(rec.E, trace.n, crit, BOUND) == expected
            assert expected == [_int_verdict(a, trace.n, crit, BOUND) for a in rec.E]
    # the escalation's own candidates only ever miss a criterion value
    forms = [(1, 1, 3, 3), (2, 2, 3), (2, 2, 3, 4), (2, 3, 4, 5), (2, 4)]
    crit = CriterionSet(n=2, values=(2, 3, 4))
    verdicts = tight_verdicts(forms, 2, crit, BOUND)
    assert verdicts == [check_tight_universal(a, 2, crit, BOUND) for a in forms]
    assert verdicts == [_int_verdict(a, 2, crit, BOUND) for a in forms]
    assert [str(v) for v in verdicts] == [
        "represents_below_n(1)", "misses_in_bound(6)", "tight", "tight", "misses_criterion(3)"]
    with pytest.raises(ValueError):
        tight_verdicts(forms, 3, crit, BOUND)


def test_new_forms_are_tested_only_against_universal_forms_with_the_added_coefficient():
    # run_escalation tests a universal child only against the earlier universal
    # forms that hold the coefficient it added; the scan over all of them
    # finds the same new forms
    for n in range(1, 6):
        trace = run_escalation(n, BOUND)
        earlier = []
        for rec in trace.depths:
            full = tuple(a for a in rec.U if not any(is_proper_subsequence(u, a) for u in earlier))
            assert rec.NU == full, (n, rec.k)
            earlier += rec.U


def test_determinism(trace2):
    again = run_escalation(2, BOUND)
    assert again == trace2


@pytest.mark.parametrize("n", range(5, 101))
def test_large_floors_find_exactly_the_two_families(n):
    # Theorem 5: for n >= 5 the only new forms are the two families, both at
    # depth n + 1, where the escalation ends.  The minimality test is
    # polynomial in the form length, so floors far beyond the tabulated ones
    # terminate quickly.
    trace = run_escalation(n, BOUND)
    assert trace.terminated_at == n + 1
    new = [(rec.k, a) for rec in trace.depths for a in rec.NU]
    assert sorted(new) == sorted((n + 1, a) for a in family_pair(n))


def test_depth_limit_is_enforced(monkeypatch):
    # a child psi + 1 never covers its parent's truant psi, so no candidate
    # turns universal and the run passes the fixed limit of depth 3n + 10
    monkeypatch.setattr(escalation, "_new_coefficients", lambda psi, n: [psi + 1])
    for n in (1, 2, 3):
        with pytest.raises(EscalationDepthError, match=f"by depth {3 * n + 10} "):
            run_escalation(n, BOUND)


def test_kept_sieves_are_checked_against_the_byte_limit(monkeypatch):
    # at this bound the run for n = 3 holds up to 13 sieve-sized arrays while
    # it builds a 14th; the runs for n = 4 and 5 hold a parent and its decoded
    # words while they build a child
    sieve = 8 * ((BOUND + 64) // 64)
    monkeypatch.setattr(polygonal, "BYTE_LIMIT", 3 * sieve)
    with pytest.raises(ResourceBudgetError, match="escalation for n=3"):
        run_escalation(3, BOUND)
    assert run_escalation(4, BOUND).terminated_at == 7
    assert run_escalation(5, BOUND).terminated_at == 6
    monkeypatch.setattr(polygonal, "BYTE_LIMIT", 3 * sieve - 1)
    with pytest.raises(ResourceBudgetError, match="escalation for n=5"):
        run_escalation(5, BOUND)
    monkeypatch.setattr(polygonal, "BYTE_LIMIT", 14 * sieve - 1)
    with pytest.raises(ResourceBudgetError):
        run_escalation(3, BOUND)
    monkeypatch.setattr(polygonal, "BYTE_LIMIT", 14 * sieve)
    assert run_escalation(3, BOUND).terminated_at == 7
