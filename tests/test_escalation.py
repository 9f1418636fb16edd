"""Escalation recursion, criterion sets, and tightness verdicts."""

import pytest

from octaforms.escalation import (
    EscalationDepthError,
    check_tight_universal,
    criterion_set,
    escalation_children,
    new_tight_list,
    psi,
    run_escalation,
)
from octaforms.tables import FamilyRule

BOUND = 50_000


@pytest.fixture(scope="module")
def trace2():
    return run_escalation(2, BOUND)


def test_psi_examples():
    assert psi((2, 2, 3), 2).value == 6
    assert psi((2, 3, 4), 2).value == 8
    assert psi((2, 3, 3, 4), 2).value == 11
    r = psi((2, 2, 3, 4), 2, BOUND)
    assert not r.is_finite and r.bound == BOUND


def test_psi_validation():
    with pytest.raises(ValueError):
        psi((2,), 0)
    with pytest.raises(ValueError):
        psi((2,), 3, 4)


def test_escalation_children_examples():
    kids = escalation_children((2, 2, 3), 6, 2)
    assert kids == {(2, 2, 2, 3), (2, 2, 3, 3), (2, 2, 3, 4), (2, 2, 3, 6)}
    assert len(escalation_children((2, 3, 4), 8, 2)) == 6
    # a truant below 2n admits exactly one extension
    assert psi((5,), 5).value == 6
    assert escalation_children((5,), 6, 5) == {(5, 6)}


def test_children_collapse_whenever_truant_is_small():
    for n in range(2, 9):
        for psi_value in range(n, 2 * n):
            assert len(escalation_children((n,), psi_value, n)) == 1


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
    assert [d5.psi[a].value for a in ((2, 2, 2, 3, 3), (2, 2, 3, 3, 3), (2, 2, 3, 3, 5))] == [11, 14, 14]
    d3 = trace2.depth(3)
    assert {a: d3.psi[a].value for a in d3.E} == {(2, 2, 3): 6, (2, 3, 4): 8}
    d4 = trace2.depth(4)
    assert {a: d4.psi[a].value for a in d4.A} == {
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


def test_new_tight_list(trace2):
    assert new_tight_list(trace2, 4) == {(2, 2, 3, 4), (2, 3, 4, 5), (2, 3, 4, 8)}
    assert new_tight_list(trace2, 3) == set()
    tr9 = run_escalation(9, BOUND)
    assert new_tight_list(tr9, 10) == {
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
                assert psi(b, 2, 2000).is_finite or psi(b, 2, BOUND).is_finite, (a, b)


def test_criterion_matches_direct_universality(trace2):
    # the finite criterion test agrees with the scan-to-bound definition for
    # every candidate the escalation ever generated (floors 2 and 3)
    for trace in (trace2, run_escalation(3, BOUND)):
        crit = criterion_set(trace)
        for rec in trace.depths:
            for a in rec.E:
                verdict = check_tight_universal(a, trace.n, crit, BOUND)
                assert verdict.is_tight == (not rec.psi[a].is_finite), (a, verdict)


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


def test_determinism(trace2):
    again = run_escalation(2, BOUND)
    assert again == trace2


@pytest.mark.parametrize("n", [30, 60])
def test_large_floors_find_exactly_the_two_families(n):
    # the minimality test is polynomial in the form length, so floors far
    # beyond the tabulated ones terminate quickly
    trace = run_escalation(n, BOUND)
    assert trace.terminated_at == n + 1
    assert new_tight_list(trace, n + 1) == set(FamilyRule().pair(n))
    assert sum(len(rec.NU) for rec in trace.depths) == 2


def test_depth_limit_is_enforced():
    with pytest.raises(EscalationDepthError):
        run_escalation(2, BOUND, max_depth=3)
