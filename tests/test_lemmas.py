"""Congruence predicates at reduced range (the acceptance suite runs 10^4)."""

import tracemalloc
from dataclasses import replace

import pytest

from octaforms import lemmas
from octaforms.lattice import (
    GramMatrix, coprime3_values_up_to, jones_strengthen, lattice_counts_up_to
)
from octaforms.polygonal import fold
from octaforms.lemmas import (
    CONGRUENCE_LEMMAS,
    congruence_counterexamples,
    counting_counterexamples,
    excluded_2odd_8b5,
    excluded_2odd_8b7,
    excluded_4a_8b7,
    family_2233t_counterexamples,
    jones_counterexamples,
    pair_2233_counterexamples,
)


def test_excluded_forms_against_direct_generation():
    top = 3000
    gen = {4**a * (8 * b + 7) for a in range(6) for b in range(top) if 4**a * (8 * b + 7) <= top}
    assert {v for v in range(1, top + 1) if excluded_4a_8b7(v)} == gen
    gen = {2 ** (2 * a + 1) * (8 * b + 5) for a in range(6) for b in range(top)
           if 2 ** (2 * a + 1) * (8 * b + 5) <= top}
    assert {v for v in range(1, top + 1) if excluded_2odd_8b5(v)} == gen
    gen = {2 ** (2 * a + 1) * (8 * b + 7) for a in range(6) for b in range(top)
           if 2 ** (2 * a + 1) * (8 * b + 7) <= top}
    assert {v for v in range(1, top + 1) if excluded_2odd_8b7(v)} == gen


@pytest.mark.parametrize("lemma", CONGRUENCE_LEMMAS, ids=lambda l: l.name)
def test_congruence_lemma_holds(lemma):
    assert congruence_counterexamples(lemma, 3000) == []


@pytest.mark.parametrize("bound", [1, 8, 63, 64, 16384, 20000])
def test_congruence_scan_reads_every_bit(bound):
    # every value qualifies, so the result is each clear bit of the mask in
    # [1, bound]; 20000 spans two read-out slices of 16,384 bits
    lemma = replace(CONGRUENCE_LEMMAS[0], qualifies=lambda v: True)
    mask = coprime3_values_up_to(lemma.diag, bound)
    expected = [v for v in range(1, bound + 1) if not (mask >> v) & 1]
    assert congruence_counterexamples(lemma, bound) == expected


def test_congruence_conditions_are_not_vacuous():
    for lemma in CONGRUENCE_LEMMAS:
        assert any(lemma.qualifies(v) for v in range(1, 3000)), lemma.name


def test_jones_strengthening_range():
    assert jones_counterexamples(3000) == []


def test_counting_identity_range():
    assert counting_counterexamples(500) == []
    assert counting_counterexamples(6000) == []


def _recorded(monkeypatch, name):
    # the results of every call the scans make to lemmas.<name>
    seen, original = [], getattr(lemmas, name)

    def record(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(lemmas, name, record)
    return seen


def test_jones_scan_reads_both_folds_pointwise(monkeypatch):
    folds = _recorded(monkeypatch, "fold")
    masks = _recorded(monkeypatch, "coprime3_values_up_to")
    assert jones_counterexamples(3000) == []
    (solvable,), (strong,) = folds, masks
    brute = {x * x + 2 * y * y for x in range(55) for y in range(39)}
    for v in range(3, 3001, 3):
        assert bool(solvable >> v & 1) == (v in brute), v
        if v in brute:
            assert bool(strong >> v & 1) == (jones_strengthen(v) is not None), v
        else:
            assert not strong >> v & 1
            with pytest.raises(ValueError):
                jones_strengthen(v)


def test_counting_scan_reads_the_fold_pointwise(monkeypatch):
    # 9v is in the fold iff r(9v) > r(v), excluded values 4^a(8b+7) included
    folds = _recorded(monkeypatch, "fold")
    assert counting_counterexamples(3000) == []
    (bits,) = folds
    r = lattice_counts_up_to(GramMatrix.diagonal((1, 1, 1)), 9 * 3000)
    assert all(bool(bits >> 9 * v & 1) == (r[9 * v] > r[v]) for v in range(3001))


def test_scans_report_a_planted_gap(monkeypatch):
    # 9 = 1 + 2*2^2 is prime to 3; 45 = 9*5 is a gap, 63 = 9*7 is excluded,
    # and 46 is no multiple of 9
    monkeypatch.setattr(lemmas, "coprime3_values_up_to",
                        lambda diag, bound: coprime3_values_up_to(diag, bound) & ~(1 << 9))
    assert jones_counterexamples(3000) == [9]
    monkeypatch.setattr(lemmas, "fold",
                        lambda lists, bound: fold(lists, bound) & ~(1 << 45 | 1 << 46 | 1 << 63))
    assert counting_counterexamples(3000) == [5]


def test_counting_peak_memory_is_pinned():
    # 0.91 MiB measured; sweeping the whole box a slice at a time took 2.4 MiB
    tracemalloc.start()
    try:
        assert counting_counterexamples(2000) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_pair_2233():
    assert pair_2233_counterexamples(3000) == []
    # 11 and 14 really are missed
    from octaforms.polygonal import represents

    assert not represents((2, 2, 3, 3), 11)
    assert not represents((2, 2, 3, 3), 14)


def test_family_2233t():
    assert lemmas.FAMILY_2233T_TS == (1, 2, 3, 5, 6, 7, 9, 10)
    assert family_2233t_counterexamples(600) == []
    assert family_2233t_counterexamples(19) == []  # t + 15 > 19 skips t >= 5
