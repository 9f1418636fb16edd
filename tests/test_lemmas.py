"""Congruence predicates at reduced range (the acceptance suite runs 10^4)."""

import pytest

from octaforms import lemmas
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


def test_congruence_conditions_are_not_vacuous():
    for lemma in CONGRUENCE_LEMMAS:
        assert any(lemma.qualifies(v) for v in range(1, 3000)), lemma.name


def test_jones_strengthening_range():
    assert jones_counterexamples(3000) == []


def test_counting_identity_range():
    assert counting_counterexamples(500) == []


def test_pair_2233():
    assert pair_2233_counterexamples(3000) == []
    # 11 and 14 really are missed
    from octaforms.polygonal import represents

    assert not represents((2, 2, 3, 3), 11)
    assert not represents((2, 2, 3, 3), 14)


def test_family_2233t(monkeypatch):
    assert family_2233t_counterexamples(ts=(1, 2, 3, 5), bound=600) == []
    assert family_2233t_counterexamples(ts=(5,), bound=19) == []  # t + 15 > bound
    with pytest.raises(ValueError):
        family_2233t_counterexamples(ts=(4,), bound=100)
    # every t is checked before the first sieve is built
    built = []
    monkeypatch.setattr(lemmas, "build_sieve", lambda *args: built.append(args))
    with pytest.raises(ValueError):
        family_2233t_counterexamples(ts=(1, 4), bound=100)
    assert built == []
