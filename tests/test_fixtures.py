"""Bundled lattice fixture file: parsing, cross-references, and checks."""

import pytest

from octaforms.fixtures import load_fixtures
from octaforms.lattice import check_bad_partition, check_prec


@pytest.fixture(scope="module")
def fixtures():
    return load_fixtures()


def test_inventory(fixtures):
    assert len(fixtures.genera) == 15
    assert len(fixtures.prec) == 24
    assert len(fixtures.bad) == 5
    assert "6-12-27" in fixtures.genera
    assert "234-n1-a3" in fixtures.bad


def test_genus_determinants_agree(fixtures):
    for genus in fixtures.genera.values():
        assert len({c.det for c in genus.classes}) == 1, genus.name


def test_all_progression_transfers_hold(fixtures):
    for name, inst in fixtures.prec.items():
        assert check_prec(inst.M, inst.N, inst.d, inst.a), name


def test_all_stable_vector_transfers_hold(fixtures):
    for name, inst in fixtures.bad.items():
        assert tuple(check_bad_partition(inst)) == inst.excluded, name


def test_progression_transfer_soundness_to_5000(fixtures):
    # the semantic content of a passing check: values of N in the class
    # a mod d are values of M
    from octaforms.lattice import lattice_counts_up_to

    top = 5000
    cache = {}

    def values(m):
        if m not in cache:
            cache[m] = lattice_counts_up_to(m, top) > 0
        return cache[m]

    for name, inst in fixtures.prec.items():
        rn, rm = values(inst.N), values(inst.M)
        for v in range(inst.a, top + 1, inst.d):
            if rn[v]:
                assert rm[v], (name, v)


def test_stable_vector_soundness_to_5000(fixtures):
    # same, minus the recorded square classes
    from octaforms.lattice import lattice_counts_up_to

    top = 5000
    for name, inst in fixtures.bad.items():
        rn = lattice_counts_up_to(inst.N, top) > 0
        rm = lattice_counts_up_to(inst.M, top) > 0
        skip = {c * h * h for c in inst.excluded for h in range(1, top) if c * h * h <= top}
        for v in range(inst.a, top + 1, inst.d):
            if rn[v] and v not in skip:
                assert rm[v], (name, v)


def test_genus_coverage_of_qualifying_classes(fixtures):
    # each congruence family lands inside its genus: some listed class
    # represents every qualifying value (the full side conditions matter;
    # e.g. 46 = 2*23 escapes the 16,22 mod 24 family)
    import numpy as np

    from octaforms.lattice import lattice_counts_up_to
    from octaforms.lemmas import CONGRUENCE_LEMMAS, excluded_2odd_8b5, is_square

    top = 4000
    lemmas = {l.name: l.qualifies for l in CONGRUENCE_LEMMAS}
    cases = [
        ("1-1-27", lemmas["113"]),
        ("2-27-27", lemmas["233"]),
        ("4-9-18", lemmas["346"]),
        ("5-9-18", lemmas["356"]),
        ("4-27-27", lemmas["334"]),
        ("2-3-4", lambda v: v % 3 == 0 and (v % 16 == 2 or v % 64 in (8, 24, 56))),
        ("6-12-27", lambda v: v % 9 == 3 and not excluded_2odd_8b5(v)
                    and not (v % 3 == 0 and is_square(v // 3))),
        ("2-4-18", lambda v: v % 64 in (4, 12, 20, 24, 36, 40, 44, 52, 56)),
        ("2-4-9", lambda v: v % 16 in (2, 6, 10) and v % 6 == 0),
        ("1-1-42", lambda v: v % 3 == 2 and v % 7 and v % 16 in (2, 4, 10, 12, 14)),
        ("4-5-10", lambda v: v % 5 in (1, 4) and v % 16 in (2, 8, 10, 14)),
    ]
    for name, qualifies in cases:
        mask = np.logical_or.reduce(
            [lattice_counts_up_to(c, top) > 0 for c in fixtures.genera[name].classes]
        )
        bad = [v for v in range(1, top + 1) if qualifies(v) and not mask[v]]
        assert not bad, (name, bad[:5])


def test_parse_errors(tmp_path):
    cases = {
        "unterminated": "prec x\nM = 1 0 0 / 0 1 0 / 0 0 1\n",
        "bad header": "what x\nend\n",
        "missing field": "prec x\nM = 1 0 0 / 0 1 0 / 0 0 1\nd = 2\na = 0\nend\n",
        "prec with T": (
            "prec x\nM = 1 0 0 / 0 1 0 / 0 0 1\nN = 1 0 0 / 0 1 0 / 0 0 1\n"
            "d = 2\na = 0\nT = 2 0 0 / 0 2 0 / 0 0 2\nend\n"
        ),
        "unknown genus": (
            "prec x\ngenus = nope\nM = 1 0 0 / 0 1 0 / 0 0 1\n"
            "N = 1 0 0 / 0 1 0 / 0 0 1\nd = 2\na = 0\nend\n"
        ),
        "not in genus": (
            "genus g\nclass 1 0 0 / 0 1 0 / 0 0 1\nend\n"
            "prec x\ngenus = g\nM = 1 0 0 / 0 1 0 / 0 0 1\n"
            "N = 2 0 0 / 0 2 0 / 0 0 2\nd = 2\na = 0\nend\n"
        ),
    }
    for label, text in cases.items():
        path = tmp_path / "fx.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_fixtures(path)


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "fx.txt"
    path.write_text(
        "genus g\nclass 1 0 0 / 0 1 0 / 0 0 1\nend\n"
        "genus g\nclass 1 0 0 / 0 1 0 / 0 0 1\nend\n"
    )
    with pytest.raises(ValueError):
        load_fixtures(path)
