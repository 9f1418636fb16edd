"""Bundled lattice fixture file: parsing, cross-references, and checks."""

import re

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


GENUS = "genus g\nclass 1 0 0 / 0 1 0 / 0 0 1\nend\n"
PAIR = "genus = g\nM = 1 0 0 / 0 1 0 / 0 0 1\nN = 1 0 0 / 0 1 0 / 0 0 1\n"
SIMILITUDE = "T = 2 0 0 / 0 2 0 / 0 0 2\n"


def test_parse_errors(tmp_path):
    # every snippet but its one fault is a well-formed block
    cases = {
        "unterminated": (GENUS + "prec x\n" + PAIR, "unterminated prec block 'x'"),
        "bad header": ("what x\nend\n", "unknown block kind 'what'"),
        "empty genus": ("genus g\nend\n", "needs at least one class"),
        "2x2 class": ("genus g\nclass 1 0 / 0 1\nend\n", "Gram matrix must be 3x3"),
        "4x4 class": ("genus g\nclass 1 0 0 0 / 0 1 0 0 / 0 0 1 0 / 0 0 0 1\nend\n",
                      "Gram matrix must be 3x3"),
        "missing field": (GENUS + "prec x\ngenus = g\nM = 1 0 0 / 0 1 0 / 0 0 1\n"
                          "d = 2\na = 0\nend\n", "missing field 'N'"),
        "no genus": (GENUS + "prec x\n" + PAIR.replace("genus = g\n", "") + "d = 2\na = 0\nend\n",
                     "missing field 'genus'"),
        "prec with T": (GENUS + "prec x\n" + PAIR + "d = 2\na = 0\n" + SIMILITUDE + "end\n",
                        "prec blocks take no T line"),
        "prec with P": (GENUS + "prec x\n" + PAIR + "d = 2\na = 0\nP = 0 0 1\nend\n",
                        "one transform per block"),
        "prec with excluded": (GENUS + "prec x\n" + PAIR + "d = 2\na = 0\nexcluded = 1\nend\n",
                               "unknown fields ['excluded']"),
        "bad without T": (GENUS + "bad x\n" + PAIR + "d = 2\na = 0\nexcluded = 1\nend\n",
                          "bad blocks at least one"),
        "bad without excluded": (GENUS + "bad x\n" + PAIR + "d = 2\na = 0\n" + SIMILITUDE
                                 + "end\n", "missing field 'excluded'"),
        "repeated field": (GENUS + "prec x\n" + PAIR + "d = 9\nd = 5\na = 0\nend\n",
                           "repeated field 'd'"),
        "unknown genus": (GENUS + "prec x\n" + PAIR.replace("= g", "= nope")
                          + "d = 2\na = 0\nend\n", "unknown genus 'nope'"),
        "not in genus": (GENUS + "prec x\n" + PAIR.replace("N = 1 0 0 / 0 1 0 / 0 0 1",
                                                             "N = 2 0 0 / 0 2 0 / 0 0 2")
                         + "d = 2\na = 0\nend\n", "M or N not a class of genus 'g'"),
        "repeated class": (GENUS.replace("end", "class 1 0 0 / 0 1 0 / 0 0 1\nend"),
                           "line 3: genus 'g': the class is also listed on line 2"),
        "wrong class index": (GENUS + "prec x-n1-a0\n" + PAIR + "d = 2\na = 0\nend\n",
                              "the name does not end in -n0-a0: N is class 0 of genus 'g'"),
        "wrong class a": (GENUS + "prec x-n0-a1\n" + PAIR + "d = 2\na = 0\nend\n",
                          "the name does not end in -n0-a0"),
        "no name suffix": (GENUS + "bad y\n" + PAIR + "d = 2\na = 0\n" + SIMILITUDE
                           + "excluded = 1\nend\n", "fixture block 'y' (ended line 12)"),
    }
    for label, (text, message) in cases.items():
        path = tmp_path / "fx.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_fixtures(path)
    # without a fault, the same blocks load
    path.write_text(GENUS + "prec x-n0-a0\n" + PAIR + "d = 2\na = 0\nend\n"
                    + "bad y-n0-a0\n" + PAIR + "d = 2\na = 0\n" + SIMILITUDE
                    + "excluded = 1\nend\n")
    loaded = load_fixtures(path)
    assert loaded.prec["x-n0-a0"].excluded == () and loaded.bad["y-n0-a0"].excluded == (1,)


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "fx.txt"
    path.write_text(
        "genus g\nclass 1 0 0 / 0 1 0 / 0 0 1\nend\n"
        "genus g\nclass 1 0 0 / 0 1 0 / 0 0 1\nend\n"
    )
    with pytest.raises(ValueError):
        load_fixtures(path)
