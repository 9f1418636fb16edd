"""Table data files: grammar, expansion, census, and verification."""

import hashlib
import re
from importlib import resources

import pytest

from octaforms.escalation import run_escalation
from octaforms.tables import (
    Slot,
    expand_row,
    family_pair,
    load_table,
    parse_table,
    table_census,
    verify_table,
    verify_z_row,
    verify_z_rows,
)

BOUND = 50_000


@pytest.fixture(scope="module")
def traces():
    return {n: run_escalation(n, BOUND) for n in (2, 3, 4)}


def test_parse_grammar():
    rows = parse_table(
        "# comment\n"
        "prefix=2,2,2,3 slot=5..8!7 expect=tight:2\n"
        "\n"
        "prefix=2,2,2,3 expect=Z:8,11\n"
        "prefix=2,2,3,4 expect=Z:\n"
    )
    assert len(rows) == 3
    assert rows[0].slot == Slot(5, 8, frozenset({7}))
    assert rows[1].expect_z == (8, 11)
    assert rows[2].expect_z == ()


def test_parse_rejects_malformed_lines():
    for bad in (
        "prefix=2,2 slot=9..5 expect=tight:2",   # empty range
        "prefix=2,2 slot=0..8!7 expect=tight:2",  # a zero coefficient
        "prefix=2,2 slot=-1..8 expect=tight:2",   # a negative one
        "prefix=2,2 slot=5..9!12 expect=tight:2",  # exclusion outside range
        "prefix=2,2 expect=什么:1",
        "prefix=3,2 expect=Z:",                   # unsorted prefix
        "prefix=2,2 slot=5..9 expect=Z:",         # Z rows take no slot
        "prefix=2,2 prefix=2,2 expect=Z:",        # duplicate field
        "prefix=2,2 wat=1 expect=Z:",             # unknown field
    ):
        with pytest.raises(ValueError):
            parse_table(bad)
    for bad, field in (("slot=2..5 expect=tight:2", "prefix"), ("prefix=2,2 slot=5..9", "expect")):
        with pytest.raises(ValueError, match=f"line 2: missing field '{field}'"):
            parse_table("# a comment\n" + bad)


@pytest.mark.parametrize("text, message", [
    ("prefix=2,2,2,3 expect=Z:8,11\nprefix=2,2,2,3 expect=Z:8,11",
     "line 2: form (2, 2, 2, 3) is also listed on line 1"),
    ("# floor 4\nprefix=4,5,6,7,8 expect=tight:4\n\nprefix=4,5,6,7,8 expect=tight:4",
     "line 4: form (4, 5, 6, 7, 8) is also listed on line 2"),
    # a slot that reaches a form another row lists
    ("prefix=4,4,5,6,6,7 expect=tight:4\nprefix=4,4,5,6,7 slot=5..7 expect=tight:4",
     "line 2: form (4, 4, 5, 6, 6, 7) is also listed on line 1"),
], ids=["Z rows", "tight rows", "slot"])
def test_parse_rejects_a_form_listed_twice(text, message):
    # a table lists each form once, so a census counts rows' forms, not rows
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_table(text)


def test_expand_row_examples():
    row = parse_table("prefix=2,2,2,3 slot=5..8!7 expect=tight:2")[0]
    assert expand_row(row) == [(2, 2, 2, 3, 5), (2, 2, 2, 3, 6), (2, 2, 2, 3, 8)]
    row = parse_table("prefix=2,3,4,6 slot=6..18!8,17 expect=tight:2")[0]
    assert len(expand_row(row)) == 11
    row = parse_table("prefix=2,2,3,4 expect=tight:2")[0]
    assert expand_row(row) == [(2, 2, 3, 4)]
    # slot values below the prefix tail still land in sorted position
    row = parse_table("prefix=2,3,3,4 slot=4..11!5,8,10 expect=tight:2")[0]
    assert (2, 3, 3, 4, 4) in expand_row(row)


def test_census(traces):
    assert table_census(load_table(2)) == 57
    assert table_census(load_table(3)) == 147
    assert table_census(load_table(4)) == 22


def test_census_idempotent():
    rows = load_table(2)
    assert table_census(rows) == table_census(rows)


@pytest.mark.parametrize("table,n", [(2, 2), (3, 3), (4, 4)])
def test_tables_equal_escalation(table, n, traces):
    report = verify_table(load_table(table), n, traces[n])
    assert report.equal, (report.only_in_table, report.only_in_trace)


def test_verify_table_negative_control(traces):
    rows = load_table(2)[1:]  # drop one row
    report = verify_table(rows, 2, traces[2])
    assert not report.equal
    assert (2, 2, 3, 4) in report.only_in_trace


@pytest.mark.parametrize("table,n", [(2, 2), (3, 3), (4, 4)])
def test_listed_forms_are_minimal(table, n):
    # dropping any one coefficient from a listed form leaves a finite truant
    # (universality is monotone under extension, so one-entry drops suffice)
    from octaforms.escalation import psi

    seen = set()
    for row in load_table(table):
        for a in expand_row(row):
            for i in range(len(a)):
                b = a[:i] + a[i + 1 :]
                if b in seen:
                    continue
                seen.add(b)
                assert psi(b, n, 2000) is not None or psi(b, n, BOUND) is not None, (a, b)


def test_verify_z_rows():
    rows = {r.prefix: r for r in load_table(1)}
    assert len(rows) == 26
    for prefix, z in (
        ((2, 2, 2, 3), (8, 11)),
        ((3, 3, 4, 4, 5), (17, 21)),
        ((8, 9, 10, 11, 12, 13, 14, 15, 16), ()),
    ):
        row = rows[prefix]
        assert row.expect_z == z
        report = verify_z_row(row, 5000)
        assert report.ok, report
    # the whole table, one fold per row, gives each row's own report
    table = load_table(1)
    assert verify_z_rows(table, 5000) == [verify_z_row(row, 5000) for row in table]
    with pytest.raises(ValueError):
        verify_z_rows(table, 7)  # (8, 9, ...) is scanned from 8


def test_family_rule():
    assert family_pair(5) == ((5, 5, 6, 7, 8, 9), (5, 6, 7, 8, 9, 10))
    for n in range(5, 13):
        g, h = family_pair(n)
        assert len(g) == len(h) == n + 1
        assert g == tuple(sorted(g)) and h == tuple(sorted(h))
    with pytest.raises(ValueError):
        family_pair(4)


def test_data_file_checksums():
    data = resources.files("octaforms").joinpath("data")
    recorded = {}
    for line in data.joinpath("CHECKSUMS.sha256").read_text().splitlines():
        digest, name = line.split()
        recorded[name] = digest
    names = {p.name for p in data.iterdir() if p.name.endswith(".txt")}
    assert names == set(recorded)
    for name, digest in recorded.items():
        actual = hashlib.sha256(data.joinpath(name).read_bytes()).hexdigest()
        assert actual == digest, f"checksum drift in {name}"
