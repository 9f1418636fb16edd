"""Declarative classification tables and their verification.

Each table is a line-oriented data file; a record is either

    prefix=2,2,2,3 slot=5..8!7 expect=tight:2
    prefix=2,2,2,3 expect=Z:8,11

The prefix lists fixed coefficients.  An optional slot contributes one
more coefficient ranging over lo..hi minus the exclusions after "!".
The expectation is either tight universality at the given floor n, or the
exact set Z of values >= the first coefficient that the form misses (the
list may be empty).  Blank lines and lines starting with "#" are ignored.
Each form is listed once: parse_table refuses a form that two rows expand
to, naming both lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .escalation import DEFAULT_BOUND, EscalationTrace
from .polygonal import _bit_scan, _walk, coeff_vector, insert_sorted
# unused here; perfbench/tracer.py wraps tables.build_sieve by name
from .polygonal import build_sieve  # noqa: F401

__all__ = [
    "Slot",
    "TableRow",
    "TableReport",
    "ZReport",
    "family_pair",
    "parse_table",
    "load_table",
    "bundled_table_path",
    "expand_row",
    "table_census",
    "verify_table",
    "verify_z_row",
    "verify_z_rows",
]

TABLE_FILES = {1: "table1.txt", 2: "table2.txt", 3: "table3.txt", 4: "table4.txt"}


@dataclass(frozen=True)
class Slot:
    lo: int
    hi: int
    excluded: frozenset[int]

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"slot range {self.lo}..{self.hi} is empty or not positive")
        if not self.excluded <= set(range(self.lo, self.hi + 1)):
            raise ValueError("slot exclusions outside the range")

    def values(self) -> list[int]:
        return [g for g in range(self.lo, self.hi + 1) if g not in self.excluded]


@dataclass(frozen=True)
class TableRow:
    prefix: tuple[int, ...]
    slot: Slot | None
    expect_kind: str  # "tight" | "Z"
    expect_n: int | None = None
    expect_z: tuple[int, ...] | None = None


@dataclass(frozen=True)
class TableReport:
    """Set comparison between a table expansion and an escalation's new forms."""

    equal: bool
    only_in_table: tuple[tuple[int, ...], ...]
    only_in_trace: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ZReport:
    row: TableRow
    ok: bool
    expected: tuple[int, ...]
    actual: tuple[int, ...]


def family_pair(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two forms that stay tight for every floor n >= 5, both of length n+1.

    doubled repeats the floor and runs to 2n-1; run is the straight run
    from n to 2n.  Returns (doubled, run).
    """
    if n < 5:
        raise ValueError("family defined for n >= 5")
    run = tuple(range(n, 2 * n + 1))
    return (n,) + run[:-1], run


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def parse_table(text: str) -> list[TableRow]:
    """The rows of a table; a form that two rows expand to is a ValueError."""
    rows = []
    listed_on: dict[tuple[int, ...], int] = {}  # each form expanded so far, and its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for tok in line.split():
            if "=" not in tok:
                raise ValueError(f"line {lineno}: malformed token {tok!r}")
            key, _, val = tok.partition("=")
            if key in fields:
                raise ValueError(f"line {lineno}: duplicate field {key!r}")
            fields[key] = val
        try:
            for key in ("prefix", "expect"):
                if key not in fields:
                    raise ValueError(f"missing field {key!r}")
            prefix = coeff_vector(_parse_ints(fields.pop("prefix")))
            slot = None
            if "slot" in fields:
                slot_text = fields.pop("slot")
                rng, _, excl = slot_text.partition("!")
                lo, _, hi = rng.partition("..")
                slot = Slot(int(lo), int(hi), frozenset(_parse_ints(excl)))
            expect = fields.pop("expect")
            if fields:
                raise ValueError(f"unknown fields {sorted(fields)}")
            kind, _, payload = expect.partition(":")
            if kind == "tight":
                row = TableRow(prefix, slot, "tight", expect_n=int(payload))
            elif kind == "Z":
                if slot is not None:
                    raise ValueError("Z rows take no slot")
                row = TableRow(prefix, slot, "Z", expect_z=_parse_ints(payload))
            else:
                raise ValueError(f"unknown expectation kind {kind!r}")
            for a in expand_row(row):
                if listed_on.setdefault(a, lineno) != lineno:
                    raise ValueError(f"form {a} is also listed on line {listed_on[a]}")
            rows.append(row)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return rows


def bundled_table_path(table: int):
    if table not in TABLE_FILES:
        raise ValueError(f"no bundled table {table}")
    return resources.files("octaforms").joinpath("data", TABLE_FILES[table])


def load_table(source) -> list[TableRow]:
    """Parse a table from a path, or an int naming a bundled table 1..4."""
    if isinstance(source, int):
        return parse_table(bundled_table_path(source).read_text())
    with open(source, encoding="utf-8") as fh:
        return parse_table(fh.read())


def expand_row(row: TableRow) -> list[tuple[int, ...]]:
    """All coefficient vectors described by the row, sorted and deduplicated."""
    if row.slot is None:
        return [row.prefix]
    return sorted({insert_sorted(row.prefix, g) for g in row.slot.values()})


def table_census(rows) -> int:
    """Number of distinct coefficient vectors across all row expansions."""
    out: set[tuple[int, ...]] = set()
    for row in rows:
        out.update(expand_row(row))
    return len(out)


def verify_table(rows, n: int, trace: EscalationTrace) -> TableReport:
    """Compare a table expansion with the new tight forms of a trace."""
    if trace.n != n:
        raise ValueError(f"trace is for n={trace.n}, not n={n}")
    expanded: set[tuple[int, ...]] = set()
    for row in rows:
        if row.expect_kind != "tight":
            raise ValueError("verify_table expects tight-universality rows")
        if row.expect_n != n:
            raise ValueError(f"row {row.prefix} declares n={row.expect_n}, not {n}")
        expanded.update(expand_row(row))
    found: set[tuple[int, ...]] = set()
    for rec in trace.depths:
        found.update(rec.NU)
    return TableReport(
        equal=expanded == found,
        only_in_table=tuple(sorted(expanded - found)),
        only_in_trace=tuple(sorted(found - expanded)),
    )


def verify_z_row(row: TableRow, bound: int = DEFAULT_BOUND) -> ZReport:
    """Check that the form misses exactly Z among the values >= its first coefficient."""
    return verify_z_rows([row], bound)[0]


def verify_z_rows(rows, bound: int = DEFAULT_BOUND) -> list[ZReport]:
    """verify_z_row for each row in turn, sieved by one prefix walk (polygonal.build_sieves)."""
    rows = list(rows)
    if any(row.expect_kind != "Z" for row in rows):
        raise ValueError("verify_z_row expects a Z row")
    reports = []
    for row, (a, words) in zip(rows, _walk([row.prefix for row in rows], bound)):
        if a[0] > bound:
            raise ValueError(f"range [{a[0]}, {bound}] outside sieve range [0, {bound}]")
        actual = tuple(_bit_scan(words, a[0], bound, missing=True))
        reports.append(ZReport(row=row, ok=actual == row.expect_z, expected=row.expect_z,
                               actual=actual))
    return reports
