"""Loader for the bundled lattice fixture file.

See data/lattice_fixtures.txt for the grammar.  Fixtures are parsed into
GenusFixture and TransferInstance objects; when an instance names a genus,
its two lattices must appear among that genus's classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .lattice import GenusFixture, GramMatrix, TransferInstance

__all__ = ["FixtureSet", "load_fixtures", "bundled_fixture_path"]


@dataclass(frozen=True)
class FixtureSet:
    genera: dict[str, GenusFixture]
    prec: dict[str, TransferInstance]
    bad: dict[str, TransferInstance]


def bundled_fixture_path():
    return resources.files("octaforms").joinpath("data", "lattice_fixtures.txt")


def _parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for part in text.split("/"):
        rows.append(tuple(int(tok) for tok in part.split()))
    return tuple(rows)


def _parse_vectors(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(tok) for tok in part.split()) for part in text.split(";"))


def load_fixtures(path=None) -> FixtureSet:
    """Parse a fixture file (the bundled one by default)."""
    if path is None:
        text = bundled_fixture_path().read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()

    genera: dict[str, GenusFixture] = {}
    prec: dict[str, TransferInstance] = {}
    bad: dict[str, TransferInstance] = {}

    kind = name = None
    fields: dict[str, list[str]] = {}
    classes: list[GramMatrix] = []

    def finish(lineno: int):
        nonlocal kind, name, fields, classes
        try:
            if kind == "genus":
                genera[name] = GenusFixture(name=name, classes=tuple(classes))
            else:
                M = GramMatrix(_parse_matrix(fields.pop("M")[0]))
                N = GramMatrix(_parse_matrix(fields.pop("N")[0]))
                d = int(fields.pop("d")[0])
                a = int(fields.pop("a")[0])
                genus_name = fields.pop("genus", [None])[0]
                if genus_name is not None:
                    if genus_name not in genera:
                        raise ValueError(f"unknown genus {genus_name!r}")
                    listed = set(genera[genus_name].classes)
                    if M not in listed or N not in listed:
                        raise ValueError(f"M or N not a class of genus {genus_name!r}")
                transforms = tuple(_parse_matrix(t) for t in fields.pop("T", []))
                blocks = tuple(_parse_vectors(p) for p in fields.pop("P", [])) or None
                excluded = None
                if "excluded" in fields:
                    excluded = tuple(int(tok) for tok in fields.pop("excluded")[0].split())
                if fields:
                    raise ValueError(f"unknown fields {sorted(fields)}")
                inst = TransferInstance(
                    name=name, M=M, N=N, d=d, a=a,
                    transforms=transforms, blocks=blocks, excluded=excluded,
                )
                # P lines need their T lines, which TransferInstance checks
                if bool(transforms) != (kind == "bad"):
                    raise ValueError("prec blocks take no T line, bad blocks at least one")
                (bad if kind == "bad" else prec)[name] = inst
        except (KeyError, ValueError, IndexError) as e:
            raise ValueError(f"fixture block {name!r} (ended line {lineno}): {e}") from None
        kind = name = None
        fields = {}
        classes = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if kind is None:
            try:
                kind, name = line.split()
            except ValueError:
                raise ValueError(f"line {lineno}: expected block header, got {line!r}") from None
            if kind not in ("genus", "prec", "bad"):
                raise ValueError(f"line {lineno}: unknown block kind {kind!r}")
            if name in genera or name in prec or name in bad:
                raise ValueError(f"line {lineno}: duplicate fixture name {name!r}")
            continue
        if line == "end":
            finish(lineno)
            continue
        if kind == "genus":
            if not line.startswith("class "):
                raise ValueError(f"line {lineno}: genus blocks hold class lines")
            try:
                classes.append(GramMatrix(_parse_matrix(line[len("class "):])))
            except ValueError as e:
                raise ValueError(f"line {lineno}: genus {name!r}: {e}") from None
        else:
            key, sep, val = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"line {lineno}: expected key = value")
            if key in fields and key not in ("T", "P"):
                raise ValueError(f"line {lineno}: repeated field {key!r}")
            fields.setdefault(key, []).append(val.strip())
    if kind is not None:
        raise ValueError(f"unterminated {kind} block {name!r}")
    return FixtureSet(genera=genera, prec=prec, bad=bad)
