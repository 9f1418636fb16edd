"""Loader for the bundled lattice fixture file.

See data/lattice_fixtures.txt for the grammar.  Fixtures are parsed into
GenusFixture and TransferInstance objects.  A genus lists each class
once.  Every instance names a genus listed before it, and its two lattices
must appear among that genus's classes; its name ends in -n<i>-a<a>, where
i is N's index among those classes and a the block's progression class.
Every bad block records one excluded class per T line.
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


def _parse_rows(text: str, sep: str) -> tuple[tuple[int, ...], ...]:
    # a matrix's rows are separated by "/", a block's vectors by ";"
    return tuple(tuple(int(tok) for tok in part.split()) for part in text.split(sep))


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
    classes: dict[GramMatrix, int] = {}  # each class of a genus block: its line

    def finish(lineno: int):
        nonlocal kind, name, fields, classes
        try:
            if kind == "genus":
                genera[name] = GenusFixture(name=name, classes=tuple(classes))
            else:
                M = GramMatrix(_parse_rows(fields.pop("M")[0], "/"))
                N = GramMatrix(_parse_rows(fields.pop("N")[0], "/"))
                d = int(fields.pop("d")[0])
                a = int(fields.pop("a")[0])
                genus_name = fields.pop("genus")[0]
                if genus_name not in genera:
                    raise ValueError(f"unknown genus {genus_name!r}")
                listed = set(genera[genus_name].classes)
                if M not in listed or N not in listed:
                    raise ValueError(f"M or N not a class of genus {genus_name!r}")
                transforms = tuple(_parse_rows(t, "/") for t in fields.pop("T", []))
                # P lines need their T lines, which TransferInstance checks
                if bool(transforms) != (kind == "bad"):
                    raise ValueError("prec blocks take no T line, bad blocks at least one")
                blocks = tuple(_parse_rows(p, ";") for p in fields.pop("P", [])) or None
                excluded = (tuple(map(int, fields.pop("excluded")[0].split()))
                            if kind == "bad" else ())
                if fields:
                    raise ValueError(f"unknown fields {sorted(fields)}")
                instance = TransferInstance(
                    name=name, M=M, N=N, d=d, a=a,
                    transforms=transforms, blocks=blocks, excluded=excluded,
                )
                i = genera[genus_name].classes.index(N)
                if not name.endswith(f"-n{i}-a{a}"):
                    raise ValueError(f"the name does not end in -n{i}-a{a}: "
                                     f"N is class {i} of genus {genus_name!r} and a = {a}")
                (bad if kind == "bad" else prec)[name] = instance
        except (KeyError, ValueError, IndexError) as e:
            why = f"missing field {e}" if isinstance(e, KeyError) else e
            raise ValueError(f"fixture block {name!r} (ended line {lineno}): {why}") from None
        kind = name = None
        fields = {}
        classes = {}

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
                gram = GramMatrix(_parse_rows(line[len("class "):], "/"))
            except ValueError as e:
                raise ValueError(f"line {lineno}: genus {name!r}: {e}") from None
            if gram in classes:
                raise ValueError(f"line {lineno}: genus {name!r}: the class is also listed "
                                 f"on line {classes[gram]}")
            classes[gram] = lineno
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
