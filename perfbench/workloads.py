"""The benchmark's four workloads: inputs, the timed call into octaforms, checks.

A workload runs in three steps inside one fresh interpreter:

- ``setup(seed)`` builds the inputs; it is timed as set-up, not as work;
- ``run(inputs)`` is the timed region and calls only octaforms;
- ``check(inputs, outputs, oracle)`` compares the outputs with known facts
  and returns a ``Checks`` tally and a digest of the outputs, by which runs
  are compared with each other.  With ``oracle`` it also runs the slow
  independent cross-checks (only ``sieve_random`` has one).

The expected facts are written out here instead of being read from
octaforms' bundled tables, so that a change to those tables cannot make its
own check pass.  Calls go through module attributes (``escalation.psi``,
not a name imported from it) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path

from octaforms import cli, escalation, polygonal, tables

# --- facts from the paper -------------------------------------------------

NEW_FORM_COUNTS = {2: 57, 3: 147, 4: 22}
CRITERION_N2 = (2, 3, 4, 6, 8, 9, 11, 12, 14, 18)
TIGHT_TABLES = {2: 2, 3: 3, 4: 4}  # table number -> floor n

# Table 1: each form's exact exception set (values >= its first coefficient it misses).
EXCEPTION_SETS = {
    (2, 2, 2, 3): (8, 11),
    (2, 2, 3, 4): (),
    (2, 2, 3, 6): (14,),
    (2, 3, 3, 4): (11,),
    (2, 3, 4, 4): (12,),
    (2, 3, 4, 5): (),
    (2, 3, 4, 6): (18,),
    (2, 3, 4, 8): (),
    (2, 2, 3, 3, 3): (14,),
    (3, 3, 4, 4, 5): (17, 21),
    (3, 3, 4, 5, 6): (),
    (3, 3, 4, 5, 10): (),
    (3, 4, 4, 5, 6): (),
    (3, 4, 5, 6, 6): (22,),
    (3, 4, 5, 6, 8): (),
    (3, 4, 5, 6, 9): (36,),
    (3, 4, 5, 6, 10): (27,),
    (3, 4, 5, 6, 12): (),
    (4, 4, 5, 6, 7): (23, 28),
    (4, 5, 6, 7, 8): (),
    (5, 5, 6, 7, 8, 9): (),
    (5, 6, 7, 8, 9, 10): (),
    (6, 6, 7, 8, 9, 10, 11): (),
    (6, 7, 8, 9, 10, 11, 12): (),
    (7, 8, 9, 10, 11, 12, 13, 14): (),
    (8, 9, 10, 11, 12, 13, 14, 15, 16): (),
}


def family_pair(n: int) -> set[tuple[int, ...]]:
    """The two new tight forms for a floor n >= 5 (Theorem 5)."""
    return {(n,) + tuple(range(n, 2 * n)), tuple(range(n, 2 * n + 1))}


# --- computed fold work ---------------------------------------------------


def fold_terms(c: int, bound: int) -> int:
    """Number of values c * P8(x) <= bound over integer x, 0 included.

    P8(x) = 3x^2 - 2x for x >= 1 and 3x^2 + 2x for x <= -1; with
    s = isqrt(1 + 3 * (bound // c)) there are (s + 1) // 3 of the first
    kind and (s - 1) // 3 of the second, and no two coincide.
    """
    s = isqrt(1 + 3 * (bound // c))
    return 1 + (s + 1) // 3 + (s - 1) // 3


def fold_mbit(forms, bound: int) -> float:
    """Fold work of one sieve per form: sum of (bound + 1) * term values, in Mbit."""
    return sum((bound + 1) * sum(fold_terms(c, bound) for c in a) for a in forms) / 1e6


# --- checks ----------------------------------------------------------------


@dataclass
class Checks:
    """Tally of correctness checks: how many ran and what failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def digest(obj) -> str:
    """sha256 of a JSON-ready object, used to compare runs' outputs."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class VerifyAll:
    """`octaforms verify all --out FILE` at the default bound, as users run it."""

    out_dir: Path
    name = "verify_all"

    def setup(self, seed: int):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / f"verify_all-{os.getpid()}.json"

    def run(self, out: Path):
        with redirect_stdout(io.StringIO()):
            code = cli.run(["verify", "all", "--out", str(out)])
        return code

    def check(self, out: Path, code: int, oracle: bool) -> tuple[Checks, str]:
        ck = Checks()
        ck.expect(code == 0, f"exit code {code}")
        report = json.loads(out.read_text())
        out.unlink()
        del report["elapsed_ms"]
        res = report["results"]
        ck.expect(report["status"] == "pass", f"status {report['status']}")
        ck.expect(res["z-table"]["rows"] == len(EXCEPTION_SETS), "z-table row count")
        ck.expect(res["z-table"]["failures"] == [], "z-table failures")
        for n, count in NEW_FORM_COUNTS.items():
            t = res[f"t{n}"]
            ck.expect(t["census"] == count, f"t{n} census {t['census']}")
            ck.expect(t["set_equal"] and not t["only_in_table"] and not t["only_in_trace"],
                      f"t{n} set equality")
            ck.expect(t["tight_failures"] == [], f"t{n} tight failures")
        for n, fam in res["families"].items():
            ck.expect(all(fam["tight"]) and fam["unique"], f"family n={n}")
        for key, bad in res["lemmas"].items():
            ck.expect(not bad, f"lemmas {key}")
        return ck, digest([code, report])

    def fold_mbit(self, inputs):
        return None


@dataclass(frozen=True)
class EscalateSweep:
    """`run_escalation(n, DEFAULT_BOUND)` for every floor n in ``floors``."""

    floors: tuple[int, ...] = tuple(range(2, 21))
    name = "escalate_sweep"

    def setup(self, seed: int):
        return self.floors

    def run(self, floors):
        return {n: escalation.run_escalation(n, escalation.DEFAULT_BOUND) for n in floors}

    def check(self, floors, traces, oracle: bool) -> tuple[Checks, str]:
        ck = Checks()
        for n, trace in traces.items():
            new = [a for rec in trace.depths for a in rec.NU]
            if n in NEW_FORM_COUNTS:
                ck.expect(len(new) == NEW_FORM_COUNTS[n], f"n={n}: {len(new)} new forms")
            else:
                ck.expect(sorted(new) == sorted(family_pair(n)), f"n={n}: new forms {new}")
            if n == 2:
                crit = escalation.criterion_set(trace).values
                ck.expect(crit == CRITERION_N2, f"n=2 criterion set {crit}")
        return ck, digest({n: escalation.trace_to_dict(t) for n, t in traces.items()})

    def fold_mbit(self, inputs):
        return None


@dataclass(frozen=True)
class CertifyTables:
    """Every tabulated form re-checked at ``bound`` (4x the paper's 50,000).

    Set-up loads tables 1-4 and builds the floor 2-4 criterion sets.
    """

    bound: int = 200_000
    name = "certify_tables"

    def setup(self, seed: int):
        z_rows = tables.load_table(1)
        tight = [
            (a, n)
            for table, n in TIGHT_TABLES.items()
            for row in tables.load_table(table)
            for a in tables.expand_row(row)
        ]
        criteria = {
            n: escalation.criterion_set(escalation.run_escalation(n, escalation.DEFAULT_BOUND))
            for n in TIGHT_TABLES.values()
        }
        return z_rows, tight, criteria

    def run(self, inputs):
        z_rows, tight, criteria = inputs
        z = [tables.verify_z_row(row, self.bound) for row in z_rows]
        verdicts = [
            escalation.check_tight_universal(a, n, criteria[n], self.bound) for a, n in tight
        ]
        return z, verdicts

    def check(self, inputs, outputs, oracle: bool) -> tuple[Checks, str]:
        _, tight, _ = inputs
        z, verdicts = outputs
        ck = Checks()
        ck.expect(sorted(r.row.prefix for r in z) == sorted(EXCEPTION_SETS), "table 1 rows")
        for r in z:
            want = EXCEPTION_SETS.get(r.row.prefix)
            ck.expect(r.actual == want, f"{r.row.prefix} misses {r.actual}, expected {want}")
        for n, count in NEW_FORM_COUNTS.items():
            found = sum(1 for _, m in tight if m == n)
            ck.expect(found == count, f"floor {n}: {found} tabulated forms")
        for (a, n), v in zip(tight, verdicts):
            ck.expect(v.is_tight, f"{a} at floor {n}: {v}")
        return ck, digest([[r.actual for r in z], [[v.kind, v.value] for v in verdicts]])

    def fold_mbit(self, inputs):
        z_rows, tight, _ = inputs
        return fold_mbit([r.prefix for r in z_rows] + [a for a, _ in tight], self.bound)


@dataclass(frozen=True)
class SieveRandom:
    """Seeded random forms through build_sieve, count_represented and missing_in_range.

    Each batch has ``forms`` forms whose lengths cycle through ``LENGTHS``.
    The batch's coefficients are one stratified draw from 1..MAX_COEFF
    (one uniform value in each of len equal slices), shuffled into forms.
    A form's fold cost depends on its coefficients, so stratifying keeps the
    batch's total work close to the same for every seed while the forms
    themselves still differ.
    """

    forms: int = 12
    bound: int = 1_000_000
    samples: int = 200
    sample_max: int = 5_000
    name = "sieve_random"
    LENGTHS = (3, 4, 5, 6)
    MAX_COEFF = 30
    MISSING_LIMIT = 100

    def setup(self, seed: int):
        rng = random.Random(seed)
        sizes = [self.LENGTHS[i % len(self.LENGTHS)] for i in range(self.forms)]
        k = sum(sizes)
        coeffs = [1 + int((j + rng.random()) * self.MAX_COEFF / k) for j in range(k)]
        rng.shuffle(coeffs)
        forms, i = [], 0
        for size in sizes:
            forms.append(tuple(sorted(coeffs[i:i + size])))
            i += size
        samples = [sorted(rng.randint(0, self.sample_max) for _ in range(self.samples))
                   for _ in forms]
        return forms, samples

    def run(self, inputs):
        forms, _ = inputs
        out = []
        for a in forms:
            s = polygonal.build_sieve(a, self.bound)
            out.append((s, s.count_represented(0, self.bound),
                        s.missing_in_range(a[0], self.bound, limit=self.MISSING_LIMIT)))
        return out

    def check(self, inputs, outputs, oracle: bool) -> tuple[Checks, str]:
        ck = Checks()
        for a, values, (s, count, head) in zip(*inputs, outputs):
            gaps = (self.bound - a[0] + 1) - s.count_represented(a[0], self.bound)
            ck.expect(len(head) == min(gaps, self.MISSING_LIMIT), f"{a}: missing head length")
            ck.expect(all(x not in s for x in head) and head == sorted(set(head)),
                      f"{a}: missing head {head[:5]}")
            ck.expect(0 < count <= self.bound + 1, f"{a}: count {count}")
            if not oracle:
                continue
            for v in values:
                ck.expect((v in s) == polygonal.represents(a, v), f"{a}: membership of {v}")
            for v in head:
                if v <= self.sample_max:
                    ck.expect(not polygonal.represents(a, v), f"{a}: listed {v} as missing")
        return ck, digest([[hashlib.sha256(s.bits.to_bytes((s.bound + 8) // 8, "little")).hexdigest(),
                            count, head] for s, count, head in outputs])

    def fold_mbit(self, inputs):
        return fold_mbit(inputs[0], self.bound)


def make(name: str, out_dir: Path):
    """The workload called ``name``, at the benchmark's sizes."""
    if name == VerifyAll.name:
        return VerifyAll(out_dir)
    return {w.name: w for w in (EscalateSweep(), CertifyTables(), SieveRandom())}[name]

