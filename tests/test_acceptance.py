"""Acceptance suite: every headline result, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each
criterion is exact (zero counterexamples); the stated wall-clock limits
are asserted too.
"""

import hashlib
import json
import random
import time

import pytest

from octaforms.escalation import (
    check_tight_universal,
    criterion_set,
    run_escalation,
    trace_to_dict,
)
from octaforms.fixtures import load_fixtures
from octaforms.lattice import (
    ConditionFailed,
    TransferInstance,
    check_bad_partition,
    check_prec,
    octagonal_via_lattice,
)
from octaforms.lemmas import (
    CONGRUENCE_LEMMAS,
    congruence_counterexamples,
    counting_counterexamples,
    family_2233t_counterexamples,
    jones_counterexamples,
    pair_2233_counterexamples,
)
from octaforms.polygonal import build_sieve, represents
from octaforms.tables import expand_row, family_pair, load_table, table_census, verify_table

BOUND = 50_000


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def traces():
    return {n: run_escalation(n, BOUND) for n in range(2, 21)}


# sha256 of json.dumps(trace_to_dict(run_escalation(n, BOUND))), pinned so
# that any change to the escalation's output, its ordering included, shows.
TRACE_SHA256 = {
    2: "4e3f217aa0be8f715cb75a39ca002216679cac70ab7591b59c09ab6113b999d6",
    3: "02e7b7629d9904f5945e30537e2aa15f427e5137108e56965164e8ca2200723b",
    4: "c10259a214cbf83168c089985b06cf691e679a93700b10a56baa17a2de42b8b9",
    5: "507a223233ef680beec237d968f52b4de1bd7dd78283ef17074f5dafa9869951",
    6: "930e65bb5e47df069cd63e40da1b37da077f6abb99d94d7c9b054e89966572be",
    7: "8a821a0f81a50e3c66a74047d20d38a107ff8e3b0f473d201bbfe057033d6916",
    8: "e65220f81ef3f72822e66135e71aa4a7a0958d58d3c0e4851af89e0b003181f9",
    9: "65a7622d39acc54933dfb419720efc7dfc15c8cdc4ef112727e8c35e93f02d28",
    10: "04b45fe0fdb1f40bcc104fc3de01d769eca9d4a7b3c229012c7c5dc9f4d1d28b",
    11: "4d4589111afa4e636ff79deed8daf110fcf57dd9aea24ab5e63a5af8a6d3a2b9",
    12: "42e7a80995b4d835f28231b6446efcaf958097bd35b2e0d739e478ef4a8c0d20",
    13: "5737961f502fc3a8ca4b319390def0f2cfb00e7a817a2a6634d9b3600f45456f",
    14: "6b862d07f2ff17939a1fc2731b6dfecbcdd88b140a165fcbf8432aba3e8213d2",
    15: "d15a6f2423ceb51bf83073be12713da2280999318bd3cb3cc6a35cf675cdd4de",
    16: "15947fe44fa691ece9663b1ad61cdc3acecad06f4e3117042515338421b9bb5b",
    17: "2ac3c59f1a3ae99aaa7b045d0ed7d9e8b21db23819edf71249c238dbf99ff2a2",
    18: "e01d85d33f559c2c4f24f23b9e0249d36587ea16eb0ea3055bdbec6105980693",
    19: "3c62812f5b83b14be40c09450c9b8804bed58947afe4f5ae887d481331a0e8b5",
    20: "af09ca4e08fa6ec522e3fa226dfd54630f02076d6ce6c430cd8fed42bce605f6",
}


@pytest.fixture(scope="module")
def fixtures():
    return load_fixtures()


def test_criterion_1_escalation_floor2(traces):
    t0 = time.perf_counter()
    tr = run_escalation(2, BOUND)
    elapsed = time.perf_counter() - t0
    sizes = [(len(r.E), len(r.U), len(r.NU), len(r.A)) for r in tr.depths]
    ok = sizes == [(1, 0, 0, 1), (1, 0, 0, 1), (2, 0, 0, 2),
                   (9, 3, 3, 6), (52, 49, 39, 3), (30, 30, 15, 0)]
    ok &= set(tr.depth(4).U) == {(2, 2, 3, 4), (2, 3, 4, 5), (2, 3, 4, 8)}
    d3, d4 = tr.depth(3), tr.depth(4)
    ok &= sorted(d3.psi[a] for a in d3.A) == [6, 8]
    ok &= sorted(d4.psi[a] for a in d4.A) == [8, 9, 11, 12, 14, 18]
    ok &= elapsed < 60
    report(1, "full escalation for floor 2 reproduces all depth data", ok,
           f"{elapsed:.2f}s")


def test_escalation_traces_are_byte_identical(traces):
    digests = {
        n: hashlib.sha256(json.dumps(trace_to_dict(tr)).encode()).hexdigest()
        for n, tr in traces.items()
    }
    assert digests == TRACE_SHA256


def test_criterion_2_census_and_set_equality(traces):
    ok = True
    detail = []
    for table, n, expected in ((2, 2, 57), (3, 3, 147), (4, 4, 22)):
        rows = load_table(table)
        census = table_census(rows)
        equal = verify_table(rows, n, traces[n]).equal
        ok &= census == expected and equal
        detail.append(f"t{n}:{census}")
    report(2, "table censuses are 57/147/22 and match the escalations", ok,
           " ".join(detail))


def test_criterion_3_criterion_sets(traces):
    expected = {
        2: (2, 3, 4, 6, 8, 9, 11, 12, 14, 18),
        3: (3, 4, 5, 6, 13, 14, 16, 17, 21, 22, 27, 36),
        4: (4, 5, 6, 7, 8, 23, 28),
    }
    for n in range(5, 11):
        expected[n] = tuple(range(n, 2 * n + 1))
    ok = all(criterion_set(traces[n]).values == expected[n] for n in expected)
    report(3, "criterion sets for floors 2..10 are exact", ok)


def test_criterion_4_exception_table():
    t0 = time.perf_counter()
    rows = load_table(1)
    ok = len(rows) == 26
    for row in rows:
        sieve = build_sieve(row.prefix, BOUND)
        ok &= tuple(sieve.missing_in_range(row.prefix[0], BOUND)) == row.expect_z
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    report(4, "all 26 exception sets match at bound 50000", ok, f"{elapsed:.2f}s")


def test_criterion_5_families(traces):
    ok = True
    for n in range(5, 13):
        crit = criterion_set(traces[n])
        for a in family_pair(n):
            ok &= check_tight_universal(a, n, crit, BOUND).is_tight
        ok &= set(traces[n].depth(n + 1).NU) == set(family_pair(n))
    report(5, "the two families are tight and the unique new forms for n=5..12", ok)


def test_criterion_6_progression_transfers(fixtures):
    t0 = time.perf_counter()
    failures = [
        name
        for name, inst in sorted(fixtures.prec.items())
        if not check_prec(inst.M, inst.N, inst.d, inst.a)
    ]
    elapsed = time.perf_counter() - t0
    ok = not failures and len(fixtures.prec) == 24 and elapsed < 300
    report(6, "all 24 progression transfer instances hold", ok,
           f"{elapsed:.2f}s" + (f" failures: {failures}" if failures else ""))


def test_criterion_7_stable_vector_transfers(fixtures):
    ok = True
    detail = []
    for name, expected in (("234-n1-a3", (12,)), ("234-n2-a3", (3,)),
                           ("334-n2-a7", None), ("356-n1-a8", None), ("356-n2-a8", None)):
        inst = fixtures.bad[name]
        try:
            got = tuple(check_bad_partition(inst))
            good = got == (expected if expected is not None else inst.excluded)
            detail.append(f"{name}:{list(got)}")
        except (ConditionFailed, ValueError) as e:
            good, _ = False, detail.append(f"{name}:ERROR {e}")
        ok &= good
    # negative control: the scaled identity has finite order
    inst = fixtures.bad["234-n1-a3"]
    control = TransferInstance(
        "control", inst.M, inst.N, inst.d, inst.a,
        transforms=(tuple(tuple(inst.d if i == j else 0 for j in range(3)) for i in range(3)),),
        blocks=inst.blocks, excluded=inst.excluded,
    )
    try:
        check_bad_partition(control)
        ok = False
        detail.append("control:no error")
    except ConditionFailed as e:
        ok &= e.condition == "i"
        detail.append("control:condition(i)")
    report(7, "stable-vector instances hold with the recorded square classes", ok,
           " ".join(detail))


def test_criterion_8_property_suites():
    ok = True
    detail = []
    for lemma in CONGRUENCE_LEMMAS:
        bad = congruence_counterexamples(lemma, 10_000)
        ok &= not bad
        if bad:
            detail.append(f"{lemma.name}:{bad[:3]}")
    bad = jones_counterexamples(10_000)
    ok &= not bad
    bad = counting_counterexamples(2000)
    ok &= not bad
    bad = pair_2233_counterexamples(10_000)
    ok &= not bad
    bad = family_2233t_counterexamples(2000)
    ok &= not bad
    rng = random.Random(20260810)
    pairs = 0
    for _ in range(10_000):
        k = rng.randint(1, 5)
        a = tuple(sorted(rng.randint(1, 10) for _ in range(k)))
        u = rng.randint(0, 200)
        if represents(a, u) != octagonal_via_lattice(a, u):
            ok = False
            detail.append(f"correspondence:{a},{u}")
            break
        pairs += 1
    report(8, "10^4-range property suites hold with zero counterexamples", ok,
           f"{pairs} correspondence pairs" + (" " + " ".join(detail) if detail else ""))


def test_criterion_9_oracle_equivalence():
    def oracle_octagonal(limit):
        vals, x = {0}, 1
        while 3 * x * x - 2 * x <= limit:
            vals.add(3 * x * x - 2 * x)
            if 3 * x * x + 2 * x <= limit:
                vals.add(3 * x * x + 2 * x)
            x += 1
        return sorted(vals)

    def oracle_values(a, bound):
        sums = {0}
        for c in a:
            terms = [c * p for p in oracle_octagonal(bound // c)]
            sums = {s + t for s in sums for t in terms if s + t <= bound}
        return sums

    rng = random.Random(15)
    mismatches = 0
    for _ in range(200):
        k = rng.randint(1, 4)
        a = tuple(sorted(rng.randint(1, 6) for _ in range(k)))
        if set(build_sieve(a, 300).values()) != oracle_values(a, 300):
            mismatches += 1
    report(9, "sieve equals brute-force enumeration on 200 random forms",
           mismatches == 0, f"{mismatches} mismatches")


def test_every_listed_form_is_tight(traces):
    # cross-check supporting criteria 2 and 5: each expanded table member
    # passes the finite tightness test at the default bound
    ok = True
    for table, n in ((2, 2), (3, 3), (4, 4)):
        crit = criterion_set(traces[n])
        for row in load_table(table):
            for a in expand_row(row):
                ok &= check_tight_universal(a, n, crit, BOUND).is_tight
    report(2, "every listed form passes the tightness check (supporting)", ok)
