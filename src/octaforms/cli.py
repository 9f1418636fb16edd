"""Command line front end.

Verbs: sieve, check, psi, escalate, criterion, verify.  Exit codes: 0 when
everything asked for passes, 1 on a verification failure, 2 on usage or
resource errors.  With --out, a JSON report (schema 1, integer payloads
only) is written alongside the human-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import escalation as esc
from . import lemmas as lm
from . import tables as tb
from .fixtures import load_fixtures
from .lattice import ConditionFailed, NoEigenvector, check_bad_partition, check_prec
from .polygonal import ResourceBudgetError, build_sieve, coeff_vector

VERIFY_TARGETS = ("z-table", "t2", "t3", "t4", "thm5", "families", "lemmas", "all")

USAGE_ERROR = 2


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return coeff_vector(int(t) for t in text.split(","))
    except ValueError as e:
        raise SystemExit(f"error: bad --coeffs value: {e}")


def _emit(args, command: str, inputs: dict, results: dict, status: str, bound: int, t0: float) -> None:
    if not getattr(args, "out", None):
        return
    report = {
        "schema": 1,
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
        "bound_used": bound,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


def cmd_sieve(args) -> int:
    t0 = time.perf_counter()
    coeffs = _parse_coeffs(args.coeffs)
    sieve = build_sieve(coeffs, args.bound)
    lo = coeffs[0]
    missing_count = (args.bound - lo + 1) - sieve.count_represented(lo, args.bound)
    head = sieve.missing_in_range(lo, args.bound, limit=100)
    print(f"form {coeffs}: {sieve.count_represented(0, args.bound)} "
          f"values represented in [0, {args.bound}]")
    if missing_count:
        shown = ", ".join(map(str, head[:25]))
        more = "" if missing_count <= 25 else f" ... ({missing_count} total)"
        print(f"missing from [{lo}, {args.bound}]: {shown}{more}")
    else:
        print(f"no gaps in [{lo}, {args.bound}]")
    _emit(args, "sieve", {"coeffs": list(coeffs), "bound": args.bound},
          {"missing_count": missing_count, "missing_head": head},
          "pass", args.bound, t0)
    return 0


def cmd_psi(args) -> int:
    t0 = time.perf_counter()
    coeffs = _parse_coeffs(args.coeffs)
    r = esc.psi(coeffs, args.n, args.bound)
    if r.is_finite:
        print(f"psi{coeffs} = {r.value} for floor n={args.n}")
    else:
        print(f"psi{coeffs}: no gap in [{args.n}, {args.bound}] (universal at this bound)")
    _emit(args, "psi", {"coeffs": list(coeffs), "n": args.n},
          {"psi": r.value}, "pass", args.bound, t0)
    return 0


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    coeffs = _parse_coeffs(args.coeffs)
    trace = esc.run_escalation(args.n, args.bound)
    criterion = esc.criterion_set(trace)
    verdict = esc.check_tight_universal(coeffs, args.n, criterion, args.bound)
    print(f"form {coeffs}, floor n={args.n}: {verdict}")
    status = "pass" if verdict.is_tight else "fail"
    _emit(args, "check", {"coeffs": list(coeffs), "n": args.n},
          {"verdict": verdict.kind, "value": verdict.value,
           "criterion": list(criterion.values)},
          status, args.bound, t0)
    return 0 if verdict.is_tight else 1


def cmd_escalate(args) -> int:
    t0 = time.perf_counter()
    trace = esc.run_escalation(args.n, args.bound)
    for rec in trace.depths:
        print(f"depth {rec.k}: |E|={len(rec.E)} |U|={len(rec.U)} "
              f"|NU|={len(rec.NU)} |A|={len(rec.A)}")
    total = sum(len(r.NU) for r in trace.depths)
    crit = esc.criterion_set(trace)
    print(f"new tight universal forms: {total}; criterion set {list(crit.values)}")
    _emit(args, "escalate", {"n": args.n},
          {"trace": esc.trace_to_dict(trace), "new_count": total,
           "criterion": list(crit.values)},
          "pass", args.bound, t0)
    return 0


def cmd_criterion(args) -> int:
    t0 = time.perf_counter()
    trace = esc.run_escalation(args.n, args.bound)
    crit = esc.criterion_set(trace)
    print(f"criterion set for n={args.n}: {list(crit.values)}")
    _emit(args, "criterion", {"n": args.n}, {"criterion": list(crit.values)},
          "pass", args.bound, t0)
    return 0


def _load_rows(args, table: int):
    if args.data_dir:
        return tb.load_table(Path(args.data_dir) / tb.TABLE_FILES[table])
    return tb.load_table(table)


def _verify_z_table(args, results: dict) -> bool:
    rows = _load_rows(args, 1)
    reports = [tb.verify_z_row(row, args.bound) for row in rows]
    ok = True
    for rep in reports:
        mark = "ok" if rep.ok else "FAIL"
        print(f"  {mark} {rep.row.prefix}: missing {list(rep.actual) or '{}'}")
        ok &= rep.ok
    results["z-table"] = {
        "rows": len(rows),
        "failures": [list(r.row.prefix) for r in reports if not r.ok],
    }
    print(f"exception-set table: {len(rows)} rows, {'all pass' if ok else 'FAILURES'}")
    return ok


def _verify_tight_table(args, n: int, results: dict) -> bool:
    rows = _load_rows(args, n)
    trace = esc.run_escalation(n, args.bound)
    census = tb.table_census(rows)
    report = tb.verify_table(rows, n, trace)
    criterion = esc.criterion_set(trace)
    tight_fail = []
    for row in rows:
        for a in tb.expand_row(row):
            verdict = esc.check_tight_universal(a, n, criterion, args.bound)
            if not verdict.is_tight:
                tight_fail.append((a, str(verdict)))
    ok = report.equal and not tight_fail
    print(f"table t{n}: census {census}, set-equal with escalation: {report.equal}, "
          f"tight failures: {len(tight_fail)}")
    if report.only_in_table:
        print(f"  only in table: {report.only_in_table}")
    if report.only_in_trace:
        print(f"  only in escalation: {report.only_in_trace}")
    results[f"t{n}"] = {
        "census": census,
        "set_equal": report.equal,
        "only_in_table": [list(a) for a in report.only_in_table],
        "only_in_trace": [list(a) for a in report.only_in_trace],
        "tight_failures": [[list(a), why] for a, why in tight_fail],
    }
    return ok


def _verify_families(args, results: dict) -> bool:
    rule = tb.FamilyRule()
    ok = True
    details = {}
    for n in range(5, 13):
        trace = esc.run_escalation(n, args.bound)
        criterion = esc.criterion_set(trace)
        verdicts = [
            esc.check_tight_universal(a, n, criterion, args.bound).is_tight
            for a in rule.pair(n)
        ]
        uniq = esc.new_tight_list(trace, n + 1) == set(rule.pair(n))
        details[str(n)] = {"tight": verdicts, "unique": uniq}
        print(f"  n={n}: families tight {verdicts}, unique new forms: {uniq}")
        ok &= all(verdicts) and uniq
    results["families"] = details
    print(f"family check: {'all pass' if ok else 'FAILURES'}")
    return ok


def _verify_lemmas(args, results: dict) -> bool:
    ok = True
    fixtures = load_fixtures(args.fixtures)
    prec_fail, bad_fail = [], []
    for name, inst in sorted(fixtures.prec.items()):
        good = check_prec(inst.M, inst.N, inst.d, inst.a)
        if not good:
            prec_fail.append(name)
        print(f"  {'ok' if good else 'FAIL'} transfer {name}")
    for name, inst in sorted(fixtures.bad.items()):
        try:
            excluded = check_bad_partition(inst)
            good = inst.excluded is None or tuple(excluded) == inst.excluded
            note = f"excluded classes {excluded}"
        except (ConditionFailed, NoEigenvector, ValueError) as e:
            good, note = False, str(e)
        if not good:
            bad_fail.append(name)
        print(f"  {'ok' if good else 'FAIL'} stable-vector {name}: {note}")
    ok &= not prec_fail and not bad_fail

    lemma_fail = {}
    for lemma in lm.CONGRUENCE_LEMMAS:
        bad = lm.congruence_counterexamples(lemma, 10_000)
        if bad:
            lemma_fail[lemma.name] = bad[:10]
        print(f"  {'ok' if not bad else 'FAIL'} congruence {lemma.name} "
              f"({lemma.description})")
    jones_bad = lm.jones_counterexamples(10_000)
    print(f"  {'ok' if not jones_bad else 'FAIL'} prime-to-3 strengthening")
    count_bad = lm.counting_counterexamples(2000)
    print(f"  {'ok' if not count_bad else 'FAIL'} scaled representation counts")
    pair_bad = lm.pair_2233_counterexamples(10_000)
    print(f"  {'ok' if not pair_bad else 'FAIL'} (2,2,3,3) coverage")
    fam_bad = lm.family_2233t_counterexamples()
    print(f"  {'ok' if not fam_bad else 'FAIL'} (2,2,3,3,t) coverage")
    ok &= not lemma_fail and not jones_bad and not count_bad and not pair_bad and not fam_bad
    results["lemmas"] = {
        "prec_failures": prec_fail,
        "stable_vector_failures": bad_fail,
        "congruence_failures": lemma_fail,
        "jones_failures": jones_bad[:10],
        "counting_failures": count_bad[:10],
        "pair_2233_failures": pair_bad[:10],
        "family_2233t_failures": [list(p) for p in fam_bad[:10]],
    }
    print(f"lemma suite: {'all pass' if ok else 'FAILURES'}")
    return ok


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    target = args.target
    results: dict = {}
    ok = True
    if target in ("z-table", "all"):
        ok &= _verify_z_table(args, results)
    if target in ("t2", "all"):
        ok &= _verify_tight_table(args, 2, results)
    if target in ("t3", "all"):
        ok &= _verify_tight_table(args, 3, results)
    if target in ("t4", "all"):
        ok &= _verify_tight_table(args, 4, results)
    if target in ("thm5", "families", "all"):
        ok &= _verify_families(args, results)
    if target in ("lemmas", "all"):
        ok &= _verify_lemmas(args, results)
    status = "pass" if ok else "fail"
    print(f"verify {target}: {status.upper()}")
    _emit(args, f"verify {target}", {"target": target}, results, status, args.bound, t0)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octaforms",
        description="Representation and tight universality of octagonal forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, coeffs=False, n=False):
        if coeffs:
            p.add_argument("--coeffs", required=True,
                           help="comma-separated coefficients, non-decreasing")
        if n:
            p.add_argument("--n", type=int, required=True, help="floor of the target range")
        p.add_argument("--bound", type=int, default=esc.DEFAULT_BOUND,
                       help="certification bound (default %(default)s)")
        p.add_argument("--out", help="write a JSON report here")

    p = sub.add_parser("sieve", help="values of a form up to a bound")
    common(p, coeffs=True)
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser("psi", help="smallest value >= n a form misses")
    common(p, coeffs=True, n=True)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("check", help="tight universality of one form")
    common(p, coeffs=True, n=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("escalate", help="run the full escalation for a floor n")
    common(p, n=True)
    p.set_defaults(fn=cmd_escalate)

    p = sub.add_parser("criterion", help="criterion set for a floor n")
    common(p, n=True)
    p.set_defaults(fn=cmd_criterion)

    p = sub.add_parser("verify", help="re-check the bundled classification data")
    p.add_argument("target", choices=VERIFY_TARGETS)
    common(p)
    p.add_argument("--data-dir", help="directory with table data files (default: bundled)")
    p.add_argument("--fixtures", help="lattice fixture file (default: bundled)")
    p.set_defaults(fn=cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(e.code or 0)
    try:
        return args.fn(args)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return USAGE_ERROR
    except (ResourceBudgetError, esc.EscalationDepthError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
