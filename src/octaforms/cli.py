"""Command line front end.

Verbs: sieve, check, psi, escalate, criterion, verify.  Exit codes: 0 when
everything asked for passes, 1 on a verification failure, 2 on usage or
resource errors.  With --out, a JSON report (schema 1, integer payloads
only) is written alongside the human-readable output.

Each cmd_* prints its human-readable lines and returns (exit code, inputs,
results); run() alone times the command, writes the report and maps usage
and resource errors to exit code 2; any other error is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

from . import escalation as esc
from . import lemmas as lm
from . import tables as tb
from .fixtures import load_fixtures
from .lattice import ConditionFailed, check_bad_partition, check_prec
from .polygonal import ResourceBudgetError, build_sieve, coeff_vector

USAGE_ERROR = 2


class UsageError(Exception):
    """Arguments, a table file or a fixture file a command cannot run on."""


def _coeffs(text: str) -> tuple[int, ...]:
    # argparse type for --coeffs: a bad value is a usage error with its reason
    try:
        return coeff_vector(int(t) for t in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _floor(args) -> int:
    # --n and --bound as the escalation checks them
    if args.n < 1 or args.bound < 2 * args.n:
        raise UsageError(f"need n >= 1 and bound >= 2n, got n={args.n}, bound={args.bound}")
    return args.n


def cmd_sieve(args) -> tuple[int, dict, dict]:
    coeffs = args.coeffs
    if args.bound < coeffs[0]:
        raise UsageError(f"bound must be >= the first coefficient {coeffs[0]}")
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
    return 0, {"coeffs": list(coeffs), "bound": args.bound}, {
        "missing_count": missing_count, "missing_head": head}


def cmd_psi(args) -> tuple[int, dict, dict]:
    coeffs = args.coeffs
    truant = esc.psi(coeffs, _floor(args), args.bound)
    if truant is not None:
        print(f"psi{coeffs} = {truant} for floor n={args.n}")
    else:
        print(f"psi{coeffs}: no gap in [{args.n}, {args.bound}] (universal at this bound)")
    return 0, {"coeffs": list(coeffs), "n": args.n}, {"psi": truant}


def cmd_check(args) -> tuple[int, dict, dict]:
    coeffs = args.coeffs
    trace = esc.run_escalation(_floor(args), args.bound)
    criterion = esc.criterion_set(trace)
    verdict = esc.check_tight_universal(coeffs, args.n, criterion, args.bound)
    print(f"form {coeffs}, floor n={args.n}: {verdict}")
    return (0 if verdict.is_tight else 1), {"coeffs": list(coeffs), "n": args.n}, {
        "verdict": verdict.kind, "value": verdict.value, "criterion": list(criterion.values)}


def cmd_escalate(args) -> tuple[int, dict, dict]:
    trace = esc.run_escalation(_floor(args), args.bound)
    for rec in trace.depths:
        print(f"depth {rec.k}: |E|={len(rec.E)} |U|={len(rec.U)} "
              f"|NU|={len(rec.NU)} |A|={len(rec.A)}")
    total = sum(len(r.NU) for r in trace.depths)
    crit = esc.criterion_set(trace)
    print(f"new tight universal forms: {total}; criterion set {list(crit.values)}")
    return 0, {"n": args.n}, {
        "trace": esc.trace_to_dict(trace), "new_count": total, "criterion": list(crit.values)}


def cmd_criterion(args) -> tuple[int, dict, dict]:
    trace = esc.run_escalation(_floor(args), args.bound)
    crit = esc.criterion_set(trace)
    print(f"criterion set for n={args.n}: {list(crit.values)}")
    return 0, {"n": args.n}, {"criterion": list(crit.values)}


def _parse(load, source, file):
    try:
        return load(source)
    except ValueError as e:  # a table or fixture file that does not parse or decode
        raise UsageError(f"{file}: {e}") from None


def _load_rows(args, table: int):
    name = tb.TABLE_FILES[table]
    rows = _parse(tb.load_table, Path(args.data_dir) / name if args.data_dir else table, name)
    want = ("Z", None) if table == 1 else ("tight", table)
    for row in rows:
        if (row.expect_kind, row.expect_n) != want:
            raise UsageError(f"{name}: row {row.prefix} does not expect "
                             f"{'Z' if table == 1 else f'tight:{table}'}")
    return rows


def _verify_z_table(args, rows, results: dict) -> bool:
    reports = tb.verify_z_rows(rows, args.bound)
    for rep in reports:
        mark = "ok" if rep.ok else "FAIL"
        print(f"  {mark} {rep.row.prefix}: missing {list(rep.actual) or '{}'}")
    failures = [list(r.row.prefix) for r in reports if not r.ok]
    results["z-table"] = {"rows": len(rows), "failures": failures}
    print(f"exception-set table: {len(rows)} rows, {'FAILURES' if failures else 'all pass'}")
    return not failures


def _verify_tight_table(args, rows, results: dict, n: int) -> bool:
    trace = esc.run_escalation(n, args.bound)
    census = tb.table_census(rows)
    report = tb.verify_table(rows, n, trace)
    criterion = esc.criterion_set(trace)
    forms = [a for row in rows for a in tb.expand_row(row)]
    verdicts = esc.tight_verdicts(forms, n, criterion, args.bound)
    tight_fail = [(a, str(v)) for a, v in zip(forms, verdicts) if not v.is_tight]
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
    return report.equal and not tight_fail


_FAMILY_FLOORS = range(5, 13)


def _verify_families(args, _, results: dict) -> bool:
    ok = True
    details = {}
    for n in _FAMILY_FLOORS:
        trace = esc.run_escalation(n, args.bound)
        criterion = esc.criterion_set(trace)
        pair = tb.family_pair(n)
        verdicts = [v.is_tight for v in esc.tight_verdicts(pair, n, criterion, args.bound)]
        uniq = set(trace.depth(n + 1).NU) == set(pair)
        details[str(n)] = {"tight": verdicts, "unique": uniq}
        print(f"  n={n}: families tight {verdicts}, unique new forms: {uniq}")
        ok &= all(verdicts) and uniq
    results["families"] = details
    print(f"family check: {'all pass' if ok else 'FAILURES'}")
    return ok


def _verify_lemmas(args, fixtures, results: dict) -> bool:
    prec_fail, bad_fail = [], []
    for name, inst in sorted(fixtures.prec.items()):
        good = check_prec(inst.M, inst.N, inst.d, inst.a)
        if not good:
            prec_fail.append(name)
        print(f"  {'ok' if good else 'FAIL'} transfer {name}")
    for name, inst in sorted(fixtures.bad.items()):
        try:
            excluded = check_bad_partition(inst)
            good = tuple(excluded) == inst.excluded
            note = f"excluded classes {excluded}"
        except (ConditionFailed, ValueError) as e:
            good, note = False, str(e)
        if not good:
            bad_fail.append(name)
        print(f"  {'ok' if good else 'FAIL'} stable-vector {name}: {note}")

    # each suite runs at its own fixed bound; --bound does not reach them
    bounds = {"congruence": 10_000, "jones": 10_000, "counting": 2000,
              "pair_2233": 10_000, "family_2233t": 2000}
    lemma_fail = {}
    for lemma in lm.CONGRUENCE_LEMMAS:
        bad = lm.congruence_counterexamples(lemma, bounds["congruence"])
        if bad:
            lemma_fail[lemma.name] = bad[:10]
        print(f"  {'ok' if not bad else 'FAIL'} congruence {lemma.name} "
              f"({lemma.description})")
    failures = {"prec_failures": prec_fail, "stable_vector_failures": bad_fail,
                "congruence_failures": lemma_fail}
    for key, label, scan in (
        ("jones", "prime-to-3 strengthening", lm.jones_counterexamples),
        ("counting", "scaled representation counts", lm.counting_counterexamples),
        ("pair_2233", "(2,2,3,3) coverage", lm.pair_2233_counterexamples),
        ("family_2233t", "(2,2,3,3,t) coverage", lm.family_2233t_counterexamples),
    ):
        bad = scan(bound=bounds[key])
        print(f"  {'ok' if not bad else 'FAIL'} {label}")
        failures[f"{key}_failures"] = bad[:10]
    ok = not any(failures.values())
    results["lemmas"] = failures
    results["lemma_bounds"] = bounds
    print(f"lemma suite: {'all pass' if ok else 'FAILURES'}")
    return ok


def _load_z_rows(args):
    rows = _load_rows(args, 1)
    # each row is scanned from its first coefficient up to the bound
    return rows, max((row.prefix[0] for row in rows), default=0)


def _load_fixtures(args):
    path = args.fixtures
    return _parse(load_fixtures, path, path or "lattice_fixtures.txt"), None


# `verify all` runs every suite in this order; `families` names thm5.  Each
# suite has a loader, which reads its input once and returns it with the
# least --bound the suite runs at (an escalation for floor n needs 2n; the
# lemma suites run at their own bounds: None), and a runner that takes it.
_SUITES = {
    "z-table": (_load_z_rows, _verify_z_table),
    **{f"t{n}": (lambda args, n=n: (_load_rows(args, n), 2 * n),
                 partial(_verify_tight_table, n=n)) for n in (2, 3, 4)},
    "thm5": (lambda args: (None, 2 * _FAMILY_FLOORS[-1]), _verify_families),
    "lemmas": (_load_fixtures, _verify_lemmas),
}


def cmd_verify(args) -> tuple[int, dict, dict]:
    target = args.target
    names = _SUITES if target == "all" else [{"families": "thm5"}.get(target, target)]
    # every input is read and checked, and so is the bound, before any suite prints
    loaded = {name: _SUITES[name][0](args) for name in names}
    least = [b for _, b in loaded.values() if b is not None]
    if least and args.bound < max(least):
        raise UsageError(f"verify {target} needs --bound >= {max(least)}, got {args.bound}")
    results: dict = {}
    ok = True
    for name in names:
        ok &= _SUITES[name][1](args, loaded[name][0], results)
    print(f"verify {target}: {'PASS' if ok else 'FAIL'}")
    return (0 if ok else 1), {"target": target}, results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octaforms",
        description="Representation and tight universality of octagonal forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text in (
        ("sieve", cmd_sieve, "values of a form up to a bound"),
        ("psi", cmd_psi, "smallest value >= n a form misses"),
        ("check", cmd_check, "tight universality of one form"),
        ("escalate", cmd_escalate, "run the full escalation for a floor n"),
        ("criterion", cmd_criterion, "criterion set for a floor n"),
        ("verify", cmd_verify, "re-check the bundled classification data"),
    ):
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        if name in ("sieve", "psi", "check"):
            p.add_argument("--coeffs", type=_coeffs, required=True,
                           help="comma-separated coefficients, non-decreasing")
        if name in ("psi", "check", "escalate", "criterion"):
            p.add_argument("--n", type=int, required=True, help="floor of the target range")
        if name == "verify":
            p.add_argument("target", choices=[*_SUITES, "families", "all"])
            p.add_argument("--data-dir", help="directory with table data files (default: bundled)")
            p.add_argument("--fixtures", help="lattice fixture file (default: bundled)")
        p.add_argument("--bound", type=int, default=esc.DEFAULT_BOUND,
                       help="certification bound (default %(default)s)")
        p.add_argument("--out", help="write a JSON report here")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        code, inputs, results = args.fn(args)
        if args.out:
            target = getattr(args, "target", None)
            report = {
                "schema": 1,
                "command": f"{args.command} {target}" if target else args.command,
                "inputs": inputs,
                "results": results,
                "status": "pass" if code == 0 else "fail",
                "bound_used": None if target == "lemmas" else args.bound,  # no lemma suite reads it
                "elapsed_ms": int((time.perf_counter() - t0) * 1000),
            }
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        return code
    except (UsageError, ResourceBudgetError, esc.EscalationDepthError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
