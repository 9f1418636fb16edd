"""Summarise the reports run.py left in .perfbench/ into results/BENCH_<label>.json.

    python3 perfbench/collect.py LABEL

For each workload, mode (untraced or traced) and metric it writes the
values, one per report (that is, per seed), their median, their quartiles
as ``statistics.quantiles(values, n=4)`` gives them and the spread, the
distance between the quartiles as a share of the median's magnitude.
Reports from different environments or sources are refused, so that
numbers from different machines or commits are never mixed silently.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPORTS = HERE.parent / ".perfbench"


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def collect(reports: list[dict]) -> dict:
    envs = {json.dumps(r["environment"], sort_keys=True) for r in reports}
    if len(envs) != 1:
        raise ValueError(f"{len(envs)} different environments among {len(reports)} reports")
    workloads: dict = {}
    for r in sorted(reports, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        mode = "traced" if r["trace"] else "untraced"
        w = workloads.setdefault(r["workload"], {}).setdefault(
            mode, {"seeds": [], "all_correct": True, "attempted": 0, "failed": 0,
                   "samples": [], "metrics": {}})
        w["seeds"].append(r["seed"])
        w["all_correct"] &= r["correct"]
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        w["samples"].append(len(r["samples"]))
        for name, value in r["metrics"].items():
            if value is not None:
                w["metrics"].setdefault(name, []).append(value)
    for modes in workloads.values():
        for w in modes.values():
            w["metrics"] = {k: summarize(v) for k, v in sorted(w["metrics"].items())}
    return {"environment": reports[0]["environment"], "workloads": workloads}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    reports = [json.loads(p.read_text()) for p in sorted(REPORTS.glob("report-*.json"))]
    if not reports:
        print(f"error: no reports in {REPORTS}", file=sys.stderr)
        return 1
    try:
        summary = {"label": argv[0], **collect(reports)}
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = HERE / "results" / f"BENCH_{argv[0]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    for name, modes in summary["workloads"].items():
        for mode, w in modes.items():
            for metric, s in w["metrics"].items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"{name:15s} {mode:8s} {metric:40s} median {s['median']:.6g} "
                      f"spread {spread} (n={len(s['values'])})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
