"""Benchmark entry point: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports octaforms from ``src/``.
The load is a closed loop from this one process: it starts one child
interpreter (child.py) at a time and waits for it, so no cache that lives
as long as a process (the lattice vector cache, the CLI's trace cache)
carries over from one sample to the next.  Children run for about
``--seconds``, at least one round: another round starts only if, at the
average time per round so far, it would end less than half a round past
the window.  The first child also runs the slow oracle checks, and every
later one must produce outputs with the same digest.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
medians over the samples, with set-up sampled at least five times.
``--trace 1`` reports the per-layer ones: each untraced child is followed
by a traced one on the same inputs, and ``trace_overhead_s`` is the median
over these pairs of the traced wall time minus the untraced one.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A run whose outputs are wrong reports no metrics and exits 1.
The full report (every sample and the environment) and the traced spans
are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TIME_LIMIT_S = 170  # a run must end within 180 s
MIN_SETUP_SAMPLES = 5


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, *flags: str, deadline: float) -> dict:
    """Run child.py once and return its sample, with ``setup_s`` and ``elapsed_s`` added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - start, 1))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(flags) or 'run'}: timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(flags) or 'run'}: exit code {proc.returncode}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    sample["setup_s"] = sample.pop("ready") - start
    sample["elapsed_s"] = time.monotonic() - start
    return sample


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run children for ``seconds`` and aggregate their samples."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    untraced, traced, setups, errors = [], [], [], []
    i = 0
    try:
        while True:
            flags = ["--oracle"] if i == 0 else []
            untraced.append(run_child(workload, seed, *flags, deadline=deadline))
            if trace:
                spans = OUT / "spans" / f"{workload}-seed{seed}-{i}.json"
                traced.append(run_child(workload, seed, "--trace", str(spans), deadline=deadline))
            i += 1
            now = time.monotonic()
            per_round = (now - start) / i
            if now + per_round / 2 > start + seconds or now + 1.5 * per_round > deadline:
                break
        setups = [s["setup_s"] for s in untraced]
        while not trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_child(workload, seed, "--setup-only", deadline=deadline)["setup_s"])
    except ChildFailed as e:
        errors.append(str(e))

    samples = untraced + traced
    attempted = sum(s["attempted"] for s in samples) + len(errors)
    failures = [f for s in samples for f in s["failures"]] + errors
    failed = sum(s["failed"] for s in samples) + len(errors)
    for s in samples[1:]:  # every sample runs the same inputs
        attempted += 1
        if s["digest"] != samples[0]["digest"]:
            failed += 1
            failures.append("outputs differ between samples")
    attempted = max(attempted, 1)
    m = {"error_rate": failed / attempted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "failures": failures[:20], "samples": samples, "setup_samples": setups,
              "metrics": m}
    if not result["correct"]:
        return result

    if trace:
        for key in traced[0]["layers"]:
            m[key] = statistics.median(s["layers"][key] for s in traced)
        m["trace_overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        cache = traced[-1]["vector_cache"]
        lookups = cache["hits"] + cache["misses"]
        m["lattice.vector_cache.hits"] = cache["hits"]
        m["lattice.vector_cache.misses"] = cache["misses"]
        m["lattice.vector_cache.hit_ratio"] = cache["hits"] / lookups if lookups else None
    else:
        m["wall_s"] = wall = statistics.median(s["wall_s"] for s in untraced)
        m["setup_s"] = statistics.median(setups)
        m["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in untraced)
        if untraced[0]["fold_mbit"] is not None:
            m["fold_mbit_per_s"] = untraced[0]["fold_mbit"] / wall
    return result


def unit(name: str) -> str:
    if name == "fold_mbit_per_s":
        return "Mbit/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".mbit"):
        return "Mbit"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_rate", "_ratio")):
        return "ratio"
    return "count"


def _lscpu() -> dict:
    if not shutil.which("lscpu"):
        return {}
    text = subprocess.run(["lscpu"], stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, LC_ALL="C")).stdout
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    keys = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
    return {out: fields[k].strip() for k, out in keys.items() if k in fields}


def _commit() -> str | None:
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(samples) -> dict:
    """Where the numbers come from; reports from different environments are not comparable."""
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "l2_cache": None,
        "l3_cache": None,
        "python": platform.python_version(),
        "numpy": samples[0]["numpy"] if samples else None,
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }
    env.update(_lscpu())
    return env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="Run one octaforms benchmark workload.")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "octaforms" / "__init__.py").is_file():
        print(f"error: no octaforms sources under {SRC}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(result["samples"]), **result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    for name, value in sorted(result["metrics"].items()):
        print(f"{name} {value} {unit(name)}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(f"samples {len(result['samples'])}; report {path.relative_to(ROOT)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    if result["correct"]:
        metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                   for m in wanted}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
