"""One benchmark sample in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py WORKLOAD SEED [--trace SPANS_FILE] [--oracle] [--setup-only]

Imports numpy and octaforms, sets the workload up, runs its timed region
once, checks the outputs and prints one JSON line: the monotonic time at
which set-up ended (``ready``), ``wall_s``, ``peak_rss_mb``, the check
tally, the outputs' digest and the computed fold work.  With ``--trace``
the octaforms layers are wrapped from set-up to the end of the timed
region, the spans are written to SPANS_FILE and their per-layer metrics
are added to the line.  Checks always run untraced.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from contextlib import nullcontext
from pathlib import Path

import numpy

from octaforms import cli, lattice  # noqa: F401  (cli imports every module, for every workload alike)

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", help="a workload name from BENCHMARK.json")
    p.add_argument("seed", type=int)
    p.add_argument("--trace", metavar="SPANS_FILE", type=Path)
    p.add_argument("--oracle", action="store_true", help="also run the slow oracle checks")
    p.add_argument("--setup-only", action="store_true", help="stop when set-up is done")
    args = p.parse_args(argv)

    workload = workloads.make(args.workload, ROOT / ".perfbench")
    targets = tracer.octaforms_targets()
    spans = tracer.Tracer() if args.trace else None
    with tracer.installed(spans, targets) if spans else nullcontext():
        inputs = workload.setup(args.seed)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        t0 = time.perf_counter()
        outputs = workload.run(inputs)
        wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks, outputs_digest = workload.check(inputs, outputs, args.oracle)
    cache = lattice._vectors_cached.cache_info()
    sample = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures[:20],
        "digest": outputs_digest,
        "fold_mbit": workload.fold_mbit(inputs),
        "vector_cache": {"hits": cache.hits, "misses": cache.misses, "currsize": cache.currsize},
        "numpy": numpy.__version__,
    }
    if spans:
        sample["layers"] = tracer.layer_metrics(spans.spans, [name for name, _, _ in targets])
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        args.trace.write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "attrs"], "spans": spans.spans}))
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
