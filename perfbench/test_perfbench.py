"""Tests of the benchmark's own code, on small inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import collect  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from octaforms import escalation, polygonal  # noqa: E402

SMALL = [
    workloads.EscalateSweep(floors=(2, 3, 4, 5, 6)),
    workloads.CertifyTables(bound=3_000),
    workloads.SieveRandom(forms=4, bound=30_000, samples=20, sample_max=500),
]


def outcome(workload, seed=7, oracle=True):
    inputs = workload.setup(seed)
    return workload.check(inputs, workload.run(inputs), oracle)


@pytest.mark.parametrize("c", range(1, 31))
def test_fold_terms_counts_term_values(c):
    for bound in (0, 1, 7, 1_000, 400_000):
        assert workloads.fold_terms(c, bound) == len(polygonal.term_values(c, bound))


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_small_workloads_pass_their_checks(workload):
    checks, _ = outcome(workload)
    assert checks.attempted > 0
    assert checks.failures == []


def test_changed_count_fact_is_an_error(monkeypatch):
    monkeypatch.setitem(workloads.NEW_FORM_COUNTS, 2, 58)
    checks, _ = outcome(SMALL[0])
    assert checks.failed == 1
    assert "n=2" in checks.failures[0]


def test_changed_exception_set_is_an_error(monkeypatch):
    monkeypatch.setitem(workloads.EXCEPTION_SETS, (2, 2, 3, 6), (13,))
    checks, _ = outcome(SMALL[1])
    assert checks.failed == 1
    assert "(2, 2, 3, 6)" in checks.failures[0]


def test_sieve_check_catches_a_wrong_sieve():
    w = SMALL[2]
    forms, samples = w.setup(7)
    outputs = w.run((forms, samples))
    s, count, head = outputs[0]
    flipped = polygonal.RepresentationSieve(s.coeffs, s.bound, s.bits ^ (1 << samples[0][0]))
    outputs[0] = (flipped, count, head)
    checks, _ = w.check((forms, samples), outputs, True)
    assert checks.failed >= 1


def _all_sites():
    return [(owner, attr) for _, _, sites in tracer.octaforms_targets() for owner, attr in sites]


def test_wrappers_are_installed_and_removed():
    originals = {(id(o), a): getattr(o, a) for o, a in _all_sites()}
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(t, tracer.octaforms_targets()):
            for owner, attr in _all_sites():
                assert getattr(owner, attr) is not originals[(id(owner), attr)]
            escalation.psi((1, 2), 1, 100)
            raise RuntimeError("leave the block early")
    for owner, attr in _all_sites():
        assert getattr(owner, attr) is originals[(id(owner), attr)]
    names = [span[2] for span in t.spans]
    assert names == ["escalation.psi", "polygonal.build_sieve", "polygonal.readout"]
    assert t.spans[1][1] == 0 and t.spans[2][1] == 0  # both children of the psi span


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_outputs_are_identical(workload):
    _, plain = outcome(workload, oracle=False)
    t = tracer.Tracer()
    with tracer.installed(t, tracer.octaforms_targets()):
        inputs = workload.setup(7)
        outputs = workload.run(inputs)
    _, traced = workload.check(inputs, outputs, False)
    assert traced == plain
    assert t.spans


def test_layer_metrics_self_time_and_floor20():
    spans = [
        [0, None, "cli.run", 0.0, 10.0, None],
        [1, 0, "escalation.run_escalation", 1.0, 7.0, {"n": 20, "candidates": 3}],
        [2, 1, "escalation.psi", 2.0, 4.0, None],
        [3, 2, "polygonal.build_sieve", 2.5, 3.5, {"mbit": 1.5}],
        [4, 0, "escalation.run_escalation", 8.0, 9.0, {"n": 2, "candidates": 4}],
    ]
    m = tracer.layer_metrics(spans, ["cli.run", "escalation.run_escalation",
                                     "escalation.psi", "polygonal.build_sieve", "tables.verify_table"])
    assert m["cli.run.s"] == 10.0 and m["cli.run.self_s"] == 3.0
    assert m["escalation.run_escalation.calls"] == 2
    assert m["escalation.run_escalation.s"] == 7.0
    assert m["escalation.run_escalation.self_s"] == 5.0
    assert m["escalation.psi.self_s"] == 1.0
    assert m["escalation.candidates"] == 7
    assert m["polygonal.build_sieve.mbit"] == 1.5
    assert (m["escalation.floor20.s"], m["escalation.floor20.self_s"],
            m["escalation.floor20.psi_s"]) == (6.0, 4.0, 2.0)
    assert m["tables.verify_table.calls"] == 0 and m["tables.verify_table.s"] == 0


def _sample(digest, failed=0):
    return {"setup_s": 0.2, "wall_s": 1.0, "peak_rss_mb": 50.0, "attempted": 3,
            "failed": failed, "failures": ["x"] * failed, "digest": digest, "fold_mbit": 10.0,
            "numpy": "0", "vector_cache": {"hits": 0, "misses": 0, "currsize": 0}}


def test_measure_counts_differing_outputs_as_errors(monkeypatch):
    monkeypatch.setattr(run, "run_child", lambda *a, **k: _sample("a"))
    ok = run.measure("sieve_random", 1, 0, trace=False)
    assert ok["correct"] and ok["metrics"]["error_rate"] == 0
    assert ok["metrics"]["fold_mbit_per_s"] == 10.0
    assert len(ok["setup_samples"]) == run.MIN_SETUP_SAMPLES
    digests = iter(["a", "b"])  # the untraced sample, then the traced one
    monkeypatch.setattr(run, "run_child", lambda *a, **k: _sample(next(digests)))
    bad = run.measure("sieve_random", 1, 0, trace=True)
    assert not bad["correct"] and bad["failed"] == 1
    assert bad["metrics"] == {"error_rate": 1 / 7}


def test_trace_overhead_is_the_median_of_paired_differences(monkeypatch):
    walls = iter([1.0, 1.5, 3.0, 3.2, 2.0, 2.1])  # untraced, traced, untraced, ...
    samples = []

    def child(*a, **k):
        samples.append(dict(_sample("a"), wall_s=next(walls), layers={}))
        return samples[-1]

    monkeypatch.setattr(run, "run_child", child)
    monkeypatch.setattr(run, "MIN_SETUP_SAMPLES", 0)
    clock = iter(range(100))  # one tick per round: three rounds fit in 3 s
    monkeypatch.setattr(run, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    res = run.measure("sieve_random", 1, 3, trace=True)
    assert len(samples) == 6
    assert res["metrics"]["trace_overhead_s"] == pytest.approx(0.2)


def test_spread_is_a_share_of_the_median_magnitude():
    s = collect.summarize([-3.0, -2.0, -1.0, 0.5, 1.0])
    assert s["median"] == -1.0 and s["spread"] > 0


def test_benchmark_json_names_only_computed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = tracer.layer_metrics([], [name for name, _, _ in tracer.octaforms_targets()])
    per_layer = set(layers) | {"trace_overhead_s", "lattice.vector_cache.hits",
                               "lattice.vector_cache.misses"}
    assert {m["name"] for m in spec["per_layer"]} <= per_layer
    assert {m["name"] for m in spec["end_to_end"]} <= {"wall_s", "setup_s", "peak_rss_mb"}
    for w in spec["workloads"]:
        assert workloads.make(w["name"], ROOT / ".perfbench").name == w["name"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sieve_random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
