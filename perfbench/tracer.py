"""Spans around octaforms' public functions, installed from the benchmark's side.

octaforms' modules import each other's functions by name, so a function is
wrapped at every place a caller looks it up (``escalation.build_sieve`` as
well as ``polygonal.build_sieve``), and the sieve read-outs are wrapped as
attributes of ``RepresentationSieve``.  ``installed`` puts the originals
back on exit.

A span is ``[id, parent_id, name, start, end, attrs]`` on
``time.perf_counter``; spans stay in memory and are written out when the
run ends.  The program is single-threaded, so the innermost open span is
the parent of the next one.  No wrapped function calls itself, so a
layer's busy time is the plain sum of its spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import wraps

from workloads import fold_terms


class Tracer:
    """Span recorder; ``wrap`` returns a function that records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, annotate=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), open_[-1] if open_ else None, name, clock(), None, None]
            spans.append(span)
            open_.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_.pop()
            if annotate is not None:
                span[5] = annotate(result)
            return result

        return traced


def _sieve_attrs(sieve) -> dict:
    work = (sieve.bound + 1) * sum(fold_terms(c, sieve.bound) for c in sieve.coeffs)
    return {"mbit": work / 1e6}


def _escalation_attrs(trace) -> dict:
    return {"n": trace.n, "candidates": sum(len(rec.E) for rec in trace.depths)}


def octaforms_targets():
    """(span name, annotate, [(owner, attribute), ...]) for every traced layer."""
    from octaforms import cli, escalation, fixtures, lattice, lemmas, polygonal, tables

    sieve = polygonal.RepresentationSieve
    return [
        ("polygonal.build_sieve", _sieve_attrs,
         [(polygonal, "build_sieve"), (escalation, "build_sieve"), (tables, "build_sieve"),
          (lemmas, "build_sieve"), (cli, "build_sieve")]),
        ("polygonal.readout", None,
         [(sieve, "missing_in_range"), (sieve, "first_missing"), (sieve, "count_represented")]),
        ("escalation.run_escalation", _escalation_attrs, [(escalation, "run_escalation")]),
        ("escalation.psi", None, [(escalation, "psi")]),
        ("escalation.check_tight_universal", None, [(escalation, "check_tight_universal")]),
        ("tables.verify_z_row", None, [(tables, "verify_z_row")]),
        ("tables.verify_table", None, [(tables, "verify_table")]),
        ("tables.load_table", None, [(tables, "load_table")]),
        ("lattice.count_representations", None,
         [(lattice, "count_representations"), (lemmas, "count_representations")]),
        ("lattice.check_prec", None, [(lattice, "check_prec"), (cli, "check_prec")]),
        ("lattice.check_bad_partition", None,
         [(lattice, "check_bad_partition"), (cli, "check_bad_partition")]),
        ("lattice.coprime3_values_up_to", None,
         [(lattice, "coprime3_values_up_to"), (lemmas, "coprime3_values_up_to")]),
        ("lemmas.counting_counterexamples", None, [(lemmas, "counting_counterexamples")]),
        ("lemmas.congruence_counterexamples", None, [(lemmas, "congruence_counterexamples")]),
        ("lemmas.jones_counterexamples", None, [(lemmas, "jones_counterexamples")]),
        ("fixtures.load_fixtures", None, [(fixtures, "load_fixtures"), (cli, "load_fixtures")]),
        ("cli.run", None, [(cli, "run")]),
    ]


@contextmanager
def installed(tracer: Tracer, targets):
    """Replace every target with its traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for name, annotate, sites in targets:
            for owner, attr in sites:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, name, annotate))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans, names) -> dict[str, float]:
    """Per-layer metrics from spans: ``<name>.calls``, ``.s`` and ``.self_s`` for each name.

    Self time is a span's duration minus its direct children's.  Also the
    fold work ``polygonal.build_sieve.mbit``, the escalation candidate count
    ``escalation.candidates`` (the sum of |E| over all depths) and the
    floor-20 escalation's time, self time and psi time.
    """
    child = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {f"{name}.{key}": 0 for name in names for key in ("calls", "s", "self_s")}
    for key in ("polygonal.build_sieve.mbit", "escalation.candidates", "escalation.floor20.s",
                "escalation.floor20.self_s", "escalation.floor20.psi_s"):
        out[key] = 0
    floor20 = set()
    for sid, parent, name, start, end, attrs in spans:
        dur, attrs = end - start, attrs or {}
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += dur - child[sid]
        if name == "polygonal.build_sieve":
            out["polygonal.build_sieve.mbit"] += attrs.get("mbit", 0)
        elif name == "escalation.run_escalation":
            out["escalation.candidates"] += attrs.get("candidates", 0)
            if attrs.get("n") == 20:
                floor20.add(sid)
                out["escalation.floor20.s"] += dur
                out["escalation.floor20.self_s"] += dur - child[sid]
        elif name == "escalation.psi" and parent in floor20:
            out["escalation.floor20.psi_s"] += dur
    return out
