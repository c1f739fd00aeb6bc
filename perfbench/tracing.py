"""Span recorder for the traced run, and the per-module metrics derived from it.

The traced run swaps the cross-module public names the CLI pipeline calls
for wrappers that record a span around each call, and restores the
originals afterwards.  Nothing in the program changes: the wrappers live
here and are installed only for the duration of `installed(...)`.

A span has a name (the module and stage of the wrapped function), start and
end times, its parent span and the job it belongs to.  Self time is a span's
duration minus the durations of its child spans.  Work counters are computed
from each call's inputs and results, where the work happens.

A patch point whose target has been renamed or removed is skipped, and a
call whose inputs or result no longer have the shape an observer reads
keeps its span but loses its counters; either way every metric that needs
that span is reported as absent, never as zero, and the program runs on
unaffected.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from selli_cert.errors import BudgetExceededError


@dataclass
class Span:
    id: int
    name: str
    job: str | None
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[Span] = []
        self.absent: dict[str, str] = {}  # span name -> why it is not recorded

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.job, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close in the order they opened"
        if self._stack:
            self._stack[-1].child_time += span.duration

    def call(self, name: str, fn, args, kwargs, observe=None, memory=False):
        """Run fn(*args, **kwargs) inside a span named `name`.

        With `memory`, tracemalloc runs for the call and the span keeps its
        peak; tracemalloc sees numpy buffers as well as Python objects.
        """
        span = self.open(name)
        if memory:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            if memory:
                span.attrs["traced_peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.close(span)
        if observe is not None:
            try:
                span.attrs.update(observe(args, kwargs, result))
            except (AttributeError, KeyError, IndexError, TypeError) as exc:
                self.absent.setdefault(name, f"cannot read its work counters ({exc!r})")
        return result

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id, "name": s.name, "job": s.job, "parent": s.parent,
                "start": s.start, "end": s.end, "self_s": s.self_time, **s.attrs,
            }
            for s in self.spans
        ]


# ---- observers: work counters from a call's inputs and result ----

def _ybox(args, kwargs, cs):
    return {"candidates": len(cs.candidates)}


def _count_cells(args, kwargs, result):
    curve, fld = args[0], args[1]
    q = fld.q
    return {"cells": q if curve.m % fld.base.p == 0 else q * q, "q": q}


def _smooth_cells(args, kwargs, result):
    return {"cells": args[0].p.p ** 2 if result.guard_ok else 0}


def _scan(args, kwargs, scan):
    tried = ok = guard = budget = 0
    for r in scan.records:
        tried += 1
        if r.status == "ok":
            ok += 1
        elif (r.reason or "").startswith("characteristic guard"):
            guard += 1
        elif "budget" in (r.reason or ""):
            budget += 1
    return {"tried": tried, "ok": ok, "guard": guard, "budget": budget}


def _search(args, kwargs, result):
    box = args[1] if len(args) > 1 else kwargs["box"]
    return {"pairs": (2 * box + 1) ** 2}


def _sweep(args, kwargs, sweep):
    """Moduli visited and (y, z)-grid tuples checked, from the SweepResult.

    Class r is still pending at modulus M when it has no certificate yet or
    closes exactly at M; each pending class costs (M/12) x-values times M^2.
    """
    best = sweep.smallest_modulus
    moduli = tuples = 0
    for m in range(12, sweep.modulus_bound + 1, 12):
        pending = sum(1 for b in best if b is None or b >= m)
        if not pending:
            break
        moduli += 1
        tuples += pending * (m // 12) * m * m
    return {"moduli": moduli, "tuples": tuples}


def _json_bytes(args, kwargs, text):
    return {"bytes": len(text.encode())}


def _verify_kind(args, kwargs, failures):
    doc = args[0]
    return {"kind": doc.get("kind") if isinstance(doc, dict) else None}


# (module, attribute, span name, observer).  Span names follow the module
# that defines the wrapped function; the module patched is the caller's.
PATCH_POINTS = (
    ("selli_cert.cli", "build_torsion_certificate", "certificates.build", None),
    ("selli_cert.cli", "build_dio_certificate", "certificates.build", None),
    ("selli_cert.cli", "canonical_json", "certificates.json", _json_bytes),
    ("selli_cert.cli", "verify_certificate", "verify", _verify_kind),
    ("selli_cert.certificates", "discriminant_profile", "family.profile", None),
    ("selli_cert.certificates", "y_candidates", "family.ybox", _ybox),
    ("selli_cert.certificates", "eliminate_points", "family.elim", None),
    ("selli_cert.family", "discriminant", "polyring.discriminant", None),
    ("selli_cert.family", "rational_roots", "polyring.rational_roots", None),
    ("selli_cert.verify", "discriminant_profile", "family.profile", None),
    ("selli_cert.verify", "rational_roots", "polyring.rational_roots", None),
    ("selli_cert.jacobian", "find_certificate_primes", "jacobian.scan", _scan),
    ("selli_cert.jacobian", "is_smooth_mod_p", "ffield.smooth", _smooth_cells),
    ("selli_cert.jacobian", "build_count_table", "ffield.count_table", None),
    ("selli_cert.jacobian", "l_polynomial_from_counts", "jacobian.lpoly", None),
    ("selli_cert.ffield", "count_affine", "ffield.count", _count_cells),
    ("selli_cert.ffield", "find_irreducible", "ffield.irreducible", None),
    ("selli_cert.certificates", "bounded_search", "diophantine.search", _search),
    ("selli_cert.certificates", "obstruction_sweep", "diophantine.sweep", _sweep),
    ("selli_cert.certificates", "qr_law_check", "diophantine.qr", None),
    ("selli_cert.verify", "bounded_search", "diophantine.search", _search),
    ("selli_cert.verify", "obstruction_sweep", "diophantine.sweep", _sweep),
    ("selli_cert.verify", "build_dio_certificate", "certificates.build", None),
)

# Spans whose calls also record the tracemalloc peak (numpy buffers included).
MEMORY_SPANS = frozenset({"ffield.count"})


def _wrapper(recorder: Recorder, name: str, fn, observe):
    memory = name in MEMORY_SPANS

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, observe, memory)

    return traced


@contextmanager
def installed(recorder: Recorder):
    """Install the span wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, name, observe in PATCH_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                recorder.absent.setdefault(name, f"module {module_name} not found")
                continue
            target = getattr(module, attr, None)
            if not callable(target):
                recorder.absent.setdefault(name, f"{module_name}.{attr} not found")
                continue
            saved.append((module, attr, target))
            setattr(module, attr, _wrapper(recorder, name, target, observe))
        yield recorder
    finally:
        for module, attr, target in reversed(saved):
            setattr(module, attr, target)


# ---- per-module metrics ----

# metric -> (unit, span names it needs)
LAYER_METRICS = {
    "ffield.count_s": ("s", ("ffield.count",)),
    "ffield.count_calls": ("count", ("ffield.count",)),
    "ffield.count_cells": ("count", ("ffield.count",)),
    "ffield.cells_per_s": ("1/s", ("ffield.count",)),
    "ffield.count_refused": ("count", ("ffield.count",)),
    "ffield.count_traced_peak_mb": ("MB", ("ffield.count",)),
    "ffield.smooth_s": ("s", ("ffield.smooth",)),
    "ffield.smooth_cells": ("count", ("ffield.smooth",)),
    "ffield.irreducible_s": ("s", ("ffield.irreducible",)),
    "jacobian.scan_s": ("s", ("jacobian.scan",)),
    "jacobian.primes_tried": ("count", ("jacobian.scan",)),
    "jacobian.primes_ok": ("count", ("jacobian.scan",)),
    "jacobian.primes_skipped_guard": ("count", ("jacobian.scan",)),
    "jacobian.primes_skipped_budget": ("count", ("jacobian.scan",)),
    "jacobian.useful_ratio": ("ratio", ("jacobian.scan",)),
    "jacobian.refused_work_s": ("s", ("ffield.count_table",)),
    "jacobian.lpoly_s": ("s", ("jacobian.lpoly",)),
    "family.ybox_s": ("s", ("family.ybox",)),
    "family.ybox_candidates": ("count", ("family.ybox",)),
    "family.elim_s": ("s", ("family.elim",)),
    "polyring.discriminant_s": ("s", ("polyring.discriminant",)),
    "polyring.discriminant_calls": ("count", ("polyring.discriminant",)),
    "polyring.rational_roots_s": ("s", ("polyring.rational_roots",)),
    "polyring.rational_roots_calls": ("count", ("polyring.rational_roots",)),
    "diophantine.search_s": ("s", ("diophantine.search",)),
    "diophantine.search_pairs": ("count", ("diophantine.search",)),
    "diophantine.sweep_s": ("s", ("diophantine.sweep",)),
    "diophantine.sweep_moduli": ("count", ("diophantine.sweep",)),
    "diophantine.sweep_tuples": ("count", ("diophantine.sweep",)),
    "diophantine.qr_s": ("s", ("diophantine.qr",)),
    "verify.torsion_s": ("s", ("verify",)),
    "verify.dio_s": ("s", ("verify",)),
    "verify.sweep_calls_per_cert": ("count", ("verify", "diophantine.sweep")),
    "verify.search_calls_per_cert": ("count", ("verify", "diophantine.search")),
    "certificates.build_self_s": ("s", ("certificates.build",)),
    "certificates.json_s": ("s", ("certificates.json",)),
    "certificates.json_bytes": ("count", ("certificates.json",)),
    "cli.self_s": ("s", ("cli",)),
}


def layer_metrics(recorder: Recorder) -> tuple[dict, dict]:
    """(values, absent) for LAYER_METRICS over every span in the recorder."""
    spans = recorder.spans
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def of(name):
        return named.get(name, [])

    def self_s(name):
        return sum(s.self_time for s in of(name))

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in of(name))

    def under_verify(span):
        parent = span.parent
        while parent is not None:
            p = by_id[parent]
            if p.name == "verify":
                return p
            parent = p.parent
        return None

    counts = [s for s in of("ffield.count") if "error" not in s.attrs]
    count_s = sum(s.self_time for s in counts)
    cells = sum(s.attrs.get("cells", 0) for s in counts)
    scans = of("jacobian.scan")
    tried = total("jacobian.scan", "tried")
    dio_verifies = [s for s in of("verify") if s.attrs.get("kind") == "diophantine-insolubility"]

    def per_dio_cert(name):
        n = sum(1 for s in of(name) if under_verify(s) in dio_verifies)
        return n / len(dio_verifies) if dio_verifies else 0.0

    values = {
        "ffield.count_s": self_s("ffield.count"),
        "ffield.count_calls": len(of("ffield.count")),
        "ffield.count_cells": cells,
        "ffield.cells_per_s": cells / count_s if count_s else 0.0,
        "ffield.count_refused": sum(
            1 for s in of("ffield.count") if s.attrs.get("error") == BudgetExceededError.__name__
        ),
        "ffield.count_traced_peak_mb": max(
            (s.attrs.get("traced_peak", 0) for s in of("ffield.count")), default=0
        ) / 2**20,
        "ffield.smooth_s": self_s("ffield.smooth"),
        "ffield.smooth_cells": total("ffield.smooth", "cells"),
        "ffield.irreducible_s": self_s("ffield.irreducible"),
        "jacobian.scan_s": self_s("jacobian.scan"),
        "jacobian.primes_tried": tried,
        "jacobian.primes_ok": total("jacobian.scan", "ok"),
        "jacobian.primes_skipped_guard": total("jacobian.scan", "guard"),
        "jacobian.primes_skipped_budget": total("jacobian.scan", "budget"),
        "jacobian.useful_ratio": total("jacobian.scan", "ok") / tried if scans and tried else 0.0,
        "jacobian.refused_work_s": sum(
            s.duration for s in of("ffield.count_table")
            if s.attrs.get("error") == BudgetExceededError.__name__
        ),
        "jacobian.lpoly_s": self_s("jacobian.lpoly"),
        "family.ybox_s": self_s("family.ybox"),
        "family.ybox_candidates": total("family.ybox", "candidates"),
        "family.elim_s": self_s("family.elim"),
        "polyring.discriminant_s": self_s("polyring.discriminant"),
        "polyring.discriminant_calls": len(of("polyring.discriminant")),
        "polyring.rational_roots_s": self_s("polyring.rational_roots"),
        "polyring.rational_roots_calls": len(of("polyring.rational_roots")),
        "diophantine.search_s": self_s("diophantine.search"),
        "diophantine.search_pairs": total("diophantine.search", "pairs"),
        "diophantine.sweep_s": self_s("diophantine.sweep"),
        "diophantine.sweep_moduli": total("diophantine.sweep", "moduli"),
        "diophantine.sweep_tuples": total("diophantine.sweep", "tuples"),
        "diophantine.qr_s": self_s("diophantine.qr"),
        "verify.torsion_s": sum(
            s.self_time for s in of("verify") if s.attrs.get("kind") == "torsion-triviality"
        ),
        "verify.dio_s": sum(s.self_time for s in dio_verifies),
        "verify.sweep_calls_per_cert": per_dio_cert("diophantine.sweep"),
        "verify.search_calls_per_cert": per_dio_cert("diophantine.search"),
        "certificates.build_self_s": self_s("certificates.build"),
        "certificates.json_s": self_s("certificates.json"),
        "certificates.json_bytes": total("certificates.json", "bytes"),
        "cli.self_s": self_s("cli"),
    }
    absent = {}
    for metric, (_, needs) in LAYER_METRICS.items():
        missing = [n for n in needs if n in recorder.absent]
        if missing:
            absent[metric] = "; ".join(recorder.absent[n] for n in missing)
            values.pop(metric, None)
    return values, absent
