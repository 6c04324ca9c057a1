"""Spans around seqmatch's layer boundaries, for the traced in-process run.

Each wrapper replaces a public function at the name its caller looks it up
under (``seqmatch.retrieval.sinkhorn``, ``seqmatch.cli.read_dataset``, ...),
calls the original with the same arguments and returns its result
unchanged, so no code path changes. Spans are kept in memory; whatever a
span measures about its result (iterations, bytes) is taken after its end
time, outside the span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    attrs: dict | None


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _plan_attrs(plan, args, kwargs) -> dict:
    return {"iters": plan.iterations_used, "converged": plan.converged, "cells": plan.coupling.size}


def _build_attrs(paired, args, kwargs) -> dict:
    db = args[1] if len(args) > 1 else kwargs["db"]
    return {"segments": sum(e.demo.n_segments for e in paired.entries), "bank": len(db)}


def _written_attrs(result, args, kwargs) -> dict:
    return {"bytes": _dir_bytes(args[1] if len(args) > 1 else kwargs["path"])}


def _read_attrs(result, args, kwargs) -> dict:
    return {"bytes": _dir_bytes(args[0] if args else kwargs["path"])}


# (span name, module whose global the caller looks up, attribute, measure)
LAYERS = (
    ("synthgen.gen_benchmark", "seqmatch.cli", "gen_benchmark", None),
    ("data.write_dataset", "seqmatch.cli", "write_dataset", _written_attrs),
    ("data.read_dataset", "seqmatch.cli", "read_dataset", _read_attrs),
    ("data.dataset_content_hash", "seqmatch.cli", "dataset_content_hash", None),
    ("data.dataset_content_hash", "seqmatch.retrieval", "dataset_content_hash", None),
    ("ot.cost_matrix", "seqmatch.retrieval", "cost_matrix", None),
    ("ot.sinkhorn", "seqmatch.retrieval", "sinkhorn", _plan_attrs),
    ("tcc.tcc_distance", "seqmatch.retrieval", "tcc_distance", None),
    ("retrieval.build_paired_dataset", "seqmatch.cli", "build_paired_dataset", _build_attrs),
    ("retrieval.evaluate", "seqmatch.cli", "evaluate", None),
    ("retrieval.paired_from_json_dict", "seqmatch.cli", "paired_from_json_dict", None),
)

# Per-layer metrics that are counts of work: they must repeat exactly
# across traced passes of one seed.
COUNT_METRICS = (
    "data.write_dataset.mb",
    "data.read_dataset.mb",
    "data.dataset_content_hash.calls",
    "ot.cost_matrix.calls",
    "ot.sinkhorn.calls",
    "ot.sinkhorn.iters",
    "ot.sinkhorn.iters_max",
    "ot.sinkhorn.nonconverged",
    "ot.sinkhorn.cell_iters",
    "tcc.tcc_distance.calls",
    "retrieval.segments",
    "retrieval.pairs_ranked",
    "retrieval.pairs_solved",
)


class Tracer:
    """Collects spans from any thread; the parent is the innermost open span
    on the same thread, else on the main thread (the span that submitted the
    work to a pool)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = measure(result, args, kwargs) if measure and ok else None
                self.spans.append(Span(sid, name, parent, threading.get_ident(), start, end, attrs))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function in ``LAYERS`` for the duration of the block."""
        saved = []
        try:
            for name, module, attr, measure in LAYERS:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, measure))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _covered(inner: list[Span], lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    intervals = sorted((max(s.start, lo), min(s.end, hi)) for s in inner)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _self_time(outer: list[Span], spans: list[Span]) -> float:
    total = 0.0
    for o in outer:
        inner = [s for s in spans if s is not o and s.start >= o.start and s.end <= o.end]
        total += (o.end - o.start) - _covered(inner, o.start, o.end)
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time (summed over threads) and work counts of one traced pass.

    Command spans are named ``cli.<command>``. A layer with no spans reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    plans = [s.attrs for s in by_name.get("ot.sinkhorn", ()) if s.attrs]
    builds = [s.attrs for s in by_name.get("retrieval.build_paired_dataset", ()) if s.attrs]
    segments = sum(b["segments"] for b in builds)
    ranked = sum(b["segments"] * b["bank"] for b in builds)
    solved = calls("ot.sinkhorn") + calls("tcc.tcc_distance")
    build_s = busy("retrieval.build_paired_dataset")
    commands = [s for s in spans if s.name.startswith("cli.")]
    return {
        "cli.self_s": _self_time(commands, spans),
        "synthgen.gen_benchmark.s": busy("synthgen.gen_benchmark"),
        "data.write_dataset.s": busy("data.write_dataset"),
        "data.write_dataset.mb": sum(s.attrs["bytes"] for s in by_name.get("data.write_dataset", ()) if s.attrs) / 1e6,
        "data.read_dataset.s": busy("data.read_dataset"),
        "data.read_dataset.mb": sum(s.attrs["bytes"] for s in by_name.get("data.read_dataset", ()) if s.attrs) / 1e6,
        "data.dataset_content_hash.s": busy("data.dataset_content_hash"),
        "data.dataset_content_hash.calls": calls("data.dataset_content_hash"),
        "ot.cost_matrix.s": busy("ot.cost_matrix"),
        "ot.cost_matrix.calls": calls("ot.cost_matrix"),
        "ot.sinkhorn.s": busy("ot.sinkhorn"),
        "ot.sinkhorn.calls": calls("ot.sinkhorn"),
        "ot.sinkhorn.iters": sum(p["iters"] for p in plans),
        "ot.sinkhorn.iters_max": max((p["iters"] for p in plans), default=0),
        "ot.sinkhorn.nonconverged": sum(not p["converged"] for p in plans),
        "ot.sinkhorn.cell_iters": sum(p["cells"] * p["iters"] for p in plans),
        "tcc.tcc_distance.s": busy("tcc.tcc_distance"),
        "tcc.tcc_distance.calls": calls("tcc.tcc_distance"),
        "retrieval.build_paired_dataset.s": build_s,
        "retrieval.self_s": _self_time(by_name.get("retrieval.build_paired_dataset", []), spans),
        "retrieval.segments": segments,
        "retrieval.pairs_ranked": ranked,
        "retrieval.pairs_solved": solved,
        "retrieval.solved_frac": solved / ranked if ranked else 0.0,
        "retrieval.pairs_per_s": ranked / build_s if build_s else 0.0,
        "retrieval.evaluate.s": busy("retrieval.evaluate"),
        "retrieval.paired_from_json_dict.s": busy("retrieval.paired_from_json_dict"),
    }
