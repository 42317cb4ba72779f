"""Span recording around the public calls into each layer, for the traced run.

Wrappers are installed on the classes for the duration of the traced run and
removed afterwards; the program itself carries no instrumentation.  Spans are
kept in memory and written out once the run ends.  Two splits would need a
private call and are not recorded here: y-fast routing against its bucket
bisect, and the self time of ``WorkingSetLayered._promote``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator, Optional

import numpy as np

from predsearch import HashFront, XFastTrie, YFastTrie

# span record fields
NAME, START, END, PARENT, TAG = range(5)

# (class, method, span name)
WRAPPED = (
    (XFastTrie, "__init__", "xfast.build"),
    (YFastTrie, "__init__", "yfast.build"),
    (YFastTrie, "predecessor", "yfast.predecessor"),
    (YFastTrie, "insert", "yfast.insert"),
    (YFastTrie, "delete", "yfast.delete"),
    (HashFront, "predecessor", "hashfront.predecessor"),
)


class Recorder:
    """In-memory spans; each is [name, start_ns, end_ns, parent_index, layer_tag]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.layer_of: dict[int, str] = {}   # id(cascade layer object) -> "L<j>"
        self.built_xfast: Optional[list[XFastTrie]] = None  # collects new tries while set

    def _wrap(self, name: str, fn):
        spans, open_, layer_of = self.spans, self._open, self.layer_of
        is_xfast_build = name == "xfast.build"

        def traced(obj, *args):
            span = [name, 0, 0, open_[-1] if open_ else -1, layer_of.get(id(obj))]
            open_.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                return fn(obj, *args)
            finally:
                span[END] = perf_counter_ns()
                open_.pop()
                if is_xfast_build and self.built_xfast is not None:
                    self.built_xfast.append(obj)

        return traced

    def call(self, name: str, fn, arg):
        """Run fn(arg) inside a top-level span of the given name."""
        span = [name, 0, 0, -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        try:
            return fn(arg)
        finally:
            span[END] = perf_counter_ns()
            self._open.pop()

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        saved = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in WRAPPED]
        try:
            for cls, attr, name in WRAPPED:
                setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
            yield self
        finally:
            for cls, attr, fn in saved:
                setattr(cls, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "layer": tag}) + "\n")


def p50(values) -> float:
    """Median, or 0 when the workload made no such call."""
    return float(np.percentile(values, 50)) if len(values) else 0.0


def _split(spans: list[list], first: int):
    """Span indices from ``first`` on, grouped by name, and direct-child time per parent."""
    by_name: dict[str, list[int]] = {}
    child_ns: dict[int, int] = {}
    for i in range(first, len(spans)):
        s = spans[i]
        by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] = child_ns.get(s[PARENT], 0) + s[END] - s[START]
    return by_name, child_ns


def build_metrics(spans: list[list]) -> dict[str, float]:
    """Split one traced construction by layer; spans[0] is its root."""
    by_name, child_ns = _split(spans, 0)
    dur = lambda i: spans[i][END] - spans[i][START]  # noqa: E731
    xb = by_name.get("xfast.build", [])
    return {
        "xfast.build_calls": float(len(xb)),
        "xfast.build_s": sum(map(dur, xb)) / 1e9,
        "yfast.build_s": sum(map(dur, by_name.get("yfast.build", []))) / 1e9,
        "build.self_s": (dur(0) - child_ns.get(0, 0)) / 1e9,
    }


def query_metrics(spans: list[list], first: int, num_layers: int, ws: bool) -> dict[str, float]:
    """Per-layer figures for the query spans recorded from index ``first`` on.

    Roots are the benchmark's own ``query`` spans.  A cascade layer's probe is
    a ``yfast.predecessor`` span tagged with its layer.  Self time is a span's
    duration minus the durations of its direct children.
    """
    by_name, child_ns = _split(spans, first)
    dur = lambda i: spans[i][END] - spans[i][START]  # noqa: E731
    roots = by_name["query"]
    nq = len(roots)

    probed: dict[int, int] = {}
    layer_ns: dict[str, list[int]] = {}
    for i in by_name.get("yfast.predecessor", []):
        tag = spans[i][TAG]
        if tag is not None:
            parent = spans[i][PARENT]
            probed[parent] = probed.get(parent, 0) + 1
            layer_ns.setdefault(tag, []).append(dur(i))
    layers_probed = [probed.get(i, 0) for i in roots]

    hf = by_name.get("hashfront.predecessor", [])
    hits = [dur(i) for i in hf if i not in child_ns]   # a miss calls the y-fast fallback
    misses = [dur(i) for i in hf if i in child_ns]

    def calls(name: str) -> list[int]:
        return by_name.get(name, [])

    m = {
        "xfast.build_calls_per_query": len(calls("xfast.build")) / nq,
        "yfast.predecessor_calls_per_query": len(calls("yfast.predecessor")) / nq,
        "yfast.predecessor_ns_p50": p50([dur(i) for i in calls("yfast.predecessor")]),
        "yfast.insert_calls_per_query": len(calls("yfast.insert")) / nq,
        "yfast.insert_ns_p50": p50([dur(i) for i in calls("yfast.insert")]),
        "yfast.delete_calls_per_query": len(calls("yfast.delete")) / nq,
        "yfast.delete_ns_p50": p50([dur(i) for i in calls("yfast.delete")]),
        "hashfront.hit_rate": len(hits) / len(hf) if hf else 0.0,
        "hashfront.hit_ns_p50": p50(hits),
        "hashfront.miss_ns_p50": p50(misses),
        "layered.layers_probed_mean": sum(layers_probed) / nq,
        "layered.layers_probed_p99": float(np.percentile(layers_probed, 99)),
        "layered.last_layer_share":
            sum(k == num_layers for k in layers_probed) / nq if num_layers else 0.0,
        "layered.scan_self_ns":
            p50([dur(i) - child_ns.get(i, 0) for i in roots]) if num_layers else 0.0,
        "layered_ws.front_share": sum(k == 1 for k in layers_probed) / nq if ws else 0.0,
        "layered_ws.scan_ns_per_query": sum(map(sum, layer_ns.values())) / nq if ws else 0.0,
        "layered_ws.update_ns_per_query":
            sum(dur(i) for i in calls("yfast.insert") + calls("yfast.delete")) / nq if ws else 0.0,
        "traced_query_ns_p50": p50([dur(i) for i in roots]),
    }
    for j in range(4):
        m[f"layered.layer_ns_p50.L{j}"] = p50(layer_ns.get(f"L{j}", []))
    return m
