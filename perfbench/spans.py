"""Arithmetic over measured latencies and traced spans.

A span is ``[id, parent, name, start, end, query_id, extra]`` with times in
seconds; ``parent`` is ``None`` for a root.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable, Sequence

Span = list  # [id, parent, name, start, end, query_id, extra]


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated as ``statistics.quantiles``
    does with ``method="inclusive"``; the median for ``q == 50``."""
    if not values:
        raise ValueError("percentile of no values")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[Any, float]:
    """Self time of every span, keyed by span id."""
    children: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - covered(children[span[0]], span[3], span[4])
        for span in spans
    }


#: Span name -> the layer metric its self time adds to.
LAYER_OF = {
    "dispatch": "dispatch.self_ms",
    "telemetry": "telemetry.observe_ms",
    "decode": "decode.ms",
    "admission": "admission.wait_ms",
    "snapshot": "snapshot.ms",
    "append": "append.ms",
    "parse": "parse.ms",
    "plan": "plan.ms",
    "plan.stats": "plan.stats_ms",
    "cache.probe": "cache.probe_ms",
    "cache.put": "cache.put_ms",
    "columnar": "columnar.build_ms",
    "evaluate": "evaluate.ms",
    "exec": "exec.parallel_ms",
    "materialise": "materialise.ms",
    "encode": "encode.ms",
}
TIME_LAYERS = ("socket.self_ms", *LAYER_OF.values())


def layer_table(
    spans: Sequence[Span], requests: Sequence[dict[str, Any]]
) -> dict[str, float]:
    """Per-layer figures over the measured ``requests``.

    Each request is ``{"query_id", "kind", "latency_s", "rows_returned",
    "null_stats"}`` as the client saw it.  Times are per-request means in
    ms; ``*_per_query`` figures are per query request; ``reconcile_err_ms``
    is the largest per-request gap between the client latency and socket
    time plus all self times.
    """
    by_query: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_query[span[5]].append(span)
    sums: dict[str, float] = defaultdict(float)
    worst_gap = 0.0
    choices: list[str] = []
    for request in requests:
        tree = by_query.get(request["query_id"], [])
        roots = [s for s in tree if s[1] is None]
        if len(roots) != 1 or roots[0][2] != "dispatch":
            raise ValueError(f"request {request['query_id']!r} has no single dispatch root")
        root = roots[0]
        if any(s[3] < root[3] or s[4] > root[4] for s in tree):
            raise ValueError(f"request {request['query_id']!r} has spans outside dispatch")
        latency_ms = request["latency_s"] * 1000.0
        accounted = socket_ms = latency_ms - (root[4] - root[3]) * 1000.0
        sums["socket.self_ms"] += socket_ms
        selfs = self_times(tree)
        by_id = {s[0]: s for s in tree}
        for span in tree:
            name, extra = span[2], span[6]
            sums[LAYER_OF[name]] += selfs[span[0]] * 1000.0
            accounted += selfs[span[0]] * 1000.0
            for key, value in extra.items():
                if key == "backend":
                    choices.append(value)
                elif key in ("pairs", "incidents"):
                    if not _inside_evaluation(span, by_id):
                        sums[f"{name}.{key}"] += value
                else:
                    sums[f"{name}.{key}"] += value
        worst_gap = max(worst_gap, abs(accounted - latency_ms))
        sums["materialise.returned"] += request["rows_returned"]
        sums["exec.null_stats_count"] += request["null_stats"]
    n = max(1, len(requests))
    queries = max(1, sum(r["kind"] == "query" for r in requests))
    table = {name: sums[name] / n for name in TIME_LAYERS}
    for name in ("snapshot.records", "append.records", "encode.bytes"):
        table[name] = sums[name] / n
    table["columnar.builds_per_query"] = sums["columnar.builds"] / queries
    table["evaluate.pairs_per_query"] = (
        sums["evaluate.pairs"] + sums["exec.pairs"]
    ) / queries
    table["evaluate.incidents_per_query"] = (
        sums["evaluate.incidents"] + sums["exec.incidents"]
    ) / queries
    table["exec.process_share"] = (
        choices.count("process") / len(choices) if choices else 0.0
    )
    table["exec.null_stats_count"] = sums["exec.null_stats_count"]
    built = sums["materialise.rows"]
    table["materialise.useful_ratio"] = sums["materialise.returned"] / built if built else 0.0
    table["trace.reconcile_err_ms"] = worst_gap
    return table


def _inside_evaluation(span: Span, by_id: dict[Any, Span]) -> bool:
    """Whether an evaluation span sits below another evaluation span, whose
    pairs and incidents already include its own."""
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[2] in ("evaluate", "exec") and "pairs" in parent[6]:
            return True
        parent = by_id.get(parent[1])
    return False
