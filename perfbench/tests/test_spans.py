"""Percentile, self-time and reconciliation arithmetic on synthetic spans."""

import statistics

import pytest

from spans import covered, layer_table, percentile, self_times


def test_percentile_median_and_tail():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == statistics.median(values) == 50.5
    assert percentile(values, 95) == pytest.approx(95.05)
    assert percentile([3.0], 95) == 3.0
    assert percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def _span(sid, parent, name, start, end, extra=None, qid="q1"):
    return [sid, parent, name, start, end, qid, extra or {}]


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, None, "dispatch", 0.0, 10.0),
        _span(2, 1, "snapshot", 1.0, 4.0),
        _span(3, 1, "evaluate", 5.0, 9.0),
        _span(4, 3, "evaluate", 6.0, 7.0),
    ]
    assert self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    assert sum(self_times(spans).values()) == 10.0


def test_layer_table_reconciles_with_client_latency():
    spans = [
        _span(1, None, "dispatch", 0.000, 0.010),
        _span(2, 1, "snapshot", 0.001, 0.004, {"records": 100}),
        _span(3, 1, "evaluate", 0.005, 0.009, {"pairs": 40, "incidents": 4}),
        _span(4, 3, "evaluate", 0.006, 0.007, {"pairs": 40, "incidents": 4}),
        _span(5, 1, "materialise", 0.0095, 0.0098, {"rows": 4}),
    ]
    requests = [{"query_id": "q1", "kind": "query", "latency_s": 0.050,
                 "rows_returned": 2, "null_stats": 0}]
    table = layer_table(spans, requests)
    assert table["socket.self_ms"] == pytest.approx(40.0)
    assert table["snapshot.ms"] == pytest.approx(3.0)
    assert table["evaluate.ms"] == pytest.approx(4.0)
    assert table["snapshot.records"] == 100
    # the nested engine call's pairs are already in its caller's figure
    assert table["evaluate.pairs_per_query"] == 40
    assert table["materialise.useful_ratio"] == 0.5
    total = sum(table[name] for name in table if name.endswith(("self_ms", ".ms", "_ms"))
                and not name.startswith("trace."))
    assert total == pytest.approx(50.0)
    assert table["trace.reconcile_err_ms"] < 1e-9


def test_layer_table_rejects_spans_outside_dispatch():
    spans = [_span(1, None, "dispatch", 0.0, 0.010), _span(2, 1, "encode", 0.009, 0.012)]
    requests = [{"query_id": "q1", "kind": "query", "latency_s": 0.02,
                 "rows_returned": 0, "null_stats": 0}]
    with pytest.raises(ValueError):
        layer_table(spans, requests)
    with pytest.raises(ValueError):
        layer_table(spans[1:], requests)
