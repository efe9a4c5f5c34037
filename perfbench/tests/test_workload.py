"""Seeded inputs: the same seed gives the same workload, and it is well formed."""

from pathlib import Path

import workload


def test_same_seed_same_inputs_and_other_seed_differs():
    for name in workload.WORKLOADS:
        a, b = workload.build(name, 7, 2), workload.build(name, 7, 2)
        assert a.store_records == b.store_records and a.requests == b.requests
        assert workload.build(name, 8, 2).store_records != a.store_records


def test_store_and_appends_form_one_valid_log():
    w = workload.build("live-ingest", 1, 2)
    records = w.store_records + w.appended
    assert [r.lsn for r in records] == list(range(1, len(records) + 1))
    seen: dict[int, int] = {}
    for r in records:
        seen[r.wid] = seen.get(r.wid, 0) + 1
        assert r.is_lsn == seen[r.wid]
        assert (r.activity == "START") == (r.is_lsn == 1)
    assert min(r.wid for r in w.appended) > max(r.wid for r in w.store_records)
    appended = sum(len(body["records"]) for kind, body in w.requests if kind == "append")
    assert appended == len(w.appended)


def test_adhoc_patterns_never_repeat():
    w = workload.build("adhoc-scan", 3, 5)
    patterns = [body["pattern"] for kind, body in w.warmup + w.requests if kind == "query"]
    assert len(set(patterns)) == len(patterns)
    assert all(body["options"] == {"jobs": 2} for kind, body in w.requests if kind == "query")


def test_generator_and_oracle_do_not_import_the_program():
    import oracle

    for module in (workload, oracle):
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert "import repro" not in source and "from repro" not in source
