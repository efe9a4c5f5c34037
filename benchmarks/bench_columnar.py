"""Experiment C1 — columnar core: vectorized speedup and exactness.

The acceptance claim of the columnar PR: on the ``scaling`` reference
workload (the clinic log at 100 instances, seed 3, with the three-step
chain of ``scaling.chain``) the vectorized engine is **at least 2×
faster** than the indexed engine while producing **byte-for-byte
identical** incidents and identical evaluation statistics — the join
algorithms are unchanged, only the representation is columnar.

Also asserted unconditionally, on every run:

* byte-for-byte equality of the sqlite pushdown engine against both
  in-process engines on the same workload;
* round-trip fidelity ``ColumnarLog.from_log(log).to_log() == log``.

A ``BENCH_columnar.json`` artifact records the timing series (path via
``REPRO_BENCH_COLUMNAR``, default: current directory).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.columnar import ColumnarLog, SqliteEngine
from repro.core.eval.indexed import IndexedEngine
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.model import Log
from repro.core.parser import parse
from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.models import clinic_referral_workflow

PATTERN_TEXT = "GetRefer -> UpdateRefer -> GetReimburse"
#: The PR's gate, deliberately below the typically observed ~3x so the
#: assertion measures the representation, not one machine's scheduler.
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def scaling_log() -> Log:
    """The ``scaling.chain`` reference workload."""
    engine = WorkflowEngine(clinic_referral_workflow())
    return engine.run(SimulationConfig(instances=100, seed=3))


def _timed(fn, repeats: int = 30) -> tuple[float, object]:
    """Best-of-N wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_round_trip_is_exact(scaling_log: Log) -> None:
    assert ColumnarLog.from_log(scaling_log).to_log() == scaling_log


def test_vectorized_speedup_and_exactness(scaling_log: Log) -> None:
    pattern = parse(PATTERN_TEXT)
    columnar = scaling_log.columnar()
    indexed = IndexedEngine()
    vectorized = VectorizedEngine()

    indexed_s, reference = _timed(lambda: indexed.evaluate(scaling_log, pattern))
    vectorized_s, candidate = _timed(lambda: vectorized.evaluate(columnar, pattern))

    # byte-for-byte identity, not just set equality
    assert candidate.to_rows() == reference.to_rows()
    # identical work accounting: the joins are the same algorithms
    assert vectorized.last_stats is not None and indexed.last_stats is not None
    assert (
        vectorized.last_stats.pairs_examined == indexed.last_stats.pairs_examined
    )
    assert (
        vectorized.last_stats.operator_evals == indexed.last_stats.operator_evals
    )

    speedup = indexed_s / vectorized_s
    document = {
        "experiment": "columnar",
        "pattern": PATTERN_TEXT,
        "instances": 100,
        "indexed_s": indexed_s,
        "vectorized_s": vectorized_s,
        "speedup": speedup,
        "incidents": len(reference),
    }
    out_dir = os.environ.get("REPRO_BENCH_COLUMNAR", ".")
    path = os.path.join(out_dir, "BENCH_columnar.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized {vectorized_s * 1e3:.3f}ms vs indexed "
        f"{indexed_s * 1e3:.3f}ms: speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )


def test_sqlite_pushdown_matches_in_process(scaling_log: Log) -> None:
    pattern = parse(PATTERN_TEXT)
    columnar = scaling_log.columnar()
    reference = IndexedEngine().evaluate(scaling_log, pattern)
    pushed = SqliteEngine().evaluate(columnar, pattern)
    assert pushed.to_rows() == reference.to_rows()
