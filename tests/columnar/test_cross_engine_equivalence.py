"""Cross-engine equivalence: naive ≡ indexed ≡ vectorized ≡ sqlite ≡ sql.

The acceptance sweep for the columnar log core: on ≥200 seeded random
pattern/log pairs every engine — object-row naive and indexed, columnar
vectorized, and the one SQL compiler under both of its schemas (the
interned pushdown and the text ETL baseline) — must produce the *same
canonical incident rows* (``IncidentSet.to_rows()``, i.e. byte-for-byte once
serialised), and the vectorized engine must additionally report the
same work counters as the indexed engine it mirrors.
"""

import random

import pytest

from repro.baselines import SqlBaseline
from repro.columnar import SqliteEngine
from repro.core.algebra import random_logs
from repro.core.eval.indexed import IndexedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.incident import reference_incidents
from repro.core.pattern import random_pattern

ALPHABET = ("A", "B", "C", "D")
CASES = 220


def seeded_cases():
    """Deterministic (pattern, log) pairs: one random pattern over a small
    battery of random logs, cycled until ``CASES`` pairs exist."""
    logs = random_logs(
        ALPHABET, cases=20, max_instances=3, max_events=8, seed=101
    )
    rng = random.Random(7)
    pairs = []
    while len(pairs) < CASES:
        pattern = random_pattern(rng, ALPHABET, max_depth=4)
        for log in logs[: max(1, CASES // 20)]:
            pairs.append((pattern, log))
            if len(pairs) == CASES:
                break
    return pairs


CASE_LIST = seeded_cases()


def test_sweep_is_large_enough():
    assert len(CASE_LIST) >= 200


def test_engines_agree_on_seeded_sweep():
    naive, indexed = NaiveEngine(), IndexedEngine()
    vectorized, sqlite, sql = VectorizedEngine(), SqliteEngine(), SqlBaseline()
    for i, (pattern, log) in enumerate(CASE_LIST):
        reference = indexed.evaluate(log, pattern).to_rows()
        columnar = log.columnar()
        assert naive.evaluate(log, pattern).to_rows() == reference, (i, pattern)
        assert vectorized.evaluate(columnar, pattern).to_rows() == reference, (
            i,
            pattern,
        )
        assert sqlite.evaluate(columnar, pattern).to_rows() == reference, (
            i,
            pattern,
        )
        assert sql.evaluate(log, pattern).to_rows() == reference, (i, pattern)
        # the vectorized engine mirrors the indexed join algorithms, so
        # its work accounting is identical, not merely equivalent
        assert (
            vectorized.last_stats.pairs_examined
            == indexed.last_stats.pairs_examined
        ), (i, pattern)
        assert (
            vectorized.last_stats.incidents_produced
            == indexed.last_stats.incidents_produced
        ), (i, pattern)


@pytest.mark.parametrize("case_index", range(0, len(CASE_LIST), 37))
def test_spot_checks_against_the_oracle(case_index):
    """A thinner slice re-checked against the Definition 4 reference
    implementation, so the sweep is anchored to the paper semantics, not
    just to engine agreement."""
    pattern, log = CASE_LIST[case_index]
    oracle = reference_incidents(log, pattern)
    assert VectorizedEngine().evaluate(log, pattern) == oracle
    assert SqliteEngine().evaluate(log.columnar(), pattern) == oracle
    assert SqlBaseline().evaluate(log, pattern) == oracle


def test_exists_and_count_agree_across_engines():
    indexed, vectorized = IndexedEngine(), VectorizedEngine()
    sqlite, sql = SqliteEngine(), SqlBaseline()
    for pattern, log in CASE_LIST[:60]:
        columnar = log.columnar()
        expected_count = len(indexed.evaluate(log, pattern))
        assert vectorized.count(columnar, pattern) == expected_count
        assert indexed.exists(log, pattern) == (expected_count > 0)
        assert vectorized.exists(columnar, pattern) == (expected_count > 0)
        assert sqlite.exists(columnar, pattern) == (expected_count > 0)
        assert sql.exists(log, pattern) == (expected_count > 0)
