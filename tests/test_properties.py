"""Cross-cutting property-based tests (hypothesis).

These properties tie the subsystems together: any engine must agree with
the Definition 4 oracle on any log and pattern; serialization must be
lossless; incidents must satisfy their structural invariants; the
optimizer must never change results.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines.automaton import AutomatonBaseline, supports
from repro.baselines import SqlBaseline
from repro.core.eval.indexed import IndexedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.optimizer import Optimizer
from repro.core.parser import parse
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Sequential,
    to_text,
)
from repro.logstore.io_csv import read_csv, write_csv
from repro.logstore.io_jsonl import dumps, loads

import io

ALPHABET = ("A", "B", "C")


def atoms():
    return st.builds(Atomic, st.sampled_from(ALPHABET), st.booleans())


def patterns(max_leaves=4):
    return st.recursive(
        atoms(),
        lambda children: st.builds(
            lambda cls, l, r: cls(l, r),
            st.sampled_from((Consecutive, Sequential, Choice, Parallel)),
            children,
            children,
        ),
        max_leaves=max_leaves,
    )


@st.composite
def logs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    traces = {
        wid: [
            draw(st.sampled_from(ALPHABET + ("Z",)))
            for __ in range(draw(st.integers(min_value=1, max_value=6)))
        ]
        for wid in range(1, n + 1)
    }
    return Log.from_traces(traces, interleave=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(logs(), patterns())
def test_all_engines_agree_with_the_oracle(log, pattern):
    expected = reference_incidents(log, pattern)
    assert NaiveEngine().evaluate(log, pattern) == expected
    assert IndexedEngine().evaluate(log, pattern) == expected
    assert SqlBaseline().evaluate(log, pattern) == expected
    if supports(pattern):
        assert AutomatonBaseline().evaluate(log, pattern) == expected


@settings(max_examples=60, deadline=None)
@given(logs(), patterns())
def test_exists_is_consistent_with_evaluate(log, pattern):
    expected = bool(reference_incidents(log, pattern))
    assert IndexedEngine().exists(log, pattern) == expected
    assert NaiveEngine().exists(log, pattern) == expected


@settings(max_examples=50, deadline=None)
@given(logs(), patterns())
def test_optimizer_preserves_results(log, pattern):
    plan = Optimizer.for_log(log).optimize(pattern)
    assert reference_incidents(log, plan.optimized) == reference_incidents(
        log, pattern
    )


@settings(max_examples=50, deadline=None)
@given(logs(), patterns())
def test_incident_structural_invariants(log, pattern):
    for incident in reference_incidents(log, pattern):
        positions = [r.is_lsn for r in incident.records]
        assert incident.first == min(positions)
        assert incident.last == max(positions)
        assert len({r.wid for r in incident.records}) == 1
        assert all(record in log for record in incident)


@settings(max_examples=50, deadline=None)
@given(patterns(max_leaves=5))
def test_pattern_text_roundtrip(pattern):
    assert parse(to_text(pattern)) == pattern


@settings(max_examples=30, deadline=None)
@given(logs())
def test_jsonl_roundtrip(log):
    assert loads(dumps(log)) == log


@settings(max_examples=30, deadline=None)
@given(logs())
def test_csv_roundtrip(log):
    buffer = io.StringIO()
    write_csv(log, buffer)
    buffer.seek(0)
    assert read_csv(buffer) == log


@settings(max_examples=40, deadline=None)
@given(logs(), patterns(max_leaves=3), patterns(max_leaves=3))
def test_choice_is_union_and_parallel_is_symmetric(log, p1, p2):
    inc1 = reference_incidents(log, p1).to_set()
    inc2 = reference_incidents(log, p2).to_set()
    assert reference_incidents(log, Choice(p1, p2)).to_set() == inc1 | inc2
    assert reference_incidents(log, Parallel(p1, p2)) == reference_incidents(
        log, Parallel(p2, p1)
    )


@settings(max_examples=40, deadline=None)
@given(logs(), patterns(max_leaves=3), patterns(max_leaves=3))
def test_consecutive_incidents_are_sequential_incidents(log, p1, p2):
    """⊙ strengthens ⊳: every consecutive incident is a sequential one."""
    consecutive = reference_incidents(log, Consecutive(p1, p2)).to_set()
    sequential = reference_incidents(log, Sequential(p1, p2)).to_set()
    assert consecutive <= sequential


@settings(max_examples=40, deadline=None)
@given(logs(), patterns(max_leaves=4))
def test_incremental_matches_batch(log, pattern):
    from repro.core.eval.incremental import IncrementalEvaluator

    evaluator = IncrementalEvaluator(pattern)
    evaluator.extend(log)
    assert evaluator.incidents() == reference_incidents(log, pattern)


@st.composite
def chain_patterns(draw):
    """Chains of (possibly negated) atoms joined by ⊙/⊳ — the counting
    DP's supported fragment."""
    length = draw(st.integers(min_value=1, max_value=4))
    pattern = draw(atoms())
    for __ in range(length - 1):
        op = draw(st.sampled_from((Consecutive, Sequential)))
        pattern = op(pattern, draw(atoms()))
    return pattern


@settings(max_examples=60, deadline=None)
@given(logs(), chain_patterns())
def test_counting_dp_matches_materialisation(log, pattern):
    from repro.core.eval.counting import count_incidents

    assert count_incidents(log, pattern) == len(
        reference_incidents(log, pattern)
    )
