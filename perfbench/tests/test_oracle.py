"""The benchmark's own evaluation agrees with the paper's naive engine."""

import random

import oracle
import workload
from repro.core.eval.naive import NaiveEngine
from repro.core.model import Log, LogRecord
from repro.core.parser import parse


def _log(records):
    return Log([LogRecord(r.lsn, r.wid, r.is_lsn, r.activity, r.attrs_in, r.attrs_out)
                for r in records])


def test_oracle_matches_naive_engine_on_every_prefix_kind():
    rng = random.Random(11)
    records = workload.interleave(rng, 1, 40, 1)
    checker = oracle.Oracle(records)
    patterns = list(workload.MONITOR_PATTERNS)
    patterns += [workload.random_pattern(rng, 2 + i % 3) for i in range(150)]
    # the full log, and a prefix that cuts instances open mid-run
    for epoch in (len(records), len(records) // 2):
        log = _log(records[:epoch])
        for text in patterns:
            rows = NaiveEngine().evaluate(log, parse(text)).to_rows()
            expected = [(row["wid"], list(row["lsns"])) for row in rows]
            got = [(wid, [checker.lsns[wid][i - 1] for i in o])
                   for wid, o in checker.incidents(text, epoch)]
            assert got == expected, text


def test_parser_precedence():
    assert oracle.parse("A ; B -> C") == ("->", (";", ("atom", "A"), ("atom", "B")), ("atom", "C"))
    assert oracle.parse("A | B & C") == ("|", ("atom", "A"), ("&", ("atom", "B"), ("atom", "C")))
    assert oracle.parse("(A | B) ; C")[0] == ";"


def test_check_query_flags_a_wrong_count():
    records = workload.interleave(random.Random(3), 1, 10, 1)
    checker = oracle.Oracle(records)
    body = {"pattern": "GetRefer ; CheckIn", "mode": "count"}
    right = len(checker.incidents(body["pattern"], len(records)))
    assert checker.check_query(body, {"epoch": len(records), "count": right}) is None
    assert checker.check_query(body, {"epoch": len(records), "count": right + 1})
    assert checker.check_query(body, {"epoch": len(records) + 1, "count": right})
