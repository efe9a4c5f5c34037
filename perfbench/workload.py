"""Seeded inputs of the daemon benchmark: the store file and the request streams.

The generator mirrors the clinic-referral process of the paper's Example 2
(the activity names and branches of the repository's clinic workflow
model) but is written out here, with no import of ``repro``: a later change
to the simulator cannot change what the benchmark sends.

A log is a list of records ``(lsn, wid, is_lsn, activity, attrs_in,
attrs_out)`` in global order; ``lsn`` is the position in that order, so the
store at epoch ``e`` (the daemon bumps the epoch once per record) is the
first ``e`` records.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ACTIVITIES = (
    "GetRefer",
    "CheckIn",
    "SeeDoctor",
    "PayTreatment",
    "TakeTreatment",
    "UpdateRefer",
    "GetReimburse",
    "CompleteRefer",
    "TerminateRefer",
)

#: Activities that can occur up to ``MAX_VISITS`` times in one instance.
#: An ad-hoc pattern uses at most one of them, which bounds an instance's
#: incident count and so the spread of cost between ad-hoc requests.
REPEATED = frozenset({"SeeDoctor", "PayTreatment", "TakeTreatment", "UpdateRefer"})

HOSPITALS = ("Public Hospital", "People Hospital", "Union Hospital")
UPDATE_PROBABILITY = 0.35
TERMINATE_PROBABILITY = 0.1
VISIT_AGAIN = 0.55
MAX_VISITS = 4
PAY_PROBABILITY = 0.85
TAKE_PROBABILITY = 0.4

#: Instances executing at once while records are interleaved.
IN_FLIGHT = 16

#: Dashboard patterns of warm-read and live-ingest.
MONITOR_PATTERNS = (
    "UpdateRefer -> GetReimburse",
    "GetRefer ; CheckIn",
    "SeeDoctor ; PayTreatment ; TakeTreatment",
    "(GetReimburse ; CompleteRefer) | TerminateRefer",
    "PayTreatment & UpdateRefer",
    "CheckIn -> (UpdateRefer | TerminateRefer)",
)

OPERATORS = (";", "->", "|", "&")

#: Records per append request.
APPEND_BATCH = 8

#: The daemon's name for the store the workloads query.
STORE = "clinic"

# Request counts per second of --seconds, calibrated on a 2-CPU Xeon host so
# that one run measures about --seconds there.  The count is a function of
# --seconds only, never of the clock: both commits of a comparison do
# identical work and live-ingest's store ends at the same size.
WARM_CYCLES_PER_S = 0.62  # one cycle is the 24 dashboard requests
ADHOC_PER_S = 1.2
#: Distinct patterns sent before measuring, so that lazy imports and the
#: first process pool are not timed.
ADHOC_WARMUP = 2
INGEST_APPENDS_PER_S = 7  # each append is followed by one query
#: Appends after the measured queries of warm-read and adhoc-scan, so that
#: every workload reports append latency; no query follows them.
TAIL_APPENDS_PER_S = 4


@dataclass(frozen=True)
class Record:
    lsn: int
    wid: int
    is_lsn: int
    activity: str
    attrs_in: dict[str, Any]
    attrs_out: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(
            {
                "activity": self.activity,
                "attrs_in": self.attrs_in,
                "attrs_out": self.attrs_out,
                "is_lsn": self.is_lsn,
                "lsn": self.lsn,
                "wid": self.wid,
            },
            sort_keys=True,
        )


def clinic_trace(rng: random.Random) -> list[tuple[str, dict, dict]]:
    """One referral's activities with the attributes each reads and writes."""
    state: dict[str, Any] = {}
    trace: list[tuple[str, dict, dict]] = []

    def step(activity: str, reads: tuple[str, ...], writes: dict[str, Any]) -> None:
        attrs_in = {name: state[name] for name in reads if name in state}
        state.update(writes)
        trace.append((activity, attrs_in, writes))

    step(
        "GetRefer",
        (),
        {
            "hospital": rng.choice(HOSPITALS),
            "referId": f"{rng.randrange(16**5):05x}",
            "referState": "start",
            "balance": rng.choice((500, 1000, 2000, 5000, 8000)),
        },
    )
    step("CheckIn", ("referId", "referState", "balance"), {"referState": "active"})
    receipts = 0
    for visit in range(MAX_VISITS):
        if visit and rng.random() >= VISIT_AGAIN:
            break
        step("SeeDoctor", ("referId", "referState"), {})
        if rng.random() < PAY_PROBABILITY:
            receipts += 1
            step(
                "PayTreatment",
                ("referId", "referState"),
                {
                    f"receipt{receipts}": rng.randrange(60, 8000, 20),
                    f"receipt{receipts}State": "active",
                    "receiptCount": receipts,
                },
            )
            if rng.random() < TAKE_PROBABILITY:
                step("TakeTreatment", ("referId", "receiptCount"), {})
        if rng.random() < UPDATE_PROBABILITY:
            step(
                "UpdateRefer",
                ("referId", "referState", "balance"),
                {"balance": state["balance"] + rng.choice((1000, 2000, 3000))},
            )
    if rng.random() < 1.0 - TERMINATE_PROBABILITY:
        amount = sum(state.get(f"receipt{i}", 0) for i in range(1, receipts + 1))
        reimburse = min(amount, state["balance"])
        written: dict[str, Any] = {
            "amount": amount,
            "reimburse": reimburse,
            "balance": state["balance"] - reimburse,
        }
        for i in range(1, receipts + 1):
            written[f"receipt{i}State"] = "complete"
        step("GetReimburse", ("referState", "balance", "receiptCount"), written)
        step("CompleteRefer", ("referState", "balance"), {"referState": "complete"})
    else:
        step("TerminateRefer", ("referState",), {"referState": "terminated"})
    return trace


def interleave(
    rng: random.Random, first_wid: int, instances: int, first_lsn: int
) -> list[Record]:
    """Records of ``instances`` referrals, ``IN_FLIGHT`` of them running at
    once and a random running one stepping next; each is framed by its
    ``START`` and ``END`` records."""
    pending = [
        [("START", {}, {}), *clinic_trace(rng), ("END", {}, {})]
        for _ in range(instances)
    ]
    running: list[list[Any]] = []  # [wid, next index, steps]
    records: list[Record] = []
    launched = 0
    while launched < instances or running:
        while launched < instances and len(running) < IN_FLIGHT:
            running.append([first_wid + launched, 0, pending[launched]])
            launched += 1
        slot = rng.randrange(len(running))
        wid, index, steps = running[slot]
        activity, attrs_in, attrs_out = steps[index]
        records.append(
            Record(first_lsn + len(records), wid, index + 1, activity, attrs_in, attrs_out)
        )
        if index + 1 == len(steps):
            running.pop(slot)
        else:
            running[slot][1] = index + 1
    return records


def random_pattern(rng: random.Random, size: int) -> str:
    """A pattern of ``size`` clinic atoms joined by random operators, with at
    most one atom drawn from the repeatable activities."""
    atoms: list[str] = []
    while len(atoms) < size:
        name = rng.choice(ACTIVITIES)
        if name in REPEATED and any(a in REPEATED for a in atoms):
            continue
        atoms.append(name)
    terms = list(atoms)
    while len(terms) > 1:
        at = rng.randrange(len(terms) - 1)
        op = rng.choice(OPERATORS)
        terms[at : at + 2] = [f"({terms[at]} {op} {terms[at + 1]})"]
    return terms[0][1:-1]


@dataclass
class Workload:
    """Everything one run sends: the store file and the request stream."""

    name: str
    store_records: list[Record]
    #: ``("query", body)`` or ``("append", body)`` in sending order
    requests: list[tuple[str, dict[str, Any]]]
    #: requests sent, and checked, before measuring: warm-read's
    #: cache-filling pass and adhoc-scan's first process pools
    warmup: list[tuple[str, dict[str, Any]]]
    #: records the appends add, in order (their lsns continue the store's)
    appended: list[Record]

    @property
    def instances(self) -> int:
        return len({r.wid for r in self.store_records})

    def write_store(self, path: Path) -> None:
        path.write_text(
            "".join(r.to_json() + "\n" for r in self.store_records), encoding="utf-8"
        )


def _query(pattern: str, mode: str, **extra: Any) -> tuple[str, dict[str, Any]]:
    return ("query", {"log": STORE, "pattern": pattern, "mode": mode, **extra})


def _append_requests(records: list[Record]) -> list[tuple[str, dict[str, Any]]]:
    out = []
    for at in range(0, len(records), APPEND_BATCH):
        batch = []
        for r in records[at : at + APPEND_BATCH]:
            item: dict[str, Any] = {"activity": r.activity, "wid": r.wid}
            if r.activity not in ("START", "END"):
                item["attrs_in"] = r.attrs_in
                item["attrs_out"] = r.attrs_out
            batch.append(item)
        out.append(("append", {"records": batch}))
    return out


def adhoc_queries(count: int) -> list[tuple[str, dict[str, Any]]]:
    """The first ``count`` ad-hoc queries: distinct patterns, sizes cycling
    2-3-4 and modes count/incidents, each asking for ``jobs=2``.

    The stream has a fixed seed of its own, so that every ``--seed`` sends
    the same mix of patterns (in its own order, over its own store): the
    cost of single patterns varies widely, and a seeded draw of a few
    dozen of them moved the run's percentiles more than any bound allows.
    """
    rng = random.Random("adhoc-patterns")
    seen: set[str] = set()
    queries = []
    while len(queries) < count:
        size = 2 + len(queries) % 3
        mode = ("count", "incidents")[len(queries) // 3 % 2]
        pattern = random_pattern(rng, size)
        if pattern in seen:
            continue
        seen.add(pattern)
        extra: dict[str, Any] = {"options": {"jobs": 2}}
        if mode == "incidents":
            extra["limit"] = 100
        queries.append(_query(pattern, mode, **extra))
    return queries


def _more_records(rng: random.Random, store: list[Record], count: int) -> list[Record]:
    """The first ``count`` records of further referrals, numbered past
    ``store``; the last few instances are still open."""
    # every instance has at least six records (START ... END)
    instances = count // 6 + 1
    first_wid = max(r.wid for r in store) + 1
    return interleave(rng, first_wid, instances, len(store) + 1)[:count]


def build(name: str, seed: int, seconds: int) -> Workload:
    """The seeded inputs of workload ``name`` for a run of ``seconds``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "warm-read":
        store = interleave(rng, 1, 1000, 1)
        cycle = [
            _query(p, m, **({"limit": 50} if m == "incidents" else {}))
            for p in MONITOR_PATTERNS
            for m in ("count", "exists", "instances", "incidents")
        ]
        cycles = max(1, round(WARM_CYCLES_PER_S * seconds))
        requests, warmup = cycle * cycles, list(cycle)
    elif name == "adhoc-scan":
        store = interleave(rng, 1, 3000, 1)
        requests = adhoc_queries(ADHOC_WARMUP + round(ADHOC_PER_S * seconds))
        warmup, requests = requests[:ADHOC_WARMUP], requests[ADHOC_WARMUP:]
        rng.shuffle(requests)
    elif name == "live-ingest":
        store = interleave(rng, 1, 1000, 1)
        appends = INGEST_APPENDS_PER_S * seconds
        extra_records = _more_records(rng, store, appends * APPEND_BATCH)
        monitor = [
            _query(p, m) for p in MONITOR_PATTERNS for m in ("count", "exists", "instances")
        ]
        requests = []
        for i, append in enumerate(_append_requests(extra_records)):
            requests.append(append)
            requests.append(monitor[i % len(monitor)])
        return Workload(name, store, requests, [], extra_records)
    else:
        raise ValueError(f"unknown workload {name!r}")
    tail = _more_records(rng, store, TAIL_APPENDS_PER_S * seconds * APPEND_BATCH)
    return Workload(name, store, requests + _append_requests(tail), warmup, tail)


WORKLOADS = ("warm-read", "adhoc-scan", "live-ingest")
