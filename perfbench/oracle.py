"""The benchmark's own answers: the paper's naive evaluation, per instance.

Patterns are parsed with the paper's precedence (``;`` and ``->`` bind
tightest, then ``&``, then ``|``) and evaluated by post-order traversal of
the pattern tree over one workflow instance at a time, each operator by
pairwise iteration over its operands' incident sets (Algorithms 1-3).
Incidents are sorted tuples of instance positions (``is_lsn``); two records
of one instance compare the same way by ``lsn`` and by ``is_lsn``.

Nothing here imports ``repro``, so the check stays independent of the code
it checks.
"""

from __future__ import annotations

import bisect
import re
from typing import Any, Iterable

_TOKEN = re.compile(r"\s*(->|[;|&()]|[A-Za-z_][A-Za-z0-9_]*)")

Node = tuple  # ("atom", name) or (op, left, right)
Incident = tuple  # sorted is_lsn positions


def parse(text: str) -> Node:
    tokens: list[str] = []
    at = 0
    text = text.rstrip()
    while at < len(text):
        match = _TOKEN.match(text, at)
        if match is None:
            raise ValueError(f"cannot parse {text!r} at {at}")
        tokens.append(match.group(1))
        at = match.end()
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def level(ops: tuple[str, ...], inner: Any) -> Any:
        def rule() -> Node:
            node = inner()
            while peek() in ops:
                op = take()
                node = (op, node, inner())
            return node

        return rule

    def primary() -> Node:
        token = take()
        if token == "(":
            node = choice()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return node
        return ("atom", token)

    choice = level(("|",), level(("&",), level((";", "->"), primary)))
    node = choice()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def evaluate(node: Node, activities: list[str]) -> set[Incident]:
    """``incL(p)`` of one instance; ``activities[i]`` is the record at
    ``is_lsn == i + 1``."""
    op = node[0]
    if op == "atom":
        return {(i,) for i, name in enumerate(activities, 1) if name == node[1]}
    left = evaluate(node[1], activities)
    right = evaluate(node[2], activities)
    if op == "|":
        return left | right
    out: set[Incident] = set()
    for o1 in left:
        for o2 in right:
            if op == ";":
                if o1[-1] + 1 == o2[0]:
                    out.add(o1 + o2)
            elif op == "->":
                if o1[-1] < o2[0]:
                    out.add(o1 + o2)
            elif not set(o1).intersection(o2):  # "&"
                out.add(tuple(sorted(o1 + o2)))
    return out


class Oracle:
    """Expected replies for a log that only ever grows by appends.

    ``records`` are the workload's records in lsn order (store, then
    appends).  ``answer(body, epoch)`` evaluates the query over the first
    ``epoch`` records; per-instance results are memoised on the instance's
    length, which is all that can change between epochs.
    """

    def __init__(self, records: Iterable[Any]) -> None:
        self.lsns: dict[int, list[int]] = {}
        self.activities: dict[int, list[str]] = {}
        self.first_lsn: list[tuple[int, int]] = []
        for r in records:
            if r.wid not in self.lsns:
                self.lsns[r.wid] = []
                self.activities[r.wid] = []
                self.first_lsn.append((r.lsn, r.wid))
            self.lsns[r.wid].append(r.lsn)
            self.activities[r.wid].append(r.activity)
        self.total = sum(len(v) for v in self.lsns.values())
        self._trees: dict[str, Node] = {}
        self._memo: dict[tuple[str, int, int], list[Incident]] = {}

    def incidents(self, pattern: str, epoch: int) -> list[tuple[int, Incident]]:
        """``(wid, incident)`` pairs in the daemon's canonical order."""
        tree = self._trees.get(pattern)
        if tree is None:
            tree = self._trees[pattern] = parse(pattern)
        out: list[tuple[int, Incident]] = []
        live = bisect.bisect_right(self.first_lsn, (epoch, float("inf")))
        for _, wid in sorted(self.first_lsn[:live], key=lambda item: item[1]):
            length = bisect.bisect_right(self.lsns[wid], epoch)
            key = (pattern, wid, length)
            found = self._memo.get(key)
            if found is None:
                found = sorted(
                    evaluate(tree, self.activities[wid][:length]),
                    key=lambda o: (o[0], o[-1], o),
                )
                self._memo[key] = found
            out.extend((wid, o) for o in found)
        return out

    def check_query(self, body: dict[str, Any], reply: dict[str, Any]) -> str | None:
        """None when ``reply`` is the right answer to ``body`` at the
        reply's epoch, else what is wrong."""
        epoch = reply.get("epoch")
        if not isinstance(epoch, int) or not 0 < epoch <= self.total:
            return f"reply epoch {epoch!r} outside 1..{self.total}"
        found = self.incidents(body["pattern"], epoch)
        mode = body["mode"]
        if mode == "exists":
            if reply.get("exists") is not bool(found):
                return f"exists {reply.get('exists')!r}, expected {bool(found)}"
            return None
        if reply.get("count") != len(found):
            return f"count {reply.get('count')!r}, expected {len(found)}"
        if mode == "instances":
            wids = sorted({wid for wid, _ in found})
            if reply.get("instances") != wids:
                return "instances differ"
        elif mode == "incidents":
            limit = body.get("limit")
            shown = found if limit is None else found[:limit]
            expected = [
                {
                    "wid": wid,
                    "first": o[0],
                    "last": o[-1],
                    "lsns": [self.lsns[wid][i - 1] for i in o],
                    "activities": [self.activities[wid][i - 1] for i in o],
                }
                for wid, o in shown
            ]
            if reply.get("incidents") != expected:
                return "incident rows differ"
            if reply.get("truncated") is not (len(shown) < len(found)):
                return "truncated flag wrong"
        return None
