"""Start the daemon with timing wrappers around each layer's public callables.

Usage, with ``src`` on ``PYTHONPATH``::

    python trace_launcher.py [--spans PATH] [--snapshot-sleep-ms MS] -- serve ...

The wrappers replace each callable where its callers look it up, then
``repro.cli.main(["serve", ...])`` runs exactly as the plain daemon does.
Spans stay in memory and are written to ``PATH`` as JSON when the daemon
shuts down.  Only spans inside ``QueryService.dispatch`` on the request's
own thread are kept; each carries the request's ``X-Query-Id``.

``--snapshot-sleep-ms`` without ``--spans`` installs a single wrapper that
sleeps inside ``LogStore.snapshot``: the injected slowdown the benchmark's
own tests use to show that the gate catches a regression.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable


class Recorder:
    """In-memory spans of the requests in flight, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        extra: Callable[..., dict[str, Any]] | None = None,
        *,
        root: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``extra(result, *args)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            if root:
                state.request = []
            elif state.request is None:
                return fn(*args, **kwargs)
            span = [next(self._ids), state.stack[-1][0] if state.stack else None,
                    name, 0.0, 0.0, None, {}]
            state.request.append(span)
            state.stack.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                state.stack.pop()
            if extra is not None:
                span[6] = extra(result, *args)
            if root:
                query_id = result.headers.get("X-Query-Id")
                for member in state.request:
                    member[5] = query_id
                self.spans.extend(state.request)
                state.request = None
            return result

        return wrapper

    def timed_enter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a context-manager factory so that only entering is timed."""
        timed_enter = self.timed(name, lambda cm: cm.__enter__())

        class _Entered:
            def __init__(self, cm: Any) -> None:
                self.cm = cm

            def __enter__(self) -> Any:
                return timed_enter(self.cm)

            def __exit__(self, *exc: Any) -> Any:
                return self.cm.__exit__(*exc)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _Entered(fn(*args, **kwargs))

        return wrapper


def _patch(owner: Any, attr: str, make: Callable[[Callable[..., Any]], Any]) -> None:
    """Replace ``owner.attr`` by ``make(original function)``, keeping it a
    classmethod when it was one."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _engine_counts(result: Any, engine: Any, *args: Any) -> dict[str, Any]:
    stats = getattr(engine, "last_stats", None)
    counts = {"pairs": 0 if stats is None else stats.pairs_examined}
    if hasattr(result, "__len__"):
        counts["incidents"] = len(result)
    elif isinstance(result, int) and not isinstance(result, bool):
        counts["incidents"] = result
    return counts


def _executor_counts(result: Any, executor: Any, *args: Any) -> dict[str, Any]:
    last = getattr(executor, "last_result", None)
    stats = None if last is None else last.stats
    return {
        "pairs": 0 if stats is None else stats.pairs_examined,
        "incidents": 0 if last is None else last.count,
    }


def _engine_classes() -> list[type]:
    import repro.columnar.sqlite  # noqa: F401 - registers SqliteEngine
    import repro.core.eval.naive  # noqa: F401
    import repro.core.eval.vectorized  # noqa: F401
    import repro.exec.batch  # noqa: F401 - registers SharedScanEngine
    from repro.core.eval.base import Engine

    found, todo = [], [Engine]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install_layers(rec: Recorder, snapshot_sleep_s: float) -> None:
    import repro.core.query as query_module
    import repro.service.handlers as handlers
    from repro.cache.manager import QueryCache
    from repro.columnar.column_log import ColumnarLog
    from repro.core.incident import IncidentSet
    from repro.core.optimizer.cost import DispatchCostModel, LogStatistics
    from repro.core.query import Query
    from repro.exec.parallel import ParallelExecutor
    from repro.logstore.store import LogStore
    from repro.obs.live import WindowedAggregator
    from repro.service.admission import AdmissionController
    from repro.service.catalog import StoreCatalog
    from repro.service.config import ServiceConfig

    _patch(handlers.QueryService, "dispatch", lambda f: rec.timed("dispatch", f, root=True))
    _patch(WindowedAggregator, "observe_request", lambda f: rec.timed("telemetry", f))
    for name in ("decode_json_body", "parse_query_request", "parse_append_request"):
        _patch(handlers, name, lambda f: rec.timed("decode", f))
    _patch(ServiceConfig, "clamp", lambda f: rec.timed("decode", f))
    _patch(AdmissionController, "slot", lambda f: rec.timed_enter("admission", f))
    _patch(StoreCatalog, "snapshot", lambda f: rec.timed("snapshot", f))
    _patch(
        LogStore,
        "snapshot",
        lambda f: rec.timed(
            "snapshot", _slowed(f, snapshot_sleep_s), lambda log, *a: {"records": len(log)}
        ),
    )
    _patch(
        StoreCatalog,
        "append_batch",
        lambda f: rec.timed("append", f, lambda out, _, name, ops: {"records": len(ops)}),
    )
    _patch(query_module, "parse", lambda f: rec.timed("parse", f))
    _patch(Query, "plan", lambda f: rec.timed("plan", f))
    _patch(LogStatistics, "from_log", lambda f: rec.timed("plan.stats", f))
    for name in ("result_key", "get_result"):
        _patch(QueryCache, name, lambda f: rec.timed("cache.probe", f))
    _patch(QueryCache, "put_result", lambda f: rec.timed("cache.put", f))
    _patch(ColumnarLog, "from_log", lambda f: rec.timed("columnar", f, lambda *a: {"builds": 1}))
    for cls in _engine_classes():
        for name in ("evaluate", "count", "exists"):
            if name in cls.__dict__:
                _patch(cls, name, lambda f: rec.timed("evaluate", f, _engine_counts))
    for name in ("evaluate", "count"):
        _patch(ParallelExecutor, name, lambda f: rec.timed("exec", f, _executor_counts))
    _patch(
        DispatchCostModel,
        "choose_backend",
        lambda f: rec.timed("exec", f, lambda backend, *a: {"backend": backend}),
    )
    _patch(
        IncidentSet,
        "to_rows",
        lambda f: rec.timed("materialise", f, lambda rows, *a: {"rows": len(rows)}),
    )
    _patch(
        handlers.ServiceResponse,
        "body",
        lambda f: rec.timed("encode", f, lambda body, *a: {"bytes": len(body)}),
    )


def _slowed(fn: Callable[..., Any], delay_s: float) -> Callable[..., Any]:
    if delay_s <= 0:
        return fn

    @functools.wraps(fn)
    def slowed(*args: Any, **kwargs: Any) -> Any:
        time.sleep(delay_s)
        return fn(*args, **kwargs)

    return slowed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--snapshot-sleep-ms", type=float, default=0.0)
    parser.add_argument("serve", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve = args.serve[1:] if args.serve[:1] == ["--"] else args.serve
    from repro.cli import main as cli_main
    from repro.logstore.store import LogStore

    rec = Recorder()
    sleep_s = args.snapshot_sleep_ms / 1000.0
    if args.spans is not None:
        install_layers(rec, sleep_s)
    else:
        _patch(LogStore, "snapshot", lambda f: _slowed(f, sleep_s))
    code = cli_main(serve)
    if args.spans is not None:
        args.spans.write_text(json.dumps(rec.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
