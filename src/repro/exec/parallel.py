"""Parallel shard-fan-out evaluation.

:class:`ParallelExecutor` ties the subsystem together: it partitions a
log into wid-disjoint shards (:mod:`repro.exec.shard`), evaluates every
shard with a per-shard engine over an execution backend
(:mod:`repro.exec.backends` / :mod:`repro.exec.worker`), and merges the
per-shard outcomes into one result that is **byte-for-byte identical**
to a serial whole-log evaluation:

* *incidents* — shard logs keep original ``lsn`` values, so per-shard
  incidents have the same identity keys as their whole-log counterparts;
  the union, sorted in the canonical incident order
  (:attr:`~repro.core.incident.Incident.sort_key`), is exactly the serial
  :class:`~repro.core.incident.IncidentSet`;
* *statistics* — per-shard :class:`~repro.core.eval.base.EvaluationStats`
  fold together with :meth:`~repro.core.eval.base.EvaluationStats.merge`
  and publish **once** to the caller's metrics registry;
* *spans* — each worker traces its shard with a private tracer; the
  structurally matching trees merge via
  :func:`~repro.obs.tracer.merge_span_trees` and the single combined tree
  is adopted into the caller's tracer, so ``repro-logs profile`` and the
  exporters see the familiar serial shape.

Backend choice defaults to ``"auto"``: the
:class:`~repro.core.optimizer.cost.DispatchCostModel` compares the
estimated join work (:meth:`~repro.core.optimizer.cost.CostModel.plan_cost`)
with process-pool dispatch overhead and keeps cheap queries in-process.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.core.backend import Backend
from repro.core.errors import QueryGovernorError
from repro.core.eval.base import Engine, EvaluationStats
from repro.core.governor import CancelToken, QueryContext
from repro.core.incident import Incident, IncidentSet
from repro.core.model import Log
from repro.core.optimizer.cost import CostModel, DispatchCostModel, LogStatistics
from repro.core.pattern import Pattern
from repro.exec.backends import make_backend
from repro.exec.shard import Shard, ShardPlan, plan_shards
from repro.exec.worker import EngineConfig, ShardOutcome, ShardTask, evaluate_shard
from repro.logstore.store import LogStore
from repro.obs.journal import QueryJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer, merge_span_trees

__all__ = ["ParallelExecutor", "ParallelResult", "default_jobs"]


def default_jobs() -> int:
    """Worker count used when none is requested: one per CPU."""
    return os.cpu_count() or 1


def _source_statistics(source: Log | LogStore) -> LogStatistics:
    """Log statistics for either source kind, in one record pass."""
    counts: Counter = Counter()
    wids: set[int] = set()
    total = 0
    for record in source:
        counts[record.activity] += 1
        wids.add(record.wid)
        total += 1
    return LogStatistics(
        total_records=total, instance_count=len(wids), activity_counts=counts
    )


@dataclass(frozen=True)
class ParallelResult:
    """Merged outcome of one sharded evaluation.

    ``incidents`` is None for ``mode="count"`` runs (counting never
    materialises); ``span`` is None when the executor ran untraced.
    """

    incidents: IncidentSet | None
    count: int
    stats: EvaluationStats
    plan: ShardPlan
    backend: str
    jobs: int
    span: Span | None = None
    cache_layer: str | None = None

    def __repr__(self) -> str:
        return (
            f"ParallelResult({self.count} incident(s), backend={self.backend}, "
            f"jobs={self.jobs}, {len(self.plan)} shard(s))"
        )


class ParallelExecutor:
    """Evaluates patterns over wid-disjoint shards in parallel.

    Parameters
    ----------
    jobs:
        Worker count; defaults to the CPU count.
    backend:
        A :class:`~repro.core.backend.Backend` member or string value —
        one of :meth:`Backend.requestable()
        <repro.core.backend.Backend.requestable>` (``"auto"`` default).
        Auto consults the dispatch cost model per query and stays serial
        for plans too cheap to amortise a pool.
    strategy:
        Shard-partitioning strategy, ``"hash"`` (default) or ``"range"``.
    engine:
        Engine name (any :data:`~repro.core.query.ENGINES` key, or
        ``"incremental"``), an :class:`~repro.exec.worker.EngineConfig`,
        or an :class:`~repro.core.eval.base.Engine` instance (its name
        and budget are extracted; its tracer/metrics are *not* shipped to
        workers — pass them to the executor instead).
    max_incidents:
        Per-shard incident budget forwarded to every worker engine.
    tracer / metrics:
        Caller-side observability: the merged span tree is adopted into
        ``tracer``, the merged statistics publish once into ``metrics``.
    dispatch:
        Override the :class:`~repro.core.optimizer.cost.DispatchCostModel`
        used by ``backend="auto"``.
    progress:
        Optional per-shard completion hook, called in the calling thread
        as ``progress(done, total)`` each time a shard finishes.  The
        same events are published to ``metrics`` as the
        ``exec.shards_completed`` counter and ``exec.shards_total``
        gauge, so a registry alone is enough to observe a run.
    cache:
        Optional :class:`~repro.cache.manager.QueryCache` (or any value
        :func:`~repro.cache.manager.resolve_cache` accepts).  The result
        layer is consulted before shards are even planned — a warm hit
        skips the whole fan-out (``cache_layer="result"`` on the
        returned outcome) — and filled after a cold ``evaluate``.  The
        memo layer never crosses the executor: worker engines may run in
        other processes.  (:class:`~repro.core.query.Query` handles the
        result layer itself and leaves this unset.)
    ctx:
        Optional :class:`~repro.core.governor.QueryContext` propagated to
        every shard task: workers enforce its budgets locally (absolute
        deadline, pairs cap) and stamp its ``query_id``/``trace_id`` on
        their journal events.  When a shard trips a budget, the executor
        sets the shared cancel token (thread backend) and the pool
        cancels queued siblings, so the run stops promptly instead of
        finishing the fan-out.
    journal:
        Optional :class:`~repro.obs.journal.QueryJournal`: the executor
        emits a ``shard`` event describing the fan-out and re-sequences
        the workers' ``evaluate`` events into the journal as outcomes
        arrive.
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        backend: Backend | str = Backend.AUTO,
        strategy: str = "hash",
        engine: str | Engine | EngineConfig | None = None,
        max_incidents: int | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        dispatch: DispatchCostModel | None = None,
        progress: Callable[[int, int], None] | None = None,
        cache=None,
        ctx: QueryContext | None = None,
        journal: QueryJournal | None = None,
    ):
        from repro.cache.manager import resolve_cache

        self.jobs = jobs if jobs is not None else default_jobs()
        self.backend = Backend.coerce(backend, where="executor backend")
        self.strategy = strategy
        self.engine = _engine_config(engine, max_incidents)
        self.tracer = tracer
        self.metrics = metrics
        self.dispatch = dispatch if dispatch is not None else DispatchCostModel()
        self.progress = progress
        self.cache = resolve_cache(cache)
        self.ctx = ctx
        self.journal = journal
        self.last_result: ParallelResult | None = None

    # -- public API --------------------------------------------------------

    def evaluate(self, source: Log | LogStore, pattern: Pattern) -> ParallelResult:
        """Full incident set of ``pattern``, merged across shards."""
        return self._run(source, pattern, mode="evaluate")

    def count(self, source: Log | LogStore, pattern: Pattern) -> int:
        """Incident count: per-shard counts (counting DP where it
        applies) summed — no incident ever crosses a process boundary."""
        return self._run(source, pattern, mode="count").count

    # -- machinery ---------------------------------------------------------

    def _run(self, source: Log | LogStore, pattern: Pattern, *, mode: str) -> ParallelResult:
        cache_key = None
        if self.cache is not None and self.cache.policy.caches_results:
            cache_key = self.cache.result_key(
                source, pattern, max_incidents=self.engine.max_incidents
            )
            hit = self.cache.get_result(cache_key)
            if hit is not None:
                result = ParallelResult(
                    incidents=hit.incidents if mode == "evaluate" else None,
                    count=len(hit.incidents),
                    stats=hit.stats if hit.stats is not None else EvaluationStats(),
                    plan=ShardPlan(
                        strategy=self.strategy, shards=(), total_records=0
                    ),
                    backend="cache",
                    jobs=self.jobs,
                    cache_layer="result",
                )
                self.last_result = result
                return result

        backend = self._choose_backend(source, pattern)
        n_shards = 1 if backend == "serial" else max(1, self.jobs * 2)
        trace = self.tracer is not None and getattr(self.tracer, "enabled", False)

        plan = self._plan(source, n_shards)
        # sibling-cancellation token: only for in-process backends — an
        # Event does not pickle, and process workers self-enforce via the
        # context's absolute deadline plus ``cancel_futures`` in the pool
        cancel = (
            CancelToken()
            if self.ctx is not None and self.ctx.governed and backend != "process"
            else None
        )
        journal_shards = (
            self.journal is not None and self.ctx is not None and self.ctx.journal
        )
        tasks = [
            ShardTask(
                shard_index=shard.index,
                log=shard.log,
                pattern=pattern,
                engine=self.engine,
                mode=mode,
                trace=trace,
                ctx=self.ctx,
                cancel=cancel,
                journal=bool(journal_shards),
            )
            for shard in plan
        ]
        if journal_shards:
            assert self.journal is not None and self.ctx is not None
            self.journal.emit(
                "shard",
                query_id=self.ctx.query_id,
                trace_id=self.ctx.trace_id,
                shards=len(tasks),
                backend=backend,
                jobs=self.jobs,
                strategy=self.strategy,
            )
        with make_backend(backend, self.jobs) as runner:
            try:
                outcomes = runner.run(
                    evaluate_shard, tasks, on_result=self._shard_done(len(tasks))
                )
            except QueryGovernorError:
                # set the token BEFORE the with-block exit joins the pool,
                # so running sibling shards bail at their next checkpoint
                # instead of finishing their join
                if cancel is not None:
                    cancel.set()
                raise
        self._adopt_events(outcomes)
        result = self._merge(outcomes, plan, backend, mode)
        if cache_key is not None and result.incidents is not None:
            self.cache.put_result(cache_key, result.incidents, result.stats)
        self.last_result = result
        return result

    def _adopt_events(self, outcomes: list[ShardOutcome]) -> None:
        """Re-sequence worker journal events into the live journal."""
        if self.journal is None:
            return
        for outcome in outcomes:
            for event in outcome.events:
                self.journal.write(dict(event))

    def _shard_done(self, total: int) -> Callable[[object], None] | None:
        """Per-shard completion hook: metrics first, then ``progress``.

        Returns None when nobody is listening, so the backends skip the
        per-result bookkeeping entirely on plain runs.
        """
        if self.metrics is None and self.progress is None:
            return None
        completed = None
        if self.metrics is not None:
            self.metrics.gauge("exec.shards_total").set(total)
            completed = self.metrics.counter("exec.shards_completed")
        progress = self.progress
        done = 0

        def on_result(_outcome: object) -> None:
            nonlocal done
            done += 1
            if completed is not None:
                completed.inc()
            if progress is not None:
                progress(done, total)

        return on_result

    def _choose_backend(self, source: Log | LogStore, pattern: Pattern) -> str:
        if self.backend != "auto":
            return self.backend
        stats = _source_statistics(source)
        plan_cost = CostModel(stats).plan_cost(pattern)
        return self.dispatch.choose_backend(self.jobs, stats.total_records, plan_cost)

    def _plan(self, source: Log | LogStore, n_shards: int) -> ShardPlan:
        if len(source) == 0:
            # empty source: one task over an empty log, so the merged
            # result matches what a direct engine call would produce
            shard = Shard(index=0, wids=(), log=Log((), validate=False))
            return ShardPlan(strategy=self.strategy, shards=(shard,), total_records=0)
        return plan_shards(source, n_shards, strategy=self.strategy)

    def _merge(
        self,
        outcomes: list[ShardOutcome],
        plan: ShardPlan,
        backend: str,
        mode: str,
    ) -> ParallelResult:
        merged_stats = EvaluationStats(registry=self.metrics)
        incidents: list[Incident] = []
        count = 0
        spans: list[Span] = []
        for outcome in outcomes:
            merged_stats.merge(outcome.stats)
            incidents.extend(outcome.incidents)
            count += outcome.count
            if outcome.span is not None:
                spans.append(outcome.span)
        merged_stats.publish()

        span: Span | None = None
        if spans and self.tracer is not None:
            span = merge_span_trees(spans)
            self.tracer.adopt(span)

        return ParallelResult(
            incidents=IncidentSet(incidents) if mode == "evaluate" else None,
            count=count,
            stats=merged_stats,
            plan=plan,
            backend=backend,
            jobs=self.jobs,
            span=span,
        )

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(jobs={self.jobs}, backend={self.backend!r}, "
            f"strategy={self.strategy!r}, engine={self.engine.name!r})"
        )


def _engine_config(
    engine: str | Engine | EngineConfig | None, max_incidents: int | None
) -> EngineConfig:
    if engine is None:
        return EngineConfig(max_incidents=max_incidents)
    if isinstance(engine, EngineConfig):
        if max_incidents is not None and engine.max_incidents is None:
            return EngineConfig(name=engine.name, max_incidents=max_incidents)
        return engine
    if isinstance(engine, Engine):
        budget = engine.max_incidents if engine.max_incidents is not None else max_incidents
        return EngineConfig(name=engine.name, max_incidents=budget)
    return EngineConfig(name=engine, max_incidents=max_incidents)
