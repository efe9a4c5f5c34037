"""High-level query API.

:class:`Query` bundles pattern, engine, optimizer, cache and executor
behind the interface a downstream application uses::

    from repro import EngineOptions, Query

    q = Query("UpdateRefer -> GetReimburse")
    result = q.run(log)              # IncidentSet
    q.exists(log)                    # short-circuit boolean
    q.count(log)                     # number of incidents
    print(q.explain(log))            # chosen plan + cost estimates

Execution behaviour is configured with one immutable
:class:`~repro.core.options.EngineOptions` value::

    q = Query(pattern, EngineOptions(jobs=4, cache=True))
"""

from __future__ import annotations

from repro.core.errors import QueryGovernorError, ReproError
from repro.core.eval.base import Engine
from repro.core.eval.indexed import IndexedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.eval.tree import render_tree
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.governor import QueryContext, ResourceGovernor
from repro.core.incident import IncidentSet
from repro.core.model import Log
from repro.core.optimizer.planner import OptimizedPlan, Optimizer
from repro.core.options import EngineOptions
from repro.core.parser import parse
from repro.core.pattern import Pattern
from repro.columnar.sqlite import SqliteEngine
from repro.obs.tracer import NULL_TRACER

__all__ = ["Query", "ENGINES"]

#: Registry of engine constructors, keyed by engine name.
ENGINES: dict[str, type[Engine]] = {
    NaiveEngine.name: NaiveEngine,
    IndexedEngine.name: IndexedEngine,
    VectorizedEngine.name: VectorizedEngine,
    SqliteEngine.name: SqliteEngine,
}


def _resolve_engine(
    engine: str | Engine | None,
    max_incidents: int | None,
    tracer=None,
    metrics=None,
) -> Engine:
    if isinstance(engine, Engine):
        return engine
    if engine is None:
        return IndexedEngine(
            max_incidents=max_incidents, tracer=tracer, metrics=metrics
        )
    try:
        return ENGINES[engine](
            max_incidents=max_incidents, tracer=tracer, metrics=metrics
        )
    except KeyError:
        raise ReproError(
            f"unknown engine {engine!r}; available: {sorted(ENGINES)}"
        ) from None


class Query:
    """A compiled incident-pattern query.

    Parameters
    ----------
    pattern:
        A :class:`~repro.core.pattern.Pattern` or a textual expression in
        the query syntax of :mod:`repro.core.parser`.
    options:
        An :class:`~repro.core.options.EngineOptions` value; None for the
        defaults (indexed engine, optimizer on, serial, no cache).

    Attributes
    ----------
    options:
        The resolved :class:`~repro.core.options.EngineOptions`.
    engine:
        The live :class:`~repro.core.eval.base.Engine`.  With the memo
        cache layer active, serial execution, and a default/indexed
        engine, this is a memo-backed shared-scan engine whose
        per-``(wid, subpattern)`` results persist across runs (see
        ``docs/CACHING.md``).  Parallel runs use the result layer only:
        workers rebuild engines by name per shard.
    cache:
        The resolved :class:`~repro.cache.manager.QueryCache`, or None
        when caching is off.
    last_cache_layer:
        Which cache layer served the most recent :meth:`run` —
        ``"result"``, ``"memo"`` or None (cold).  Reported by
        :meth:`explain` and the CLI.
    """

    def __init__(self, pattern: Pattern | str, options: EngineOptions | None = None):
        if isinstance(pattern, str):
            pattern = parse(pattern)
        if not isinstance(pattern, Pattern):
            raise TypeError(f"expected Pattern or str, got {type(pattern).__name__}")
        self.pattern = pattern
        self.options = options if options is not None else EngineOptions()

        from repro.cache.manager import resolve_cache

        self.cache = resolve_cache(self.options.cache)
        self.engine = self._build_engine()
        self.last_cache_layer: str | None = None
        self._last_plan: OptimizedPlan | None = None

    def _build_engine(self) -> Engine:
        opts = self.options
        if (
            self.cache is not None
            and self.cache.policy.caches_memo
            and not opts.is_parallel
            and (opts.engine is None or opts.engine == IndexedEngine.name)
        ):
            # memo-backed indexed engine: per-(wid, subpattern) results
            # persist in the shared cache across runs and across queries
            from repro.exec.batch import SharedScanEngine

            return SharedScanEngine(
                max_incidents=opts.max_incidents,
                tracer=opts.tracer,
                metrics=opts.metrics,
                cache=self.cache,
            )
        return _resolve_engine(
            opts.engine, opts.max_incidents, opts.tracer, opts.metrics
        )

    # -- execution -------------------------------------------------------

    def plan(self, log: Log) -> OptimizedPlan:
        """The (possibly identity) plan chosen for ``log``."""
        if self.options.optimize:
            plan = Optimizer.for_log(log).optimize(self.pattern)
        else:
            plan = OptimizedPlan(
                original=self.pattern,
                optimized=self.pattern,
                original_cost=float("nan"),
                optimized_cost=float("nan"),
                transformations=["optimization disabled"],
            )
        self._last_plan = plan
        return plan

    @property
    def is_parallel(self) -> bool:
        """Whether :meth:`run`/:meth:`count` go through the sharded
        parallel executor."""
        return self.options.is_parallel

    def _executor(self, ctx: QueryContext | None = None):
        """Build the parallel executor for this query's configuration
        (imported lazily — :mod:`repro.exec` is optional machinery).

        The executor runs cache-less: the result layer is consulted and
        filled here in :meth:`run`, under the key of the *original*
        pattern (the executor only ever sees the optimized one)."""
        from repro.exec.parallel import ParallelExecutor

        opts = self.options
        tracer = opts.tracer
        if tracer is None and getattr(self.engine.tracer, "enabled", False):
            tracer = self.engine.tracer
        return ParallelExecutor(
            jobs=opts.jobs,
            backend=opts.backend if opts.backend is not None else "auto",
            strategy=opts.strategy,
            engine=self.engine,
            tracer=tracer,
            metrics=opts.metrics,
            progress=opts.progress,
            ctx=ctx,
            journal=opts.journal,
        )

    def _begin_run(self, op: str):
        """Mint the per-run query context, recorder and governor.

        One context per ``run``/``exists``/``count`` call: budgets are
        measured from submission (the deadline is converted to an
        absolute wall-clock cutoff here), and the ``query_id``/
        ``trace_id`` stamped on every journal event are fresh per run.
        Serial runs attach the governor to the live engine; parallel
        runs ship the context instead and let each worker build its own.
        """
        opts = self.options
        ctx: QueryContext | None = None
        recorder = None
        if opts.journal is not None or opts.governed or opts.cancel is not None:
            ctx = QueryContext.new(
                deadline_ms=opts.deadline_ms,
                max_pairs=opts.max_pairs,
                journal=opts.journal is not None,
            )
        if opts.journal is not None and ctx is not None:
            from repro.obs.journal import RunRecorder

            recorder = RunRecorder(
                opts.journal, ctx, pattern=str(self.pattern), op=op
            )
            recorder.submit()
        governor = None
        if ctx is not None and not self.is_parallel:
            # a bare cancel token still builds a governor (from_context
            # handles the budget-free case), so external cancellation
            # works even on unbudgeted runs
            governor = ResourceGovernor.from_context(ctx, cancel=opts.cancel)
        self.engine.governor = governor
        return ctx, recorder

    def _finish_run(self, recorder, *, stats, incidents, cache_before, **payload):
        """Emit the terminal ``finish`` event with cache attribution."""
        if recorder is None:
            return
        if cache_before is not None and self.cache is not None:
            delta = self.cache.attribution(cache_before)
            payload.setdefault("cache_result_hits", delta["result_hits"])
            payload.setdefault("cache_memo_hits", delta["memo_hits"])
        if self.last_cache_layer is not None:
            payload.setdefault("cache_layer", self.last_cache_layer)
        recorder.finish(stats=stats, incidents=incidents, **payload)

    def _result_key(self, log: Log):
        """The result-layer key for this query over ``log``, or None when
        the result layer is off.  Keyed on the *original* pattern: the
        cost-based plan may differ per log, but the result it computes
        does not (that is the optimizer's correctness contract)."""
        if self.cache is None or not self.cache.policy.caches_results:
            return None
        return self.cache.result_key(
            log, self.pattern, max_incidents=self.options.max_incidents
        )

    def _cached_result(self, key):
        if key is None:
            return None
        tracer = self.options.tracer if self.options.tracer is not None else NULL_TRACER
        return self.cache.get_result(key, tracer=tracer)

    def run(self, log: Log) -> IncidentSet:
        """Evaluate the query, returning the full incident set.

        With caching on, a warm result-layer hit returns before the
        optimizer even plans; a cold run is evaluated, stored, and
        reported through :attr:`last_cache_layer`.

        With budgets configured (``deadline_ms``/``max_pairs``) the run
        is governed: the typed
        :class:`~repro.core.errors.QueryTimeout` /
        :class:`~repro.core.errors.QueryBudgetExceeded` carries the
        partial stats, and a configured journal records the lifecycle
        ending in a terminal ``finish`` or ``killed`` event.
        """
        self.last_cache_layer = None
        ctx, recorder = self._begin_run("run")
        cache_before = (
            self.cache.attribution()
            if recorder is not None and self.cache is not None
            else None
        )
        try:
            key = self._result_key(log)
            hit = self._cached_result(key)
            if recorder is not None and key is not None:
                recorder.cache_probe(probe="result", hit=hit is not None)
            if hit is not None:
                self.last_cache_layer = "result"
                self.engine.last_stats = hit.stats
                self._finish_run(
                    recorder,
                    stats=hit.stats,
                    incidents=len(hit.incidents),
                    cache_before=cache_before,
                )
                return hit.incidents

            optimized = self.plan(log).optimized
            if recorder is not None:
                recorder.plan(
                    optimized=str(optimized), changed=optimized != self.pattern
                )
            if self.is_parallel:
                outcome = self._executor(ctx).evaluate(log, optimized)
                self.engine.last_stats = outcome.stats
                assert outcome.incidents is not None
                result = outcome.incidents
            else:
                memo_before = getattr(self.engine, "memo_hits", 0)
                result = self.engine.evaluate(log, optimized)
                if getattr(self.engine, "memo_hits", 0) > memo_before:
                    self.last_cache_layer = "memo"
                if recorder is not None:
                    stats = self.engine.last_stats
                    recorder.evaluate(
                        pairs=0 if stats is None else stats.pairs_examined,
                        incidents=len(result),
                    )
            if key is not None:
                self.cache.put_result(key, result, self.engine.last_stats)
            self._finish_run(
                recorder,
                stats=self.engine.last_stats,
                incidents=len(result),
                cache_before=cache_before,
            )
            return result
        except QueryGovernorError as exc:
            if recorder is not None:
                recorder.killed(exc)
            raise
        finally:
            self.engine.governor = None

    def exists(self, log: Log) -> bool:
        """Whether at least one incident exists (short-circuits when the
        engine supports it).  Always serial: the greedy short-circuit
        scan typically finishes before a worker pool even starts."""
        _, recorder = self._begin_run("exists")
        try:
            hit = self._cached_result(self._result_key(log))
            if hit is not None:
                self.last_cache_layer = "result"
                self.engine.last_stats = hit.stats
                found = bool(hit.incidents)
            else:
                self.last_cache_layer = None
                found = self.engine.exists(log, self.plan(log).optimized)
            self._finish_run(
                recorder,
                stats=self.engine.last_stats,
                incidents=int(found),
                cache_before=None,
            )
            return found
        except QueryGovernorError as exc:
            if recorder is not None:
                recorder.killed(exc)
            raise
        finally:
            self.engine.governor = None

    def count(self, log: Log) -> int:
        """Number of incidents in ``log``.

        Delegates to the engine, which may use the output-free counting
        DP for ⊙/⊳ chains instead of materialising the incident set.
        With ``jobs``/``backend`` set, per-shard counts are summed."""
        ctx, recorder = self._begin_run("count")
        try:
            hit = self._cached_result(self._result_key(log))
            if hit is not None:
                self.last_cache_layer = "result"
                self.engine.last_stats = hit.stats
                n = len(hit.incidents)
            else:
                self.last_cache_layer = None
                optimized = self.plan(log).optimized
                if recorder is not None:
                    recorder.plan(
                        optimized=str(optimized), changed=optimized != self.pattern
                    )
                if self.is_parallel:
                    executor = self._executor(ctx)
                    n = executor.count(log, optimized)
                    assert executor.last_result is not None
                    self.engine.last_stats = executor.last_result.stats
                else:
                    n = self.engine.count(log, optimized)
            self._finish_run(
                recorder,
                stats=self.engine.last_stats,
                incidents=n,
                cache_before=None,
            )
            return n
        except QueryGovernorError as exc:
            if recorder is not None:
                recorder.killed(exc)
            raise
        finally:
            self.engine.governor = None

    @staticmethod
    def evaluate_batch(log: Log, patterns, **kwargs):
        """Evaluate many queries over one log with shared subpattern
        scans — see :func:`repro.exec.batch.evaluate_batch`, of which
        this is a convenience re-export.

        >>> # doctest: +SKIP
        >>> batch = Query.evaluate_batch(log, ["A -> B", "A -> B -> C"])
        >>> batch.results[0]                    # incidents of "A -> B"
        """
        from repro.exec.batch import evaluate_batch

        return evaluate_batch(log, patterns, **kwargs)

    def matching_instances(self, log: Log) -> tuple[int, ...]:
        """The workflow instance ids containing at least one incident."""
        return self.run(log).wids()

    # -- introspection -----------------------------------------------------

    def explain(self, log: Log) -> str:
        """Human-readable execution plan for ``log``: the incident tree of
        the optimized pattern, cost estimates, and — after a cached run —
        which cache layer served it."""
        plan = self.plan(log)
        lines = [
            plan.explain(),
            "incident tree:",
            render_tree(plan.optimized),
            f"engine: {self.engine.name}",
        ]
        if self.cache is not None:
            served = self.last_cache_layer or "none (cold)"
            lines.append(f"cache: {served}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Query({str(self.pattern)!r}, engine={self.engine.name})"
