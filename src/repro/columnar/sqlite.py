"""The SQL route: one pattern-to-SQL compiler over two relational schemas.

The paper sets its query language against the ETL/SQL warehouse of its
Figure 1 — extract the log into a relational table, then answer
questions with SQL.  This module is that route, implemented once.  A
pattern compiles to one self-join ``SELECT`` per choice-free branch
(``⊗`` expands through :func:`~repro.core.algebra.choice_normal_form`):
one table alias per atomic leaf and one predicate per operator node,
with SQLite's scalar ``MIN``/``MAX`` over a subtree's leaf positions
standing in for the ``first``/``last`` functions of Definition 4.

Only the schema varies — the same operator-to-join mapping, parameterised
by the relational projection it targets:

* :data:`TEXT_SCHEMA` — the paper's ETL projection
  ``records(lsn, wid, is_lsn, activity TEXT)``; leaves compare activity
  names as string literals.  Behind :class:`SqlBaseline` (engine name
  ``"sql"``), the honest strawman the benchmarks compare against;
* :data:`INTERNED_SCHEMA` — the pushdown projection mirroring
  :class:`~repro.columnar.ColumnarLog`:
  ``records(lsn, wid_id, is_lsn, act_id)`` over interned integers.  Leaf
  names resolve to ``act_id`` at compile time, so a leaf on an activity
  absent from the log folds to a constant and never reaches SQL.  Behind
  :class:`SqliteEngine` — ``EngineOptions(engine="sqlite")``.

Both schemas bulk-load from the columnar view of the log, and every
result row (one ``lsn`` per leaf) is decoded through it, so incidents
are byte-for-byte those of the object engines.  Neither projection
carries attribute maps: attribute-guarded leaves raise
:class:`~repro.core.errors.EvaluationError` (the paper's core criticism
of the ETL route), which is why auto dispatch never picks SQL — it must
be requested by engine name.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.columnar.column_log import ColumnarLog, as_columnar
from repro.core.algebra import choice_normal_form
from repro.core.errors import EvaluationError
from repro.core.eval.base import Engine
from repro.core.incident import Incident, IncidentSet
from repro.core.model import Log
from repro.core.pattern import (
    Atomic,
    BinaryPattern,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "SqlSchema",
    "TEXT_SCHEMA",
    "INTERNED_SCHEMA",
    "SqlWarehouse",
    "compile_to_sql",
    "SqliteEngine",
    "SqlBaseline",
]


@dataclass(frozen=True)
class SqlSchema:
    """One relational projection of a log: the column a branch joins its
    aliases on, the column a leaf compares, and whether leaf names are
    interned integers (resolved at compile time) or text literals."""

    name: str
    wid: str
    activity: str
    interned: bool

    @property
    def ddl(self) -> str:
        activity_type = "INTEGER" if self.interned else "TEXT"
        return f"""
            CREATE TABLE records (
                lsn    INTEGER PRIMARY KEY,
                {self.wid} INTEGER NOT NULL,
                is_lsn INTEGER NOT NULL,
                {self.activity} {activity_type} NOT NULL
            );
            CREATE INDEX idx_wid_activity
                ON records ({self.wid}, {self.activity}, is_lsn);
            CREATE UNIQUE INDEX idx_wid_pos ON records ({self.wid}, is_lsn);
        """

    def rows(self, columnar: ColumnarLog) -> Iterable[tuple]:
        """The ``records`` rows of ``columnar`` under this projection."""
        columns = zip(
            columnar._lsn, columnar._wid_id, columnar._is_lsn, columnar._act_id
        )
        if self.interned:
            return columns
        wids, names = columnar.wids, columnar.act_names
        return (
            (lsn, wids[wid_id], is_lsn, names[act_id])
            for lsn, wid_id, is_lsn, act_id in columns
        )

    def literal(self, activity: str, columnar: ColumnarLog | None) -> str | None:
        """SQL literal a leaf on ``activity`` compares against; None when
        the activity is absent from the (interned) log."""
        if not self.interned:
            return "'" + activity.replace("'", "''") + "'"
        assert columnar is not None, "the interned schema needs the columnar log"
        act_id = columnar.act_id_of(activity)
        return None if act_id is None else str(act_id)


#: The paper's Figure 1 ETL projection: activity names as text.
TEXT_SCHEMA = SqlSchema("text", wid="wid", activity="activity", interned=False)
#: The pushdown projection over the columnar layout's interned integers.
INTERNED_SCHEMA = SqlSchema(
    "interned", wid="wid_id", activity="act_id", interned=True
)


def _scalar(function: str, columns: list[str]) -> str:
    return columns[0] if len(columns) == 1 else f"{function}({', '.join(columns)})"


def compile_to_sql(
    pattern: Pattern,
    schema: SqlSchema = TEXT_SCHEMA,
    columnar: ColumnarLog | None = None,
    *,
    project_wid: bool = False,
) -> list[str]:
    """Compile ``pattern`` into one SELECT per choice-free branch.

    Each row of a branch query is one incident: the ``lsn`` of the record
    matched by each atomic leaf (or, with ``project_wid``, just the
    instance id).  Rows may repeat record sets across branches — the
    caller deduplicates, as ``incL`` is a set.  The interned schema needs
    ``columnar`` to resolve leaf names to ``act_id`` integers.
    """
    queries = []
    for branch in choice_normal_form(pattern):
        aliases: list[str] = []
        predicates: list[str] = []

        def positions(node: Pattern) -> list[str]:
            """Compile ``node``; returns the is-lsn columns of its leaves."""
            if isinstance(node, Atomic):
                if type(node) is not Atomic:
                    # e.g. attribute-guarded atoms: the projection was
                    # fixed at load time and carries no attribute maps
                    raise EvaluationError(
                        f"the SQL {schema.name} projection has no attribute "
                        f"maps; cannot compile leaf {node!r} — use an "
                        "in-process engine"
                    )
                alias = f"r{len(aliases)}"
                aliases.append(alias)
                literal = schema.literal(node.name, columnar)
                if literal is not None:
                    comparison = "!=" if node.negated else "="
                    predicates.append(
                        f"{alias}.{schema.activity} {comparison} {literal}"
                    )
                elif not node.negated:
                    # a positive leaf on an absent activity: unsatisfiable
                    # (a negated one matches every record, so no predicate)
                    predicates.append("0 = 1")
                if aliases[0] != alias:
                    predicates.append(
                        f"{alias}.{schema.wid} = {aliases[0]}.{schema.wid}"
                    )
                return [f"{alias}.is_lsn"]
            assert isinstance(node, BinaryPattern)
            left, right = positions(node.left), positions(node.right)
            if isinstance(node, Consecutive):
                predicates.append(
                    f"{_scalar('MAX', left)} + 1 = {_scalar('MIN', right)}"
                )
            elif isinstance(node, Sequential):
                predicates.append(f"{_scalar('MAX', left)} < {_scalar('MIN', right)}")
                window = getattr(node, "bound", None)
                if window is not None:
                    predicates.append(
                        f"{_scalar('MIN', right)} <= "
                        f"{_scalar('MAX', left)} + {int(window)}"
                    )
            elif isinstance(node, Parallel):
                predicates.extend(f"{a} != {b}" for a in left for b in right)
            else:  # pragma: no cover - choices were expanded away
                raise EvaluationError("unexpected choice in a compiled branch")
            return left + right

        positions(branch)
        if project_wid:
            select = f"SELECT DISTINCT {aliases[0]}.{schema.wid}"
        else:
            select = "SELECT " + ", ".join(f"{alias}.lsn" for alias in aliases)
        sql = f"{select} FROM " + ", ".join(f"records {alias}" for alias in aliases)
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        queries.append(sql)
    return queries


class SqlWarehouse:
    """A log bulk-loaded into in-memory SQLite under one schema — the
    post-ETL warehouse (see module docs)."""

    def __init__(
        self, log: "Log | ColumnarLog", schema: SqlSchema = TEXT_SCHEMA
    ):
        self.columnar = as_columnar(log)
        self.schema = schema
        self.connection = sqlite3.connect(":memory:")
        self.connection.executescript(schema.ddl)
        self.connection.executemany(
            "INSERT INTO records VALUES (?, ?, ?, ?)", schema.rows(self.columnar)
        )
        self.connection.commit()

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqlWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- query execution -----------------------------------------------

    def compile(self, pattern: Pattern, *, project_wid: bool = False) -> list[str]:
        """The branch queries of ``pattern`` under this warehouse's schema."""
        return compile_to_sql(
            pattern, self.schema, self.columnar, project_wid=project_wid
        )

    def incidents(
        self,
        pattern: Pattern,
        *,
        tracer: Tracer | NullTracer = NULL_TRACER,
        checkpoint: Callable[[], None] | None = None,
    ) -> IncidentSet:
        """Evaluate ``pattern`` through SQL and return its incident set;
        ``checkpoint`` (if given) runs before each branch query."""
        found: set[frozenset[int]] = set()
        for branch, sql in enumerate(self.compile(pattern)):
            if checkpoint is not None:
                checkpoint()
            with tracer.span("branch", key=branch, sql=sql):
                found.update(map(frozenset, self.connection.execute(sql)))
        record = self.columnar.record
        return IncidentSet(
            Incident(record(lsn) for lsn in lsns) for lsns in found
        )

    def exists(self, pattern: Pattern) -> bool:
        """EXISTS-style evaluation with LIMIT 1 per branch."""
        for sql in self.compile(pattern):
            cursor = self.connection.execute(f"{sql} LIMIT 1")
            if cursor.fetchone() is not None:
                return True
        return False

    def count_matching_instances(self, pattern: Pattern) -> int:
        """Number of distinct instances with at least one incident."""
        wids: set[int] = set()
        for sql in self.compile(pattern, project_wid=True):
            wids.update(row[0] for row in self.connection.execute(sql))
        return len(wids)


class SqliteEngine(Engine):
    """Engine facade over :class:`SqlWarehouse` — the SQL pushdown engine
    behind ``EngineOptions(engine="sqlite")``.

    The warehouse is cached per columnar view, so repeated queries over
    one log pay the bulk load once; the columnar view itself is cached on
    the log, making the cache key stable across queries.
    """

    name = "sqlite"
    schema = INTERNED_SCHEMA

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._cache: tuple[ColumnarLog, SqlWarehouse] | None = None

    def _warehouse(self, log: "Log | ColumnarLog") -> SqlWarehouse:
        columnar = as_columnar(log)
        cache = self._cache
        if cache is not None and cache[0] is columnar:
            return cache[1]
        if cache is not None:
            cache[1].close()
        warehouse = SqlWarehouse(columnar, self.schema)
        self._cache = (columnar, warehouse)
        return warehouse

    def evaluate(self, log: "Log | ColumnarLog", pattern: Pattern) -> IncidentSet:
        stats = self._new_stats()
        with self.tracer.span(
            "evaluate", key=(), engine=self.name, pattern=str(pattern)
        ):
            result = self._warehouse(log).incidents(
                pattern,
                tracer=self.tracer,
                checkpoint=lambda: self._checkpoint(stats),
            )
            self._check_budget(len(result))
            stats.note_live(len(result))
            stats.incidents_produced += len(result)
        self._finish(stats)
        return result

    def exists(self, log: "Log | ColumnarLog", pattern: Pattern) -> bool:
        stats = self._new_stats()
        self._checkpoint(stats)
        hit = self._warehouse(log).exists(pattern)
        self._finish(stats)
        return hit


class SqlBaseline(SqliteEngine):
    """The paper's Figure 1 ETL route as an engine: the same compiler and
    facade over the text projection (:data:`TEXT_SCHEMA`).

    The first query over a log pays the ETL load; later ones reuse the
    warehouse, mirroring a pre-loaded warehouse in steady state.
    """

    name = "sql"
    schema = TEXT_SCHEMA
