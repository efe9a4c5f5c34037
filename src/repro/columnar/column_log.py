"""Immutable columnar representation of a workflow log.

:class:`ColumnarLog` stores one :class:`~repro.core.model.Log` as four
contiguous integer columns plus two interning dictionaries:

* ``lsn``, ``wid_id``, ``is_lsn``, ``act_id`` — ``array('q')`` columns,
  one entry per record, exposed as read-only :class:`memoryview`\\ s;
* the *wid dictionary* — sorted distinct wids; ``wid_id`` holds the
  index of each record's wid in that list;
* the *activity dictionary* — sorted distinct activity names; ``act_id``
  holds the index of each record's activity.

Rows are ordered by ``(wid ascending, is_lsn ascending)``, so every
workflow instance occupies one contiguous row range ``[starts[i],
starts[i+1])``.  Engines operating set-at-a-time (the vectorized engine,
the sqlite pushdown engine) slice per-wid column windows instead of
walking object records; a per-activity row index (ascending row numbers
per ``act_id``) gives the bitmap-filter equivalent of
``Log.with_activity``.

The representation is *derived*, never primary: it keeps a reference to
its source :class:`Log` (for attribute-guarded predicates that need the
full record objects) and :meth:`to_log` reconstructs an equal log from
the source rows.  Provenance (``epoch``/``lineage``/``is_snapshot``/
``fingerprint``) delegates to the source so cache identity is unchanged.
Construction is cached per :class:`Log` (via ``Log.columnar()``) and per
store epoch (via ``LogStore.columnar()``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from repro.core.model import Log, LogRecord
from repro.core.view import ActivitySet, RecordsView

__all__ = ["ColumnarLog", "as_columnar"]


class ColumnarLog:
    """Columnar, interned view of one immutable log (see module docs).

    Satisfies the :class:`~repro.core.view.LogView` protocol: engines that
    consume ``LogView`` accept a :class:`ColumnarLog` wherever they accept
    a :class:`~repro.core.model.Log`.
    """

    __slots__ = (
        "_source",
        "_rows",
        "_lsn",
        "_wid_id",
        "_is_lsn",
        "_act_id",
        "_wid_values",
        "_starts",
        "_act_names",
        "_act_index",
        "_act_rows",
        "_by_wid_rows",
        "_records_view",
        "_leaf_spans",
    )

    def __init__(self, source: Log, *, _trusted: bool = False):
        if not _trusted:
            raise TypeError(
                "use ColumnarLog.from_log(log) (or log.columnar()) instead of "
                "constructing ColumnarLog directly"
            )
        self._source = source
        # Rows grouped per instance: (wid asc, is_lsn asc).  Within one wid
        # is_lsn order equals lsn order (Definition 2, condition 3), so each
        # instance window is ascending in every column.
        rows: list[LogRecord] = []
        wid_values = array("q")
        starts = array("q", [0])
        for w in source.wids:
            wid_values.append(w)
            rows.extend(source.instance(w))
            starts.append(len(rows))
        self._rows: tuple[LogRecord, ...] = tuple(rows)
        self._wid_values = wid_values
        self._starts = starts

        act_names = tuple(sorted(source.activities))
        act_index = {name: i for i, name in enumerate(act_names)}
        self._act_names = act_names
        self._act_index = act_index

        n = len(rows)
        lsn_col = array("q", bytes(8 * n))
        wid_col = array("q", bytes(8 * n))
        isl_col = array("q", bytes(8 * n))
        act_col = array("q", bytes(8 * n))
        act_rows: tuple[array, ...] = tuple(array("q") for _ in act_names)
        wid_cursor = 0
        for row, rec in enumerate(rows):
            while row >= starts[wid_cursor + 1]:
                wid_cursor += 1
            aid = act_index[rec.activity]
            lsn_col[row] = rec.lsn
            wid_col[row] = wid_cursor
            isl_col[row] = rec.is_lsn
            act_col[row] = aid
            act_rows[aid].append(row)
        self._lsn = lsn_col
        self._wid_id = wid_col
        self._is_lsn = isl_col
        self._act_id = act_col
        self._act_rows = act_rows
        self._by_wid_rows: dict[int, tuple[LogRecord, ...]] | None = None
        self._records_view: RecordsView | None = None
        self._leaf_spans: dict[int, list[list[tuple]]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_log(cls, log: Log) -> "ColumnarLog":
        """The columnar form of ``log`` (fresh; prefer ``log.columnar()``
        which caches the result on the log)."""
        return cls(log, _trusted=True)

    def to_log(self) -> Log:
        """Reconstruct an object-row :class:`Log` equal to the source.

        Rebuilds from this view's own rows (not by returning the source),
        so the round-trip property ``ColumnarLog.from_log(log).to_log() ==
        log`` genuinely exercises the columnar row set.
        """
        return Log(
            self._rows,
            validate=False,
            epoch=self._source.epoch,
            lineage=self._source.lineage,
            snapshot=self._source.is_snapshot,
        )

    @property
    def source(self) -> Log:
        """The object-row log this view was built from."""
        return self._source

    # -- LogView protocol ----------------------------------------------------

    def records(self) -> RecordsView:
        """All records in ascending ``lsn`` order (callable view, like
        ``Log.records``)."""
        view = self._records_view
        if view is None:
            view = RecordsView(sorted(self._rows, key=lambda r: r.lsn))
            self._records_view = view
        return view

    def wid_slice(self, wid_value: int) -> tuple[LogRecord, ...]:
        """The records of one instance in ``is_lsn`` order (empty when
        absent) — a zero-copy slice of the grouped row tuple."""
        i = bisect_left(self._wid_values, wid_value)
        if i == len(self._wid_values) or self._wid_values[i] != wid_value:
            return ()
        return self._rows[self._starts[i]:self._starts[i + 1]]

    def instance(self, wid_value: int) -> tuple[LogRecord, ...]:
        """Alias of :meth:`wid_slice` (``Log``-compat name)."""
        return self.wid_slice(wid_value)

    def activities(self) -> ActivitySet:
        """The set of activity names occurring in the log."""
        return ActivitySet(self._act_names)

    @property
    def wids(self) -> tuple[int, ...]:
        """All workflow instance ids, sorted ascending."""
        return tuple(self._wid_values)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return (
            f"ColumnarLog({len(self._rows)} rows, "
            f"{len(self._wid_values)} instances, "
            f"{len(self._act_names)} activities, {self.nbytes} column bytes)"
        )

    # -- provenance (cache identity delegates to the source log) -------------

    @property
    def epoch(self) -> int:
        return self._source.epoch

    @property
    def lineage(self) -> str | None:
        return self._source.lineage

    @property
    def is_snapshot(self) -> bool:
        return self._source.is_snapshot

    @property
    def fingerprint(self) -> str:
        return self._source.fingerprint

    # -- columns -------------------------------------------------------------

    @property
    def lsn_col(self) -> memoryview:
        """Read-only ``lsn`` column (row order: wid asc, is_lsn asc)."""
        return memoryview(self._lsn).toreadonly()

    @property
    def wid_id_col(self) -> memoryview:
        """Read-only interned-wid column."""
        return memoryview(self._wid_id).toreadonly()

    @property
    def is_lsn_col(self) -> memoryview:
        """Read-only ``is_lsn`` column."""
        return memoryview(self._is_lsn).toreadonly()

    @property
    def act_id_col(self) -> memoryview:
        """Read-only interned-activity column."""
        return memoryview(self._act_id).toreadonly()

    @property
    def nbytes(self) -> int:
        """Total bytes held by the four integer columns."""
        return sum(
            col.itemsize * len(col)
            for col in (self._lsn, self._wid_id, self._is_lsn, self._act_id)
        )

    # -- dictionaries and indexes --------------------------------------------

    @property
    def act_names(self) -> tuple[str, ...]:
        """The interned activity dictionary (sorted ascending)."""
        return self._act_names

    def act_id_of(self, activity: str) -> int | None:
        """Interned id of ``activity``, or None when it never occurs."""
        return self._act_index.get(activity)

    def act_name_of(self, act_id: int) -> str:
        """Inverse of :meth:`act_id_of`."""
        return self._act_names[act_id]

    def wid_of(self, wid_id: int) -> int:
        """The wid interned as ``wid_id``."""
        return self._wid_values[wid_id]

    def wid_range(self, wid_value: int) -> tuple[int, int]:
        """The contiguous row range ``[lo, hi)`` of one instance
        (``(0, 0)`` when absent)."""
        i = bisect_left(self._wid_values, wid_value)
        if i == len(self._wid_values) or self._wid_values[i] != wid_value:
            return (0, 0)
        return (self._starts[i], self._starts[i + 1])

    def wid_windows(self) -> Iterator[tuple[int, int, int]]:
        """``(wid, lo, hi)`` per instance in wid order — the engines' scan
        loop, read straight off the offsets array (no per-wid bisect)."""
        starts = self._starts
        for i, wid in enumerate(self._wid_values):
            yield wid, starts[i], starts[i + 1]

    def act_rows(self, act_id: int, lo: int = 0, hi: int | None = None) -> array:
        """Ascending row numbers of records with activity ``act_id``,
        optionally clipped to the window ``[lo, hi)`` — the columnar
        analogue of ``Log.with_activity`` restricted to one instance."""
        rows = self._act_rows[act_id]
        if lo == 0 and (hi is None or hi >= len(self._rows)):
            return rows
        left = bisect_left(rows, lo)
        right = bisect_right(rows, hi - 1, left) if hi is not None else len(rows)
        return rows[left:right]

    def leaf_spans(self, act_id: int) -> list[list[tuple]]:
        """Per-instance-window leaf incidents of one activity, as the
        vectorized engine's ``(first, last, positions)`` tuples, indexed
        by window number (the position of the wid in :attr:`wids`).

        These are invariant for a given columnar log, so they are built
        once per activity and cached — positive leaves become lookups.
        The cached lists are shared: callers must treat them as
        immutable.
        """
        spans = self._leaf_spans.get(act_id)
        if spans is None:
            spans = [[] for _ in self._wid_values]
            starts = self._starts
            wi = 0
            for row in self._act_rows[act_id]:
                while row >= starts[wi + 1]:
                    wi += 1
                p = row - starts[wi] + 1
                spans[wi].append((p, p, frozenset((p,))))
            self._leaf_spans[act_id] = spans
        return spans

    def row_record(self, row: int) -> LogRecord:
        """The record object at columnar row ``row``."""
        return self._rows[row]

    def with_activity(self, activity: str) -> tuple[LogRecord, ...]:
        """All records with the given activity, in lsn order
        (``Log``-compat name, used by the counting evaluator)."""
        aid = self._act_index.get(activity)
        if aid is None:
            return ()
        recs = [self._rows[row] for row in self._act_rows[aid]]
        recs.sort(key=lambda r: r.lsn)
        return tuple(recs)

    def record(self, lsn_value: int) -> LogRecord:
        """The record with log sequence number ``lsn_value``
        (``Log``-compat name)."""
        return self._source.record(lsn_value)


def as_columnar(log: "Log | ColumnarLog") -> ColumnarLog:
    """``log`` as a :class:`ColumnarLog` — passes columnar views through,
    and uses the per-log cache (``Log.columnar()``) for object logs."""
    if isinstance(log, ColumnarLog):
        return log
    return log.columnar()
