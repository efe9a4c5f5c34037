"""Append-only log store.

:class:`LogStore` owns the sequence-number bookkeeping of Definition 2:
it assigns global ``lsn`` values in arrival order, per-instance ``is_lsn``
values consecutively, writes the ``START`` sentinel when an instance is
opened and the ``END`` sentinel when it is closed, and refuses appends to
closed instances.  Logs snapshotted from a store are therefore well-formed
by construction.

Example
-------
>>> store = LogStore()
>>> w = store.open_instance()
>>> _ = store.append(w, "GetRefer", attrs_out={"balance": 1000})
>>> _ = store.append(w, "CheckIn", attrs_in={"balance": 1000})
>>> store.close_instance(w)
>>> [r.activity for r in store.snapshot()]
['START', 'GetRefer', 'CheckIn', 'END']
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING
from uuid import uuid4

from repro.core.errors import LogStoreError
from repro.core.model import END, START, AttrMap, Log, LogRecord
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.column_log import ColumnarLog

__all__ = ["LogStore"]

logger = get_logger("logstore.store")


class LogStore:
    """In-memory append-only workflow log.

    The store is the write-side companion of the read-only
    :class:`~repro.core.model.Log`: workflow engines (or adapters tailing
    a real system) push records in, queries run over snapshots.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving the
        ``logstore.*`` counter family (records appended, instances
        opened/closed, snapshots taken).
    """

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        self._records: list[LogRecord] = []
        self._next_is_lsn: dict[int, int] = {}
        self._closed: set[int] = set()
        self._next_wid = 1
        self._epoch = 0
        self._lineage = f"logstore:{uuid4().hex}"
        self._columnar: "ColumnarLog | None" = None
        self.metrics = metrics

    @property
    def epoch(self) -> int:
        """Append epoch: bumped once per appended record (sentinels
        included).  Snapshots are stamped with the epoch they were taken
        at, which is what lets the :mod:`repro.cache` result cache
        invalidate precisely on appends."""
        return self._epoch

    @property
    def lineage(self) -> str:
        """Unique identity token of this store instance.  Two snapshots
        share cache state only when their lineage matches."""
        return self._lineage

    # -- instance lifecycle ----------------------------------------------

    def open_instance(self, wid: int | None = None) -> int:
        """Start a new workflow instance and write its ``START`` record.

        Returns the instance id (auto-assigned when ``wid`` is None).
        """
        if wid is None:
            wid = self._next_wid
        if wid in self._next_is_lsn:
            raise LogStoreError(f"instance {wid} is already open")
        if wid < 1:
            raise LogStoreError("wid must be a positive integer")
        self._next_wid = max(self._next_wid, wid + 1)
        self._next_is_lsn[wid] = 1
        self._append_raw(wid, START)
        if self.metrics is not None:
            self.metrics.counter("logstore.instances_opened").inc()
        logger.debug("opened instance %d", wid)
        return wid

    def close_instance(self, wid: int) -> LogRecord:
        """Write the instance's ``END`` record; further appends fail."""
        record = self._append_raw(wid, END)
        self._closed.add(wid)
        if self.metrics is not None:
            self.metrics.counter("logstore.instances_closed").inc()
        logger.debug("closed instance %d at lsn %d", wid, record.lsn)
        return record

    def is_open(self, wid: int) -> bool:
        """Whether the instance exists and has not been closed."""
        return wid in self._next_is_lsn and wid not in self._closed

    # -- appending ---------------------------------------------------------

    def append(
        self,
        wid: int,
        activity: str,
        *,
        attrs_in: AttrMap | None = None,
        attrs_out: AttrMap | None = None,
    ) -> LogRecord:
        """Record the execution of ``activity`` in instance ``wid``."""
        if activity in (START, END):
            raise LogStoreError(
                f"{activity} records are written by open/close_instance"
            )
        return self._append_raw(wid, activity, attrs_in, attrs_out)

    def _append_raw(
        self,
        wid: int,
        activity: str,
        attrs_in: AttrMap | None = None,
        attrs_out: AttrMap | None = None,
    ) -> LogRecord:
        if wid not in self._next_is_lsn:
            raise LogStoreError(f"unknown instance {wid}; call open_instance first")
        if wid in self._closed:
            raise LogStoreError(f"instance {wid} is closed")
        record = LogRecord(
            lsn=len(self._records) + 1,
            wid=wid,
            is_lsn=self._next_is_lsn[wid],
            activity=activity,
            attrs_in=attrs_in,
            attrs_out=attrs_out,
        )
        self._records.append(record)
        self._next_is_lsn[wid] += 1
        self._epoch += 1
        if self.metrics is not None:
            self.metrics.counter("logstore.records_appended").inc()
        return record

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    @property
    def open_instances(self) -> tuple[int, ...]:
        """Instance ids that are open (no ``END`` yet)."""
        return tuple(sorted(set(self._next_is_lsn) - self._closed))

    def tail(self, n: int = 10) -> tuple[LogRecord, ...]:
        """The last ``n`` records."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return tuple(self._records[-n:]) if n else ()

    def snapshot(self) -> Log:
        """An immutable, validated :class:`~repro.core.model.Log` of the
        current contents.  Queries run over snapshots; the store can keep
        appending afterwards."""
        if not self._records:
            raise LogStoreError("cannot snapshot an empty store")
        if self.metrics is not None:
            self.metrics.counter("logstore.snapshots").inc()
        logger.debug(
            "snapshot: %d records / %d instances",
            len(self._records),
            len(self._next_is_lsn),
        )
        return Log(
            self._records,
            epoch=self._epoch,
            lineage=self._lineage,
            snapshot=True,
        )

    def columnar(self) -> "ColumnarLog":
        """The columnar form of the current contents, cached per epoch.

        The first call after any append builds a fresh validated snapshot
        and its :class:`~repro.columnar.ColumnarLog`; subsequent calls at
        the same epoch return the cached view (the store's epoch advances
        with every record, so staleness is impossible).  This is the
        store-side entry point the vectorized and sqlite engines use to
        amortise the columnar build across queries.
        """
        cached = self._columnar
        if cached is not None and cached.epoch == self._epoch:
            return cached
        if self.metrics is not None:
            self.metrics.counter("logstore.columnar_builds").inc()
        self._columnar = self.snapshot().columnar()
        return self._columnar

    def wid_record_counts(self) -> dict[int, int]:
        """Per-instance record counts, in one pass over the store.

        This is the size statistic the :mod:`repro.exec` shard planner
        balances on; it deliberately avoids building a full
        :meth:`snapshot` first.
        """
        counts: dict[int, int] = {}
        for record in self._records:
            counts[record.wid] = counts.get(record.wid, 0) + 1
        return counts

    def extract(self, wids: Iterable[int]) -> Log:
        """A wid-projection of the store's current contents.

        Unlike :meth:`snapshot`, this never materialises (or validates)
        the whole log: records of other instances are filtered out in one
        pass and the kept record objects are shared, not copied.  The
        original ``lsn`` values are preserved, so incident identities in
        the extracted log match those in the full snapshot (see
        :meth:`repro.core.model.Log.project`).
        """
        keep = set(wids)
        return Log(
            (r for r in self._records if r.wid in keep),
            validate=False,
            epoch=self._epoch,
            lineage=self._lineage,
            snapshot=False,
        )

    @classmethod
    def from_log(cls, log: Log) -> "LogStore":
        """Seed a store with an existing log's records (for appending to a
        loaded log)."""
        store = cls()
        store._records = list(log.records)
        store._epoch = len(store._records)
        for record in store._records:
            store._next_is_lsn[record.wid] = max(
                store._next_is_lsn.get(record.wid, 1), record.is_lsn + 1
            )
            if record.is_end:
                store._closed.add(record.wid)
            store._next_wid = max(store._next_wid, record.wid + 1)
        return store

    def __repr__(self) -> str:
        return (
            f"LogStore({len(self._records)} records, "
            f"{len(self._next_is_lsn)} instances, "
            f"{len(self.open_instances)} open)"
        )
