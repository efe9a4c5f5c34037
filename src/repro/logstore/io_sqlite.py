"""Persistent log storage in SQLite.

Unlike the in-memory :class:`~repro.columnar.sqlite.SqlWarehouse` (a
*query* baseline with a fixed projection), this module is a *storage*
backend: the full record — attribute maps included, JSON-encoded — is
persisted, logs can be appended to across process restarts, and loads
can be restricted to instance subsets.

Schema::

    records(
        lsn       INTEGER PRIMARY KEY,
        wid       INTEGER NOT NULL,
        is_lsn    INTEGER NOT NULL,
        activity  TEXT    NOT NULL,
        attrs_in  TEXT    NOT NULL,   -- JSON object
        attrs_out TEXT    NOT NULL    -- JSON object
    )
    + indices on (wid, is_lsn) and (activity)

Example
-------
>>> db = SqliteLogStore("clinic.db")          # doctest: +SKIP
>>> db.save(log)                              # doctest: +SKIP
>>> log2 = db.load()                          # doctest: +SKIP
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Iterable
from os import PathLike
from typing import Union
from uuid import uuid4

from repro.core.errors import LogStoreError
from repro.core.model import Log, LogRecord

__all__ = ["SqliteLogStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    lsn       INTEGER PRIMARY KEY,
    wid       INTEGER NOT NULL,
    is_lsn    INTEGER NOT NULL,
    activity  TEXT    NOT NULL,
    attrs_in  TEXT    NOT NULL,
    attrs_out TEXT    NOT NULL
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_records_wid_pos
    ON records (wid, is_lsn);
CREATE INDEX IF NOT EXISTS idx_records_activity
    ON records (activity);
"""


class SqliteLogStore:
    """A workflow log persisted in a SQLite database file.

    The store enforces the same append discipline as the in-memory
    :class:`~repro.logstore.store.LogStore`: global lsn values are
    assigned consecutively and records arrive in order.
    """

    def __init__(self, path: Union[str, PathLike] = ":memory:"):
        self.path = str(path)
        self.connection = sqlite3.connect(self.path)
        self.connection.executescript(_SCHEMA)
        self.connection.commit()
        # Provenance for repro.cache: the epoch is the stored record count
        # (append-only, so it only grows while this handle is open); the
        # lineage token is per-handle, because the file may be mutated by
        # other handles/processes between opens.
        self._lineage = f"sqlite:{uuid4().hex}"
        self._epoch = self.count()

    @property
    def epoch(self) -> int:
        """Append epoch: the number of records written through (or found
        by) this handle.  Bumped by :meth:`append_records`/:meth:`save`."""
        return self._epoch

    @property
    def lineage(self) -> str:
        """Cache-identity token, unique per open handle."""
        return self._lineage

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteLogStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing -----------------------------------------------------------

    def save(self, log: Log, *, replace: bool = False) -> None:
        """Persist a whole log.

        With ``replace`` the table is cleared first; otherwise the store
        must be empty (use :meth:`append_records` to extend).
        """
        if replace:
            self.connection.execute("DELETE FROM records")
            # a replace breaks the append-only invariant, so the old
            # lineage (and any cache entries under it) must not survive
            self._lineage = f"sqlite:{uuid4().hex}"
            self._epoch = 0
        elif self.count() > 0:
            raise LogStoreError(
                "store is not empty; pass replace=True or use append_records"
            )
        self._insert(log.records)

    def append_records(self, records: Iterable[LogRecord]) -> int:
        """Append records continuing the stored sequence; returns how many
        were written.  Each record's lsn must be exactly the next one."""
        return self._insert(records)

    def _insert(self, records: Iterable[LogRecord]) -> int:
        next_lsn = self.count() + 1
        rows = []
        for record in records:
            if record.lsn != next_lsn:
                raise LogStoreError(
                    f"expected lsn {next_lsn}, got {record.lsn} "
                    f"(records must continue the stored sequence)"
                )
            rows.append(
                (
                    record.lsn,
                    record.wid,
                    record.is_lsn,
                    record.activity,
                    json.dumps(dict(record.attrs_in), sort_keys=True),
                    json.dumps(dict(record.attrs_out), sort_keys=True),
                )
            )
            next_lsn += 1
        with self.connection:
            self.connection.executemany(
                "INSERT INTO records VALUES (?, ?, ?, ?, ?, ?)", rows
            )
        self._epoch = next_lsn - 1
        return len(rows)

    # -- reading -----------------------------------------------------------

    def count(self) -> int:
        """Number of stored records."""
        (n,) = self.connection.execute("SELECT COUNT(*) FROM records").fetchone()
        return int(n)

    def wids(self) -> tuple[int, ...]:
        """Stored workflow instance ids."""
        rows = self.connection.execute(
            "SELECT DISTINCT wid FROM records ORDER BY wid"
        )
        return tuple(int(w) for (w,) in rows)

    def load(self, *, wids: Iterable[int] | None = None,
             validate: bool = True) -> Log:
        """Materialise the stored log (optionally only some instances,
        with lsn values re-compacted so the result is well-formed)."""
        if wids is None:
            cursor = self.connection.execute(
                "SELECT lsn, wid, is_lsn, activity, attrs_in, attrs_out "
                "FROM records ORDER BY lsn"
            )
        else:
            wanted = sorted(set(int(w) for w in wids))
            placeholders = ",".join("?" for __ in wanted)
            cursor = self.connection.execute(
                "SELECT lsn, wid, is_lsn, activity, attrs_in, attrs_out "
                f"FROM records WHERE wid IN ({placeholders}) ORDER BY lsn",
                wanted,
            )
        records = []
        for position, row in enumerate(cursor, start=1):
            __, wid, is_lsn, activity, attrs_in, attrs_out = row
            records.append(
                LogRecord(
                    lsn=position,
                    wid=int(wid),
                    is_lsn=int(is_lsn),
                    activity=activity,
                    attrs_in=json.loads(attrs_in),
                    attrs_out=json.loads(attrs_out),
                )
            )
        if not records:
            raise LogStoreError("store holds no matching records")
        if wids is None:
            # a full load re-assigns lsn := position, which for the whole
            # ordered table is the identity, so the result is exactly the
            # stored log and carries the handle's cache provenance; the
            # epoch is the row count actually read, so appends made by
            # other handles to the same file still invalidate
            self._epoch = max(self._epoch, len(records))
            return Log(
                records,
                validate=validate,
                epoch=len(records),
                lineage=self._lineage,
                snapshot=True,
            )
        # partial loads compact lsns, producing records that differ from
        # the stored ones — no store provenance
        return Log(records, validate=validate)

    def activity_histogram(self) -> dict[str, int]:
        """Occurrence counts per activity, computed in the database."""
        rows = self.connection.execute(
            "SELECT activity, COUNT(*) FROM records GROUP BY activity"
        )
        return {activity: int(count) for activity, count in rows}

    def __repr__(self) -> str:
        return f"SqliteLogStore({self.path!r}, {self.count()} records)"
