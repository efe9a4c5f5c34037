"""Columnar log core: interned, column-backed log representation and the
set-at-a-time backends built on it.

* :class:`~repro.columnar.column_log.ColumnarLog` — immutable columnar
  form of a :class:`~repro.core.model.Log` (interned dictionaries,
  ``array``-backed columns, per-wid contiguous row ranges);
* :func:`~repro.columnar.column_log.as_columnar` — coercion helper;
* :class:`~repro.columnar.sqlite.SqliteEngine` — SQL pushdown engine
  compiling patterns to SQL over a schema mirroring the columnar layout
  (the one SQL compiler, shared with the ETL baseline's text schema).

The vectorized pairwise engine that evaluates directly over the columns
lives with its siblings in :mod:`repro.core.eval.vectorized`.
"""

from repro.columnar.column_log import ColumnarLog, as_columnar
from repro.columnar.sqlite import SqliteEngine, SqlWarehouse

__all__ = ["ColumnarLog", "SqlWarehouse", "SqliteEngine", "as_columnar"]
