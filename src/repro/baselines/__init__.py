"""Comparator systems.

* :class:`SqlBaseline` — the ETL/OLAP route of the paper's Figure 1:
  records are extracted into a relational warehouse (in-memory SQLite) and
  incident patterns are compiled into self-join SQL.  It shares its
  compiler with the SQL pushdown engine (:mod:`repro.columnar.sqlite`)
  and differs only in the schema: activity names stay text;
* :mod:`repro.baselines.automaton` — a CEP-style sequence matcher in the
  spirit of the ZStream/SASE line of work the paper's Related Work
  discusses: NFA existence checks and chain-based match enumeration for
  the ⊙/⊳/⊗ fragment.
"""

from repro.baselines.automaton import AutomatonBaseline, ChainMatcher
from repro.columnar.sqlite import SqlBaseline, SqlWarehouse, compile_to_sql

__all__ = [
    "SqlWarehouse",
    "SqlBaseline",
    "compile_to_sql",
    "AutomatonBaseline",
    "ChainMatcher",
]
