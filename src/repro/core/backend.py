"""The :class:`Backend` enumeration — one typed home for the execution
backend names that used to float around as bare strings in
:class:`~repro.core.options.EngineOptions`,
:class:`~repro.exec.parallel.ParallelExecutor`, the CLI and the service
schemas.

``Backend`` is a :class:`str` subclass (the pre-3.11 spelling of
``enum.StrEnum``), so every existing comparison, dict lookup, format
string and JSON serialisation keeps working with the member in place of
the raw string — ``Backend.PROCESS == "process"``,
``{"process": ...}[Backend.PROCESS]`` and ``json.dumps`` all behave as
before.  Old string values therefore remain valid everywhere; they are
coerced to members at the API boundary by :meth:`Backend.coerce`, which
is also where unknown names fail with an error listing the valid
members.

``CACHE`` is a reporting label only (a warm result-cache hit short-cuts
the fan-out and the outcome says so); it is never requestable.  SQL
pushdown is an *engine* (``EngineOptions(engine="sqlite")``), not a
backend: it evaluates in-database instead of choosing how to fan out.
"""

from __future__ import annotations

from enum import Enum

from repro.core.errors import ReproError

__all__ = ["Backend"]


class Backend(str, Enum):
    """Execution backend of one query evaluation (see module docs)."""

    #: Let the dispatch cost model pick between serial and process.
    AUTO = "auto"
    #: Evaluate in the calling thread (one shard, no pool).
    SERIAL = "serial"
    #: Thread-pool fan-out (GIL-bound; useful for I/O-heavy engines).
    THREAD = "thread"
    #: Process-pool fan-out (true CPU parallelism, pays pickling).
    PROCESS = "process"
    #: Served from the result cache — reporting label, never requestable.
    CACHE = "cache"

    # str-mixin behaviour, matching enum.StrEnum (python >= 3.11) so the
    # members format/print as their plain values on 3.10 too
    __str__ = str.__str__
    __format__ = str.__format__

    @classmethod
    def requestable(cls) -> tuple["Backend", ...]:
        """Members a caller may ask for (everything except ``CACHE``)."""
        return (cls.AUTO, cls.SERIAL, cls.THREAD, cls.PROCESS)

    @classmethod
    def coerce(cls, value: "Backend | str", *, where: str = "backend") -> "Backend":
        """``value`` as a :class:`Backend` member.

        Accepts members and their string values.  Unknown values and the
        ``CACHE`` label raise :class:`~repro.core.errors.ReproError`
        naming the requestable members.
        """
        allowed = cls.requestable()
        try:
            member = value if isinstance(value, cls) else cls(value)
        except ValueError:
            member = None
        if member is None or member not in allowed:
            raise ReproError(
                f"unknown {where} {str(value)!r}; "
                f"available: {tuple(m.value for m in allowed)}"
            )
        return member
