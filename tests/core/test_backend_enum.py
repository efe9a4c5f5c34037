"""The ``Backend`` enum: string compatibility, coercion and the
requestable members."""

import pytest

from repro.core.backend import Backend
from repro.core.errors import ReproError
from repro.core.options import EngineOptions
from repro.exec.parallel import ParallelExecutor


class TestStringCompatibility:
    def test_members_are_their_values(self):
        assert Backend.PROCESS == "process"
        assert str(Backend.PROCESS) == "process"
        assert f"{Backend.THREAD}" == "thread"
        assert Backend.SERIAL in ("serial", "other")

    def test_members_hash_like_their_values(self):
        table = {"process": 1, "serial": 2}
        assert table[Backend.PROCESS] == 1

    def test_every_member_but_cache_is_requestable(self):
        assert set(Backend.requestable()) == set(Backend) - {Backend.CACHE}


class TestCoerce:
    def test_valid_strings_coerce_to_members(self):
        assert Backend.coerce("process") is Backend.PROCESS
        assert Backend.coerce(Backend.AUTO) is Backend.AUTO

    def test_unknown_value_lists_the_valid_members(self):
        with pytest.raises(ReproError) as err:
            Backend.coerce("bogus")
        message = str(err.value)
        assert "bogus" in message
        for member in Backend.requestable():
            assert member.value in message

    def test_sql_pushdown_is_an_engine_not_a_backend(self):
        with pytest.raises(ReproError, match="unknown backend 'sqlite'"):
            Backend.coerce("sqlite")


class TestOptionIntegration:
    def test_old_string_values_keep_working(self):
        options = EngineOptions(backend="process", jobs=2)
        assert options.backend is Backend.PROCESS
        assert options.backend == "process"

    def test_unknown_backend_is_rejected_with_members(self):
        with pytest.raises(ReproError, match="process"):
            EngineOptions(backend="warp-drive")

    def test_cache_backend_is_internal_only(self):
        with pytest.raises(ReproError):
            EngineOptions(backend="cache")

    def test_executor_accepts_strings_and_members(self):
        assert ParallelExecutor(jobs=1, backend="serial").backend is Backend.SERIAL
        assert (
            ParallelExecutor(jobs=1, backend=Backend.THREAD).backend
            is Backend.THREAD
        )

    def test_executor_rejects_sqlite(self):
        with pytest.raises(ReproError, match="executor backend"):
            ParallelExecutor(jobs=1, backend="sqlite")
