"""The LogView access protocol: both representations satisfy it, the
attribute/method dual access works, and the record view is an immutable
tuple with no list-mutation surface."""

import pytest

from repro.core.model import Log
from repro.core.view import ActivitySet, LogView, RecordsView
from repro.exec.shard import plan_shards
from repro.logstore.index import LogIndex

MUTATORS = ["append", "extend", "insert", "remove", "pop", "clear", "sort"]


class TestProtocol:
    def test_both_representations_are_log_views(self, figure3_log):
        assert isinstance(figure3_log, LogView)
        assert isinstance(figure3_log.columnar(), LogView)

    def test_attribute_and_method_access_agree(self, figure3_log):
        for view in (figure3_log, figure3_log.columnar()):
            # records() is lsn-ordered by contract; iteration order is
            # representation-specific (row order for the columnar view)
            assert view.records() == tuple(
                sorted(view, key=lambda r: r.lsn)
            )
            assert view.activities() == {r.activity for r in view}
            assert len(view.records()) == len(view)

    def test_log_records_is_a_callable_tuple(self, figure3_log):
        records = figure3_log.records
        assert isinstance(records, RecordsView)
        assert isinstance(records, tuple)
        assert records() is records
        assert records[0].lsn == 1
        assert list(records[:2]) == list(records)[:2]

    def test_log_activities_is_a_callable_frozenset(self, figure3_log):
        activities = figure3_log.activities
        assert isinstance(activities, ActivitySet)
        assert isinstance(activities, frozenset)
        assert activities() is activities
        assert "GetRefer" in activities

    def test_wid_slice_matches_between_representations(self, figure3_log):
        columnar = figure3_log.columnar()
        for wid in figure3_log.wids:
            assert columnar.wid_slice(wid) == figure3_log.wid_slice(wid)
        assert columnar.wid_slice(9999) == figure3_log.wid_slice(9999) == ()


class TestImmutability:
    @pytest.mark.parametrize("name", MUTATORS)
    def test_records_view_has_no_list_mutators(self, figure3_log, name):
        assert not hasattr(figure3_log.records, name)

    def test_item_assignment_raises(self, figure3_log):
        with pytest.raises(TypeError):
            figure3_log.records[0] = None

    def test_item_deletion_raises(self, figure3_log):
        with pytest.raises(TypeError):
            del figure3_log.records[0]


class TestViewConsumers:
    def test_shard_planner_accepts_both_representations(self, figure3_log):
        from_log = plan_shards(figure3_log, 2)
        from_columnar = plan_shards(figure3_log.columnar(), 2)
        from_log.verify_lossless()  # raises on any dropped/duplicated record
        from_columnar.verify_lossless()
        assert [s.log.wids for s in from_log.shards] == [
            s.log.wids for s in from_columnar.shards
        ]

    def test_log_index_builds_from_either_view(self, figure3_log):
        reference = LogIndex.from_log(figure3_log)
        from_view = LogIndex.from_view(figure3_log)
        from_columnar = LogIndex.from_view(figure3_log.columnar())
        for index in (from_view, from_columnar):
            assert index.activities == reference.activities
            for wid in figure3_log.wids:
                for name in reference.activities:
                    assert index.positions(wid, name) == reference.positions(
                        wid, name
                    )

    def test_plain_sequences_are_not_log_views(self):
        assert not isinstance([], LogView)
        assert not isinstance((), LogView)
        assert not isinstance(Log.from_traces({1: ["A"]}).records, LogView)
