"""Integration tests for the PebbleSession API wrapper (Fig. 5)."""

import pytest

from repro.errors import CaptureDisabledError, ExecutionError
from repro.pebble.api import CapturedExecution, PebbleSession
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    build_running_example,
)
from repro.core.treepattern.pattern import TreePattern, child, descendant


class TestPebbleSession:
    def test_run_captures(self, pebble, example_tweets):
        pipeline = build_running_example(pebble.session, example_tweets)
        captured = pebble.run(pipeline)
        assert isinstance(captured, CapturedExecution)
        assert len(captured.items()) == 3
        assert all(isinstance(pid, int) for pid, _ in captured.rows())

    def test_run_plain_has_no_store(self, pebble, example_tweets):
        pipeline = build_running_example(pebble.session, example_tweets)
        execution = pebble.run_plain(pipeline)
        assert execution.store is None
        with pytest.raises(CaptureDisabledError):
            query_provenance(execution, RUNNING_EXAMPLE_PATTERN)

    def test_captured_execution_requires_store(self, pebble, example_tweets):
        pipeline = build_running_example(pebble.session, example_tweets)
        with pytest.raises(CaptureDisabledError):
            CapturedExecution(pipeline.execute(capture=False))

    def test_backtrace_accepts_text_pattern(self, pebble, example_tweets):
        pipeline = build_running_example(pebble.session, example_tweets)
        captured = pebble.run(pipeline)
        provenance = captured.backtrace(RUNNING_EXAMPLE_PATTERN)
        assert provenance.all_ids()["tweets.json"] == [2, 3]

    def test_backtrace_accepts_pattern_object(self, pebble, example_tweets):
        pipeline = build_running_example(pebble.session, example_tweets)
        captured = pebble.run(pipeline)
        pattern = TreePattern.root(
            descendant("id_str", equals="lp"),
            child("tweets", child("text", equals="Hello World", count=(2, 2))),
        )
        provenance = captured.backtrace(pattern)
        assert provenance.all_ids()["tweets.json"] == [2, 3]

    def test_match_phase_alone(self, pebble, example_tweets):
        pipeline = build_running_example(pebble.session, example_tweets)
        captured = pebble.run(pipeline)
        matches = captured.match(RUNNING_EXAMPLE_PATTERN)
        assert len(matches) == 1

    def test_size_report(self, pebble, example_tweets):
        pipeline = build_running_example(pebble.session, example_tweets)
        captured = pebble.run(pipeline)
        report = captured.size_report()
        assert report.lineage_bytes > 0
        assert report.structural_bytes > 0

    def test_read_jsonl_roundtrip(self, tmp_path):
        from repro.nested.json_io import write_jsonl
        from repro.nested.values import DataItem

        path = tmp_path / "tweets.jsonl"
        write_jsonl(path, [DataItem(text="hello", n=1)])
        pebble = PebbleSession(num_partitions=2)
        ds = pebble.read_jsonl(path)
        captured = pebble.run(ds.select("text"))
        provenance = captured.backtrace('root{/text="hello"}')
        assert provenance.sources[0].ids() == [1]

    def test_repeated_queries_on_one_capture(self, pebble, example_tweets):
        """Holistic capture pays once; many questions can follow (Sec. 1)."""
        pipeline = build_running_example(pebble.session, example_tweets)
        captured = pebble.run(pipeline)
        first = captured.backtrace(RUNNING_EXAMPLE_PATTERN)
        second = captured.backtrace('root{//id_str="jm"}')
        third = captured.backtrace(RUNNING_EXAMPLE_PATTERN)
        assert first.all_ids() == third.all_ids()
        assert second.all_ids() != first.all_ids()


@pytest.mark.parametrize("layout", ["rows", "columnar"])
def test_layout_keyword_is_deprecated(layout, example_tweets):
    """Rows are the only partition layout: ``rows`` warns, anything else fails."""
    if layout != "rows":
        with pytest.raises(ExecutionError, match="unknown layout"):
            PebbleSession(layout=layout)
        return
    with pytest.warns(DeprecationWarning, match="layout"):
        pebble = PebbleSession(layout=layout)
    captured = pebble.run(build_running_example(pebble.session, example_tweets))
    assert captured.backtrace(RUNNING_EXAMPLE_PATTERN).all_ids()["tweets.json"] == [2, 3]
