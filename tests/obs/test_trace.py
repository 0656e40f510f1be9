"""Tests for repro.obs: spans, collectors, the disabled tracer, JSONL
round-trips and the trace summary."""

import json
import threading

import pytest

from repro.obs import (
    AGGREGATE,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanAggregate,
    Tracer,
    format_summary,
    get_tracer,
    name_rows,
    read_trace,
    set_tracer,
    slowest_spans,
    tracing,
)


class TestSpanNesting:
    def test_child_parents_to_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.collector.snapshot()
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert outer["parent"] is None
        assert inner["parent"] == outer["span"]
        assert inner["trace"] == outer["trace"] == tracer.trace_id

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, root = tracer.collector.snapshot()
        assert a["parent"] == b["parent"] == root["span"]
        assert a["span"] != b["span"]

    def test_current_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_attrs_and_counters_round_trip(self):
        tracer = Tracer()
        with tracer.span("work", country="US") as span:
            span.set("platform", "windows")
            span.add("cache_hits")
            span.add("cache_hits", 2)
        (item,) = tracer.collector.snapshot()
        assert item["attrs"] == {"country": "US", "platform": "windows"}
        assert item["counters"] == {"cache_hits": 3}

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        inner, outer = tracer.collector.snapshot()
        assert inner["status"] == outer["status"] == "error"
        assert inner["error"] == "ValueError: boom"
        assert tracer.current is None  # stack fully unwound

    def test_duration_is_monotonic_nonnegative(self):
        tracer = Tracer()
        with tracer.span("timed"):
            pass
        (item,) = tracer.collector.snapshot()
        assert item["duration_ms"] >= 0.0


class TestThreadSafety:
    def test_per_thread_stacks_stay_independent(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)
        failures = []

        def work(tag):
            try:
                barrier.wait()
                for i in range(50):
                    with tracer.span(f"{tag}") as outer:
                        with tracer.span(f"{tag}.child") as child:
                            if child.parent_id != outer.span_id:
                                failures.append((tag, i))
            except Exception as exc:  # pragma: no cover - debug aid
                failures.append(exc)

        threads = [
            threading.Thread(target=work, args=(f"t{n}",)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        spans = tracer.collector.snapshot()
        assert len(spans) == 4 * 50 * 2
        ids = [s["span"] for s in spans]
        assert len(set(ids)) == len(ids)  # globally unique despite racing


class TestNullShim:
    def test_null_span_times_into_the_aggregate(self):
        tracer = NullTracer()
        first = tracer.span("test.null_a", country="US")
        assert isinstance(first, Span) and first.span_id is None
        assert tracer.span("test.null_b") is not first
        before = AGGREGATE.snapshot().get("test.null_a", {}).get("count", 0)
        with first as span:
            assert span.set("k", "v") is span
            assert span.add("n", 5) is span
        entry = AGGREGATE.snapshot()["test.null_a"]
        assert entry["count"] == before + 1
        assert entry["counters"]["n"] >= 5
        assert first.duration_ms >= 0.0 and first.status == "ok"
        assert tracer.current is None  # nothing joined a span stack

    def test_null_tracer_surface(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.current is None
        assert NULL_TRACER.snapshot() == {"enabled": False}

    def test_null_span_swallows_nothing(self):
        errors = AGGREGATE.snapshot().get("test.null_x", {}).get("errors", 0)
        with pytest.raises(RuntimeError):
            with NULL_TRACER.span("test.null_x"):
                raise RuntimeError("through")
        assert AGGREGATE.snapshot()["test.null_x"]["errors"] == errors + 1

    def test_default_active_tracer_is_the_shim(self):
        assert get_tracer() is NULL_TRACER


class TestTracingScope:
    def test_none_path_is_transparent(self, tmp_path):
        before = get_tracer()
        with tracing(None) as tracer:
            assert tracer is before
            assert get_tracer() is before
        assert get_tracer() is before

    def test_installs_writes_and_restores(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with tracing(path) as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
            with tracer.span("scoped"):
                pass
        assert get_tracer() is NULL_TRACER
        (span,) = read_trace(path)
        assert span["name"] == "scoped"

    def test_restores_previous_even_on_error(self, tmp_path):
        path = tmp_path / "err.jsonl"
        with pytest.raises(KeyError):
            with tracing(path):
                with get_tracer().span("doomed"):
                    raise KeyError("x")
        assert get_tracer() is NULL_TRACER
        (span,) = read_trace(path)
        assert span["status"] == "error"

    def test_set_tracer_returns_previous(self):
        mine = Tracer()
        previous = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            assert set_tracer(previous) is mine
        assert get_tracer() is previous


class TestJsonlRoundTrip:
    def test_write_then_read_preserves_spans(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", month="2022-02"):
            with tracer.span("inner") as inner:
                inner.add("rows", 42)
        path = tracer.write(tmp_path / "trace.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # every line is self-contained JSON
        assert read_trace(path) == tracer.collector.snapshot()

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"name": "a"}\n\n{"name": "b"}\n\n')
        assert [s["name"] for s in read_trace(path)] == ["a", "b"]

    def test_snapshot_block_shape(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        assert tracer.snapshot() == {
            "enabled": True,
            "trace_id": tracer.trace_id,
            "spans": 1,
        }


class TestSummary:
    def _spans(self):
        return [
            {"trace": "t1", "name": "slow", "duration_ms": 30.0,
             "status": "ok", "attrs": {"task": "has_app"}},
            {"trace": "t1", "name": "fast", "duration_ms": 1.0,
             "status": "error"},
            {"trace": "t1", "name": "fast", "duration_ms": 3.0,
             "status": "ok"},
        ]

    def test_slowest_spans_rank_and_detail(self):
        rows = slowest_spans(self._spans(), top=2)
        assert [r[0] for r in rows] == ["slow", "fast"]
        assert rows[0][3] == "task=has_app"

    def test_aggregate_orders_by_total(self):
        rows = name_rows(SpanAggregate.of(self._spans()).snapshot())
        assert rows[0] == ("slow", "1", "30.000", "30.000", "30.000", "0")
        assert rows[1] == ("fast", "2", "4.000", "2.000", "3.000", "1")

    def test_format_summary_header(self):
        text = format_summary(self._spans(), top=2)
        assert "3 spans across 1 trace(s), 1 error(s)" in text
        assert "top 2 slowest spans" in text
        assert "by span name" in text
