"""Tests for the span aggregate: buckets, totals, thread safety."""

import json
import sys
import threading

from repro.obs import LATENCY_BUCKETS_MS, NullTracer, SpanAggregate


class TestLatencyHistogram:
    def test_observations_land_in_correct_buckets(self):
        aggregate = SpanAggregate()
        aggregate.record("x", 0.4)            # -> first bucket
        aggregate.record("x", 30.0)           # -> le_50ms
        aggregate.record("x", 5000.0)         # -> overflow bucket
        snap = aggregate.snapshot()["x"]
        assert snap["count"] == 3
        assert snap["buckets"]["le_1ms"] == 1
        assert snap["buckets"]["le_50ms"] == 1
        assert snap["buckets"]["gt_1000ms"] == 1

    def test_sum_and_max_track_milliseconds(self):
        aggregate = SpanAggregate()
        aggregate.record("x", 2.0)
        aggregate.record("x", 10.0)
        snap = aggregate.snapshot()["x"]
        assert snap["sum_ms"] == 12.0
        assert snap["max_ms"] == 10.0

    def test_bucket_count_covers_bounds_plus_overflow(self):
        aggregate = SpanAggregate()
        aggregate.record("x", 1.0)  # a bound is inclusive: le_1ms
        buckets = aggregate.snapshot()["x"]["buckets"]
        assert len(buckets) == len(LATENCY_BUCKETS_MS) + 1
        assert buckets["le_1ms"] == 1


class TestSpanAggregate:
    def test_observe_counts_requests_and_errors(self):
        aggregate = SpanAggregate()
        aggregate.record("http.rankings", 1.0)
        aggregate.record("http.rankings", 2.0, error=True)
        snap = aggregate.snapshot()["http.rankings"]
        assert snap["count"] == 2
        assert snap["errors"] == 1
        assert sum(snap["buckets"].values()) == 2

    def test_named_counters_accumulate(self):
        aggregate = SpanAggregate()
        aggregate.record("pipeline.run", 1.0, counters={"executed": 1})
        aggregate.record("pipeline.run", 1.0,
                         counters={"executed": 2, "cached": 1})
        aggregate.record("store.open", 1.0)
        snap = aggregate.snapshot()
        assert snap["pipeline.run"]["counters"] == {"cached": 1, "executed": 3}
        assert "counters" not in snap["store.open"]

    def test_snapshot_is_json_shaped_and_sorted(self):
        aggregate = SpanAggregate()
        aggregate.record("b", 1.0)
        aggregate.record("a", 1.0)
        snap = aggregate.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap) == ["a", "b"]
        aggregate.clear()
        assert aggregate.snapshot() == {}

    def test_concurrent_observations_are_not_lost(self):
        aggregate = SpanAggregate()

        def hammer():
            for _ in range(20_000):
                aggregate.record("x", 0.1, counters={"n": 1})

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-update
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = aggregate.snapshot()["x"]
        assert snap["count"] == 160_000
        assert snap["counters"]["n"] == 160_000

    def test_of_folds_span_dicts_like_closed_spans(self):
        spans = [
            {"name": "a", "duration_ms": 2.0, "status": "ok",
             "counters": {"rows": 3}},
            {"name": "a", "duration_ms": 4.0, "status": "error"},
        ]
        snap = SpanAggregate.of(spans).snapshot()["a"]
        assert (snap["count"], snap["errors"], snap["sum_ms"]) == (2, 1, 6.0)
        assert snap["counters"] == {"rows": 3}


def test_every_span_closes_into_the_process_aggregate():
    from repro.obs import AGGREGATE, Tracer

    def count(name):
        return AGGREGATE.snapshot().get(name, {}).get("count", 0)

    before = count("test.closed")
    with NullTracer().span("test.closed"):
        pass
    with Tracer().span("test.closed"):
        pass
    assert count("test.closed") == before + 2
