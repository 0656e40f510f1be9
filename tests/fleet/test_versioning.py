"""Version plumbing in the fleet: merged metrics."""

from __future__ import annotations

from repro.fleet.metrics import merge_snapshots


class TestMergedDatasetBlock:
    def _snap(self, version, months, pending=0):
        return {
            "endpoints": {},
            "counters": {},
            "requests_total": 0,
            "dataset": {
                "version": version,
                "months": months,
                "pending_slices": pending,
            },
        }

    def test_converged_fleet(self):
        merged = merge_snapshots([
            self._snap(2, ["2022-01", "2022-02"], pending=1),
            self._snap(2, ["2022-01", "2022-02"], pending=3),
        ])
        block = merged["dataset"]
        assert block["version"] == 2
        assert block["versions"] == [2]
        assert block["converged"] is True
        assert block["months"] == ["2022-01", "2022-02"]
        assert block["pending_slices"] == 4

    def test_mid_ingest_fleet_is_not_converged(self):
        # Versions must not sum: a worker still on v1 next to one on v2
        # reports the newest version and the spread, never "3".
        merged = merge_snapshots([
            self._snap(1, ["2022-01"]),
            self._snap(2, ["2022-01", "2022-02"]),
        ])
        block = merged["dataset"]
        assert block["version"] == 2
        assert block["versions"] == [1, 2]
        assert block["converged"] is False
        assert block["months"] == ["2022-01", "2022-02"]

    def test_versionless_snapshots_merge_without_a_block(self):
        merged = merge_snapshots([
            {"endpoints": {}, "counters": {}, "requests_total": 1},
        ])
        assert "dataset" not in merged


class TestMergedSpans:
    def test_span_blocks_add_and_render_like_one_process(self):
        from repro.obs import SpanAggregate

        one, two = SpanAggregate(), SpanAggregate()
        one.record("http.rankings", 0.5)
        one.record("pipeline.run", 3.0, counters={"executed": 2})
        two.record("http.rankings", 30.0, error=True)
        two.record("http.unknown", 1.5, error=True)
        two.record("pipeline.run", 7.0, counters={"cached": 1})
        merged = merge_snapshots([
            {"spans": one.snapshot(), "cache": {"hits": 1}},
            {"spans": two.snapshot(), "cache": {"hits": 2}},
        ])
        rankings = merged["endpoints"]["rankings"]
        assert (rankings["requests"], rankings["errors"]) == (2, 1)
        assert rankings["latency"]["sum_ms"] == 30.5
        assert rankings["latency"]["max_ms"] == 30.0
        assert rankings["latency"]["buckets"]["le_1ms"] == 1
        assert rankings["latency"]["buckets"]["le_50ms"] == 1
        assert merged["requests_total"] == 3
        assert merged["counters"] == {
            "dataset_reloads": 0, "pipeline_cached": 1,
            "pipeline_executed": 2, "pipeline_runs": 2,
        }
        assert merged["cache"] == {"hits": 3}
