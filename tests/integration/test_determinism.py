"""Integration: reproducibility guarantees across the whole stack."""

from repro.core import Breakdown, Metric, Month, Platform, REFERENCE_MONTH
from repro.engine import GenerationEngine
from repro.synth import GeneratorConfig, TelemetryGenerator


class TestDatasetDeterminism:
    def test_full_dataset_reproducible(self):
        cfg = GeneratorConfig.small(seed=77)
        a = TelemetryGenerator(cfg).generate(
            countries=("US", "KR", "BR"),
            months=(Month(2021, 12), REFERENCE_MONTH),
        )
        b = TelemetryGenerator(cfg).generate(
            countries=("US", "KR", "BR"),
            months=(Month(2021, 12), REFERENCE_MONTH),
        )
        assert set(a.breakdowns()) == set(b.breakdowns())
        for breakdown in a.breakdowns():
            assert a[breakdown] == b[breakdown], breakdown

    def test_subset_generation_matches_superset(self):
        cfg = GeneratorConfig.small(seed=78)
        full = TelemetryGenerator(cfg).generate(countries=("US", "KR", "BR"))
        partial = TelemetryGenerator(cfg).generate(countries=("KR",))
        for breakdown in partial.breakdowns():
            assert partial[breakdown] == full[breakdown]

    def test_emit_mode_does_not_change_ranking(self):
        canonical = TelemetryGenerator(GeneratorConfig.small(seed=79))
        domains = TelemetryGenerator(
            GeneratorConfig.small(seed=79, emit="domains")
        )
        a = canonical.rank_list("JP", Platform.WINDOWS, Metric.TIME_ON_PAGE)
        b = domains.rank_list("JP", Platform.WINDOWS, Metric.TIME_ON_PAGE)
        # Same underlying ranking: same length, same positions for
        # single-domain sites.
        assert len(a) == len(b)
        assert sum(1 for x, y in zip(a.sites, b.sites) if x == y) > 0.9 * len(a)

    def test_slice_byte_identical_across_generation_paths(self, generator):
        """The engine refactor's core invariant: a single ``rank_list``
        slice, the same slice from a full ``generate()`` grid, and the
        same slice from an engine built from the config alone are
        byte-identical."""
        config = generator.config
        breakdown = Breakdown(
            "KR", Platform.ANDROID, Metric.TIME_ON_PAGE, REFERENCE_MONTH
        )
        direct = generator.rank_list(
            breakdown.country, breakdown.platform, breakdown.metric,
            breakdown.month,
        )
        full = generator.generate(countries=("KR", "US"))[breakdown]
        engine = GenerationEngine(config).generate(
            countries=("KR", "US")
        )[breakdown]

        def blob(ranked):
            return ("\n".join(ranked.sites) + "\n").encode("utf-8")

        assert blob(direct) == blob(full) == blob(engine)

    def test_distribution_curves_identical_across_instances(self):
        a = TelemetryGenerator(GeneratorConfig.small(seed=80))
        b = TelemetryGenerator(GeneratorConfig.small(seed=80))
        for platform in Platform.studied():
            for metric in Metric.studied():
                assert (
                    a.distribution(platform, metric).anchors
                    == b.distribution(platform, metric).anchors
                )
