"""Tests for dataset persistence."""

import json

import pytest

from repro.core import Metric, Platform, REFERENCE_MONTH
from repro.core.errors import DatasetError
from repro.export.io import (
    available_formats,
    convert_dataset,
    detect_format,
    load_dataset,
    save_dataset,
)


@pytest.fixture(scope="module")
def small_slice(generator):
    return generator.generate(
        countries=("US", "KR"),
        platforms=(Platform.WINDOWS,),
        metrics=Metric.studied(),
        months=(REFERENCE_MONTH,),
    )


class TestRoundTrip:
    def test_save_load_identity(self, small_slice, tmp_path):
        save_dataset(small_slice, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert set(loaded.breakdowns()) == set(small_slice.breakdowns())
        for breakdown in small_slice.breakdowns():
            assert loaded[breakdown] == small_slice[breakdown]

    def test_distributions_survive(self, small_slice, tmp_path):
        save_dataset(small_slice, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        original = small_slice.distribution(Platform.WINDOWS, Metric.PAGE_LOADS)
        restored = loaded.distribution(Platform.WINDOWS, Metric.PAGE_LOADS)
        for rank in (1, 100, 9_999):
            assert restored.cumulative_share(rank) == pytest.approx(
                original.cumulative_share(rank)
            )

    def test_metadata_survives(self, small_slice, tmp_path):
        save_dataset(small_slice, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.metadata["seed"] == small_slice.metadata["seed"]

    def test_fingerprint_recorded_in_manifest(self, small_slice, generator, tmp_path):
        root = save_dataset(small_slice, tmp_path / "ds")
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["metadata"]["fingerprint"] == generator.config.fingerprint()

    def test_files_are_plain_text(self, small_slice, tmp_path):
        root = save_dataset(small_slice, tmp_path / "ds")
        files = sorted((root / "lists").glob("*.txt"))
        assert files
        first = files[0].read_text(encoding="utf-8").splitlines()
        assert all(line and " " not in line for line in first[:50])


class TestMetadata:
    """save_dataset must coerce or refuse metadata — never drop it silently."""

    def _dataset_with(self, small_slice, metadata):
        from repro.core import BrowsingDataset

        return BrowsingDataset(
            {b: small_slice[b] for b in small_slice.breakdowns()},
            small_slice.distributions(),
            metadata,
        )

    def test_round_trip_metadata_and_distributions(self, small_slice, tmp_path):
        from repro.core import Metric as M, Platform as P

        dataset = self._dataset_with(small_slice, {
            "seed": 7,
            "note": "hello",
            "ratio": 0.25,
            "flag": True,
            "knobs": {"alpha": 1, "beta": [1, 2, 3]},
        })
        save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert dict(loaded.metadata) == dict(dataset.metadata)
        for platform in (P.WINDOWS,):
            for metric in (M.PAGE_LOADS, M.TIME_ON_PAGE):
                original = dataset.distribution(platform, metric)
                restored = loaded.distribution(platform, metric)
                for rank in (1, 50, 1_000):
                    assert restored.cumulative_share(rank) == pytest.approx(
                        original.cumulative_share(rank)
                    )

    def test_month_and_enum_values_coerced(self, small_slice, tmp_path):
        from repro.core import Metric as M, Month, Platform as P

        dataset = self._dataset_with(small_slice, {
            "month": Month(2022, 2),
            "platform": P.ANDROID,
            "metric": M.TIME_ON_PAGE,
        })
        save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.metadata["month"] == "2022-02"
        assert loaded.metadata["platform"] == "android"
        assert loaded.metadata["metric"] == "time_on_page"

    def test_non_serializable_value_raises(self, small_slice, tmp_path):
        dataset = self._dataset_with(small_slice, {"bad": object()})
        with pytest.raises(DatasetError, match="bad"):
            save_dataset(dataset, tmp_path / "ds")


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="neither manifest.bin"):
            load_dataset(tmp_path)

    def test_wrong_format_version(self, small_slice, tmp_path):
        root = save_dataset(small_slice, tmp_path / "ds")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format_version"] = 999
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError):
            load_dataset(root)

    def test_missing_list_file_names_file_and_breakdown(
        self, small_slice, tmp_path
    ):
        root = save_dataset(small_slice, tmp_path / "ds")
        victim = sorted((root / "lists").glob("*.txt"))[0]
        victim.unlink()
        with pytest.raises(DatasetError, match=f"torn.*{victim.name}"):
            load_dataset(root)

    def test_duplicate_manifest_breakdown_rejected(
        self, small_slice, tmp_path
    ):
        root = save_dataset(small_slice, tmp_path / "ds")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["breakdowns"].append(dict(manifest["breakdowns"][0]))
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="duplicate manifest entry"):
            load_dataset(root)


class TestCodecRegistry:
    def test_both_builtin_codecs_registered(self):
        assert set(available_formats()) >= {"text", "columnar"}

    def test_detect_format(self, small_slice, tmp_path):
        save_dataset(small_slice, tmp_path / "text", format="text")
        save_dataset(small_slice, tmp_path / "col", format="columnar")
        assert detect_format(tmp_path / "text") == "text"
        assert detect_format(tmp_path / "col") == "columnar"
        assert detect_format(tmp_path / "nothing") is None

    def test_binary_manifest_wins_detection(self, small_slice, tmp_path):
        root = tmp_path / "both"
        save_dataset(small_slice, root, format="text")
        save_dataset(small_slice, root, format="columnar")
        assert detect_format(root) == "columnar"

    def test_unknown_format_lists_choices(self, small_slice, tmp_path):
        with pytest.raises(DatasetError, match="columnar.*text"):
            save_dataset(small_slice, tmp_path / "ds", format="parquet")

    def test_explicit_format_overrides_detection(self, small_slice, tmp_path):
        root = tmp_path / "both"
        save_dataset(small_slice, root, format="text")
        save_dataset(small_slice, root, format="columnar")
        eager = load_dataset(root, format="text")
        mapped = load_dataset(root, format="columnar")
        assert eager.storage == "memory"
        assert mapped.storage == "columnar-mmap"


class TestColumnarFormat:
    def test_save_load_identity(self, small_slice, tmp_path):
        save_dataset(small_slice, tmp_path / "ds", format="columnar")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.storage == "columnar-mmap"
        assert set(loaded.breakdowns()) == set(small_slice.breakdowns())
        for breakdown in small_slice.breakdowns():
            assert loaded[breakdown] == small_slice[breakdown]

    def test_metadata_fingerprint_round_trips(
        self, small_slice, generator, tmp_path
    ):
        from repro.export.io import dataset_fingerprint

        save_dataset(small_slice, tmp_path / "ds", format="columnar")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.metadata["fingerprint"] == \
            generator.config.fingerprint()
        assert dataset_fingerprint(loaded) == \
            dataset_fingerprint(small_slice)


class TestConvert:
    def test_text_to_columnar_and_back_is_byte_identical(
        self, small_slice, tmp_path
    ):
        src = save_dataset(small_slice, tmp_path / "src", format="text")
        convert_dataset(src, tmp_path / "col")
        convert_dataset(tmp_path / "col", tmp_path / "back", format="text")
        original = {
            p.relative_to(src): p.read_bytes()
            for p in sorted(src.rglob("*")) if p.is_file()
        }
        reexported = {
            p.relative_to(tmp_path / "back"): p.read_bytes()
            for p in sorted((tmp_path / "back").rglob("*")) if p.is_file()
        }
        assert original == reexported

    def test_convert_onto_itself_rejected(self, small_slice, tmp_path):
        src = save_dataset(small_slice, tmp_path / "src")
        with pytest.raises(DatasetError, match="different from the source"):
            convert_dataset(src, src)

    def test_convert_missing_source(self, tmp_path):
        with pytest.raises(DatasetError, match="no dataset under"):
            convert_dataset(tmp_path / "nope", tmp_path / "dst")


class TestCrashSafety:
    def test_no_temp_litter_either_codec(self, small_slice, tmp_path):
        for format in ("text", "columnar"):
            root = save_dataset(small_slice, tmp_path / format, format=format)
            assert not [
                p for p in root.rglob(".*") if p.is_file()
            ], f"{format} save left temp files behind"

    def test_failed_save_leaves_no_manifest(self, small_slice, tmp_path):
        # Unserializable metadata aborts the save after the list files
        # are written; because the manifest goes last, the directory is
        # not detected as a dataset rather than being detected as torn.
        from repro.core import BrowsingDataset

        bad = BrowsingDataset(
            {b: small_slice[b] for b in small_slice.breakdowns()},
            small_slice.distributions(),
            {"bad": object()},
        )
        root = tmp_path / "ds"
        with pytest.raises(DatasetError):
            save_dataset(bad, root, format="text")
        assert detect_format(root) is None


class TestDeprecatedAliases:
    def test_unknown_attribute_still_raises(self):
        import repro.export.io as io

        # The retired aliases are plain unknown names now.
        for name in ("no_such_name", "_FORMAT_VERSION", "_slug"):
            with pytest.raises(AttributeError):
                getattr(io, name)
