"""The ground-truth table under both codecs: round trips, versions, damage.

The columnar store keeps the table as a column family keyed by
vocabulary id (``truth.bin``), the text codec as a JSON-lines sidecar;
both record its row count and SHA-256 in the manifest.  These tests pin
the byte-identical round trip, the per-version prefix an ``as_of`` load
reads, and that a truncated, altered or missing file raises
:class:`DatasetError` rather than serving wrong labels.
"""

from __future__ import annotations

import filecmp
import json
import shutil

import pytest

from repro.core import Metric, Month, Platform
from repro.core.errors import DatasetError
from repro.export.io import TRUTH_TEXT, convert_dataset, load_dataset, save_dataset
from repro.store import TRUTH_NAME, ingest_months

COUNTRIES = ("US", "KR", "JP")
MONTHS = (Month(2021, 11),)
NEW_MONTH = Month(2021, 12)


@pytest.fixture(scope="module")
def dataset(generator):
    return generator.generate(
        countries=COUNTRIES, platforms=(Platform.WINDOWS,),
        metrics=(Metric.PAGE_LOADS,), months=MONTHS,
    )


@pytest.fixture(scope="module")
def ingested(dataset, tmp_path_factory):
    """Text and columnar copies of ``dataset``, each with one month ingested."""
    root = tmp_path_factory.mktemp("ingested")
    for fmt in ("text", "columnar"):
        save_dataset(dataset, root / fmt, format=fmt)
        ingest_months(root / fmt, [NEW_MONTH])
    return root


def _union(dataset) -> frozenset[str]:
    return frozenset(s for b in dataset.breakdowns() for s in dataset[b].sites)


class TestTable:
    def test_matches_the_generator(self, dataset, generator):
        truth = dataset.ground_truth()
        assert set(truth.sites) == _union(dataset)
        labels = generator.site_categories()
        assert truth.labels() == {s: labels[s] for s in truth.sites if s in labels}
        assert truth.labels()["naver.com"] == labels["naver.com"]
        assert "naver.com" in truth.app_sites()

    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_saved_table_reads_back(self, dataset, fmt, tmp_path):
        save_dataset(dataset, tmp_path / "ds", format=fmt)
        stored = load_dataset(tmp_path / "ds").ground_truth()
        want = dataset.ground_truth()
        assert stored.labels() == want.labels()
        assert stored.tags_by_site() == want.tags_by_site()
        assert sorted(stored.app_sites()) == sorted(want.app_sites())

    def test_text_columnar_text_is_byte_identical(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "text", format="text")
        convert_dataset(tmp_path / "text", tmp_path / "col", format="columnar")
        convert_dataset(tmp_path / "col", tmp_path / "back", format="text")
        assert (tmp_path / "col" / TRUTH_NAME).is_file()
        for name in ("manifest.json", TRUTH_TEXT):
            assert filecmp.cmp(tmp_path / "text" / name,
                               tmp_path / "back" / name, shallow=False), name


class TestVersions:
    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_as_of_reads_the_version_prefix(self, ingested, fmt, dataset):
        old = load_dataset(ingested / fmt, as_of=1)
        assert old.all_sites() == _union(old) == _union(dataset)
        truth = old.ground_truth()
        assert set(truth.sites) == _union(dataset)
        latest = load_dataset(ingested / fmt)
        assert set(latest.ground_truth().sites) == _union(latest)

    def test_columnar_all_sites_equals_text(self, ingested):
        for version in (1, 2):
            text = load_dataset(ingested / "text", as_of=version)
            mapped = load_dataset(ingested / "columnar", as_of=version)
            assert mapped.all_sites() == text.all_sites() == _union(text)

    def test_crashed_ingest_tail_is_invisible_then_overwritten(
        self, ingested, dataset, tmp_path
    ):
        # Grown data files under the version-1 manifest: an ingest that
        # died just before landing its manifest.
        root = tmp_path / "crashed"
        shutil.copytree(ingested / "columnar", root)
        shutil.move(root / "versions" / "manifest.v1.bin", root / "manifest.bin")
        crashed = load_dataset(root)
        assert crashed.all_sites() == _union(dataset)
        assert set(crashed.ground_truth().sites) == _union(dataset)

        ingest_months(root, [NEW_MONTH])
        compared = filecmp.dircmp(root, ingested / "columnar")
        assert not compared.diff_files and not compared.left_only

    def test_columnar_rows_follow_vocabulary_ids(self, ingested):
        mapped = load_dataset(ingested / "columnar")
        assert mapped.ground_truth().sites == tuple(mapped.site_table().tolist())


def _damaged(ingested, fmt, tmp_path):
    target = tmp_path / fmt
    convert_dataset(ingested / fmt, target, format=fmt)
    return target, target / (TRUTH_NAME if fmt == "columnar" else TRUTH_TEXT)


class TestDamage:
    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_truncated_file_raises(self, ingested, fmt, tmp_path):
        root, path = _damaged(ingested, fmt, tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(DatasetError):
            load_dataset(root).ground_truth()

    def test_altered_column_fails_the_digest(self, ingested, tmp_path):
        root, path = _damaged(ingested, "columnar", tmp_path)
        data = bytearray(path.read_bytes())
        rows = int.from_bytes(data[16:24], "little")  # header count
        apps = 24 + 6 * rows  # the has-app column
        data[data.index(1, apps, apps + rows)] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="digest"):
            load_dataset(root).ground_truth()

    def test_altered_row_fails_the_digest(self, ingested, tmp_path):
        root, path = _damaged(ingested, "text", tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        site, category, app, tags = json.loads(lines[0])
        lines[0] = json.dumps([site, "Gambling", app, tags]) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DatasetError, match="digest"):
            load_dataset(root).ground_truth()

    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_missing_file_raises(self, ingested, fmt, tmp_path):
        root, path = _damaged(ingested, fmt, tmp_path)
        path.unlink()
        dataset = load_dataset(root)
        with pytest.raises(DatasetError, match="absent"):
            dataset.ground_truth()
