"""Each site's universe uid under both codecs: round trips, versions, damage.

A site's ground truth (category, tags, Android app) lives once, in the
universe; the dataset stores one ``int32`` column mapping site id to
universe uid.  The columnar store keeps it as ``uids.bin``, the text
codec as the ``sites.tsv`` sidecar (``site<TAB>uid`` in id order, which
also numbers a text load's sites); both record its count and SHA-256
in the manifest.  These tests pin the byte-identical round trip, the
per-version prefix an ``as_of`` load reads, and that a truncated,
altered or missing file raises :class:`DatasetError` naming the file
rather than serving wrong labels.
"""

from __future__ import annotations

import filecmp
import shutil

import numpy as np
import pytest

from repro.core import Breakdown, BrowsingDataset, Metric, Month, Platform
from repro.core.errors import DatasetError
from repro.export.io import SITES_TEXT, convert_dataset, load_dataset, save_dataset
from repro.store import UIDS_NAME, ingest_months

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


def _uid_of(dataset) -> dict[str, int]:
    return dict(zip(dataset.site_table().tolist(), dataset.site_uids().tolist()))


class TestTable:
    def test_matches_the_generator(self, dataset, generator):
        universe = generator.universe
        uid_of = _uid_of(dataset)
        assert set(uid_of) == _union(dataset)
        assert all(universe.canonical[uid] == site for site, uid in uid_of.items())
        naver = uid_of["naver.com"]
        assert universe.category_of(naver) == generator.site_categories()["naver.com"]
        assert universe.has_android_app[naver]

    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_saved_table_reads_back(self, dataset, fmt, tmp_path):
        save_dataset(dataset, tmp_path / "ds", format=fmt)
        stored = load_dataset(tmp_path / "ds")
        assert _uid_of(stored) == _uid_of(dataset)
        assert stored.site_table().tolist() == dataset.site_table().tolist()

    def test_text_columnar_text_is_byte_identical(self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "text", format="text")
        convert_dataset(tmp_path / "text", tmp_path / "col", format="columnar")
        convert_dataset(tmp_path / "col", tmp_path / "back", format="text")
        assert (tmp_path / "col" / UIDS_NAME).is_file()
        for name in ("manifest.json", SITES_TEXT):
            assert filecmp.cmp(tmp_path / "text" / name,
                               tmp_path / "back" / name, shallow=False), name

    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_a_tab_in_a_site_name_reads_back(self, fmt, tmp_path):
        names = np.array(["tab\tsite", "plain"], dtype=object)
        breakdown = Breakdown("US", Platform.WINDOWS, Metric.PAGE_LOADS, MONTHS[0])
        dataset = BrowsingDataset.from_windows(
            {breakdown: (0, 2)}, np.arange(2, dtype=np.int32), lambda: names,
            {}, {}, np.array([-1, 7], dtype=np.int32),
        )
        save_dataset(dataset, tmp_path / "ds", format=fmt)
        assert _uid_of(load_dataset(tmp_path / "ds")) == {"tab\tsite": -1, "plain": 7}


class TestVersions:
    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_as_of_reads_the_version_prefix(self, ingested, fmt, dataset):
        old = load_dataset(ingested / fmt, as_of=1)
        assert old.all_sites() == _union(old) == _union(dataset)
        assert _uid_of(old) == _uid_of(dataset)
        latest = load_dataset(ingested / fmt)
        assert len(latest.site_uids()) == len(latest.site_table())
        assert set(_uid_of(latest)) == _union(latest)

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
        assert _uid_of(crashed) == _uid_of(dataset)

        ingest_months(root, [NEW_MONTH])
        compared = filecmp.dircmp(root, ingested / "columnar")
        assert not compared.diff_files and not compared.left_only

    def test_columnar_rows_follow_vocabulary_ids(self, ingested):
        # The sidecar numbers a text load's sites as vocab.bin does, so
        # the two codecs agree on every id after an ingest.
        mapped = load_dataset(ingested / "columnar")
        text = load_dataset(ingested / "text")
        assert text.site_table().tolist() == mapped.site_table().tolist()
        assert np.array_equal(text.site_uids(), mapped.site_uids())
        for breakdown in mapped.breakdowns():
            assert np.array_equal(text.window(breakdown), mapped.window(breakdown))


def _damaged(ingested, fmt, tmp_path):
    target = tmp_path / fmt
    convert_dataset(ingested / fmt, target, format=fmt)
    return target, target / (UIDS_NAME if fmt == "columnar" else SITES_TEXT)


class TestDamage:
    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_truncated_file_raises(self, ingested, fmt, tmp_path):
        root, path = _damaged(ingested, fmt, tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(DatasetError, match=path.name):
            load_dataset(root).site_uids()

    def test_altered_column_fails_the_digest(self, ingested, tmp_path):
        root, path = _damaged(ingested, "columnar", tmp_path)
        data = bytearray(path.read_bytes())
        data[24] ^= 0x01  # the first site's uid
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match=f"{path.name}: .*digest"):
            load_dataset(root).site_uids()

    def test_altered_row_fails_the_digest(self, ingested, tmp_path):
        root, path = _damaged(ingested, "text", tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        site, uid = lines[0].split("\t")
        lines[0] = f"{site}\t{int(uid) + 1}\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DatasetError, match=f"{path.name}: .*digest"):
            load_dataset(root).site_uids()

    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_missing_file_raises(self, ingested, fmt, tmp_path):
        root, path = _damaged(ingested, fmt, tmp_path)
        path.unlink()
        with pytest.raises(DatasetError, match=f"{path.name}, but the file is absent"):
            load_dataset(root).site_uids()
