"""Tests for the columnar dataset layout and its memory-mapped view."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import BrowsingDataset, Metric, Platform, SiteVocabulary
from repro.core.errors import DatasetError, MissingBreakdownError
from repro.export.io import dataset_fingerprint, save_dataset
from repro.store import (
    LISTS_NAME,
    MANIFEST_NAME,
    VOCAB_NAME,
    open_columnar,
)
from repro.store.format import (
    HEADER_SIZE,
    MAGIC_LISTS,
    MAGIC_MANIFEST,
    MAGIC_VOCAB,
    pack_header,
    pack_manifest,
    pack_string_table,
    unpack_manifest,
    unpack_string_table,
)

from .conftest import KR_TIME, US_PAGE_LOADS, make_tiny_dataset


@pytest.fixture()
def columnar_root(tiny_dataset, tmp_path):
    return save_dataset(tiny_dataset, tmp_path / "ds", format="columnar")


class TestLayout:
    def test_exactly_three_files(self, columnar_root):
        assert sorted(p.name for p in columnar_root.iterdir()) == [
            LISTS_NAME, MANIFEST_NAME, VOCAB_NAME,
        ]

    def test_every_file_carries_its_magic(self, columnar_root):
        for name, magic in (
            (VOCAB_NAME, MAGIC_VOCAB),
            (LISTS_NAME, MAGIC_LISTS),
            (MANIFEST_NAME, MAGIC_MANIFEST),
        ):
            assert (columnar_root / name).read_bytes()[:8] == magic

    def test_ids_are_contiguous_int32_in_canonical_order(self, columnar_root):
        # Canonical sort puts KR before US; vocabulary ids are
        # first-seen over that order, with "google" shared.
        raw = (columnar_root / LISTS_NAME).read_bytes()[HEADER_SIZE:]
        ids = np.frombuffer(raw, dtype=np.int32)
        assert ids.tolist() == [0, 1, 2, 1, 3, 4]

    def test_manifest_records_windows_and_fingerprints(
        self, tiny_dataset, columnar_root
    ):
        path = columnar_root / MANIFEST_NAME
        manifest = unpack_manifest(path.read_bytes(), path)
        assert manifest["dataset_fingerprint"] == \
            dataset_fingerprint(tiny_dataset)
        windows = {
            (e["country"], e["offset"], e["length"])
            for e in manifest["breakdowns"]
        }
        assert windows == {("KR", 0, 3), ("US", 3, 3)}
        for name in (VOCAB_NAME, LISTS_NAME):
            record = manifest["files"][name]
            data = (columnar_root / name).read_bytes()
            assert record["bytes"] == len(data)
            import hashlib

            assert record["sha256"] == hashlib.sha256(data).hexdigest()

    def test_no_temp_file_litter(self, columnar_root):
        assert not [p for p in columnar_root.iterdir()
                    if p.name.startswith(".")]


class TestMappedDataset:
    def test_open_returns_mapped_dataset(self, columnar_root):
        mapped = open_columnar(columnar_root)
        assert type(mapped) is BrowsingDataset
        assert mapped.storage == "columnar-mmap"

    def test_opening_is_lazy_then_materialises_on_read(self, columnar_root):
        mapped = open_columnar(columnar_root)
        assert mapped.pending == 2
        assert mapped[US_PAGE_LOADS].sites == \
            ("google", "youtube.com", "café.example")
        assert mapped.pending == 1
        assert mapped[KR_TIME].sites == ("naver.com", "google", "daum.net")
        assert mapped.pending == 0

    def test_lists_match_the_eager_dataset(self, tiny_dataset, columnar_root):
        mapped = open_columnar(columnar_root)
        for breakdown in tiny_dataset.breakdowns():
            assert mapped[breakdown] == tiny_dataset[breakdown]

    def test_metadata_and_distributions_survive(
        self, tiny_dataset, columnar_root
    ):
        mapped = open_columnar(columnar_root)
        assert dict(mapped.metadata) == dict(tiny_dataset.metadata)
        original = tiny_dataset.distribution(
            Platform.WINDOWS, Metric.PAGE_LOADS
        )
        restored = mapped.distribution(Platform.WINDOWS, Metric.PAGE_LOADS)
        for rank in (1, 100, 9_999):
            assert restored.cumulative_share(rank) == pytest.approx(
                original.cumulative_share(rank)
            )

    def test_all_sites_without_materialising(self, columnar_root):
        mapped = open_columnar(columnar_root)
        assert mapped.all_sites() == {
            "google", "youtube.com", "café.example", "naver.com", "daum.net",
        }
        assert mapped.pending == 2  # bulk decode touches no list window

    def test_missing_breakdown_still_raises(self, columnar_root):
        mapped = open_columnar(columnar_root)
        bad = US_PAGE_LOADS.with_country("XX")
        with pytest.raises(MissingBreakdownError):
            mapped[bad]

    def test_content_fingerprint_resolves_without_metadata(self, tmp_path):
        # No "fingerprint" metadata key: the eager dataset hashes its
        # lists, the mapped one reads the manifest record instead.
        dataset = make_tiny_dataset(metadata={})
        root = save_dataset(dataset, tmp_path / "ds", format="columnar")
        mapped = open_columnar(root)
        assert mapped.content_fingerprint == dataset_fingerprint(dataset)
        assert dataset_fingerprint(mapped) == dataset_fingerprint(dataset)
        assert mapped.pending == 2  # fingerprinting read no list


class TestZeroCopyIds:
    def test_mapped_ids_share_lists_bin_pages(self, columnar_root):
        mapped = open_columnar(columnar_root)
        vocab = mapped.vocabulary()
        arr = mapped[US_PAGE_LOADS].ids(vocab)
        assert np.shares_memory(arr, mapped._ids)

    def test_mapped_ids_equal_eager_interning(
        self, tiny_dataset, columnar_root
    ):
        from repro.export.io import sorted_breakdowns

        mapped = open_columnar(columnar_root)
        mapped_vocab = mapped.vocabulary()
        eager_vocab = SiteVocabulary()
        for breakdown in sorted_breakdowns(tiny_dataset.breakdowns()):
            expected = tiny_dataset[breakdown].ids(eager_vocab)
            assert mapped[breakdown].ids(mapped_vocab).tolist() == \
                expected.tolist()

    def test_vocabulary_reproduces_stored_id_space(self, columnar_root):
        mapped = open_columnar(columnar_root)
        vocab = mapped.vocabulary()
        stored = (columnar_root / VOCAB_NAME).read_bytes()
        assert vocab.names() == unpack_string_table(stored, Path(VOCAB_NAME))


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="no manifest.bin"):
            open_columnar(tmp_path)

    def test_missing_lists_file_names_it(self, columnar_root):
        (columnar_root / LISTS_NAME).unlink()
        with pytest.raises(DatasetError, match="torn.*lists.bin.*absent"):
            open_columnar(columnar_root)

    def test_missing_vocab_file_names_it(self, columnar_root):
        (columnar_root / VOCAB_NAME).unlink()
        with pytest.raises(DatasetError, match="vocabulary file"):
            open_columnar(columnar_root)

    def test_truncated_lists_file(self, columnar_root):
        path = columnar_root / LISTS_NAME
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DatasetError, match="short id file"):
            open_columnar(columnar_root)

    def test_truncated_vocab_file(self, columnar_root):
        path = columnar_root / VOCAB_NAME
        path.write_bytes(path.read_bytes()[:HEADER_SIZE + 8])
        with pytest.raises(DatasetError, match="short vocabulary"):
            open_columnar(columnar_root)

    def test_bad_magic(self, columnar_root):
        path = columnar_root / VOCAB_NAME
        data = path.read_bytes()
        path.write_bytes(b"NOTMAGIC" + data[8:])
        with pytest.raises(DatasetError, match="bad magic"):
            open_columnar(columnar_root)

    def test_future_layout_version(self, columnar_root):
        path = columnar_root / LISTS_NAME
        data = path.read_bytes()
        count = int(np.frombuffer(data, dtype="<u8", count=1, offset=16)[0])
        path.write_bytes(
            pack_header(MAGIC_LISTS, count, version=99) + data[HEADER_SIZE:]
        )
        with pytest.raises(DatasetError, match="version 99"):
            open_columnar(columnar_root)

    def _rewrite_manifest(self, root, mutate):
        path = root / MANIFEST_NAME
        manifest = unpack_manifest(path.read_bytes(), path)
        mutate(manifest)
        path.write_bytes(pack_manifest(manifest))

    def test_duplicate_manifest_entry_rejected(self, columnar_root):
        self._rewrite_manifest(
            columnar_root,
            lambda m: m["breakdowns"].append(dict(m["breakdowns"][0])),
        )
        with pytest.raises(DatasetError, match="duplicate manifest entry"):
            open_columnar(columnar_root)

    def test_window_past_end_of_ids_rejected(self, columnar_root):
        def mutate(manifest):
            manifest["breakdowns"][0]["length"] += 1_000

        self._rewrite_manifest(columnar_root, mutate)
        with pytest.raises(DatasetError, match="short lists.bin"):
            open_columnar(columnar_root)

    def test_malformed_breakdown_entry_rejected(self, columnar_root):
        def mutate(manifest):
            del manifest["breakdowns"][0]["offset"]

        self._rewrite_manifest(columnar_root, mutate)
        with pytest.raises(DatasetError, match="malformed breakdown entry"):
            open_columnar(columnar_root)

    def test_id_outside_vocabulary_detected_on_materialise(
        self, columnar_root
    ):
        path = columnar_root / LISTS_NAME
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE:HEADER_SIZE + 4] = np.int32(99).tobytes()
        path.write_bytes(bytes(data))
        mapped = open_columnar(columnar_root)
        with pytest.raises(DatasetError, match="outside the 5-entry"):
            mapped[KR_TIME]

    def _rename_site(self, root, sid, name):
        path = root / VOCAB_NAME
        names = open_columnar(root).site_table().tolist()
        names[sid] = name
        path.write_bytes(pack_string_table(names))

    def test_duplicate_vocabulary_name_names_the_file_and_both_ids(
        self, columnar_root
    ):
        # Id 2 (daum.net) renamed to id 0's name: interning would give
        # the table one id fewer and shift every later one.
        self._rename_site(columnar_root, 2, "naver.com")
        mapped = open_columnar(columnar_root)
        with pytest.raises(DatasetError, match=(
            r"vocab\.bin: site name 'naver\.com' is stored twice "
            r"\(ids 0 and 2\)"
        )):
            mapped.vocabulary()
        with pytest.raises(DatasetError, match="stored twice"):
            mapped[US_PAGE_LOADS]

    def test_empty_vocabulary_name_names_the_file_and_id(self, columnar_root):
        self._rename_site(columnar_root, 3, "")
        mapped = open_columnar(columnar_root)
        with pytest.raises(DatasetError, match=(
            r"vocab\.bin: the site name of id 3 is empty"
        )):
            mapped[KR_TIME]

    def test_repeated_id_detected_on_materialise(self, columnar_root):
        # KR's window is ids [0, 1, 2]; make its third entry repeat the first.
        path = columnar_root / LISTS_NAME
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 8:HEADER_SIZE + 12] = np.int32(0).tobytes()
        path.write_bytes(bytes(data))
        mapped = open_columnar(columnar_root)
        with pytest.raises(DatasetError, match=(
            r"repeats site 'naver\.com'"
        )):
            mapped[KR_TIME]

    def test_unsupported_manifest_version(self, columnar_root):
        path = columnar_root / MANIFEST_NAME
        manifest = unpack_manifest(path.read_bytes(), path)
        manifest["format_version"] = 999
        path.write_bytes(pack_manifest(manifest))
        with pytest.raises(DatasetError, match="version 999"):
            open_columnar(columnar_root)
