"""Tests for the content-addressed slice cache."""

import pytest

from repro.core import Breakdown, Metric, Platform, REFERENCE_MONTH
from repro.core.errors import DatasetError
from repro.core.rankedlist import RankedList
from repro.engine import SliceCache

B = Breakdown("US", Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH)
FP = "deadbeef00112233"


class TestSliceCache:
    def test_round_trip_identity(self, tmp_path):
        cache = SliceCache(tmp_path)
        ranked = RankedList(["google.com", "youtube.com", "naver.com"])
        cache.put(FP, B, ranked)
        restored = cache.get(FP, B)
        assert restored is not None
        assert restored.sites == ranked.sites

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = SliceCache(tmp_path)
        assert cache.get(FP, B) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        cache.put(FP, B, RankedList(["a.com"]))
        assert cache.get(FP, B) is not None
        assert cache.stats == type(cache.stats)(hits=1, misses=1, writes=1)

    def test_fingerprints_are_isolated(self, tmp_path):
        cache = SliceCache(tmp_path)
        cache.put(FP, B, RankedList(["a.com"]))
        assert cache.get("0" * 16, B) is None
        assert (FP, B) in cache
        assert ("0" * 16, B) not in cache

    def test_put_overwrites(self, tmp_path):
        cache = SliceCache(tmp_path)
        cache.put(FP, B, RankedList(["old.com"]))
        cache.put(FP, B, RankedList(["new.com"]))
        assert cache.get(FP, B).sites == ("new.com",)

    def test_empty_list_round_trips(self, tmp_path):
        cache = SliceCache(tmp_path)
        cache.put(FP, B, RankedList([]))
        restored = cache.get(FP, B)
        assert restored is not None
        assert len(restored) == 0


class TestColumnarCodec:
    """The binary ``.slc`` slice file, the cache's only on-disk form."""

    def test_round_trip_identity(self, tmp_path):
        # Non-ASCII names survive the UTF-8 string table, and a second
        # cache instance over the same directory reads what the first
        # one wrote.
        ranked = RankedList(["google.com", "네이버.com", "yandex.ru"])
        SliceCache(tmp_path).put(FP, B, ranked)
        restored = SliceCache(tmp_path).get(FP, B)
        assert restored is not None
        assert restored.sites == ranked.sites

    def test_writes_binary_slice_files(self, tmp_path):
        cache = SliceCache(tmp_path)
        cache.put(FP, B, RankedList(["a.com"]))
        path = cache.path_for(FP, B)
        assert path == tmp_path / FP / "US_windows_page_loads_2022-02.slc"
        assert path.read_bytes()[:8] == b"RPROSLC1"
        # No temp-file litter from the atomic write.
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_empty_list_round_trips(self, tmp_path):
        # A header-only file (count 0) is a valid empty slice, not a
        # truncated one.
        SliceCache(tmp_path).put(FP, B, RankedList([]))
        restored = SliceCache(tmp_path).get(FP, B)
        assert restored is not None
        assert len(restored) == 0

    def test_truncated_slice_raises_instead_of_short_list(self, tmp_path):
        cache = SliceCache(tmp_path)
        cache.put(FP, B, RankedList(["a.com", "b.org", "c.net"]))
        path = cache.path_for(FP, B)
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(DatasetError):
            cache.get(FP, B)

    def test_stray_text_entry_is_a_miss(self, tmp_path):
        # Text-format slice files are not read: the breakdown counts
        # as a miss and is regenerated into the binary form.
        cache = SliceCache(tmp_path)
        stray = tmp_path / FP / "US_windows_page_loads_2022-02.txt"
        stray.parent.mkdir(parents=True)
        stray.write_text("a.com\nb.org\n", encoding="utf-8")
        assert cache.get(FP, B) is None
        assert (FP, B) not in cache
        assert cache.stats.misses == 1
