"""Tests for the rendered-payload LRU cache."""

import threading

import pytest

from repro.service.cache import PayloadCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = PayloadCache(capacity=4)
        assert cache.get(("a",)) is None
        cache.put(("a",), b"payload")
        assert cache.get(("a",)) == b"payload"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_record_miss_false_suppresses_the_counter(self):
        cache = PayloadCache(capacity=4)
        assert cache.get(("a",), record=False) is None
        cache.put(("a",), b"payload")
        assert cache.get(("a",), record=False) == b"payload"
        assert (cache.hits, cache.misses) == (0, 0)

    def test_first_writer_wins(self):
        cache = PayloadCache(capacity=4)
        assert cache.put(("k",), b"first") == b"first"
        assert cache.put(("k",), b"second") == b"first"
        assert cache.get(("k",)) == b"first"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            PayloadCache(capacity=-1)


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        cache = PayloadCache(capacity=2)
        cache.put(("a",), b"1")
        cache.put(("b",), b"2")
        cache.get(("a",))          # refresh "a" -> "b" is now LRU
        cache.put(("c",), b"3")
        assert ("a",) in cache
        assert ("b",) not in cache
        assert ("c",) in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_zero_capacity_disables_storage(self):
        cache = PayloadCache(capacity=0)
        assert cache.put(("a",), b"1") == b"1"
        assert cache.get(("a",)) is None
        assert len(cache) == 0


class TestByteBudget:
    def test_evicts_until_under_budget(self):
        cache = PayloadCache(capacity=100, max_bytes=10)
        cache.put(("a",), b"xxxx")       # 4 bytes
        cache.put(("b",), b"yyyy")       # 8 bytes
        assert cache.cache_bytes == 8
        cache.put(("c",), b"zzzzzz")     # 14 -> evict LRU ("a",) -> 10
        assert ("a",) not in cache
        assert ("b",) in cache and ("c",) in cache
        assert cache.cache_bytes == 10
        assert cache.evictions == 1

    def test_recency_protects_entries_from_byte_eviction(self):
        cache = PayloadCache(capacity=100, max_bytes=8)
        cache.put(("a",), b"aaaa")
        cache.put(("b",), b"bbbb")
        cache.get(("a",))                # "b" is now LRU
        cache.put(("c",), b"cc")
        assert ("a",) in cache
        assert ("b",) not in cache

    def test_oversized_payload_served_but_never_stored(self):
        cache = PayloadCache(capacity=100, max_bytes=4)
        cache.put(("small",), b"ok")
        assert cache.put(("big",), b"x" * 64) == b"x" * 64
        assert ("big",) not in cache
        # The small entry survives: the oversized payload evicted nothing.
        assert ("small",) in cache
        assert cache.oversized == 1
        assert cache.evictions == 0

    def test_bytes_tracked_through_eviction_churn(self):
        cache = PayloadCache(capacity=3, max_bytes=1000)
        for i in range(50):
            cache.put((f"k{i}",), bytes(10 + i % 7))
        assert len(cache) == 3
        assert cache.cache_bytes == sum(
            len(v) for v in [cache.get((f"k{i}",)) for i in (47, 48, 49)]
        )

    def test_negative_max_bytes_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            PayloadCache(capacity=4, max_bytes=-1)


class TestSnapshot:
    def test_snapshot_shape(self):
        cache = PayloadCache(capacity=8)
        cache.put(("a",), b"1")
        cache.get(("a",))
        cache.get(("b",))
        assert cache.snapshot() == {
            "capacity": 8,
            "size": 1,
            "cache_bytes": 1,
            "max_bytes": None,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "oversized": 0,
        }


class TestConcurrency:
    def test_racing_writers_all_observe_one_value(self):
        cache = PayloadCache(capacity=16)
        barrier = threading.Barrier(8)
        seen: list[bytes] = []
        lock = threading.Lock()

        def writer(i: int) -> None:
            barrier.wait()
            value = cache.put(("race",), f"writer-{i}".encode())
            with lock:
                seen.append(value)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 1
        assert cache.get(("race",)) == seen[0]
