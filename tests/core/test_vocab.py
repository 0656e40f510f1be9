"""Site interning and the id-array / set caches on RankedList."""

import threading

import numpy as np
import pytest

from repro.core import RankedList, SiteVocabulary


class TestSiteVocabulary:
    def test_first_seen_order(self):
        vocab = SiteVocabulary()
        assert vocab.intern("a") == 0
        assert vocab.intern("b") == 1
        assert vocab.intern("a") == 0
        assert len(vocab) == 2

    def test_round_trip(self):
        vocab = SiteVocabulary(["x", "y", "z"])
        for site in ("x", "y", "z"):
            assert vocab.site_of(vocab.id_of(site)) == site

    def test_intern_many_mixes_new_and_seen(self):
        vocab = SiteVocabulary(["a", "b"])
        ids = vocab.intern_many(("b", "c", "a", "d"))
        assert ids.dtype == np.int32
        assert ids.tolist() == [1, 2, 0, 3]
        assert len(vocab) == 4

    def test_lookups(self):
        vocab = SiteVocabulary(["a"])
        assert "a" in vocab
        assert "z" not in vocab
        assert vocab.get("z") == -1
        assert vocab.get("z", default=7) == 7
        with pytest.raises(KeyError):
            vocab.id_of("z")

    def test_concurrent_interning_is_consistent(self):
        vocab = SiteVocabulary()
        sites = [f"s{i}" for i in range(500)]
        results: list[np.ndarray] = [None] * 8

        def work(slot: int) -> None:
            results[slot] = vocab.intern_many(sites)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(vocab) == 500
        for arr in results[1:]:
            assert arr.tolist() == results[0].tolist()


class TestRankedListIds:
    def test_cached_per_vocabulary(self):
        ranked = RankedList(["a", "b", "c"])
        vocab = SiteVocabulary()
        first = ranked.ids(vocab)
        assert first is ranked.ids(vocab)  # same array object, no re-intern
        other = SiteVocabulary(["z"])
        second = ranked.ids(other)
        assert second is not first
        assert second.tolist() == [1, 2, 3]  # "z" took id 0

    def test_ids_are_read_only(self):
        arr = RankedList(["a"]).ids(SiteVocabulary())
        with pytest.raises(ValueError):
            arr[0] = 5

    def test_shared_vocab_aligns_lists(self):
        vocab = SiteVocabulary()
        a = RankedList(["g", "x", "y"]).ids(vocab)
        b = RankedList(["y", "g", "q"]).ids(vocab)
        # Same site, same id across lists.
        assert a[0] == b[1]
        assert a[2] == b[0]


class TestDerivedListFastPaths:
    def test_top_skips_revalidation_and_shares_nothing_lazy(self):
        ranked = RankedList([f"s{i}" for i in range(100)])
        head = ranked.top(10)
        assert head.sites == ranked.sites[:10]
        # Trusted construction: no rank dict or set built eagerly.
        assert head._rank_cache is None
        assert head._set_cache is None

    def test_slice_and_filter_still_validate_semantics(self):
        ranked = RankedList(["a", "b", "c", "d"])
        assert ranked.slice(2, 3).sites == ("b", "c")
        assert ranked.filter(lambda s: s != "b").sites == ("a", "c", "d")
        with pytest.raises(ValueError):
            ranked.slice(0, 2)

    def test_intersection_does_not_build_rank_dicts(self):
        a = RankedList(["a", "b", "c"])
        b = RankedList(["b", "c", "d"])
        assert a.intersection(b) == {"b", "c"}
        assert a._rank_cache is None
        assert b._rank_cache is None

    def test_membership_does_not_build_rank_dict(self):
        ranked = RankedList(["a", "b"])
        assert "a" in ranked
        assert "z" not in ranked
        assert ranked._rank_cache is None


class TestDatasetVocabulary:
    def test_shared_and_grows_on_demand(self, reference_dataset):
        # The dataset vocabulary is a shared singleton; interning a list
        # through it covers at least that list's sites.
        vocab = reference_dataset.vocabulary()
        assert vocab is reference_dataset.vocabulary()
        breakdown = next(iter(reference_dataset.breakdowns()))
        ranked = reference_dataset[breakdown]
        ids = ranked.ids(vocab)
        assert len(ids) == len(ranked)
        assert len(vocab) >= len(ranked)

    def test_one_id_space_across_codecs(self, generator, tmp_path):
        # An engine dataset interns its lists once, in canonical
        # breakdown order: that table is the one a text save reloads
        # and the one a columnar save writes to vocab.bin.
        from pathlib import Path

        from repro.core import Metric, Month, Platform
        from repro.export.io import load_dataset, save_dataset
        from repro.store import VOCAB_NAME
        from repro.store.format import unpack_string_table

        dataset = generator.generate(
            countries=("US", "KR"), platforms=(Platform.WINDOWS, Platform.ANDROID),
            metrics=(Metric.PAGE_LOADS,), months=(Month(2021, 11), Month(2021, 12)),
        )
        names = dataset.vocabulary().names()
        text = load_dataset(save_dataset(dataset, tmp_path / "text"))
        columnar = save_dataset(dataset, tmp_path / "col", format="columnar")
        stored = unpack_string_table(
            (columnar / VOCAB_NAME).read_bytes(), Path(VOCAB_NAME)
        )
        assert len(names) == len(dataset.all_sites())
        assert names == text.vocabulary().names() == stored
