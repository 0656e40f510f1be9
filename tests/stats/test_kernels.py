"""Kernel ⇔ scalar-reference parity (exact, not approximate).

The vectorized kernels in :mod:`repro.stats.kernels` promise
*bit-identical* results to the scalar reference implementations — that
is what keeps pipeline artifact bytes (and warm artifact caches)
unchanged.  So every parity assertion here is ``==``, never
``pytest.approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RankedList, SiteVocabulary
from repro.stats.kernels import (
    agreement_sequence_ids,
    bucket_intersections,
    intersection_count_ids,
    pairwise_wrbo,
    rank_matrix,
    rank_pairs_ids,
    weighted_rbo_ids,
)
from repro.stats.rbo import agreement_sequence, weighted_rbo

# Small alphabet + short names force heavy partial overlap between the
# generated lists; ragged lengths come from the independent size draws.
site_names = st.text(alphabet="abcdefghij", min_size=1, max_size=4)
ranked_lists = st.lists(site_names, min_size=0, max_size=40, unique=True)
nonempty_lists = st.lists(site_names, min_size=1, max_size=40, unique=True)
depths = st.one_of(st.none(), st.integers(min_value=1, max_value=50))


def interned(*site_lists):
    vocab = SiteVocabulary()
    return [RankedList(sites).ids(vocab) for sites in site_lists], vocab


class TestAgreementSequenceParity:
    @given(nonempty_lists, nonempty_lists, depths)
    @settings(max_examples=120)
    def test_matches_scalar_reference(self, a, b, depth):
        (ids_a, ids_b), _ = interned(a, b)
        got = agreement_sequence_ids(ids_a, ids_b, depth)
        want = agreement_sequence(a, b, depth)
        assert got.tolist() == list(want)

    def test_empty_lists(self):
        (ids_a, ids_b), _ = interned([], ["a"])
        assert len(agreement_sequence_ids(ids_a, ids_b)) == 0

    def test_bad_depth(self):
        (ids_a, ids_b), _ = interned(["a"], ["a"])
        with pytest.raises(ValueError):
            agreement_sequence_ids(ids_a, ids_b, depth=0)


class TestWeightedRBOParity:
    @given(nonempty_lists, nonempty_lists, depths, st.integers(0, 2**31 - 1))
    @settings(max_examples=120)
    def test_bit_identical_to_scalar(self, a, b, depth, seed):
        k = min(len(a), len(b)) if depth is None else depth
        rng = np.random.default_rng(seed)
        weights = rng.random(max(k, 1)) + 0.01
        (ids_a, ids_b), _ = interned(a, b)
        got = weighted_rbo_ids(ids_a, ids_b, weights, depth)
        want = weighted_rbo(a, b, weights, depth)
        assert got == want  # exact float equality, not approx

    def test_validation_matches_scalar(self):
        (ids_a, ids_b), _ = interned(["a", "b"], ["a", "b"])
        with pytest.raises(ValueError):
            weighted_rbo_ids(ids_a, ids_b, np.array([1.0]))
        with pytest.raises(ValueError):
            weighted_rbo_ids(ids_a, ids_b, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            weighted_rbo_ids(ids_a, ids_b, np.array([0.0, 0.0]))


class TestIntersectionParity:
    @given(ranked_lists, ranked_lists, depths)
    @settings(max_examples=120)
    def test_count_matches_percent_intersection(self, a, b, depth):
        (ids_a, ids_b), _ = interned(a, b)
        ra, rb = RankedList(a), RankedList(b)
        ta = ra.top(depth) if depth is not None else ra
        tb = rb.top(depth) if depth is not None else rb
        count = intersection_count_ids(ids_a, ids_b, depth)
        assert count == len(ta.intersection(tb))
        denom = min(len(ta), len(tb))
        got_pct = count / denom if denom else 0.0
        assert got_pct == ta.percent_intersection(tb)

    @given(st.lists(ranked_lists, min_size=2, max_size=6))
    @settings(max_examples=60)
    def test_bucket_intersections_match_set_math(self, site_lists):
        ids, _ = interned(*site_lists)
        ranked = [RankedList(s) for s in site_lists]
        buckets = (0, 1, 3, 10, 100)
        counts = bucket_intersections(ids, buckets)
        row = 0
        for i in range(len(ranked)):
            for j in range(i + 1, len(ranked)):
                for col, bucket in enumerate(buckets):
                    want = len(ranked[i].top(bucket).intersection(ranked[j].top(bucket)))
                    assert counts[row, col] == want
                row += 1
        assert row == counts.shape[0]


class TestRankPairsParity:
    @given(ranked_lists, ranked_lists, depths)
    @settings(max_examples=120)
    def test_matches_rank_pairs_on_truncated_lists(self, a, b, depth):
        (ids_a, ids_b), _ = interned(a, b)
        ra, rb = RankedList(a), RankedList(b)
        ta = ra.top(depth) if depth is not None else ra
        tb = rb.top(depth) if depth is not None else rb
        xs, ys = rank_pairs_ids(ids_a, ids_b, depth)
        want_xs, want_ys = ta.rank_pairs(tb)
        assert xs.tolist() == want_xs
        assert ys.tolist() == want_ys


class TestPairwiseWRBOParity:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_batched_equals_per_pair_scalar(self, n_lists, depth, seed):
        rng = np.random.default_rng(seed)
        universe = [f"s{i}" for i in range(depth * 3)]
        site_lists = [
            list(rng.permutation(universe)[: depth + int(rng.integers(0, 5))])
            for _ in range(n_lists)
        ]
        weights = rng.random(depth) + 0.01
        ids, _ = interned(*site_lists)
        scores = pairwise_wrbo(ids, weights, depth=depth)
        row = 0
        for i in range(n_lists):
            for j in range(i + 1, n_lists):
                want = weighted_rbo(site_lists[i], site_lists[j], weights, depth)
                assert scores[row] == want  # bit-identical
                row += 1
        assert row == len(scores)

    def test_short_list_rejected(self):
        ids, _ = interned(["a", "b"], ["a"])
        with pytest.raises(ValueError):
            pairwise_wrbo(ids, np.array([1.0, 1.0]), depth=2)


class TestRankMatrix:
    @given(st.lists(nonempty_lists, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_matches_rank_lookups(self, site_lists):
        ids, vocab = interned(*site_lists)
        ranked = [RankedList(s) for s in site_lists]
        all_ids = np.unique(np.concatenate(ids))
        matrix = rank_matrix(ids, all_ids, missing=9_999)
        for r, sid in enumerate(all_ids):
            site = vocab.site_of(int(sid))
            for c, rl in enumerate(ranked):
                assert matrix[r, c] == rl.rank_or(site, 9_999)

    def test_empty_sites(self):
        ids, _ = interned(["a", "b"])
        out = rank_matrix(ids, np.empty(0, dtype=np.int64), missing=5)
        assert out.shape == (0, 1)
