"""Tests for domain-string synthesis."""

import numpy as np
import pytest

from repro.etld.psl import DEFAULT_PSL
from repro.synth.domains import (
    _CONSONANTS,
    _VOWELS,
    COUNTRY_SUFFIX,
    _bulk_labels,
    _claim,
    _integers,
    _label_tables,
    _lemire,
    _replay_choices,
    _word,
    _Words32,
    choice_rows,
    endemic_domain,
    endemic_domains,
    global_domain,
    global_domains,
    multinational_domain,
    neighbor_domain,
    neighbor_domains,
    pseudoword,
    unique_labels,
)
from repro.world.countries import COUNTRY_CODES
from tests.oracles import labels as oracle


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestPseudowords:
    def test_pronounceable_structure(self, rng):
        word = pseudoword(rng, syllables=3)
        assert len(word) == 6
        assert word.isalpha() and word.islower()

    def test_syllable_validation(self, rng):
        with pytest.raises(ValueError):
            pseudoword(rng, syllables=0)

    def test_unique_labels_are_unique(self, rng):
        taken: set[str] = set()
        labels = unique_labels(rng, 5_000, taken)
        assert len(labels) == len(set(labels)) == 5_000
        assert taken >= set(labels)

    def test_unique_labels_respect_existing(self, rng):
        taken = {"kapu", "tolo"}
        labels = unique_labels(rng, 500, taken)
        assert "kapu" not in labels and "tolo" not in labels

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            unique_labels(rng, -1, set())


class TestDomains:
    def test_every_study_country_has_a_suffix(self):
        assert set(COUNTRY_SUFFIX) >= set(COUNTRY_CODES)

    def test_global_domain_parses(self, rng):
        for _ in range(50):
            domain = global_domain("kapola", rng)
            match = DEFAULT_PSL.match(domain)
            assert match.label == "kapola"

    def test_endemic_domain_uses_home_suffix_or_com(self, rng):
        suffixes = {endemic_domain("mulato", "BR", rng).split(".", 1)[1]
                    for _ in range(200)}
        assert suffixes == {"com", "com.br"}

    def test_endemic_unknown_country(self, rng):
        with pytest.raises(KeyError):
            endemic_domain("x", "XX", rng)

    def test_multinational_domain_per_country(self):
        assert multinational_domain("google", "GB") == "google.co.uk"
        assert multinational_domain("google", "US") == "google.com"
        assert multinational_domain("shopee", "VN") == "shopee.com.vn"

    def test_multinational_unknown_country_defaults_to_com(self):
        assert multinational_domain("google", "XX") == "google.com"


def _pair(seed: int):
    """Two generators in the same state, with a pending 32-bit half-word."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    a.integers(5)
    b.integers(5)
    return a, b


def _same_state_after(a, b) -> None:
    assert a.integers(1_000, size=9).tolist() == b.integers(1_000, size=9).tolist()
    assert a.random(3).tolist() == b.random(3).tolist()


class TestBatchedDraws:
    """Batched draws equal per-call draws and leave the stream in step."""

    @pytest.mark.parametrize("calls", [0, 1, 2, 3, 777])
    def test_replayed_integers_match_scalar_calls(self, calls):
        a, b = _pair(calls)
        ranges = [(lo, lo + span) for lo, span in zip(
            range(calls), [1, 2, 3, 5, 18, 9989, 2**31, 2**32 - 7] * calls)]
        expected = [int(a.integers(lo, hi)) for lo, hi in ranges]
        with _integers(b) as draw:
            assert [draw(lo, hi) for lo, hi in ranges] == expected
        _same_state_after(a, b)

    @pytest.mark.parametrize("batch, single, args", [
        (global_domains, global_domain, ()),
        (endemic_domains, endemic_domain, ("KR",)),
        (neighbor_domains, neighbor_domain, ("BR",)),
    ])
    def test_batched_domains_match_per_site_calls(self, batch, single, args):
        labels = [f"site{i}" for i in range(2_000)]
        a, b = _pair(7)
        expected = [single(label, *args, a) for label in labels]
        assert batch(labels, *args, b) == expected
        _same_state_after(a, b)

    def test_non_pcg64_generators_draw_per_call(self):
        a = np.random.Generator(np.random.MT19937(3))
        b = np.random.Generator(np.random.MT19937(3))
        expected = [int(a.integers(2, 5)) for _ in range(50)]
        with _integers(b) as draw:
            assert [draw(2, 5) for _ in range(50)] == expected
        assert len(unique_labels(b, 100, set())) == 100


def _planted(seed: int, word: int):
    """Two generators whose next 32-bit word is ``word`` (a pending half)."""
    twins = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, word
        rng.bit_generator.state = state
        twins.append(rng)
    return twins


def _doctored(seed: int, planted: dict[int, int]):
    """Two word replays over one stream, with ``planted`` words swapped in."""
    twins = []
    for _ in range(2):
        words = _Words32(np.random.default_rng(seed).bit_generator)
        words._fill(max(planted) + 1)
        for at, word in planted.items():
            words._words[at] = word
        twins.append(words)
    return twins


#: Words Lemire rejects: 0 for every bound with a non-zero threshold
#: (2**32 mod n is 1, 1 and 4 for n = 3, 5, 18); 2**31 for 18 alone.
_REJECTED = {0: (3, 5, 18), 2**31: (18,)}


class TestBulkLabels:
    """The bulk label walk equals the per-call oracle draw for draw."""

    def _check(self, a, b, count: int, taken: set[str]) -> list[str]:
        taken_a, taken_b = set(taken), set(taken)
        expected = oracle.unique_labels(a, count, taken_a)
        labels = unique_labels(b, count, taken_b)
        assert labels == expected
        assert taken_b == taken_a
        _same_state_after(a, b)
        return labels

    def test_planted_words_are_rejected(self):
        for word, bounds in _REJECTED.items():
            for n in (3, 5, 18):
                accepted = _lemire(np.array([word], dtype=np.uint64), n)[1]
                assert bool(accepted[0]) is (n not in bounds), (word, n)

    @pytest.mark.parametrize("count", [0, 1, 5, 5_000])
    @pytest.mark.parametrize("seed", [0, 7, 2022])
    @pytest.mark.parametrize("pending", [False, True])
    def test_matches_per_call_walk(self, seed, count, pending):
        a, b = _pair(seed) if pending else (
            np.random.default_rng(seed), np.random.default_rng(seed))
        assert a.bit_generator.state["has_uint32"] == int(pending)
        self._check(a, b, count, set())

    @pytest.mark.parametrize("seed", [3, 11])
    def test_collisions_take_the_disambiguator(self, seed):
        # Every two-syllable label is taken: a third of draws collide.
        taken = {c1 + v1 + c2 + v2 for c1 in _CONSONANTS for v1 in _VOWELS
                 for c2 in _CONSONANTS for v2 in _VOWELS}
        labels = self._check(*_pair(seed), 3_000, taken)
        assert sum(label[-1].isdigit() for label in labels) > 500

    def test_taken_disambiguations_enter_the_while_loop(self):
        # The first labels and all their disambiguations are taken, so
        # the first draw retries with fresh three-syllable words.
        first = oracle.unique_labels(np.random.default_rng(5), 2, set())
        taken = set(first) | {f"{label}{d}" for label in first
                              for d in range(10, 9999)}
        labels = self._check(np.random.default_rng(5),
                             np.random.default_rng(5), 50, taken)
        stem = labels[0].rstrip("0123456789")
        assert stem != first[0] and len(stem) == 6

    @pytest.mark.parametrize("word", sorted(_REJECTED))
    def test_planted_rejection_matches_per_call_walk(self, word):
        self._check(*_planted(9, word), 200, set())

    @pytest.mark.parametrize("word", sorted(_REJECTED))
    def test_rejection_mid_window_matches_scalar_walk(self, word):
        planted = {at: word for at in (40, 41, 333, 1_500, 1_501)}
        bulk, scalar = _doctored(13, planted)
        taken_bulk, taken_scalar = {"kapu"}, {"kapu"}
        labels = _bulk_labels(bulk, 400, taken_bulk)
        expected = [_claim(scalar, _word(scalar, scalar(2, 5)), taken_scalar)
                    for _ in range(400)]
        assert labels == expected
        assert taken_bulk == taken_scalar and bulk.pos == scalar.pos > 1_501

    def test_label_tables_stop_at_the_first_rejected_word(self):
        window = np.array([2**20, 2**31, 2**20, 0, 2**20], dtype=np.uint64)
        spans, pairs, stop = _label_tables(window)
        assert stop == 1  # 2**31 is a rejected consonant word
        assert spans[0] == 5 and pairs[0] == "bi" and len(pairs) == 4


class TestChoiceReplay:
    """The neighbour-membership replay equals ``Generator.choice``."""

    def _per_row(self, rng, n, sizes) -> list[int]:
        return [int(p) for k in sizes
                for p in rng.choice(n, size=k, replace=False)]

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_generator_choice(self, n):
        a, b = _pair(n)
        sizes = [1 + i % min(3, n) for i in range(60)]
        expected = self._per_row(a, n, sizes)
        got = choice_rows(b, n, sizes).tolist()
        assert got == expected, (
            f"numpy {np.__version__} changed Generator.choice(n, size=k, "
            f"replace=False) at n={n}: the universe's bulk replay "
            "(repro.synth.domains.choice_rows) no longer reproduces it"
        )
        _same_state_after(a, b)

    @pytest.mark.parametrize("n, k", [(5, 3), (7, 3), (20, 3), (3, 3), (18, 1)])
    def test_planted_rejection_matches_generator_choice(self, n, k):
        # The planted 0 feeds the first draw that reads a word: over
        # [0, n - k] (bounds 3, 5, 18 reject it), or at n == k, where the
        # draw over [0, 0] reads none, over [0, 1] (bound 2 accepts it).
        a, b = _planted(21, 0)
        sizes = [k, 1, 2, k] if n >= 2 else [k]
        expected = self._per_row(a, n, sizes)
        assert choice_rows(b, n, sizes).tolist() == expected
        _same_state_after(a, b)

    def test_a_rejected_word_anywhere_defers_to_per_row_calls(self):
        # One word per row over [0, 18]; the 91st is a planted 0.
        words = _doctored(17, {90: 0})[0]
        assert _replay_choices(words, 19, np.ones(200, dtype=np.int64)) is None
        assert words.pos == 0

    def test_non_pcg64_generators_choose_per_call(self):
        a = np.random.Generator(np.random.MT19937(3))
        b = np.random.Generator(np.random.MT19937(3))
        sizes = [1, 2, 3, 3, 2]
        assert choice_rows(b, 6, sizes).tolist() == self._per_row(a, 6, sizes)
        _same_state_after(a, b)
