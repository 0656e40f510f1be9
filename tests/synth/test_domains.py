"""Tests for domain-string synthesis."""

import numpy as np
import pytest

from repro.etld.psl import DEFAULT_PSL
from repro.synth.domains import (
    COUNTRY_SUFFIX,
    _integers,
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
