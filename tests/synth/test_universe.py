"""Tests for universe construction."""

import hashlib
import json
from dataclasses import fields
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest

from repro.core.errors import GenerationError
from repro.synth.universe import (
    PROCEDURAL_STRENGTH_CAP,
    Universe,
    UniverseConfig,
    _build_universe_uncached,
    build_universe,
)
from repro.world.countries import COUNTRY_CODES
from repro.world.sites import CHAMPION_RULES, NAMED_SITES, Archetype


@pytest.fixture(scope="module")
def universe() -> Universe:
    return build_universe(UniverseConfig.small(seed=99))


class TestConstruction:
    def test_all_named_sites_present(self, universe):
        assert set(universe.named_uid) == {s.name for s in NAMED_SITES}

    def test_canonical_identities_unique(self, universe):
        assert len(set(universe.canonical)) == universe.n_sites

    def test_champions_created_per_rule(self, universe):
        champion_uids = [u for u, tags in universe.tags.items() if "champion" in tags]
        expected = sum(len(rule.countries) for rule in CHAMPION_RULES)
        assert len(champion_uids) == expected

    def test_every_country_has_candidates(self, universe):
        for code in COUNTRY_CODES:
            candidates = universe.candidates(code)
            assert len(candidates) > 0
            boost = universe.country_boost[code]
            assert len(boost) == len(candidates)

    def test_unknown_country_raises(self, universe):
        with pytest.raises(GenerationError):
            universe.candidates("XX")

    def test_endemic_sites_only_in_home_pool(self, universe):
        pools = {
            code: set(universe.candidates(code).tolist()) for code in COUNTRY_CODES
        }
        endemic_uids = np.flatnonzero(universe.archetype == 2)
        rng = np.random.default_rng(0)
        for uid in rng.choice(endemic_uids, size=200, replace=False):
            home = universe.home[int(uid)]
            assert home is not None
            for code, pool in pools.items():
                if code == home:
                    assert int(uid) in pool
                else:
                    assert int(uid) not in pool

    def test_global_sites_in_every_pool(self, universe):
        global_uids = set(np.flatnonzero(universe.archetype == 0).tolist())
        for code in ("US", "JP", "BR"):
            assert global_uids <= set(universe.candidates(code).tolist())

    def test_procedural_strengths_capped(self, universe):
        curated = set(universe.named_uid.values())
        curated.update(uid for uid, tags in universe.tags.items()
                       if "champion" in tags or "strong" in tags)
        mask = np.ones(universe.n_sites, dtype=bool)
        mask[list(curated)] = False
        assert universe.log_strength[mask].max() <= PROCEDURAL_STRENGTH_CAP + 1e-9

    def test_nonpublic_only_procedural(self, universe):
        n_curated = len(universe.named_uid) + sum(len(r.countries) for r in CHAMPION_RULES)
        assert not universe.non_public[:n_curated].any()
        assert universe.non_public.any()

    def test_noise_scale_decreases_with_strength(self, universe):
        n_curated = len(universe.named_uid) + sum(len(r.countries) for r in CHAMPION_RULES)
        strengths = universe.log_strength[n_curated:]
        noise = universe.noise_scale[n_curated:]
        strong = noise[strengths > 4.0]
        weak = noise[strengths < 0.0]
        if len(strong) and len(weak):
            assert strong.mean() < weak.mean()


class TestIdentities:
    def test_canonical_of_named(self, universe):
        assert universe.canonical_of("google") == "google"
        assert universe.canonical_of("naver") == "naver.com"
        assert universe.canonical_of("bbc") == "bbc.co.uk"

    def test_domain_in_country_for_multinational(self, universe):
        uid = universe.named_uid["google"]
        assert universe.domain_in_country(uid, "GB") == "google.co.uk"
        assert universe.domain_in_country(uid, "US") == "google.com"

    def test_domain_in_country_for_single_domain_site(self, universe):
        uid = universe.named_uid["naver"]
        assert universe.domain_in_country(uid, "KR") == "naver.com"
        assert universe.domain_in_country(uid, "US") == "naver.com"

    def test_category_lookup(self, universe):
        uid = universe.named_uid["netflix"]
        assert universe.category_of(uid) == "Video Streaming"

    def test_category_by_canonical_covers_universe(self, universe):
        mapping = universe.category_by_canonical()
        assert len(mapping) == universe.n_sites
        assert mapping["google"] == "Search Engines"


class TestDeterminismAndCaching:
    def test_same_config_is_cached(self):
        a = build_universe(UniverseConfig.small(seed=99))
        b = build_universe(UniverseConfig.small(seed=99))
        assert a is b

    def test_different_seed_different_universe(self):
        a = build_universe(UniverseConfig.small(seed=99))
        b = build_universe(UniverseConfig.small(seed=100))
        assert a is not b
        # Named sites identical, procedural labels differ.
        assert a.canonical_of("google") == b.canonical_of("google")
        assert a.canonical != b.canonical


class TestConfig:
    def test_validation(self):
        with pytest.raises(GenerationError):
            UniverseConfig(global_pool=-1)
        with pytest.raises(GenerationError):
            UniverseConfig(nonpublic_fraction=1.0)

    def test_small_is_smaller(self):
        small = UniverseConfig.small()
        full = UniverseConfig()
        assert small.endemic_pool < full.endemic_pool
        assert small.global_pool < full.global_pool


def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        digest.update(f"a{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        digest.update(f"d{len(value)}".encode())
        for key, item in value.items():
            _feed(digest, key)
            _feed(digest, item)
    elif isinstance(value, (list, tuple)):
        digest.update(f"l{len(value)}".encode())
        if all(item is None or type(item) is str for item in value):
            # The per-item bytes below, for a million-name column at once.
            digest.update("".join(
                f"{'null' if item is None else encode_basestring_ascii(item)}\x00"
                for item in value).encode())
            return
        for item in value:
            _feed(digest, item)
    else:
        digest.update(json.dumps(value).encode() + b"\x00")


def universe_digest(universe: Universe) -> str:
    """SHA-256 over every array, list and dict of a universe, in order."""
    digest = hashlib.sha256()
    for spec in fields(Universe):
        if spec.name != "config":
            digest.update(spec.name.encode())
            _feed(digest, getattr(universe, spec.name))
    return digest.hexdigest()


class TestContentPinned:
    """The array-built universe equals the per-site build it replaced.

    The digests were taken from the per-site ``_append`` build; any
    change to a value, a dtype, an ordering or the RNG stream moves them.
    """

    @pytest.mark.parametrize("seed, expected", [
        (2022, "569d88af741bceee369c55d9cd3d77ab9f6dd589d7713aa70bc172b96f9a2805"),
        (1, "663cfb96407d93f8acce5f4b2e538c68fe127b31ae6b1ba3925d05b4e6052073"),
    ])
    def test_small_universe_digest(self, seed, expected):
        universe = _build_universe_uncached(UniverseConfig.small(seed))
        assert universe_digest(universe) == expected

    def test_full_universe_digest(self):
        # Taken from the per-draw label walk and per-site choice calls;
        # the full pools collide far more often than the small ones.
        universe = _build_universe_uncached(UniverseConfig(seed=3))
        assert universe_digest(universe) == (
            "aa587a483473863dc81190f3f60646362398e755901720789539b34f1326b7cf")
