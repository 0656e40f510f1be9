"""Instantiating the synthetic website universe.

A :class:`Universe` is the fully materialised ground truth the
generator scores: every named anchor, every national champion, and the
procedurally generated rank-and-file sites (global, regional/language,
and per-country endemic pools), each with a category, base strength,
platform/metric/seasonal multipliers and a canonical identity.

Pool composition encodes Section 5.2's finding that global and national
site populations have different category mixes: the global pool samples
categories proportionally to ``prevalence × global_fraction`` while the
endemic pools use ``prevalence × (1 − global_fraction)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..core.errors import GenerationError
from ..obs import get_tracer
from ..world.categories_data import ALL_CATEGORIES
from ..world.countries import COUNTRIES, by_region_group
from ..world.profiles import profile_for
from ..world.sites import CHAMPION_RULES, NAMED_SITES, Archetype, resolve_scope
from .domains import (
    COUNTRY_SUFFIX,
    choice_rows,
    endemic_domains,
    global_domains,
    multinational_domain,
    neighbor_domain,
    neighbor_domains,
    unique_labels,
)

#: Real-world domains for named sites whose canonical identity is not
#: simply ``<name>.com``.
NAMED_DOMAIN_OVERRIDES: dict[str, str] = {
    "wikipedia": "wikipedia.org",
    "twitch": "twitch.tv",
    "ampproject": "ampproject.org",
    "telegram": "telegram.org",
    "pixiv": "pixiv.net",
    "craigslist": "craigslist.org",
    "arca-live": "arca.live",
    "noonoo-tv": "noonoo.tv",
    "namu-wiki": "namu.wiki",
    "ok": "ok.ru",
    "nicovideo": "nicovideo.jp",
    "vnexpress": "vnexpress.net",
    "2dehands": "2dehands.be",
    "leboncoin": "leboncoin.fr",
    "allegro": "allegro.pl",
    "marktplaats": "marktplaats.nl",
    "sahibinden": "sahibinden.com.tr",
    "trendyol": "trendyol.com.tr",
    "kuleuven": "kuleuven.be",
    "ouedkniss": "ouedkniss.dz",
    "hespress": "hespress.co.ma",
    "yapo": "yapo.cl",
    "globo": "globo.com.br",
    "uol": "uol.com.br",
    "bbc": "bbc.co.uk",
    "tvnz": "tvnz.co.nz",
    "cricbuzz": "cricbuzz.co.in",
    "dcinside": "dcinside.co.kr",
    "fmkorea": "fmkorea.co.kr",
    "inven": "inven.co.kr",
    "nexon": "nexon.co.kr",
    "wavve": "wavve.co.kr",
    "afreecatv": "afreecatv.co.kr",
    "daum": "daum.co.kr",
    "naver": "naver.com",
    "rakuten": "rakuten.co.jp",
    "pixnet": "pixnet.com.tw",
    "ixdzs": "ixdzs.com.tw",
    "uukanshu": "uukanshu.com.tw",
    "czbooks": "czbooks.com.tw",
    "zalo": "zalo.com.vn",
    "sex333": "sex333.com.vn",
    "avito": "avito.ru",
    "ozon": "ozon.ru",
    "youm7": "youm7.com.eg",
    "marca": "marca.es",
}

_ARCH_CODE = {Archetype.GLOBAL: 0, Archetype.REGIONAL: 1, Archetype.ENDEMIC: 2}


@dataclass(frozen=True)
class UniverseConfig:
    """Pool sizes and composition knobs for universe construction."""

    seed: int = 2022
    global_pool: int = 600
    regional_pool: int = 220          # per region group
    language_pool: int = 150          # per multi-country language
    endemic_pool: int = 14_000        # per country
    #: Few-country regional sites: each lives in its primary country
    #: plus 1–3 related (same group / shared language) countries.  This
    #: tier is what makes Section 5.1's arithmetic work: ~46 % of the
    #: sites ranking top-1K somewhere also show up in another country's
    #: top-10K, and most of those are exactly such near-neighbour sites.
    neighbor_pool: int = 10_000       # per country
    #: Strong mid-tier sites per country: the ranks ~30-150 zone that
    #: neither the curated anchors (above it) nor the capped procedural
    #: mass (below it) can populate.  Category mix follows
    #: prevalence × exp(mu) × head_boost, which is how Figure 3's
    #: mid-rank composition (News & Media peaking near the top-50) is
    #: planted.  ~60 % endemic, 40 % shared with 1-2 related countries.
    strong_pool: int = 80             # per country
    nonpublic_fraction: float = 0.01  # Section 3.1: non-public domains excluded

    def __post_init__(self) -> None:
        for name in ("global_pool", "regional_pool", "language_pool",
                     "endemic_pool", "neighbor_pool", "strong_pool"):
            if getattr(self, name) < 0:
                raise GenerationError(f"{name} must be non-negative")
        if not 0.0 <= self.nonpublic_fraction < 1.0:
            raise GenerationError("nonpublic_fraction must be in [0, 1)")

    @classmethod
    def small(cls, seed: int = 2022) -> "UniverseConfig":
        """A laptop-test-sized universe (pairs with list_size ≈ 1500)."""
        return cls(
            seed=seed,
            global_pool=220,
            regional_pool=70,
            language_pool=50,
            endemic_pool=1_500,
            neighbor_pool=1_100,
            strong_pool=40,
        )


@dataclass
class Universe:
    """The materialised site universe (see module docstring)."""

    config: UniverseConfig
    canonical: list[str]              # canonical identity per site
    labels: list[str]                 # registrable label per site
    category_id: np.ndarray           # int16 index into categories
    categories: tuple[str, ...]       # category names, index-aligned
    log_strength: np.ndarray
    log_mobile: np.ndarray
    log_time: np.ndarray
    log_december: np.ndarray
    noise_scale: np.ndarray
    archetype: np.ndarray             # int8: 0 global / 1 regional / 2 endemic
    home: list[str | None]            # country code for endemic sites
    multi_cctld: np.ndarray           # bool
    has_android_app: np.ndarray       # bool
    non_public: np.ndarray            # bool
    tags: dict[int, tuple[str, ...]]  # uid -> descriptive tags (named/champions)
    named_uid: dict[str, int]         # named-site name -> uid
    country_candidates: dict[str, np.ndarray] = field(default_factory=dict)
    country_boost: dict[str, np.ndarray] = field(default_factory=dict)

    # -- convenience -----------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.canonical)

    def category_of(self, uid: int) -> str:
        return self.categories[int(self.category_id[uid])]

    def canonical_of(self, name: str) -> str:
        """Canonical identity of a named site ("naver" → "naver.com")."""
        return self.canonical[self.named_uid[name]]

    def category_by_canonical(self) -> dict[str, str]:
        """canonical identity → category name, for the whole universe."""
        return {
            self.canonical[uid]: self.categories[int(self.category_id[uid])]
            for uid in range(self.n_sites)
        }

    def domain_in_country(self, uid: int, country: str) -> str:
        """The domain string this site shows in ``country``'s telemetry."""
        if self.multi_cctld[uid]:
            return multinational_domain(self.labels[uid], country)
        return self.canonical[uid]

    def candidates(self, country: str) -> np.ndarray:
        try:
            return self.country_candidates[country]
        except KeyError:
            raise GenerationError(f"no candidate pool for country {country!r}") from None


def _sample_categories(
    rng: np.random.Generator,
    count: int,
    weight_fn,
) -> np.ndarray:
    """Sample category ids for ``count`` procedural sites."""
    names = [spec.name for spec in ALL_CATEGORIES]
    weights = np.array([max(weight_fn(profile_for(n)), 0.0) for n in names])
    total = weights.sum()
    if total <= 0:
        raise GenerationError("category weights sum to zero")
    return rng.choice(len(names), size=count, p=weights / total)


#: Hard ceiling on procedural site strength.  Named anchors start at
#: ~5.7 and national champions at 5.5; rank-and-file sites must stay
#: below the curated head, however lucky their log-normal draw (24K
#: draws per country reach 4σ tails otherwise).
PROCEDURAL_STRENGTH_CAP: float = 5.30


def _strengths_for(rng: np.random.Generator, category_ids: np.ndarray,
                   categories: tuple[str, ...]) -> np.ndarray:
    """Log-normal base strengths drawn per category profile, capped."""
    mus = np.array([profile_for(c).mu for c in categories])
    sigmas = np.array([profile_for(c).sigma for c in categories])
    z = rng.standard_normal(len(category_ids))
    raw = mus[category_ids] + sigmas[category_ids] * z
    per_cat_cap = mus[category_ids] + 2.75 * sigmas[category_ids]
    return np.minimum(raw, np.minimum(per_cat_cap, PROCEDURAL_STRENGTH_CAP))


#: Universes are deterministic functions of their config and cost CPU to
#: build (~4.6-5.6 s at full scale, ~0.5-0.7 s at small scale, on one 2.1 GHz
#: Xeon vCPU), so they are memoised for the process lifetime.  Treat a
#: built Universe as immutable.
_UNIVERSE_CACHE: dict[UniverseConfig, Universe] = {}


def build_universe(config: UniverseConfig | None = None) -> Universe:
    """Materialise the full universe from the world ground truth (memoised).

    An uncached build records one ``synth.universe_build`` span.
    """
    config = config or UniverseConfig()
    cached = _UNIVERSE_CACHE.get(config)
    if cached is not None:
        return cached
    with get_tracer().span("synth.universe_build", seed=config.seed) as span:
        universe = _build_universe_uncached(config)
        span.set("sites", universe.n_sites)
    _UNIVERSE_CACHE[config] = universe
    return universe


#: The per-site numeric columns of a :class:`Universe`, with their dtypes.
#: ``log_mults`` holds (log mobile, log time, log December) per site and
#: is split into the three Universe columns at the end.
_COLUMNS: tuple[tuple[str, type], ...] = (
    ("category_id", np.int16),
    ("log_strength", np.float64),
    ("log_mults", np.float64),
    ("noise_scale", np.float64),
    ("archetype", np.int8),
    ("multi_cctld", bool),
    ("has_android_app", bool),
)


class _Sites:
    """Universe columns, appended in uid order one block of sites at a time."""

    def __init__(self) -> None:
        self.canonical: list[str] = []
        self.labels: list[str] = []
        self.home: list[str | None] = []
        self.tags: dict[int, tuple[str, ...]] = {}
        self._blocks: dict[str, list[np.ndarray]] = {n: [] for n, _ in _COLUMNS}

    def __len__(self) -> int:
        return len(self.canonical)

    def add(
        self,
        labels: list[str],
        canonical: list[str],
        home: list[str | None],
        tags: tuple[str, ...] | list[tuple[str, ...]] = (),
        **columns,
    ) -> list[int]:
        """Append one block; a scalar column value applies to every site.

        ``tags`` is either one tuple shared by the block or one tuple
        per site.  Returns the block's uids.
        """
        start, count = len(self.canonical), len(labels)
        self.labels.extend(labels)
        self.canonical.extend(canonical)
        self.home.extend(home)
        for name, dtype in _COLUMNS:
            values = np.asarray(columns[name], dtype=dtype)
            shape = (count, 3) if name == "log_mults" else (count,)
            self._blocks[name].append(np.broadcast_to(values, shape))
        uids = list(range(start, start + count))
        if tags and isinstance(tags[0], str):
            tags = [tags] * count
        for uid, site_tags in zip(uids, tags):
            if site_tags:
                self.tags[uid] = site_tags
        return uids

    def columns(self) -> dict[str, np.ndarray]:
        """The Universe's numeric columns, keyed by field name."""
        out = {name: np.concatenate(self._blocks[name]) for name, _ in _COLUMNS}
        mults = out.pop("log_mults")
        out.update(log_mobile=mults[:, 0].copy(), log_time=mults[:, 1].copy(),
                   log_december=mults[:, 2].copy())
        return out


def _log_mults(site) -> tuple[float, float, float]:
    """(log mobile, log time, log December) multipliers of a site/profile."""
    return (float(np.log(site.mobile_mult)), float(np.log(site.time_mult)),
            float(np.log(site.december_mult)))


def _build_universe_uncached(config: UniverseConfig) -> Universe:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xA11CE]))
    categories = tuple(spec.name for spec in ALL_CATEGORIES)
    cat_index = {name: i for i, name in enumerate(categories)}
    # Per-category log multipliers, indexed by category id.
    cat_mults = np.array([_log_mults(profile_for(c)) for c in categories],
                         dtype=np.float64)

    sites = _Sites()
    named_uid: dict[str, int] = {}
    scope_by_uid: dict[int, tuple[str, ...]] = {}
    taken_labels: set[str] = set()

    # ---- named anchors ----------------------------------------------------------
    scopes = [resolve_scope(site.scope) for site in NAMED_SITES]
    taken_labels.update(site.name for site in NAMED_SITES)
    uids = sites.add(
        [site.name for site in NAMED_SITES],
        [site.name if site.multi_cctld
         else NAMED_DOMAIN_OVERRIDES.get(site.name, f"{site.name}.com")
         for site in NAMED_SITES],
        [scope[0] if site.archetype is Archetype.ENDEMIC else None
         for site, scope in zip(NAMED_SITES, scopes)],
        [site.tags for site in NAMED_SITES],
        category_id=[cat_index[site.category] for site in NAMED_SITES],
        log_strength=[site.log_strength for site in NAMED_SITES],
        log_mults=[_log_mults(site) for site in NAMED_SITES],
        noise_scale=[site.noise_scale for site in NAMED_SITES],
        archetype=[_ARCH_CODE[site.archetype] for site in NAMED_SITES],
        multi_cctld=[site.multi_cctld for site in NAMED_SITES],
        has_android_app=[site.has_android_app for site in NAMED_SITES],
    )
    for site, uid, scope in zip(NAMED_SITES, uids, scopes):
        named_uid[site.name] = uid
        scope_by_uid[uid] = scope

    # ---- national champions -----------------------------------------------------
    for rule in CHAMPION_RULES:
        lo, hi = rule.log_strength_range
        champ_labels: list[str] = []
        strengths: list[float] = []
        for _ in rule.countries:
            champ_labels.extend(unique_labels(rng, 1, taken_labels))
            strengths.append(float(rng.uniform(lo, hi)))
        uids = sites.add(
            champ_labels,
            [f"{label}.{COUNTRY_SUFFIX[country]}"
             for label, country in zip(champ_labels, rule.countries)],
            list(rule.countries),
            (rule.tag, "champion"),
            category_id=cat_index[rule.category],
            log_strength=strengths,
            log_mults=_log_mults(rule),
            noise_scale=0.30,
            archetype=_ARCH_CODE[Archetype.ENDEMIC],
            multi_cctld=False,
            has_android_app=rule.has_app,
        )
        for uid, country in zip(uids, rule.countries):
            scope_by_uid[uid] = (country,)

    # ---- procedural pools ----------------------------------------------------------
    def _emit_pool(
        count: int,
        weight_fn,
        arch: Archetype,
        home_key: str | None,
        domains_fn,
        store_home: bool = False,
    ) -> list[int]:
        if count == 0:
            return []
        ids = _sample_categories(rng, count, weight_fn)
        strength_arr = _strengths_for(rng, ids, categories)
        # Popular sites have stable ranks (Section 4.5: "top sites are
        # typically stable between months"), so noise shrinks with
        # strength: rank-and-file sites churn, the procedural head barely
        # moves and can never overtake the curated anchors.
        noise_arr = np.clip(1.0 - 0.18 * (strength_arr - 1.0), 0.30, 1.0)
        pool_labels = unique_labels(rng, count, taken_labels)
        home = home_key if (arch is Archetype.ENDEMIC or store_home) else None
        return sites.add(
            pool_labels,
            domains_fn(pool_labels),
            [home] * count,
            category_id=ids,
            log_strength=strength_arr,
            log_mults=cat_mults[ids],
            noise_scale=noise_arr,
            archetype=_ARCH_CODE[arch],
            multi_cctld=False,
            has_android_app=False,
        )

    global_uids = _emit_pool(
        config.global_pool,
        lambda p: p.prevalence * p.global_fraction,
        Archetype.GLOBAL, None,
        lambda labels: global_domains(labels, rng),
    )

    region_groups = by_region_group()
    regional_uids: dict[str, list[int]] = {}
    for group in sorted(region_groups):
        regional_uids[group] = _emit_pool(
            config.regional_pool,
            lambda p: p.prevalence * (1.0 - 0.5 * p.global_fraction),
            Archetype.REGIONAL, None,
            lambda labels: global_domains(labels, rng),
        )

    lang_speakers: dict[str, list[str]] = {}
    for country in COUNTRIES:
        for lang in country.languages:
            lang_speakers.setdefault(lang, []).append(country.code)
    multi_langs = sorted(l for l, cs in lang_speakers.items() if len(cs) >= 2)
    language_uids: dict[str, list[int]] = {}
    for lang in multi_langs:
        language_uids[lang] = _emit_pool(
            config.language_pool,
            lambda p: p.prevalence * (1.0 - 0.5 * p.global_fraction),
            Archetype.REGIONAL, None,
            lambda labels: global_domains(labels, rng),
        )

    endemic_uids: dict[str, list[int]] = {}
    for country in COUNTRIES:
        code = country.code
        endemic_uids[code] = _emit_pool(
            config.endemic_pool,
            lambda p: p.prevalence * (1.0 - p.global_fraction),
            Archetype.ENDEMIC, code,
            lambda labels: endemic_domains(labels, code, rng),
        )

    # Strong mid-tier sites (see UniverseConfig.strong_pool).  Their
    # per-site draws interleave several kinds, so this pool keeps its
    # per-site loop and only the columns are assembled as arrays.
    strong_membership: dict[str, list[int]] = {c.code: [] for c in COUNTRIES}
    related_map: dict[str, list[str]] = {}
    for country in COUNTRIES:
        related = {
            other.code
            for other in COUNTRIES
            if other.code != country.code
            and (other.region_group == country.region_group
                 or country.shares_language(other))
        }
        related_map[country.code] = sorted(related)
    for country in COUNTRIES:
        code = country.code
        n_strong = config.strong_pool
        if not n_strong:
            continue
        ids = _sample_categories(
            rng, n_strong,
            lambda p: p.prevalence * math.exp(p.mu) * p.head_boost,
        )
        strong_labels = unique_labels(rng, n_strong, taken_labels)
        shared_mask = rng.random(n_strong) < 0.40
        related = related_map[code]
        start = len(sites)
        domains: list[str] = []
        strengths = []
        archetypes: list[Archetype] = []
        apps: list[bool] = []
        for i in range(n_strong):
            strengths.append(float(rng.uniform(5.35, 6.55)))
            arch = (Archetype.REGIONAL
                    if shared_mask[i] and related else Archetype.ENDEMIC)
            archetypes.append(arch)
            domains.append(neighbor_domain(strong_labels[i], code, rng))
            apps.append(bool(rng.random() < 0.65))
            strong_membership[code].append(start + i)
            if arch is Archetype.REGIONAL:
                k = int(rng.integers(1, 3))
                picks = rng.choice(len(related), size=min(k, len(related)),
                                   replace=False)
                for idx in picks:
                    strong_membership[related[int(idx)]].append(start + i)
        sites.add(
            strong_labels,
            domains,
            [code] * n_strong,
            ("strong",),
            category_id=ids,
            log_strength=strengths,
            log_mults=cat_mults[ids],
            noise_scale=0.30,
            archetype=[_ARCH_CODE[arch] for arch in archetypes],
            multi_cctld=False,
            has_android_app=apps,
        )

    # Few-country neighbour sites: primary country plus 1-3 related ones.
    neighbor_membership: dict[str, list[int]] = {c.code: [] for c in COUNTRIES}
    for country in COUNTRIES:
        code = country.code
        uids = _emit_pool(
            config.neighbor_pool,
            lambda p: p.prevalence * (1.0 - p.global_fraction),
            Archetype.REGIONAL, code,
            lambda labels: neighbor_domains(labels, code, rng),
            store_home=True,
        )
        related = related_map[code]
        neighbor_membership[code].extend(uids)
        if related:
            # One rng.choice(len(related), k, replace=False) per site,
            # replayed in bulk; each related country gains its sites
            # in uid order, as the per-site loop appended them.
            sizes = np.minimum(rng.integers(1, 4, size=len(uids)), len(related))
            picks = choice_rows(rng, len(related), sizes)
            owners = np.repeat(np.asarray(uids, dtype=np.int64), sizes)
            for idx, other in enumerate(related):
                neighbor_membership[other].extend(owners[picks == idx].tolist())

    n = len(sites)
    non_public = np.zeros(n, dtype=bool)
    if config.nonpublic_fraction > 0:
        # Only procedural sites can be non-public; named anchors and
        # champions are by definition prominent public sites.
        procedural_start = len(named_uid) + sum(len(r.countries) for r in CHAMPION_RULES)
        draw = rng.random(n - procedural_start) < config.nonpublic_fraction
        non_public[procedural_start:] = draw

    universe = Universe(
        config=config,
        canonical=sites.canonical,
        labels=sites.labels,
        categories=categories,
        home=sites.home,
        non_public=non_public,
        tags=sites.tags,
        named_uid=named_uid,
        **sites.columns(),
    )

    # ---- per-country candidate pools and named boosts ---------------------------------
    named_in_country: dict[str, list[int]] = {c.code: [] for c in COUNTRIES}
    for uid, scope in scope_by_uid.items():
        for code in scope:
            named_in_country[code].append(uid)

    boosts_by_name = {s.name: s.country_boosts for s in NAMED_SITES}
    for country in COUNTRIES:
        code = country.code
        pool: list[int] = list(named_in_country[code])
        pool.extend(global_uids)
        pool.extend(regional_uids[country.region_group])
        for lang in country.languages:
            pool.extend(language_uids.get(lang, []))
        pool.extend(endemic_uids[code])
        pool.extend(neighbor_membership[code])
        pool.extend(strong_membership[code])
        candidate = np.unique(np.asarray(pool, dtype=np.int64))
        boost = np.zeros(len(candidate), dtype=np.float64)
        for name, uid in named_uid.items():
            delta = boosts_by_name.get(name, {}).get(code)
            at = int(np.searchsorted(candidate, uid))
            if delta is not None and at < len(candidate) and candidate[at] == uid:
                boost[at] = delta
        universe.country_candidates[code] = candidate
        universe.country_boost[code] = boost

    return universe



# -- the packed universe (``universe.bin``) -----------------------------------------

#: ``universe.bin`` starts with this fixed prefix: magic, layout version,
#: the SHA-256 of every byte after the digest, and the JSON header's
#: byte length.  The digest covers the length field, the header and
#: the body, so any flipped byte past the version is caught.
UNIVERSE_MAGIC = b"RPROUNI1"
UNIVERSE_VERSION = 1
_PREFIX = struct.Struct("<8sI32sI")
_DIGESTED = _PREFIX.size - 4

#: The per-site numeric columns, stored raw in their built dtypes.
_PACKED_COLUMNS = ("category_id", "log_strength", "log_mobile", "log_time",
                   "log_december", "noise_scale", "archetype", "multi_cctld",
                   "has_android_app", "non_public")


def _string_table(values: list[str]) -> np.ndarray:
    """A string table: the UTF-8 names, NUL-separated, so a restore
    splits it in one call.  (A domain or a label holds no NUL; a name
    that did would split into more names than sites, and the restore
    would reject the file.)"""
    return np.frombuffer("\0".join(values).encode("utf-8"), dtype=np.uint8)


def _strings(table: np.ndarray, count: int) -> list[str]:
    names = table.tobytes().decode("utf-8").split("\0") if count else []
    if len(names) != count:
        raise ValueError("a string table holds another number of names")
    return names


def pack_universe(universe: Universe) -> list:
    """``universe.bin`` as a list of buffers, to be written in order.

    After the prefix comes a JSON header — the :class:`UniverseConfig`,
    the category names, the home-country codes, ``named_uid``, ``tags``,
    each country's candidate count and the section table — padded to 8
    bytes, then the body: each section's raw array, padded to 8 bytes.
    The numeric columns and the candidate pools are written straight
    from the universe's own arrays (no joined copy); ``canonical`` and
    ``labels`` are string tables, ``home`` an ``int16`` code per site
    and ``country_boost`` its nonzero entries only.  The bytes are a
    pure function of the universe.
    """
    countries = list(universe.country_candidates)
    homes = sorted(set(universe.home) - {None})
    code_of = {home: code for code, home in enumerate(homes)}
    code_of[None] = -1
    sections: list[tuple[str, object]] = [
        (name, getattr(universe, name)) for name in _PACKED_COLUMNS]
    sections.append(("canonical", _string_table(universe.canonical)))
    sections.append(("labels", _string_table(universe.labels)))
    sections.append(("home", np.fromiter(map(code_of.__getitem__, universe.home),
                                         np.int16, universe.n_sites)))
    sections.append(("candidates", [universe.country_candidates[c] for c in countries]))
    boost = np.concatenate([universe.country_boost[c] for c in countries])
    nonzero = np.flatnonzero(boost)
    sections += [("boost.index", nonzero), ("boost.value", boost[nonzero])]

    table, body = [], []
    for name, arrays in sections:
        arrays = arrays if isinstance(arrays, list) else [arrays]
        dtype = arrays[0].dtype
        count = sum(map(len, arrays))
        table.append([name, dtype.str, count])
        body.extend(np.ascontiguousarray(array) for array in arrays)
        pad = -(count * dtype.itemsize) % 8
        if pad:
            body.append(bytes(pad))
    header = json.dumps({
        "config": asdict(universe.config),
        "sites": universe.n_sites,
        "categories": list(universe.categories),
        "homes": homes,
        "named_uid": universe.named_uid,
        "tags": [[uid, list(tags)] for uid, tags in universe.tags.items()],
        "countries": [[c, len(universe.country_candidates[c])] for c in countries],
        "sections": table,
    }, separators=(",", ":")).encode("utf-8")
    header += b" " * (-(len(header) + _PREFIX.size) % 8)
    length = struct.pack("<I", len(header))
    digest = hashlib.sha256(length)
    digest.update(header)
    for buffer in body:
        digest.update(buffer)
    prefix = _PREFIX.pack(UNIVERSE_MAGIC, UNIVERSE_VERSION, digest.digest(),
                          len(header))
    return [prefix, header, *body]


def load_universe(path: Path, config: UniverseConfig) -> Universe | None:
    """The universe for ``config`` that ``path`` holds, or ``None``.

    A file that is missing, holds another config's universe, or fails
    its digest gives ``None``: the caller builds instead (and rewrites
    the file).  A good file is restored in one ``synth.universe_load``
    span (attributes ``bytes`` and ``sites``) and memoised like a build,
    so this process's :func:`build_universe` returns it; the numeric
    columns and the candidate pools are read-only views over an mmap.

    When this process already holds ``config``'s universe it is returned
    after a check of the file's magic, version and config alone: the
    body is neither hashed nor decoded, so a corrupt body behind a good
    header goes unnoticed until a process without the memo reads it.
    """
    data = _map(path)
    if data is None:
        return None
    cached = _UNIVERSE_CACHE.get(config)
    if cached is not None:
        return cached if _holds(data, config) else None
    with get_tracer().span("synth.universe_load", bytes=len(data)) as span:
        universe = _unpack(data, config)
        if universe is None:
            return None
        span.set("sites", universe.n_sites)
    _UNIVERSE_CACHE[config] = universe
    return universe


@dataclass(frozen=True)
class SiteFacts:
    """What the universe says about each site, indexed by uid: the
    ground truth the labelled analyses read (category, tags, app)."""

    categories: tuple[str, ...]
    category_id: np.ndarray
    has_android_app: np.ndarray
    tags: dict[int, tuple[str, ...]]

    @classmethod
    def of(cls, universe: Universe) -> "SiteFacts":
        return cls(universe.categories, universe.category_id,
                   universe.has_android_app, universe.tags)


def load_site_facts(path: Path, config: UniverseConfig) -> SiteFacts | None:
    """The :class:`SiteFacts` of the universe for ``config`` at ``path``.

    The file is judged as :func:`load_universe` judges it — ``None``
    for a missing, foreign, truncated or corrupt one, digest checked
    even when this process holds the universe — in one
    ``synth.universe_load`` span, but only the two fact columns are
    copied out and no name is decoded, so a reader that needs the facts
    alone (a report, a server) keeps neither the mapped file nor the
    universe's strings.
    """
    data = _map(path)
    if data is None:
        return None
    with get_tracer().span("synth.universe_load", bytes=len(data)) as span:
        found = _sections(data, config)
        if found is None:
            return None
        header, sections = found
        try:
            facts = SiteFacts(
                tuple(header["categories"]),
                sections["category_id"].copy(),
                sections["has_android_app"].copy(),
                {uid: tuple(tags) for uid, tags in header["tags"]},
            )
        except (ValueError, TypeError, KeyError):  # a damaged layout
            return None
        span.set("sites", header["sites"])
    return facts


def _map(path: Path) -> mmap.mmap | None:
    try:
        with open(path, "rb") as handle:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # absent, unreadable or empty
        return None


def _holds(data: mmap.mmap, config: UniverseConfig) -> bool:
    """Whether ``data`` has this layout's magic and version, and its
    header opens with ``config`` exactly as :func:`pack_universe` writes
    it — a byte comparison, so it costs no hash and no JSON parse."""
    lead = json.dumps({"config": asdict(config)}, separators=(",", ":"))
    lead = lead[:-1].encode("utf-8") + b","
    return (data[:12] == struct.pack("<8sI", UNIVERSE_MAGIC, UNIVERSE_VERSION)
            and data[_PREFIX.size:_PREFIX.size + len(lead)] == lead)


def _sections(
    data: mmap.mmap, config: UniverseConfig
) -> tuple[dict, dict[str, np.ndarray]] | None:
    """The JSON header and every section (a view over ``data``) of a
    ``universe.bin`` of ``config``, or ``None`` if it is not one."""
    if not _holds(data, config):
        return None
    _, _, digest, length = _PREFIX.unpack_from(data)
    if hashlib.sha256(memoryview(data)[_DIGESTED:]).digest() != digest:
        return None
    try:
        header = json.loads(data[_PREFIX.size:_PREFIX.size + length].decode("utf-8"))
        sections: dict[str, np.ndarray] = {}
        offset = _PREFIX.size + length
        for name, dtype, count in header["sections"]:
            sections[name] = np.frombuffer(data, dtype, count, offset)
            offset += sections[name].nbytes
            offset += -offset % 8
        complete = offset == len(data) and all(
            len(sections[name]) == header["sites"]
            for name in (*_PACKED_COLUMNS, "home"))
    except (ValueError, TypeError, KeyError, IndexError):  # a damaged layout
        return None
    return (header, sections) if complete else None


def _unpack(data: mmap.mmap, config: UniverseConfig) -> Universe | None:
    """Decode a ``universe.bin`` of ``config``, or ``None`` if it is not one."""
    found = _sections(data, config)
    if found is None:
        return None
    header, sections = found
    try:
        homes = np.array(header["homes"] + [None], dtype=object)
        universe = Universe(
            config=config,
            canonical=_strings(sections["canonical"], header["sites"]),
            labels=_strings(sections["labels"], header["sites"]),
            categories=tuple(header["categories"]),
            home=homes[sections["home"]].tolist(),
            tags={uid: tuple(tags) for uid, tags in header["tags"]},
            named_uid=header["named_uid"],
            **{name: sections[name] for name in _PACKED_COLUMNS},
        )
        candidates = sections["candidates"]
        boost = np.zeros(len(candidates), dtype=np.float64)
        boost[sections["boost.index"]] = sections["boost.value"]
        start = 0
        for country, count in header["countries"]:
            universe.country_candidates[country] = candidates[start:start + count]
            universe.country_boost[country] = boost[start:start + count]
            start += count
    except (ValueError, TypeError, KeyError, IndexError):  # a damaged layout
        return None
    return universe if start == len(candidates) else None
