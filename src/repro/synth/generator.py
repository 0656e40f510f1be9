"""The telemetry generator: scores the universe into ranked lists.

This is the stand-in for Chrome's aggregation pipeline.  For every
requested (country, platform, metric, month) breakdown it computes a
log-score per candidate site and emits the top-N as universe uids
(which :meth:`TelemetryGenerator.rank_list` names into a
:class:`~repro.core.rankedlist.RankedList`):

    log score =  base strength                      (site ground truth)
              +  named-site country boost           (e.g. Naver in KR)
              +  persistent country noise           ε(site, country)
              +  platform effect + platform noise   (mobile multiplier, η)
              +  metric effect + metric noise       (time multiplier, θ)
              +  month random walk                  (slow popularity drift)
              +  seasonal effect + transient noise  (December, sampling)

All noise components are drawn from deterministic streams keyed by
(seed, country, component), so any single breakdown can be regenerated
independently and identically — the property that lets benchmarks
generate only the slices they need.

Because most components are shared by *several* slices of a country's
breakdown grid (the platform noise by every metric × month, the month
walk by every platform × metric, the December mixture by both
platforms), :meth:`TelemetryGenerator.rank_lists_batch` scores a whole
per-country grid in one matrix pass: each deterministic component is
drawn exactly once into a keyed component cache and broadcast into the
columns that use it, preserving the per-element order of additions of
the score sum above so every column is byte-identical to scoring that
slice on its own (asserted against the per-slice oracle in
``tests/engine/test_batch_parity.py``).  :meth:`TelemetryGenerator.rank_list`
is the one-breakdown case of the same pass.

Two structural choices are calibration-critical:

* **Mixture metric noise.**  Section 4.4 reports top-10K loads-vs-time
  intersection of only ~65 % *but* Spearman ≈ 0.65 within the
  intersection: lists disagree mostly about *which* sites appear, not
  about the order of the shared ones.  Diffuse Gaussian noise cannot
  produce that combination (it drags rank correlation down before the
  intersection); a mixture can — most sites get a small metric shift,
  a minority (``metric_shift_prob``) gets a large one and falls out of
  one list entirely.

* **Random-walk month drift.**  Month-over-month similarity must decay
  with month distance (Section 4.5 compares September against each
  later month), so the month effect is a cumulative sum of per-month
  innovations rather than independent draws.  December adds a
  *transient* seasonal term (category multipliers + extra noise) that
  reverts in January, which is exactly why December is dissimilar from
  both its neighbours while January and February remain the most
  similar pair.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.errors import GenerationError
from ..core.rankedlist import RankedList
from ..core.types import Breakdown, Metric, Month, Platform, REFERENCE_MONTH
from ..obs import get_tracer
from ..world.countries import get_country
from .privacy import (
    PrivacyConfig,
    threshold_rank,
    time_sampling_noise_sigma,
)
from .traffic import global_distributions
from .universe import Universe, UniverseConfig, build_universe

#: Nominal Chrome install base (opted-in clients) for web_scale = 1.0.
INSTALL_BASE_UNIT: float = 5_000_000.0

#: The month at which the popularity random walk is anchored (the first
#: month of the paper's study period).
WALK_ORIGIN: Month = Month(2021, 9)


@dataclass(frozen=True)
class GeneratorConfig:
    """All generation knobs, with paper-calibrated defaults."""

    seed: int = 2022
    universe: UniverseConfig | None = None
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    list_size: int = 10_000
    #: Persistent per-(site, country) appeal noise.
    country_sigma: float = 0.50
    #: Diffuse per-(site, country, platform) noise.
    platform_sigma: float = 0.55
    #: Diffuse per-(site, country) loads-vs-time noise: sets the Spearman
    #: correlation within the metric intersection (Section 4.4, ~0.65).
    metric_sigma: float = 0.12
    #: Metric *churn*: a fraction of sites is systematically favoured by
    #: one metric and crosses the top-N boundary — below-cutoff sites get
    #: an upward shift on the time ranking, above-cutoff sites a downward
    #: one.  This lowers the loads/time intersection without scrambling
    #: the order of the sites both lists keep.
    metric_churn_prob: float = 0.90
    metric_churn_lo: float = 1.2
    metric_churn_hi: float = 2.8
    #: Only sites within ±(band × list_size) ranks of the top-N cutoff
    #: are churn-eligible; the deep head is never displaced.
    metric_churn_band: float = 0.45
    #: Section 4.4: mobile lists agree more across metrics than desktop
    #: (74 % vs 65 % intersection) — less churn and less noise on mobile.
    mobile_metric_factor: float = 0.62
    #: Per-month random-walk innovation (slow drift).
    month_sigma: float = 0.28
    month_shift_prob: float = 0.07
    month_shift_sigma: float = 1.60
    #: December-only transient noise on top of the category multipliers.
    december_extra_sigma: float = 0.30
    december_shift_prob: float = 0.22
    december_shift_sigma: float = 2.00
    emit: str = "canonical"            # "canonical" or "domains"

    def __post_init__(self) -> None:
        if self.list_size < 1:
            raise GenerationError("list_size must be positive")
        for name in (
            "country_sigma", "platform_sigma", "metric_sigma",
            "metric_churn_lo", "metric_churn_hi", "month_sigma",
            "month_shift_sigma", "december_extra_sigma", "december_shift_sigma",
        ):
            if getattr(self, name) < 0:
                raise GenerationError(f"{name} must be non-negative")
        if self.metric_churn_hi < self.metric_churn_lo:
            raise GenerationError("metric_churn_hi must be >= metric_churn_lo")
        for name in ("metric_churn_prob", "month_shift_prob", "december_shift_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise GenerationError(f"{name} must be in [0, 1]")
        if not 0.0 < self.mobile_metric_factor <= 1.0:
            raise GenerationError("mobile_metric_factor must be in (0, 1]")
        if self.emit not in ("canonical", "domains"):
            raise GenerationError(f"emit must be 'canonical' or 'domains', got {self.emit!r}")

    @classmethod
    def small(cls, seed: int = 2022, **overrides) -> "GeneratorConfig":
        """A test-sized configuration (≈1.5K-site lists, small universe)."""
        base = cls(seed=seed, universe=UniverseConfig.small(seed), list_size=1_500)
        return replace(base, **overrides) if overrides else base

    def resolved_universe(self) -> UniverseConfig:
        return self.universe if self.universe is not None else UniverseConfig(seed=self.seed)

    def fingerprint(self) -> str:
        """A stable content address for everything this config generates.

        Hashes every generation knob — including the resolved universe
        and privacy configs — so two configs share a fingerprint exactly
        when they produce byte-identical slices.  Recorded in dataset
        metadata / the ``save_dataset`` manifest for provenance.
        """
        payload: dict[str, object] = {
            "format": 1,
            "universe": asdict(self.resolved_universe()),
            "privacy": asdict(self.privacy),
        }
        for spec in fields(self):
            if spec.name in ("universe", "privacy"):
                continue
            payload[spec.name] = getattr(self, spec.name)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class TelemetryGenerator:
    """Generates :class:`BrowsingDataset` slices from the synthetic world."""

    def __init__(self, config: GeneratorConfig | None = None) -> None:
        self.config = config or GeneratorConfig()
        self.universe: Universe = build_universe(self.config.resolved_universe())
        self._distributions = global_distributions()
        self._per_country: dict[str, dict[str, np.ndarray]] = {}
        self._walk_cache: dict[tuple[str, int], np.ndarray] = {}
        #: Unclipped forward walk cumulative sums keyed by (country,
        #: month index): walk(T+1) reuses walk(T) plus one innovation
        #: instead of re-summing every innovation from WALK_ORIGIN.
        self._walk_unclipped: dict[tuple[str, int], np.ndarray] = {}
        #: Canonical identities as an object array: naming takes rows by
        #: site instead of looping, and every dataset shares the same str
        #: objects (no interning pass).
        self._canonical_names = np.asarray(self.universe.canonical, dtype=object)
        self._multi_uids = np.flatnonzero(self.universe.multi_cctld)
        #: The ccTLD variants ``emit="domains"`` has emitted so far (a
        #: few per multi-ccTLD site), numbered in first-emitted order.
        self._variants: dict[str, int] = {}
        #: Privacy cutoffs keyed by (country, effective platform,
        #: effective metric, pre-truncation length) — ``threshold_rank``
        #: is a pure function of those, so the batch path pays its
        #: binary search once per key instead of once per slice.
        self._threshold_cache: dict[tuple[str, Platform, Metric, int], int] = {}
        #: Memoised ``share_of_rank`` probe values per effective
        #: (platform, metric): every country's cutoff search walks the
        #: same distribution, so probed ranks overlap heavily.
        self._share_memo: dict[tuple[Platform, Metric], dict[int, float]] = {}

    # -- noise streams -------------------------------------------------------------

    def _stream(self, *parts: object) -> np.random.Generator:
        """A deterministic RNG keyed by (seed, *parts)."""
        material: list[int] = [self.config.seed]
        for part in parts:
            if isinstance(part, int):
                material.append(part)
            else:
                material.append(zlib.crc32(str(part).encode("utf-8")))
        return np.random.default_rng(np.random.SeedSequence(material))

    #: All Gaussian noise draws are truncated at ±3σ: with ~a million
    #: (site, country) pairs, unbounded tails otherwise mint a handful of
    #: pseudoword sites that outscore the curated global head.
    _TRUNC: float = 3.0

    def _gauss(self, country: str, component: str, sigma: float) -> np.ndarray:
        """Diffuse noise: sigma × noise_scale × truncated N(0, 1)."""
        candidates = self.universe.candidates(country)
        draw = self._stream(country, component).standard_normal(len(candidates))
        np.clip(draw, -self._TRUNC, self._TRUNC, out=draw)
        return sigma * draw * self.universe.noise_scale[candidates]

    def _mixture(
        self, country: str, component: str,
        base_sigma: float, shift_prob: float, shift_sigma: float,
    ) -> np.ndarray:
        """Mixture noise: a few sites shift hugely, the rest barely.

        The shift mask and both magnitudes come from one stream so the
        component is a pure function of (seed, country, component).
        """
        candidates = self.universe.candidates(country)
        rng = self._stream(country, component)
        n = len(candidates)
        mask = rng.random(n) < shift_prob
        gauss = np.clip(rng.standard_normal(n), -self._TRUNC, self._TRUNC)
        noise = np.where(mask, shift_sigma, base_sigma) * gauss
        return noise * self.universe.noise_scale[candidates]

    def _churn_from_draws(
        self, country: str, base: np.ndarray,
        rand: np.ndarray, magnitude: np.ndarray, prob: float,
    ) -> np.ndarray:
        """Boundary churn: shift sites *across* the top-N cutoff.

        A ``prob`` fraction of sites is metric-exclusive: those whose
        base score sits above the country's top-N cutoff are pushed
        down (they leave the other metric's list), those below are
        pushed up (they enter it).  Because survivors are untouched,
        churn lowers list intersection without degrading the rank
        correlation within it — the combination Section 4.4 reports.

        The draws (``rand`` for the churn mask, ``magnitude`` for the
        shift) depend only on (seed, country, component) and the pool
        size, while the quantile/direction logic also depends on
        ``base`` (which carries the month walk); the two halves are
        split so :meth:`rank_lists_batch` can draw once per platform
        and re-derive only this base-dependent half per month.
        """
        candidates = self.universe.candidates(country)
        n = len(candidates)
        q_cut = 1.0 - min(self.config.list_size / max(n, 1), 1.0)
        band = self.config.metric_churn_band * self.config.list_size / max(n, 1)
        q_lo = max(q_cut - band, 0.0)
        q_hi = min(q_cut + band, 1.0)
        cutoff, lo_edge, hi_edge = np.quantile(base, [q_cut, q_lo, q_hi])
        eligible = (base >= lo_edge) & (base <= hi_edge)
        mask = eligible & (rand < prob)
        direction = np.where(base >= cutoff, -1.0, 1.0)
        return mask * direction * magnitude * self.universe.noise_scale[candidates]

    # -- per-country persistent state -----------------------------------------------

    def _country_state(self, country: str) -> dict[str, np.ndarray]:
        state = self._per_country.get(country)
        if state is not None:
            return state
        cfg = self.config
        uni = self.universe
        candidates = uni.candidates(country)
        keep = np.ones(len(candidates), dtype=bool)
        if cfg.privacy.exclude_non_public:
            keep &= ~uni.non_public[candidates]
        base = (
            uni.log_strength[candidates]
            + uni.country_boost[country]
            + self._gauss(country, "eps", cfg.country_sigma)
        )
        state = {"candidates": candidates, "keep": keep, "base": base}
        self._per_country[country] = state
        return state

    def _month_walk(self, country: str, month: Month) -> np.ndarray:
        """Cumulative popularity drift from WALK_ORIGIN to ``month``.

        walk(origin) = 0; each later month adds one innovation, each
        earlier month subtracts one, so similarity decays smoothly with
        month distance in either direction.

        This is the append-stability contract incremental ingestion
        relies on: every innovation is keyed by the absolute month
        *index* (``walk:<index>``), never by which months are in the
        request, so a month generated on its own is byte-identical to
        the same month generated as part of a larger batch.  ``repro
        ingest`` can therefore grow a saved dataset one month at a time
        and end up with exactly the files a full regeneration would
        have written.
        """
        target = month.index()
        origin = WALK_ORIGIN.index()
        key = (country, target)
        cached = self._walk_cache.get(key)
        if cached is not None:
            return cached
        if target >= origin:
            # Forward walks are incremental: walk(T) = walk(T-1) + one
            # innovation, accumulated left-to-right exactly as the old
            # per-month re-sum did, so reuse never changes a bit.  The
            # *unclipped* sums are what get cached — clipping below is
            # a per-read projection, not part of the recurrence.
            walk = self._unclipped_walk(country, target).copy()
        else:
            # Backward (pre-origin) walks keep the full re-sum: seeding
            # them from any cached month would reorder the additions.
            walk = np.zeros(len(self.universe.candidates(country)), dtype=np.float64)
            for idx in range(target + 1, origin + 1):
                walk -= self._innovation(country, idx)
        # A site may draw several large innovations in a row; cap the
        # cumulative drift so no rank-and-file site can climb past the
        # curated head within the study window.
        cap = 2.0 * self.universe.noise_scale[self.universe.candidates(country)]
        np.clip(walk, -cap, cap, out=walk)
        self._walk_cache[key] = walk
        return walk

    def _unclipped_walk(self, country: str, target: int) -> np.ndarray:
        """Unclipped innovation sum from WALK_ORIGIN to month ``target``.

        Cached per (country, month index); callers must copy before
        mutating.  ``target`` must be at or after the walk origin.
        """
        origin = WALK_ORIGIN.index()
        cached = self._walk_unclipped.get((country, target))
        if cached is None:
            if target <= origin:
                n = len(self.universe.candidates(country))
                cached = np.zeros(n, dtype=np.float64)
            else:
                cached = (
                    self._unclipped_walk(country, target - 1)
                    + self._innovation(country, target)
                )
            self._walk_unclipped[(country, target)] = cached
        return cached

    def _innovation(self, country: str, month_index: int) -> np.ndarray:
        cfg = self.config
        return self._mixture(
            country, f"walk:{month_index}",
            cfg.month_sigma, cfg.month_shift_prob, cfg.month_shift_sigma,
        )

    # -- list generation ----------------------------------------------------------------

    @staticmethod
    def _top_order(scores: np.ndarray, n: int) -> np.ndarray:
        """Indices of the ``n`` best scores, best first, stable on ties."""
        if n < len(scores):
            part = np.argpartition(-scores, n - 1)[:n]
        else:
            part = np.arange(len(scores))
        return part[np.argsort(-scores[part], kind="stable")]

    def emitted_sites(self, country: str, uids: np.ndarray) -> np.ndarray:
        """The site each of ``country``'s ``uids`` is emitted as.

        A site is its uid, except a ccTLD variant under
        ``emit="domains"`` (``google.co.kr``): that is ``n_sites`` plus
        the variant's number, so countries sharing a variant
        (``google.com``) share the site.  A variant never spells a
        canonical identity: a multi-ccTLD site's is its bare label.
        """
        if self.config.emit != "domains":
            return uids
        variant = np.array([
            self.universe.n_sites + self._variants.setdefault(name, len(self._variants))
            for name in map(self.universe.domain_in_country,
                            self._multi_uids.tolist(), repeat(country))
        ], dtype=np.int32)
        sites = uids.copy()
        multi = self.universe.multi_cctld[uids]
        sites[multi] = variant[np.searchsorted(self._multi_uids, uids[multi])]
        return sites

    def site_names(self, sites: np.ndarray) -> np.ndarray:
        """The emitted names of :meth:`emitted_sites` sites (object array)."""
        n = self.universe.n_sites
        names = self._canonical_names[np.minimum(sites, n - 1)]
        variant = sites >= n
        if variant.any():
            names[variant] = np.array([*self._variants], dtype=object)[sites[variant] - n]
        return names

    def _threshold_cutoff(
        self, country: str, platform: Platform, metric: Metric, n: int
    ) -> int:
        """The privacy cutoff for an ``n``-site list of this breakdown.

        Exactly what :func:`apply_threshold` computes, memoised:
        ``threshold_rank`` reads only the country's install base, the
        effective (platform, metric) traffic curve and the list length,
        never the list contents, so every slice of a grid sharing those
        shares one binary search.
        """
        eff_platform = platform if platform in Platform.studied() else Platform.WINDOWS
        eff_metric = metric if metric in Metric.studied() else Metric.PAGE_LOADS
        key = (country, eff_platform, eff_metric, n)
        cutoff = self._threshold_cache.get(key)
        if cutoff is None:
            install_base = get_country(country).web_scale * INSTALL_BASE_UNIT
            dist = self.distribution(eff_platform, eff_metric)
            memo = self._share_memo.setdefault((eff_platform, eff_metric), {})

            def share_fn(rank: int) -> float:
                share = memo.get(rank)
                if share is None:
                    share = dist.share_of_rank(rank)
                    memo[rank] = share
                return share

            cutoff = threshold_rank(
                install_base,
                dist,
                self.config.privacy.client_threshold,
                max_rank=n,
                share_fn=share_fn,
            )
            self._threshold_cache[key] = cutoff
        return cutoff

    def rank_list(
        self, country: str, platform: Platform, metric: Metric,
        month: Month = REFERENCE_MONTH,
    ) -> RankedList:
        """The top-N ranked list for one breakdown, as emitted names."""
        get_country(country)
        breakdown = Breakdown(country, platform, metric, month)
        uids = self.rank_lists_batch(country, (breakdown,))[breakdown]
        # Labels are globally unique by universe construction, so the
        # emitted names need no re-validation.
        names = self.site_names(self.emitted_sites(country, uids))
        return RankedList._trusted(tuple(names.tolist()))

    def rank_lists_batch(
        self,
        country: str,
        breakdowns: Sequence[Breakdown],
    ) -> dict[Breakdown, np.ndarray]:
        """Every requested slice of one country's grid, in one matrix pass.

        Each slice is its top-N universe uids, best first, as an
        ``int32`` array; no site name is touched (:meth:`rank_list`
        and the generation engine name them).

        Builds an ``(n_slices × n_candidates)`` score matrix for the
        country and fills each breakdown's row from a keyed component
        cache: the base scores, each platform's gauss, each month's
        walk, the churn draws per platform, the December mixture per
        (year, metric) and the sampling gauss per month are computed
        exactly once and broadcast into every row that uses them.

        Byte-identity with scoring each slice on its own is by
        construction, not by tolerance: IEEE addition is commutative but
        not associative, so the batch path never re-associates — rows
        sharing a prefix of the per-slice accumulation (base → platform
        → walk → metric → season → sampling) share the *computed prefix
        array* and then apply the remaining ``+=`` in that order, making
        every partial sum bitwise equal to the per-slice one.  The
        privacy cutoff comes from :meth:`_threshold_cutoff`, which
        memoises the binary search :func:`apply_threshold` performs.

        Under an active tracer every slice gets an
        ``engine.generate_slice`` span.
        """
        cfg = self.config
        uni = self.universe
        get_country(country)
        for breakdown in breakdowns:
            if breakdown.country != country:
                raise GenerationError(
                    f"breakdown {breakdown} is not part of "
                    f"country batch {country!r}"
                )
        state = self._country_state(country)
        candidates = state["candidates"]
        base = state["base"]
        keep = state["keep"]
        kept_uids = candidates[keep].astype(np.int32)
        if min(cfg.list_size, len(kept_uids)) == 0:
            raise GenerationError(f"no candidates survive for {country}")

        n_all = len(candidates)
        log_mobile_c = uni.log_mobile[candidates]
        log_time_c = uni.log_time[candidates]
        log_december_c = uni.log_december[candidates]
        sampling_sigma = time_sampling_noise_sigma(cfg.privacy.time_sampling_rate)

        # Per-call component caches (walks and thresholds are memoised
        # on the generator itself; these are cheap to rebuild and keyed
        # the same way the noise streams are).
        gauss_cache: dict[str, np.ndarray] = {}
        prefix: dict[Platform, np.ndarray] = {}
        prefix_month: dict[tuple[Platform, int], np.ndarray] = {}
        churn_draws: dict[Platform, tuple[np.ndarray, np.ndarray]] = {}
        churn_comp: dict[tuple[Platform, int], np.ndarray] = {}
        mixture_cache: dict[tuple[int, str], np.ndarray] = {}

        def gauss(component: str, sigma: float) -> np.ndarray:
            arr = gauss_cache.get(component)
            if arr is None:
                arr = self._gauss(country, component, sigma)
                gauss_cache[component] = arr
            return arr

        tracer = get_tracer()
        matrix = np.empty((len(breakdowns), n_all), dtype=np.float64)
        results: dict[Breakdown, np.ndarray] = {}
        for row, breakdown in zip(matrix, breakdowns):
            platform = breakdown.platform
            metric = breakdown.metric
            month = breakdown.month
            with tracer.span(
                "engine.generate_slice",
                country=country,
                platform=platform.value,
                metric=metric.value,
                month=str(month),
            ):
                month_key = (platform, month.index())
                pm = prefix_month.get(month_key)
                if pm is None:
                    p = prefix.get(platform)
                    if p is None:
                        p = base.copy()
                        if platform.is_mobile:
                            p += log_mobile_c
                        p += gauss(
                            f"platform:{platform.value}", cfg.platform_sigma
                        )
                        prefix[platform] = p
                    # Slow popularity drift — applied before the metric
                    # effect so churn sees the loads-side ranking score.
                    pm = p.copy()
                    pm += self._month_walk(country, month)
                    prefix_month[month_key] = pm
                np.copyto(row, pm)

                # Metric effect.  Initiated page loads track completed
                # page loads almost exactly (Section 3.1), so they share
                # the completed-loads score plus a whisker of noise.
                if metric is Metric.TIME_ON_PAGE:
                    row += log_time_c
                    churn = churn_comp.get(month_key)
                    if churn is None:
                        draws = churn_draws.get(platform)
                        if draws is None:
                            rng = self._stream(
                                country, f"metric:churn:{platform.value}"
                            )
                            draws = (
                                rng.random(n_all),
                                rng.uniform(
                                    cfg.metric_churn_lo,
                                    cfg.metric_churn_hi,
                                    size=n_all,
                                ),
                            )
                            churn_draws[platform] = draws
                        churn_prob = cfg.metric_churn_prob
                        if platform.is_mobile:
                            churn_prob *= cfg.mobile_metric_factor
                        # The churn input is the loads-side score so far
                        # (prefix + walk + log_time), so churn direction
                        # follows membership in the list a site is
                        # entering or leaving.
                        churn = self._churn_from_draws(
                            country, row, draws[0], draws[1], churn_prob
                        )
                        churn_comp[month_key] = churn
                    row += churn
                    row += gauss(
                        f"metric:time:{platform.value}", cfg.metric_sigma
                    )
                elif metric is Metric.INITIATED_PAGE_LOADS:
                    row += gauss("metric:initiated", 0.05)

                # December transient: seasonal category multipliers plus
                # extra holiday churn that reverts in January.
                if month.is_december:
                    row += log_december_c
                    mix_key = (month.year, metric.value)
                    mix = mixture_cache.get(mix_key)
                    if mix is None:
                        mix = self._mixture(
                            country, f"december:{month.year}:{metric.value}",
                            cfg.december_extra_sigma, cfg.december_shift_prob,
                            cfg.december_shift_sigma,
                        )
                        mixture_cache[mix_key] = mix
                    row += mix

                # Time-on-page sampling error (privacy pipeline):
                # transient per month, grows as the sampling rate shrinks.
                if metric is Metric.TIME_ON_PAGE:
                    row += gauss(f"sampling:{month}", sampling_sigma)

                scores = row[keep]
                n = min(cfg.list_size, len(scores))
                order = self._top_order(scores, n)
                if cfg.privacy.client_threshold > 0:
                    cutoff = self._threshold_cutoff(country, platform, metric, n)
                    if cutoff < n:
                        order = order[:cutoff]
                results[breakdown] = kept_uids[order]
        return results

    def generate(
        self,
        *,
        countries: tuple[str, ...] | None = None,
        platforms: tuple[Platform, ...] = Platform.studied(),
        metrics: tuple[Metric, ...] = Metric.studied(),
        months: tuple[Month, ...] = (REFERENCE_MONTH,),
    ) -> BrowsingDataset:
        """Generate a dataset covering the requested breakdown grid.

        Delegates to :class:`repro.engine.GenerationEngine`, scoring with
        this generator.
        """
        from ..engine import GenerationEngine  # local: engine builds on synth

        engine = GenerationEngine(self.config, generator=self)
        return engine.generate(
            countries=countries, platforms=platforms,
            metrics=metrics, months=months,
        )

    # -- lookups -----------------------------------------------------------------------

    def distribution(self, platform: Platform, metric: Metric):
        """The global traffic curve for a studied (platform, metric)."""
        return self._distributions[(platform, metric)]

    def site_categories(self) -> dict[str, str]:
        """canonical site identity → ground-truth category."""
        return self.universe.category_by_canonical()
