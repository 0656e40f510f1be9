"""The per-slice telemetry scorer: the batched grid scorer's oracle.

:meth:`TelemetryGenerator.rank_lists_batch` scores a whole country
grid in one matrix pass, sharing every score component across the
slices that use it.  This module scores one breakdown at a time,
accumulating the components in the order the score model is written
down (base → platform → walk → metric → season → sampling), and
applies the privacy threshold through :func:`apply_threshold` rather
than the batch path's memoised cutoff.  The batched output must match
it byte for byte (``tests/engine/test_batch_parity.py``), and
``benchmarks/bench_engine.py`` times it as the speedup baseline.

It reads the generator's deterministic noise streams and per-country
state, so it needs no copy of the score model's parameters.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import GenerationError
from repro.core.rankedlist import RankedList
from repro.core.types import Breakdown, Metric, Month, Platform, REFERENCE_MONTH
from repro.engine import SlicePlan
from repro.synth import TelemetryGenerator
from repro.synth.generator import INSTALL_BASE_UNIT
from repro.synth.privacy import apply_threshold, time_sampling_noise_sigma
from repro.world.countries import get_country


def _churn(
    gen: TelemetryGenerator, country: str, component: str,
    base: np.ndarray, prob: float, lo: float, hi: float,
) -> np.ndarray:
    """Boundary churn drawn from its own stream for one slice."""
    rng = gen._stream(country, component)
    n = len(gen.universe.candidates(country))
    rand = rng.random(n)
    magnitude = rng.uniform(lo, hi, size=n)
    return gen._churn_from_draws(country, base, rand, magnitude, prob)


def _scores(
    gen: TelemetryGenerator, country: str, platform: Platform,
    metric: Metric, month: Month,
) -> tuple[np.ndarray, np.ndarray]:
    """(candidate uids, log scores) for one breakdown, pre-truncation."""
    cfg = gen.config
    uni = gen.universe
    state = gen._country_state(country)
    candidates = state["candidates"]
    score = state["base"].copy()

    if platform.is_mobile:
        score += uni.log_mobile[candidates]
    score += gen._gauss(country, f"platform:{platform.value}", cfg.platform_sigma)

    # The walk precedes the metric effect so churn sees the loads-side
    # ranking score.
    score += gen._month_walk(country, month)

    if metric is Metric.TIME_ON_PAGE:
        score += uni.log_time[candidates]
        churn_prob = cfg.metric_churn_prob
        if platform.is_mobile:
            churn_prob *= cfg.mobile_metric_factor
        score += _churn(
            gen, country, f"metric:churn:{platform.value}", score,
            churn_prob, cfg.metric_churn_lo, cfg.metric_churn_hi,
        )
        score += gen._gauss(
            country, f"metric:time:{platform.value}", cfg.metric_sigma
        )
    elif metric is Metric.INITIATED_PAGE_LOADS:
        score += gen._gauss(country, "metric:initiated", 0.05)

    if month.is_december:
        score += uni.log_december[candidates]
        score += gen._mixture(
            country, f"december:{month.year}:{metric.value}",
            cfg.december_extra_sigma, cfg.december_shift_prob,
            cfg.december_shift_sigma,
        )

    if metric is Metric.TIME_ON_PAGE:
        sampling_sigma = time_sampling_noise_sigma(cfg.privacy.time_sampling_rate)
        score += gen._gauss(country, f"sampling:{month}", sampling_sigma)

    keep = state["keep"]
    return candidates[keep], score[keep]


def rank_list_reference(
    gen: TelemetryGenerator, country: str, platform: Platform,
    metric: Metric, month: Month = REFERENCE_MONTH,
) -> RankedList:
    """The top-N ranked list for one breakdown, scored on its own."""
    get_country(country)
    uids, scores = _scores(gen, country, platform, metric, month)
    n = min(gen.config.list_size, len(uids))
    if n == 0:
        raise GenerationError(f"no candidates survive for {country}")
    top_uids = uids[gen._top_order(scores, n)]
    ranked = RankedList(gen.site_names(gen.emitted_sites(country, top_uids)).tolist())
    if gen.config.privacy.client_threshold > 0:
        install_base = get_country(country).web_scale * INSTALL_BASE_UNIT
        dist = gen.distribution(
            platform if platform in Platform.studied() else Platform.WINDOWS,
            metric if metric in Metric.studied() else Metric.PAGE_LOADS,
        )
        ranked = apply_threshold(ranked, install_base, dist, gen.config.privacy)
    return ranked


def execute_reference(
    gen: TelemetryGenerator, plan: SlicePlan
) -> dict[Breakdown, RankedList]:
    """Every slice of ``plan``, each scored by :func:`rank_list_reference`."""
    return {
        b: rank_list_reference(gen, b.country, b.platform, b.metric, b.month)
        for b in plan.breakdowns()
    }
