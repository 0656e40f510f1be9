"""Request mixes, and their in-process reference renders.

A request is a :data:`Spec` — ``(endpoint, argument, params)`` — that
renders to one URL path for the HTTP client and to one
:class:`repro.service.QueryService` call for the in-process reference,
with the same string parameters the HTTP layer would pass, so the
reference body of a request is exactly what a correct server sends.

Both mixes take their endpoint shares from the serving mix the program
documents for its own load test (``DEFAULT_MIX`` in
``src/repro/fleet/loadtest.py``), less its 5% of ``/v1/healthz``: a
health body carries live process state (pending slices), which no
in-process render reproduces, so it cannot be checked byte for byte.
``analysis`` there is the ``/v1/analyses`` catalogue, not an artifact.
Both are drawn from ``random.Random(seed)``:

* :func:`readback_mix` — the analyst reading a refreshed dataset: keys
  within each endpoint are Zipf-weighted with the exponent the dataset's
  own traffic curve implies (fitted as the load test fits it), and every
  distinct key fits the server's 256-entry payload cache;
* :func:`scan_mix` — uniform within each endpoint over every country x
  platform x metric x month x ``top`` size, over thousands of sites, and
  a share of ``as_of=1`` requests: far more distinct keys than the
  cache holds.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from typing import Iterator
from urllib.parse import quote, urlencode

Spec = tuple[str, str | None, tuple[tuple[str, str], ...]]

#: ``DEFAULT_MIX`` of ``src/repro/fleet/loadtest.py`` without healthz;
#: the shares are not renormalised, only relative shares matter.
SHARES = {"rankings": 0.55, "site": 0.25, "distribution": 0.08,
          "analysis": 0.07}
#: The load test's exponent when the curve cannot be fit.
DEFAULT_ZIPF_S = 1.0
#: The read-back's sites: the head of the newest month's lists.
READBACK_SITES = 40
SCAN_TOPS = ("10", "25", "50", "100")
#: Site requests per (version, platform, metric, month) slice in the
#: scan warm-up: enough that each of two fleet workers owns one of a
#: slice's warm-up keys (but for about 1 slice in 2,000).
SCAN_WARM_SITES = 12
#: Distinct timed-phase sites per slice.
SCAN_SITES = 60


def path_of(spec: Spec) -> str:
    endpoint, arg, params = spec
    query = ("?" + urlencode(params)) if params else ""
    if endpoint == "rankings":
        return "/v1/rankings" + query
    if endpoint == "site":
        return "/v1/sites/" + quote(arg, safe="") + query
    if endpoint == "distribution":
        return "/v1/distributions" + query
    if arg is None:
        return "/v1/analyses" + query
    return "/v1/analyses/" + quote(arg, safe="") + query


def render(service, spec: Spec) -> bytes:
    """The in-process body for ``spec`` (what the server must send)."""
    endpoint, arg, params = spec
    kwargs = dict(params)
    if endpoint == "rankings":
        country = kwargs.pop("country")
        return service.rankings(country, **kwargs)
    if endpoint == "site":
        return service.site(arg, **kwargs)
    if endpoint == "distribution":
        return service.distribution(**kwargs)
    if arg is None:
        return service.analyses()
    return service.analysis(arg, **kwargs)


class Mix:
    """Distinct request specs plus the order the timed phase draws."""

    def __init__(self, specs: list[Spec], warmup: list[int],
                 weights: list[float], seed: int,
                 zipf_s: float | None = None) -> None:
        self.specs = specs
        self.warmup = warmup
        self.zipf_s = zipf_s  # None: uniform within each endpoint
        self._weights = weights
        self._seed = seed

    def order(self) -> Iterator[int]:
        """An endless, seeded stream of spec indices."""
        rng = random.Random(self._seed)
        cumulative = list(itertools.accumulate(self._weights))
        total = cumulative[-1]
        while True:
            yield bisect.bisect_right(cumulative, rng.random() * total)


def fit_zipf(anchors: list[list[float]]) -> float:
    """The Zipf exponent implied by cumulative (rank, share) anchors.

    The load test's construction, restated here so the benchmark does
    not call program code: each span between consecutive anchors gives
    a mean density at its geometric mid rank, and the exponent is the
    negated least-squares slope of log density on log rank, clamped to
    [0.3, 2.5].
    """
    points = [(math.log(math.sqrt(r1 * r2)), math.log((s2 - s1) / (r2 - r1)))
              for (r1, s1), (r2, s2) in zip(anchors, anchors[1:])
              if r2 > r1 and s2 > s1]
    if len(points) < 2:
        return DEFAULT_ZIPF_S
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0:
        return DEFAULT_ZIPF_S
    cov = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return min(2.5, max(0.3, -cov / var))


def _head_sites(dataset, platform, metric, month, depth: int) -> list[str]:
    """Sites in the top ``depth`` of any country's list of one slice."""
    sites: set[str] = set()
    for country in dataset.countries:
        ranked = dataset.get_or_none(country, platform, metric, month)
        if ranked is not None:
            sites.update(ranked.top(min(depth, len(ranked))).sites)
    return sorted(sites)


def _weighted(families: dict[str, list[Spec]], rank_weight
              ) -> tuple[list[Spec], list[float]]:
    """Specs and weights: each endpoint gets its :data:`SHARES` share,
    spread over its keys by ``rank_weight(rank)`` (rank 1 first)."""
    specs: list[Spec] = []
    weights: list[float] = []
    for endpoint, members in families.items():
        raw = [rank_weight(rank) for rank in range(1, len(members) + 1)]
        specs.extend(members)
        weights.extend(SHARES[endpoint] * w / sum(raw) for w in raw)
    return specs, weights


def readback_mix(service, seed: int) -> Mix:
    """The newest month's rankings and heads, Zipf-weighted, cache-resident.

    Which key holds which rank is a seeded shuffle within each endpoint.
    """
    rng = random.Random(seed)
    ctx = service.ctx
    dataset, platform, metric = (ctx.dataset, ctx.primary_platform,
                                 ctx.primary_metric)
    month = dataset.months[-1]
    zipf_s = fit_zipf(json.loads(service.distribution())["anchors"])
    sites = _head_sites(dataset, platform, metric, month, 10)
    families = {
        "rankings": [("rankings", None, (("country", c), ("month", str(month)),
                                         ("top", "50")))
                     for c in dataset.countries],
        "site": [("site", site, (("month", str(month)),))
                 for site in rng.sample(sites, min(READBACK_SITES,
                                                   len(sites)))],
        "distribution": [("distribution", None, (("platform", p.value),
                                                 ("metric", m.value)))
                         for p in dataset.platforms
                         for m in dataset.metrics],
        "analysis": [("analysis", None, ())],
    }
    for members in families.values():
        rng.shuffle(members)
    specs, weights = _weighted(families, lambda rank: rank ** -zipf_s)
    return Mix(specs, list(range(len(specs))), weights,
               rng.randrange(1 << 30), zipf_s)


def scan_mix(service, pinned_month: str, seed: int) -> Mix:
    """Uniform within each endpoint over far more keys than the cache holds.

    The latest version is scanned in full; ``as_of=1`` requests read
    ``pinned_month`` of version 1 (an ingest never rewrites a month, so
    they reuse the latest version's site pools).  The warm-up visits
    every slice's sites often enough that each fleet worker has
    materialised every list the timed phase reads, and its keys are
    never drawn again.
    """
    rng = random.Random(seed)
    dataset = service.ctx.dataset
    versions = (((), dataset.months),
                ((("as_of", "1"),),
                 tuple(m for m in dataset.months if str(m) == pinned_month)))
    families: dict[str, list[Spec]] = {
        "rankings": [], "site": [], "distribution": [],
        "analysis": [("analysis", None, ())]}
    warm: list[Spec] = []
    pools: dict[tuple, list[str]] = {}
    for pin, months in versions:
        for p in dataset.platforms:
            for m in dataset.metrics:
                families["distribution"].append(
                    ("distribution", None,
                     (("platform", p.value), ("metric", m.value)) + pin))
                for month in months:
                    slice_params = (("platform", p.value),
                                    ("metric", m.value),
                                    ("month", str(month))) + pin
                    families["rankings"].extend(
                        ("rankings", None, (("country", country),)
                         + slice_params + (("top", top),))
                        for country in dataset.countries
                        for top in SCAN_TOPS)
                    key = (p, m, month)
                    if key not in pools:
                        pools[key] = _head_sites(dataset, p, m, month, 50)
                    picked = rng.sample(pools[key], min(
                        len(pools[key]), SCAN_WARM_SITES + SCAN_SITES))
                    warm.extend(("site", site, slice_params)
                                for site in picked[:SCAN_WARM_SITES])
                    families["site"].extend(
                        ("site", site, slice_params)
                        for site in picked[SCAN_WARM_SITES:])
    specs, weights = _weighted(families, lambda rank: 1.0)
    # The warm-up: the site keys above, then every distribution and the
    # catalogue (few keys, cached after their first request).
    warmup = list(range(len(specs), len(specs) + len(warm))) + [
        i for i, spec in enumerate(specs)
        if spec[0] in ("distribution", "analysis")]
    return Mix(specs + warm, warmup, weights + [0.0] * len(warm),
               rng.randrange(1 << 30))
