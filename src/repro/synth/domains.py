"""Domain-string synthesis for the generated website universe.

The telemetry is keyed by *domain*, so the generator must emit realistic
hostnames: multinational sites appear under a per-country ccTLD variant
(google.com at home, google.co.uk in the UK, ...), endemic sites under
their home country's suffix or .com, and global rank-and-file sites
under common gTLDs.  The eTLD merge step (:mod:`repro.etld`) then
collapses the ccTLD variants back together, exactly the clean-up the
paper performs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

#: The "home" suffix used for a multinational's storefront in each study
#: country.  The US storefront (and any unlisted country) uses .com.
COUNTRY_SUFFIX: dict[str, str] = {
    "DZ": "dz", "EG": "com.eg", "KE": "co.ke", "MA": "co.ma", "NG": "com.ng",
    "TN": "tn", "ZA": "co.za",
    "JP": "co.jp", "IN": "co.in", "KR": "co.kr", "TR": "com.tr",
    "VN": "com.vn", "TW": "com.tw", "ID": "co.id", "TH": "co.th",
    "PH": "com.ph", "HK": "com.hk",
    "GB": "co.uk", "FR": "fr", "RU": "ru", "DE": "de", "IT": "it",
    "ES": "es", "NL": "nl", "PL": "pl", "UA": "com.ua", "BE": "be",
    "CA": "ca", "CR": "co.cr", "DO": "com.do", "GT": "com.gt",
    "MX": "com.mx", "PA": "com.pa", "US": "com",
    "AU": "com.au", "NZ": "co.nz",
    "AR": "com.ar", "BO": "com.bo", "BR": "com.br", "CL": "cl",
    "CO": "com.co", "EC": "com.ec", "PE": "com.pe", "UY": "com.uy",
    "VE": "com.ve",
}

#: gTLD mix for procedural global sites (weights roughly web-realistic).
_GLOBAL_TLDS: tuple[str, ...] = ("com", "org", "net", "io", "tv", "co", "info")
_GLOBAL_TLD_WEIGHTS: tuple[float, ...] = (0.62, 0.10, 0.08, 0.08, 0.04, 0.04, 0.04)

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


class _Words32:
    """Scalar ``rng.integers(low, high)`` draws, replayed from bulk output.

    A scalar ``Generator.integers`` call over a range below 2**32 maps
    one 32-bit word of the bit generator through Lemire's
    multiply-and-reject method; PCG64 hands out the low then the high
    half of each 64-bit output, keeping the unused half in its state.
    Replaying that from ``random_raw`` chunks yields exactly the values
    per-call draws would, without their per-call overhead, and
    :meth:`settle` leaves the generator where those calls would have.
    """

    def __init__(self, bitgen: np.random.PCG64) -> None:
        self._bitgen = bitgen
        self._start = bitgen.state
        self._words: list[int] = []
        if self._start["has_uint32"]:
            self._words.append(self._start["uinteger"])
        self._head = len(self._words)  # words not from this replay's raw
        self._pos = 0

    def __call__(self, low: int, high: int) -> int:
        span = high - low - 1
        if span == 0:
            return low
        m = self._word() * (span + 1)
        if (m & 0xFFFFFFFF) < span + 1:
            threshold = (0xFFFFFFFF - span) % (span + 1)
            while (m & 0xFFFFFFFF) < threshold:
                m = self._word() * (span + 1)
        return low + (m >> 32)

    def _word(self) -> int:
        if self._pos == len(self._words):
            for raw in self._bitgen.random_raw(256).tolist():
                self._words += (raw & 0xFFFFFFFF, raw >> 32)
        self._pos += 1
        return self._words[self._pos - 1]

    def settle(self) -> None:
        """Rewind the over-read raw outputs; keep a pending half-word."""
        used = self._pos - self._head  # words from this replay's raw output
        self._bitgen.state = self._start
        if not self._pos:
            return
        if used > 0:
            self._bitgen.random_raw((used + 1) // 2)
        state = self._bitgen.state
        pending = used % 2 == 1
        state["has_uint32"] = int(pending)
        state["uinteger"] = self._words[self._pos] if pending else 0
        self._bitgen.state = state


@contextmanager
def _integers(rng: np.random.Generator):
    """A ``draw(low, high)`` equal to ``int(rng.integers(low, high))``."""
    if type(rng.bit_generator) is not np.random.PCG64:
        yield lambda low, high: int(rng.integers(low, high))
        return
    words = _Words32(rng.bit_generator)
    try:
        yield words
    finally:
        words.settle()


def _word(draw, syllables: int) -> str:
    return "".join(_CONSONANTS[draw(0, len(_CONSONANTS))]
                   + _VOWELS[draw(0, len(_VOWELS))]
                   for _ in range(syllables))


def pseudoword(rng: np.random.Generator, syllables: int = 3) -> str:
    """A pronounceable fake site label, e.g. ``katupo``."""
    if syllables < 1:
        raise ValueError("need at least one syllable")
    with _integers(rng) as draw:
        return _word(draw, syllables)


def unique_labels(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """``count`` pseudoword labels, unique among themselves and ``taken``.

    Collisions get a numeric disambiguator, so generation never stalls.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    labels: list[str] = []
    with _integers(rng) as draw:
        for _ in range(count):
            label = _word(draw, draw(2, 5))
            if label in taken:
                label = f"{label}{draw(10, 9999)}"
                while label in taken:
                    label = f"{_word(draw, 3)}{draw(10, 9999)}"
            taken.add(label)
            labels.append(label)
    return labels


def _gtlds(uniforms: np.ndarray) -> list[str]:
    """The weighted gTLD each uniform draw picks.

    The same inverse-CDF lookup ``rng.choice(_GLOBAL_TLDS, p=...)``
    performs on its one ``rng.random()`` draw, so a batch of draws picks
    exactly what as many scalar ``choice`` calls would.
    """
    cdf = np.asarray(_GLOBAL_TLD_WEIGHTS, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    picks = cdf.searchsorted(uniforms, side="right")
    return [_GLOBAL_TLDS[i] for i in picks.tolist()]


def _suffix(country: str) -> str:
    suffix = COUNTRY_SUFFIX.get(country)
    if suffix is None:
        raise KeyError(f"no suffix configured for country {country!r}")
    return suffix


def global_domains(labels: Sequence[str], rng: np.random.Generator) -> list[str]:
    """Domains for procedural global sites: label + weighted gTLD."""
    tlds = _gtlds(rng.random(len(labels)))
    return [f"{label}.{tld}" for label, tld in zip(labels, tlds)]


def endemic_domains(
    labels: Sequence[str], country: str, rng: np.random.Generator
) -> list[str]:
    """Domains for endemic sites: usually the home ccTLD, sometimes .com.

    Real national sites split between their ccTLD and .com; we use a
    70/30 split so the eTLD logic sees both shapes.
    """
    suffix = _suffix(country)
    dotcom = (rng.random(len(labels)) < 0.30).tolist()
    return [f"{label}.com" if com else f"{label}.{suffix}"
            for label, com in zip(labels, dotcom)]


def neighbor_domains(
    labels: Sequence[str], country: str, rng: np.random.Generator
) -> list[str]:
    """Domains for few-country regional sites.

    Sites serving a small set of neighbouring countries mostly run on a
    gTLD (60 %), falling back to the primary country's ccTLD.  Each site
    draws one uniform for that choice and, on a gTLD, a second one for
    the TLD — so the draw count depends on the draws.  The batch takes
    an upper bound of draws, walks them, then rewinds the generator and
    consumes exactly the walked count: the stream ends where per-site
    calls would have left it.
    """
    suffix = _suffix(country)
    state = rng.bit_generator.state
    draws = rng.random(2 * len(labels))
    gtld = (draws < 0.60).tolist()
    starts: list[int] = []
    pos = 0
    for _ in labels:
        starts.append(pos)
        pos += 2 if gtld[pos] else 1
    rng.bit_generator.state = state
    rng.random(pos)
    at = np.asarray(starts, dtype=np.int64)
    tlds = iter(_gtlds(draws[at[draws[at] < 0.60] + 1]))
    return [f"{label}.{next(tlds)}" if gtld[start] else f"{label}.{suffix}"
            for label, start in zip(labels, starts)]


def global_domain(label: str, rng: np.random.Generator) -> str:
    """Domain for one procedural global site (see :func:`global_domains`)."""
    return global_domains((label,), rng)[0]


def endemic_domain(label: str, country: str, rng: np.random.Generator) -> str:
    """Domain for one endemic site (see :func:`endemic_domains`)."""
    return endemic_domains((label,), country, rng)[0]


def multinational_domain(label: str, country: str) -> str:
    """The per-country storefront domain for a multi-ccTLD site."""
    suffix = COUNTRY_SUFFIX.get(country, "com")
    return f"{label}.{suffix}"


def neighbor_domain(label: str, country: str, rng: np.random.Generator) -> str:
    """Domain for one few-country site (see :func:`neighbor_domains`)."""
    return neighbor_domains((label,), country, rng)[0]
