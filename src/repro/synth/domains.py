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


#: Syllable ``5 * consonant + vowel``: the label walk's per-pair lookup.
_SYLLABLES = np.array([c + v for c in _CONSONANTS for v in _VOWELS], dtype=object)

#: Words the bulk label walk reads ahead at a time (a label takes 5-9).
_WINDOW = 8192


class _Words32:
    """Scalar ``rng.integers(low, high)`` draws, replayed from bulk output.

    A scalar ``Generator.integers`` call over a range below 2**32 maps
    one 32-bit word of the bit generator through Lemire's
    multiply-and-reject method; PCG64 hands out the low then the high
    half of each 64-bit output, keeping the unused half in its state.
    Replaying that from ``random_raw`` chunks yields exactly the values
    per-call draws would, without their per-call overhead, and
    :meth:`settle` leaves the generator where those calls would have.
    Bulk walks read words ahead (:meth:`ahead`) and move :attr:`pos`
    past the ones they used, so scalar draws carry on where they stop.
    """

    def __init__(self, bitgen: np.random.PCG64) -> None:
        self._bitgen = bitgen
        self._start = bitgen.state
        self._words: list[int] = []
        if self._start["has_uint32"]:
            self._words.append(self._start["uinteger"])
        self._head = len(self._words)  # words not from this replay's raw
        self.pos = 0  # index of the next word to draw

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
        if self.pos == len(self._words):
            self._fill(self.pos + 1)
        self.pos += 1
        return self._words[self.pos - 1]

    def _fill(self, end: int) -> None:
        """Buffer the words before index ``end`` (256 raw outputs at least)."""
        missing = end - len(self._words)
        if missing > 0:
            raw = self._bitgen.random_raw(max(256, (missing + 1) // 2))
            self._words += np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=1).ravel().tolist()

    def ahead(self, count: int) -> np.ndarray:
        """The next ``count`` words as a uint64 array, not yet drawn."""
        self._fill(self.pos + count)
        return np.array(self._words[self.pos:self.pos + count], dtype=np.uint64)

    def settle(self) -> None:
        """Rewind the over-read raw outputs; keep a pending half-word."""
        used = self.pos - self._head  # words from this replay's raw output
        self._bitgen.state = self._start
        if not self.pos:
            return
        if used > 0:
            self._bitgen.random_raw((used + 1) // 2)
        state = self._bitgen.state
        pending = used % 2 == 1
        state["has_uint32"] = int(pending)
        state["uinteger"] = self._words[self.pos] if pending else 0
        self._bitgen.state = state


def _lemire(words: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """Each word's Lemire draw over ``[0, n)``: (value, accepted).

    ``(w * n) >> 32`` is the value; the word is rejected (the scalar
    draw takes another) when the low half falls below ``2**32 mod n``.
    ``n`` is one bound or a bound per word.
    """
    n = np.asarray(n, dtype=np.uint64)
    m = words * n
    return m >> np.uint64(32), (m & np.uint64(0xFFFFFFFF)) >= np.uint64(1 << 32) % n


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


def _claim(draw, label: str, taken: set[str]) -> str:
    """``label``, disambiguated by a number while ``taken`` holds it."""
    if label in taken:
        label = f"{label}{draw(10, 9999)}"
        while label in taken:
            label = f"{_word(draw, 3)}{draw(10, 9999)}"
    taken.add(label)
    return label


def unique_labels(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """``count`` pseudoword labels, unique among themselves and ``taken``.

    Each label draws its syllable count over [2, 5), then a consonant
    and a vowel per syllable.  Collisions get a numeric disambiguator,
    so generation never stalls.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    with _integers(rng) as draw:
        if isinstance(draw, _Words32):
            return _bulk_labels(draw, count, taken)
        return [_claim(draw, _word(draw, draw(2, 5)), taken) for _ in range(count)]


def _label_tables(window: np.ndarray) -> tuple[list[int], list[str], int]:
    """The label walk's lookups over a window of words.

    ``spans[p]`` is the number of words a label starting at ``p`` takes
    (its syllable-count word, then a consonant and a vowel word per
    syllable); ``pairs[p]`` is the syllable a consonant word at ``p``
    and a vowel word at ``p + 1`` spell; ``stop`` is the first word any
    of the bounds 3, 18 and 5 rejects, else the window's length.
    """
    counts, ok = _lemire(window, 3)
    consonants, consonant_ok = _lemire(window, len(_CONSONANTS))
    vowels, vowel_ok = _lemire(window, len(_VOWELS))
    rejected = np.flatnonzero(~(ok & consonant_ok & vowel_ok))
    stop = int(rejected[0]) if len(rejected) else len(window)
    pairs = _SYLLABLES[consonants[:-1] * np.uint64(len(_VOWELS)) + vowels[1:]]
    return (counts * np.uint64(2) + np.uint64(5)).tolist(), pairs.tolist(), stop


def _bulk_labels(words: _Words32, count: int, taken: set[str]) -> list[str]:
    """:func:`unique_labels` over a PCG64 word stream, a window at a time.

    Each label is a few lookups in :func:`_label_tables`.  A collision
    draws its disambiguator with scalar draws, from the word after the
    label, and the walk resumes where those stop; a rejected word or the
    window's end makes one label a scalar draw, then a new window opens.
    """
    labels: list[str] = []
    while len(labels) < count:
        base = words.pos
        spans, pairs, stop = _label_tables(
            words.ahead(min(_WINDOW, 9 * (count - len(labels)))))
        i = 0
        while i < stop and len(labels) < count:
            end = i + spans[i]
            if end > stop:
                break
            label = "".join(pairs[i + 1:end:2])
            if label in taken:
                words.pos = base + end
                label = _claim(words, label, taken)
                end = words.pos - base
            else:
                taken.add(label)
            labels.append(label)
            i = end
        words.pos = base + i
        if len(labels) < count:
            labels.append(_claim(words, _word(words, words(2, 5)), taken))
    return labels


def choice_rows(rng: np.random.Generator, n: int, sizes) -> np.ndarray:
    """``rng.choice(n, size=k, replace=False)`` for each ``k`` of ``sizes``.

    Returns the rows concatenated, leaving ``rng`` where the per-row
    calls would.  Over a PCG64 stream the rows are replayed from bulk
    words (:func:`_replay_choices`); otherwise, or if a word is
    rejected, they are drawn by per-row calls.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    with _integers(rng) as draw:
        rows = (_replay_choices(draw, n, sizes)
                if isinstance(draw, _Words32) and n <= 10_000 else None)
    if rows is None:
        rows = [rng.choice(n, size=k, replace=False) for k in sizes.tolist()]
        rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return rows


def _replay_choices(words: _Words32, n: int, sizes: np.ndarray) -> np.ndarray | None:
    """Per-row ``Generator.choice(n, k, replace=False)``, replayed in bulk.

    numpy (for ``n`` up to 10,000) samples by Floyd's algorithm, one
    draw over ``[0, j]`` for j = n-k .. n-1 that takes ``j`` itself when
    the draw is already picked, then shuffles the picks by Fisher-Yates,
    one draw over ``[0, i]`` for i = k-1 .. 1.  A draw over ``[0, 0]``
    reads no word.  Rows of one size are replayed together.  Returns
    None, drawing nothing, if Lemire rejects any of the words.
    """
    plans = {k: [j + 1 for j in range(n - k, n) if j] + list(range(k, 1, -1))
             for k in np.unique(sizes).tolist()}  # bounds in stream order
    used = np.zeros(len(sizes), dtype=np.int64)
    for k, plan in plans.items():
        used[sizes == k] = len(plan)
    first = np.cumsum(used) - used  # each row's first word
    bounds = np.empty(int(used.sum()), dtype=np.uint64)
    for k, plan in plans.items():
        bounds[first[sizes == k][:, None] + np.arange(len(plan))] = plan
    values, accepted = _lemire(words.ahead(len(bounds)), bounds)
    if not accepted.all():
        return None
    words.pos += len(bounds)
    values = values.astype(np.int64)
    out = np.empty(int(sizes.sum()), dtype=np.int64)
    row_start = np.cumsum(sizes) - sizes
    for k, plan in plans.items():
        rows = np.flatnonzero(sizes == k)
        drawn = values[first[rows][:, None] + np.arange(len(plan))]
        skip = int(n == k)  # Floyd's first draw is over [0, 0]: it picks 0
        picks = np.zeros((len(rows), k), dtype=np.int64)
        for t in range(skip, k):
            value = drawn[:, t - skip]
            seen = (picks[:, :t] == value[:, None]).any(axis=1)
            picks[:, t] = np.where(seen, n - k + t, value)
        every = np.arange(len(rows))
        for i, r in zip(range(k - 1, 0, -1), drawn[:, k - skip:].T):
            picks[every, i], picks[every, r] = picks[every, r], picks[every, i]
        out[row_start[rows][:, None] + np.arange(k)] = picks
    return out


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
