"""The per-call label walk: the bulk ``unique_labels``' oracle.

:func:`repro.synth.domains.unique_labels` builds labels from tables of
Lemire draws computed over whole windows of PCG64 words.  This module
is the walk those tables replay, one ``int(rng.integers(lo, hi))`` call
per draw: a syllable count over [2, 5), a consonant and a vowel per
syllable, and on a collision a numeric disambiguator (with fresh
three-syllable words while the result is still taken).  The bulk walk
must return the same labels, claim the same ``taken`` entries and leave
the generator in the same state (``tests/synth/test_domains.py``).
"""

from __future__ import annotations

import numpy as np

from repro.synth.domains import _CONSONANTS, _VOWELS


def _word(rng: np.random.Generator, syllables: int) -> str:
    return "".join(
        _CONSONANTS[int(rng.integers(0, len(_CONSONANTS)))]
        + _VOWELS[int(rng.integers(0, len(_VOWELS)))]
        for _ in range(syllables)
    )


def unique_labels(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """``count`` labels unique among themselves and ``taken``, per call."""
    labels: list[str] = []
    for _ in range(count):
        label = _word(rng, int(rng.integers(2, 5)))
        if label in taken:
            label = f"{label}{int(rng.integers(10, 9999))}"
            while label in taken:
                label = f"{_word(rng, 3)}{int(rng.integers(10, 9999))}"
        taken.add(label)
        labels.append(label)
    return labels
