"""Per-site ground truth stored with a dataset.

The paper treats each site's category label (§3.3), its descriptive
tags and whether it ships an Android app (§4.1.2) as attributes of the
measured dataset.  A :class:`GroundTruth` is that table: one row per
site, written by ``generate`` and ``ingest`` (which hold the generator)
and read back by the ``labels``/``tags``/``has_app`` pipeline tasks, so
reading a dataset never rebuilds the synthetic universe.

A site with no category — e.g. a per-country ccTLD variant such as
``google.co.kr`` under ``emit="domains"``, whose canonical identity is
``google`` — has ``category`` ``None``, no tags and no app.

Rows are ordered; the codecs store them in their own site order (the
columnar store by vocabulary id, the text codec as a JSON-lines
sidecar) and :meth:`GroundTruth.reindex` maps between the two.  Ingest
only ever appends rows, so the first ``entries`` rows a manifest
records stay a valid table for that dataset version.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DatasetError

#: One table row: (site, category or None, has Android app, tags).
Row = tuple[str, "str | None", bool, tuple[str, ...]]


@dataclass(frozen=True)
class GroundTruth:
    """Category, tags and Android-app flag per site, row-aligned."""

    sites: tuple[str, ...]
    category: tuple[str | None, ...]
    has_app: tuple[bool, ...]
    tags: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.sites)
        if not len(self.category) == len(self.has_app) == len(self.tags) == n:
            raise DatasetError("ground-truth columns differ in length")

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "GroundTruth":
        columns = tuple(zip(*rows))
        if not columns:
            return cls((), (), (), ())
        sites, category, has_app, tags = columns
        return cls(sites, category, has_app, tags)

    def __len__(self) -> int:
        return len(self.sites)

    def rows(self) -> Iterator[Row]:
        return zip(self.sites, self.category, self.has_app, self.tags)

    # -- what the pipeline reads ----------------------------------------------------

    def labels(self) -> dict[str, str]:
        """site → category, for every labelled site."""
        return {site: category
                for site, category in zip(self.sites, self.category)
                if category is not None}

    def tags_by_site(self) -> dict[str, tuple[str, ...]]:
        """site → tags, for every tagged site."""
        return {site: tags for site, tags in zip(self.sites, self.tags) if tags}

    def app_sites(self) -> list[str]:
        """Every site with an Android app, in row order."""
        return [site for site, app in zip(self.sites, self.has_app) if app]

    # -- reshaping ------------------------------------------------------------------

    def head(self, entries: int) -> "GroundTruth":
        """The first ``entries`` rows (a recorded dataset version's table)."""
        if entries == len(self):
            return self
        return GroundTruth(self.sites[:entries], self.category[:entries],
                           self.has_app[:entries], self.tags[:entries])

    def extend(self, other: "GroundTruth") -> "GroundTruth":
        """This table followed by ``other``'s rows."""
        return GroundTruth(self.sites + other.sites,
                           self.category + other.category,
                           self.has_app + other.has_app,
                           self.tags + other.tags)

    def reindex(self, sites: Sequence[str]) -> "GroundTruth":
        """The rows for ``sites``, in that order; every site needs a row."""
        sites = tuple(sites)
        if sites == self.sites:
            return self
        position = {site: i for i, site in enumerate(self.sites)}
        try:
            at = [position[site] for site in sites]
        except KeyError as exc:
            raise DatasetError(
                f"ground truth has no row for site {exc.args[0]!r}"
            ) from None
        return GroundTruth(
            sites,
            tuple(self.category[i] for i in at),
            tuple(self.has_app[i] for i in at),
            tuple(self.tags[i] for i in at),
        )


def check_entries(
    truth: GroundTruth,
    entries: int,
    sha256: str,
    encode,
    path: object,
) -> GroundTruth:
    """The first ``entries`` rows, checked against the recorded digest.

    ``encode`` is the codec's canonical encoding; the recorded SHA-256
    is of the file as written for that version, which the encoding of
    the row prefix reproduces even after ingest has appended rows.
    """
    if len(truth) < entries:
        raise DatasetError(
            f"{path}: truncated ground truth ({len(truth)} rows, "
            f"the manifest records {entries})"
        )
    truth = truth.head(entries)
    if hashlib.sha256(encode(truth)).hexdigest() != sha256:
        raise DatasetError(
            f"{path}: ground-truth digest does not match the manifest"
        )
    return truth
