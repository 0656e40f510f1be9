"""Incremental monthly ingestion: append months to a saved dataset.

``repro ingest --month`` turns the batch reproduction into a rolling
one.  The generator's month walk is *cumulative and append-stable* —
every month's innovation is keyed ``(seed, country, "walk:<index>")``
independent of which months a run requests — so generating month N
against an existing dataset yields lists byte-identical to a fresh
N-month generation.  Ingestion therefore never rewrites history: it
hands the new lists and the live version to the same writer a save
uses (:func:`repro.export.io.write_dataset`), which appends them.

* **text**: new ``lists/<slug>.txt`` files are written, the manifest
  gains the new breakdown rows (canonical sort order preserved) and the
  ``sites.tsv`` sidecar gains a ``site<TAB>uid`` line per new site;
* **columnar**: the new id windows are *appended* to ``lists.bin``, new
  site names to ``vocab.bin`` and their universe uids to ``uids.bin``.
  Old windows keep their offsets and old ids keep their meaning,
  because every file only ever grows at the tail.

A generated month's sites are matched to the stored ones by universe
uid, through a uid-indexed array: no site name is looked up (a ccTLD
variant under ``emit="domains"``, uid -1, is matched by name).

The generator scores the universe the dataset carries: a save of a
generated dataset writes it as ``universe.bin``, and ingest restores it
(:func:`repro.synth.universe.load_universe`) instead of building it.
A file that is missing, holds another config's universe or fails its
SHA-256 is never used: the universe is built as before, and the ingest
writes the file for the next one.  A process that already holds the
universe (it generated, or ingested before) checks only the file's
magic, version and config, not its digest.

Ingest holds the universe, so it is also where the uid column of a
dataset saved before datasets stored one gets written: each stored
site's uid is looked up once by canonical name, so one ingest
backfills the column.

Every ingest bumps the manifest's monotonic ``dataset_version`` and
archives the superseded manifest under ``versions/manifest.v<N>.*``.
An archived manifest stays loadable forever (``load_dataset(root,
as_of=N)``): its windows and list files are a valid prefix view of the
grown store.  Readers holding the old manifest — or an old mmap — keep
seeing exactly the old bytes: the manifest lands via ``os.replace``,
and open maps pin the old inode.

Crash safety is the save path's: ``universe.bin`` (when written) and
the archive first, data files next, manifest last.
A crash mid-ingest leaves the old manifest live over grown-but-unread
data files.  Readers take every count from the manifest, never from a
file header, so the orphaned tails stay invisible, and the next ingest
appends after the manifest's counts, overwriting them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from ..core.errors import DatasetError
from ..core.types import Month
from ..export.io import (
    MANIFESTS,
    UNIVERSE_FILE,
    Stored,
    detect_format,
    load_dataset,
    write_dataset,
)


@dataclass(frozen=True)
class IngestReport:
    """What one ``ingest_months`` call did (or skipped)."""

    root: str
    format: str
    version_before: int
    version: int
    #: Months this call generated and appended (ISO strings, sorted).
    months_added: tuple[str, ...]
    #: Every month the dataset holds *after* the call, added or not.
    months_present: tuple[str, ...]
    slices_added: int
    seconds: float

    @property
    def changed(self) -> bool:
        return bool(self.months_added)

    def to_dict(self) -> dict[str, object]:
        return {
            "root": self.root,
            "format": self.format,
            "version_before": self.version_before,
            "version": self.version,
            "months_added": list(self.months_added),
            "months_present": list(self.months_present),
            "slices_added": self.slices_added,
            "seconds": self.seconds,
        }


def _coerce_months(months: Iterable[Month | str]) -> tuple[Month, ...]:
    out = []
    for month in months:
        out.append(month if isinstance(month, Month) else Month.parse(month))
    return tuple(sorted(set(out)))


def ingest_months(
    root: str | Path,
    months: Iterable[Month | str],
    *,
    config=None,
    small: bool = False,
    seed: int | None = None,
) -> IngestReport:
    """Append the requested months to the dataset at ``root``.

    Months already present are skipped; when *every* requested month is
    present the call is a strict no-op — no file is touched, the
    version does not move, and the report says so.  Otherwise the new
    slices are generated with the same :class:`GeneratorConfig` that
    produced the dataset (inferred from the recorded provenance, or the
    ``small``/``seed`` flags for unprovenanced exports), appended in
    the dataset's format, and the dataset version is bumped by one with
    the superseded manifest archived under ``versions/``.
    """
    start = time.perf_counter()
    root = Path(root)
    dataset = load_dataset(root)
    fmt = detect_format(root)
    version_before = dataset.version
    requested = _coerce_months(months)
    wanted = tuple(m for m in requested if m not in dataset.months)
    if not wanted:
        return IngestReport(
            root=str(root),
            format=fmt,
            version_before=version_before,
            version=version_before,
            months_added=(),
            months_present=tuple(str(m) for m in dataset.months),
            slices_added=0,
            seconds=time.perf_counter() - start,
        )

    from ..engine.engine import GenerationEngine
    from ..engine.plan import SlicePlan
    from ..pipeline.context import infer_config
    from ..synth.universe import load_universe

    if config is None:
        config = infer_config(dataset, small=small, seed=seed)
    recorded = dataset.metadata.get("fingerprint")
    if isinstance(recorded, str) and recorded and (
        config.fingerprint() != recorded
    ):
        raise DatasetError(
            f"config fingerprint {config.fingerprint()} does not match the "
            f"dataset's recorded provenance {recorded}; ingesting with a "
            "different configuration would splice incompatible months"
        )

    plan = SlicePlan.from_grid(
        dataset.countries, dataset.platforms, dataset.metrics, wanted
    )
    # A restored universe is memoised, so the engine's generator scores
    # it instead of building one.
    restored = load_universe(root / UNIVERSE_FILE, config.resolved_universe())
    engine = GenerationEngine(config)
    produced = engine.generate_plan(plan)

    uids = dataset.site_uids()
    if uids is None:
        uids = _uids_by_name(dataset.site_table(), produced.universe)
    write_dataset(
        root,
        fmt,
        produced,
        stored=Stored(dataset, (root / MANIFESTS[fmt]).read_bytes(), uids),
        # A file that could not be used is rewritten for the next ingest.
        universe=None if restored is not None else produced.universe,
    )

    return IngestReport(
        root=str(root),
        format=fmt,
        version_before=version_before,
        version=version_before + 1,
        months_added=tuple(str(m) for m in wanted),
        months_present=tuple(
            str(m) for m in sorted(tuple(dataset.months) + wanted)
        ),
        slices_added=len(produced),
        seconds=time.perf_counter() - start,
    )


def _uids_by_name(sites: np.ndarray, universe) -> np.ndarray:
    """Each site's uid by canonical name (-1: none): the backfill of a
    dataset saved before datasets stored their uid column."""
    uid_of = dict(zip(universe.canonical, range(universe.n_sites)))
    return np.fromiter(map(uid_of.get, sites.tolist(), repeat(-1)),
                       np.int32, len(sites))
