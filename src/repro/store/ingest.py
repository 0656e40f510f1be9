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
  ground-truth sidecar gains rows for the new sites;
* **columnar**: the new id windows are *appended* to ``lists.bin``, new
  site names to ``vocab.bin`` and their ground-truth rows to
  ``truth.bin``.  Old windows keep their offsets and old ids keep their
  meaning, because every file only ever grows at the tail.

Ingest holds the generator, so it is also where the ground truth of a
dataset saved before ground truth was stored gets written: the table
gains a row for every site it lacks, so one ingest backfills it.

Every ingest bumps the manifest's monotonic ``dataset_version`` and
archives the superseded manifest under ``versions/manifest.v<N>.*``.
An archived manifest stays loadable forever (``load_dataset(root,
as_of=N)``): its windows and list files are a valid prefix view of the
grown store.  Readers holding the old manifest — or an old mmap — keep
seeing exactly the old bytes: the manifest lands via ``os.replace``,
and open maps pin the old inode.

Crash safety is the save path's: archive first, data files next,
manifest last.
A crash mid-ingest leaves the old manifest live over grown-but-unread
data files.  Readers take every count from the manifest, never from a
file header, so the orphaned tails stay invisible, and the next ingest
appends after the manifest's counts, overwriting them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..core.dataset import BrowsingDataset
from ..core.errors import DatasetError
from ..core.types import Month
from ..core.vocab import SiteVocabulary
from ..export.io import (
    MANIFESTS,
    Stored,
    dataset_version,
    detect_format,
    load_dataset,
    sorted_breakdowns,
    write_dataset,
)
from .mapped import MappedBrowsingDataset


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


def _stored_names(dataset: BrowsingDataset) -> tuple[str, ...]:
    """The stored sites in id order: a columnar dataset's vocabulary
    file, else the order a save numbers them (first seen over the lists
    in canonical order)."""
    if isinstance(dataset, MappedBrowsingDataset):
        return dataset._table.decode_all()
    vocab = SiteVocabulary()
    for breakdown in sorted_breakdowns(dataset.breakdowns()):
        vocab.intern_many(dataset[breakdown].sites)
    return vocab.names()


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
    version_before = dataset_version(dataset)
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
    engine = GenerationEngine(config)
    produced = engine.run(plan)

    write_dataset(
        root,
        fmt,
        produced,
        metadata=dataset.metadata,
        distributions=dataset.distributions(),
        version=version_before + 1,
        truth_for=engine.generator.ground_truth,
        stored=Stored(dataset, _stored_names(dataset),
                      (root / MANIFESTS[fmt]).read_bytes()),
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
