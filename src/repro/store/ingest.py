"""Incremental monthly ingestion: append months to a saved dataset.

``repro ingest --month`` turns the batch reproduction into a rolling
one.  The generator's month walk is *cumulative and append-stable* —
every month's innovation is keyed ``(seed, country, "walk:<index>")``
independent of which months a run requests — so generating month N
against an existing dataset yields lists byte-identical to a fresh
N-month generation.  Ingestion therefore never rewrites history:

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

Crash safety matches the save path: data files first, manifest last.
A crash mid-ingest leaves the old manifest live over grown-but-unread
data files.  Readers take every count from the manifest, never from a
file header, so the orphaned tails stay invisible, and the next ingest
appends after the manifest's counts, overwriting them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.errors import DatasetError
from ..core.rankedlist import RankedList
from ..core.truth import GroundTruth
from ..core.types import Breakdown, Month
from ..core.vocab import SiteVocabulary
from ..export.io import (
    TEXT_FORMAT_VERSION,
    TRUTH_TEXT,
    VERSIONS_DIR,
    _atomic_write_text,
    _resolve_codec,
    breakdown_entry,
    breakdown_slug,
    content_hash,
    sorted_breakdowns,
    truth_record,
)
from .columnar import (
    LISTS_NAME,
    MANIFEST_NAME,
    TRUTH_NAME,
    VOCAB_NAME,
    file_entry,
    intern_windows,
)
from .format import (
    HEADER_SIZE,
    MAGIC_LISTS,
    atomic_write_bytes,
    pack_ground_truth,
    pack_header,
    pack_manifest,
    pack_string_table,
    unpack_manifest,
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


def _entry_key(entry: Mapping[str, object]) -> tuple:
    """Canonical manifest ordering — matches ``sorted_breakdowns``."""
    return (
        entry["country"],
        entry["platform"],
        entry["metric"],
        tuple(entry["month"]),
    )


def _canonical_produced(
    produced: Mapping[Breakdown, RankedList]
) -> list[tuple[Breakdown, RankedList]]:
    return sorted(
        produced.items(),
        key=lambda kv: (
            kv[0].country,
            kv[0].platform.value,
            kv[0].metric.value,
            kv[0].month,
        ),
    )


def _coerce_months(months: Iterable[Month | str]) -> tuple[Month, ...]:
    out = []
    for month in months:
        out.append(month if isinstance(month, Month) else Month.parse(month))
    return tuple(sorted(set(out)))


def ingest_months(
    root: str | Path,
    months: Iterable[Month | str],
    *,
    format: str | None = None,
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
    ``small``/``seed`` flags for unprovenanced exports), appended under
    the dataset's codec, and the dataset version is bumped by one with
    the superseded manifest archived under ``versions/``.
    """
    start = time.perf_counter()
    root = Path(root)
    codec = _resolve_codec(root, format)
    if codec.manifest is None or codec.read_version is None:
        raise DatasetError(
            f"codec {codec.name!r} does not support incremental ingest"
        )
    dataset = codec.load(root)
    version_before = int(getattr(dataset, "version", 1))
    requested = _coerce_months(months)
    wanted = tuple(m for m in requested if m not in dataset.months)
    if not wanted:
        return IngestReport(
            root=str(root),
            format=codec.name,
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

    new_version = version_before + 1
    append = _append_columnar if codec.name == "columnar" else _append_text
    append(root, dataset, produced, engine.generator.ground_truth,
           version_before, new_version)

    return IngestReport(
        root=str(root),
        format=codec.name,
        version_before=version_before,
        version=new_version,
        months_added=tuple(str(m) for m in wanted),
        months_present=tuple(
            str(m) for m in sorted(tuple(dataset.months) + wanted)
        ),
        slices_added=len(produced),
        seconds=time.perf_counter() - start,
    )


# -- text append --------------------------------------------------------------------


def _grown_truth(
    dataset: BrowsingDataset, sites: tuple[str, ...], truth_for
) -> GroundTruth:
    """The dataset's table plus rows for every site of ``sites`` it lacks.

    ``sites`` is the grown site order (old ids first), so this appends
    rows for the new sites — or, for a dataset saved before ground truth
    was stored, writes the whole table.
    """
    truth = dataset.ground_truth() or GroundTruth.from_rows(())
    known = set(truth.sites)
    return truth.extend(truth_for([s for s in sites if s not in known]))


def _append_text(
    root: Path,
    dataset: BrowsingDataset,
    produced: Mapping[Breakdown, RankedList],
    truth_for,
    version_before: int,
    new_version: int,
) -> None:
    manifest_path = root / "manifest.json"
    old_text = manifest_path.read_text(encoding="utf-8")
    old = json.loads(old_text)

    # The order new sidecar rows take: first-seen over the stored
    # lists, then over the new ones.
    vocab = SiteVocabulary()
    for breakdown in sorted_breakdowns(dataset):
        vocab.intern_many(dataset[breakdown].sites)
    new_entries = []
    for breakdown, ranked in _canonical_produced(produced):
        vocab.intern_many(ranked.sites)
        slug = breakdown_slug(breakdown)
        _atomic_write_text(
            root / "lists" / f"{slug}.txt", "\n".join(ranked.sites) + "\n"
        )
        new_entries.append(breakdown_entry(breakdown, file=f"lists/{slug}.txt"))

    manifest = {
        "format_version": old.get("format_version", TEXT_FORMAT_VERSION),
        "dataset_version": new_version,
    }
    for key, value in old.items():
        if key not in manifest:
            manifest[key] = value
    manifest["breakdowns"] = sorted(
        list(old["breakdowns"]) + new_entries, key=_entry_key
    )
    truth_text, manifest["ground_truth"] = truth_record(
        _grown_truth(dataset, vocab.names(), truth_for)
    )

    # Archive the superseded manifest verbatim, then land the new one —
    # manifest last, so a crash leaves version N fully live.
    _atomic_write_text(
        root / VERSIONS_DIR / f"manifest.v{version_before}.json", old_text
    )
    _atomic_write_text(root / TRUTH_TEXT, truth_text)
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=2))


# -- columnar append ----------------------------------------------------------------


def _append_columnar(
    root: Path,
    dataset: BrowsingDataset,
    produced: Mapping[Breakdown, RankedList],
    truth_for,
    version_before: int,
    new_version: int,
) -> None:
    manifest_path = root / MANIFEST_NAME
    old_bytes = manifest_path.read_bytes()
    old = unpack_manifest(old_bytes, manifest_path)

    # Rebuild the stored id space, then intern the new lists after it.
    # Appending preserves every existing id, so old manifest windows
    # remain valid prefix views of the grown files.
    vocab = SiteVocabulary(dataset._table.decode_all())
    lists_bytes = (root / LISTS_NAME).read_bytes()
    old_total = old.get("files", {}).get(LISTS_NAME, {}).get(
        "entries", (len(lists_bytes) - HEADER_SIZE) // 4
    )
    old_body = lists_bytes[HEADER_SIZE:HEADER_SIZE + 4 * old_total]

    new_ids, new_entries = intern_windows(
        vocab, _canonical_produced(produced), old_total
    )
    new_ids = np.ascontiguousarray(new_ids, dtype=np.int32)
    grown_lists = (
        pack_header(MAGIC_LISTS, old_total + int(new_ids.size))
        + old_body
        + new_ids.tobytes()
    )
    grown_vocab = pack_string_table(vocab.names())
    grown_truth = pack_ground_truth(
        _grown_truth(dataset, vocab.names(), truth_for)
    )

    recorded = old.get("metadata", {}).get("fingerprint")
    if isinstance(recorded, str) and recorded:
        fingerprint = recorded
    else:
        # Unprovenanced import: recompute the content hash over the
        # merged lists (old windows decode lazily through the mmap).
        merged: list[tuple[str, tuple[str, ...]]] = [
            (breakdown_slug(b), tuple(dataset[b].sites))
            for b in dataset.breakdowns()
        ]
        merged.extend(
            (breakdown_slug(b), tuple(ranked.sites))
            for b, ranked in produced.items()
        )
        fingerprint = content_hash(sorted(merged, key=lambda kv: kv[0]))

    manifest = {
        "format_version": old["format_version"],
        "dataset_version": new_version,
    }
    for key, value in old.items():
        if key not in manifest:
            manifest[key] = value
    manifest["dataset_fingerprint"] = fingerprint
    manifest["breakdowns"] = sorted(
        list(old["breakdowns"]) + new_entries, key=_entry_key
    )
    manifest["files"] = {
        VOCAB_NAME: file_entry(grown_vocab, len(vocab)),
        LISTS_NAME: file_entry(grown_lists, old_total + int(new_ids.size)),
        TRUTH_NAME: file_entry(grown_truth, len(vocab)),
    }

    # Archive first, data files next, manifest last.  Old readers hold
    # the old inodes through their mmaps; new readers see version N
    # until the final os.replace lands version N+1 atomically.
    atomic_write_bytes(
        root / VERSIONS_DIR / f"manifest.v{version_before}.bin", old_bytes
    )
    atomic_write_bytes(root / VOCAB_NAME, grown_vocab)
    atomic_write_bytes(root / LISTS_NAME, grown_lists)
    atomic_write_bytes(root / TRUTH_NAME, grown_truth)
    atomic_write_bytes(root / MANIFEST_NAME, pack_manifest(manifest))
