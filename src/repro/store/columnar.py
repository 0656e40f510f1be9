"""The columnar dataset codec: save eagerly, open memory-mapped.

Directory layout (see :mod:`repro.store.format` for byte layouts)::

    <root>/manifest.bin     # binary manifest: breakdown index, metadata,
                            # distribution vectors, content fingerprints
    <root>/vocab.bin        # packed string table: site id -> UTF-8 name
    <root>/lists.bin        # one contiguous int32 id array; each
                            # breakdown owns an (offset, length) window
    <root>/truth.bin        # ground truth per site id: category, tags,
                            # has-Android-app (absent for datasets saved
                            # before ground truth was stored)

Saving interns every list through one fresh
:class:`~repro.core.vocab.SiteVocabulary` (first-seen order over the
canonical breakdown sort), concatenates the id arrays, and records each
breakdown's window in the manifest together with per-file SHA-256
fingerprints and the dataset fingerprint.  The ground-truth column
family is keyed by the same site ids; its digest and row count sit in
the manifest next to the other files'.  Every file is written to a
temp sibling and ``os.replace``\\ d, manifest last — an interrupted
save never leaves a manifest naming torn files.

Opening is O(open): read the manifest, validate the index, and
``numpy.memmap`` the two data files.  No list page is touched until a
breakdown is actually read (:class:`repro.store.MappedBrowsingDataset`
materialises lazily), and ``truth.bin`` is read — and checked against
the manifest's digest — only when the ground truth is first asked for.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.errors import DatasetError
from ..core.rankedlist import RankedList
from ..core.truth import check_entries
from ..core.types import Breakdown
from ..core.vocab import SiteVocabulary
from ..export.io import (
    DatasetCodec,
    _jsonable_metadata,
    breakdown_entry,
    breakdown_slug,
    dataset_fingerprint,
    dataset_version,
    distribution_entries,
    parse_breakdown_entry,
    parse_distribution_entries,
    register_codec,
    sorted_breakdowns,
)
from .format import (
    COLUMNAR_VERSION,
    atomic_write_bytes,
    file_fingerprint,
    map_id_array,
    pack_id_array,
    pack_ground_truth,
    pack_manifest,
    pack_string_table,
    unpack_ground_truth,
    unpack_manifest,
)
from .mapped import MappedBrowsingDataset, MappedStringTable

#: The file whose presence marks a columnar dataset directory.
MANIFEST_NAME = "manifest.bin"
VOCAB_NAME = "vocab.bin"
LISTS_NAME = "lists.bin"
TRUTH_NAME = "truth.bin"


def intern_windows(
    vocab: SiteVocabulary,
    lists: Iterable[tuple[Breakdown, RankedList]],
    offset: int = 0,
) -> tuple[np.ndarray, list[dict]]:
    """``lists`` interned back to back from id ``offset`` of ``lists.bin``:
    the ids, and each breakdown's manifest entry with its window."""
    chunks: list[np.ndarray] = []
    entries: list[dict] = []
    for breakdown, ranked in lists:
        ids = vocab.intern_many(ranked.sites)
        chunks.append(ids)
        entries.append(breakdown_entry(breakdown, offset=offset, length=int(ids.size)))
        offset += int(ids.size)
    return (np.concatenate(chunks) if chunks else np.empty(0, np.int32)), entries


def write_columnar(dataset: BrowsingDataset, root: str | Path) -> Path:
    """Write ``dataset`` to ``root`` in the columnar layout."""
    root = Path(root)
    vocab = SiteVocabulary()
    all_ids, entries = intern_windows(
        vocab, ((b, dataset[b]) for b in sorted_breakdowns(dataset))
    )
    vocab_bytes = pack_string_table(vocab.names())
    lists_bytes = pack_id_array(all_ids)

    manifest = {
        "format_version": COLUMNAR_VERSION,
        "dataset_version": dataset_version(dataset),
        "metadata": _jsonable_metadata(dataset.metadata),
        "dataset_fingerprint": dataset_fingerprint(dataset),
        "breakdowns": entries,
        "distributions": distribution_entries(dataset),
        "files": {
            VOCAB_NAME: file_entry(vocab_bytes, len(vocab)),
            LISTS_NAME: file_entry(lists_bytes, int(all_ids.size)),
        },
    }
    atomic_write_bytes(root / VOCAB_NAME, vocab_bytes)
    atomic_write_bytes(root / LISTS_NAME, lists_bytes)
    truth = dataset.ground_truth()
    if truth is not None:
        truth_bytes = pack_ground_truth(truth.reindex(vocab.names()))
        manifest["files"][TRUTH_NAME] = file_entry(truth_bytes, len(vocab))
        atomic_write_bytes(root / TRUTH_NAME, truth_bytes)
    # Manifest last: loaders start here, so a torn save is invisible.
    atomic_write_bytes(root / MANIFEST_NAME, pack_manifest(manifest))
    return root


def open_columnar(
    root: str | Path, manifest_path: Path | None = None
) -> MappedBrowsingDataset:
    """Memory-map the columnar dataset at ``root``; O(open), no list reads.

    ``manifest_path`` overrides the live manifest — used by versioned
    (``as_of``) loading to open an archived manifest under
    ``versions/``.  Archived windows stay valid against the grown data
    files because ingest only ever appends to ``lists.bin`` and
    ``vocab.bin``.
    """
    root = Path(root)
    if manifest_path is None:
        manifest_path = root / MANIFEST_NAME
    try:
        manifest = unpack_manifest(manifest_path.read_bytes(), manifest_path)
    except FileNotFoundError:
        raise DatasetError(f"no {MANIFEST_NAME} under {root}") from None
    if manifest.get("format_version") != COLUMNAR_VERSION:
        raise DatasetError(
            f"{manifest_path}: unsupported columnar format version "
            f"{manifest.get('format_version')!r}"
        )

    lists_path = root / LISTS_NAME
    try:
        ids = map_id_array(lists_path)
    except FileNotFoundError:
        raise DatasetError(
            f"columnar dataset at {root} is torn: the manifest references "
            f"{LISTS_NAME}, but the file is absent"
        ) from None
    files = manifest.get("files") or {}
    table = MappedStringTable(
        root / VOCAB_NAME, _entries(files, VOCAB_NAME, manifest_path)
    )

    windows: dict[Breakdown, tuple[int, int]] = {}
    for entry in manifest.get("breakdowns", ()):
        try:
            breakdown = parse_breakdown_entry(entry)
            offset = int(entry["offset"])
            length = int(entry["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                f"{manifest_path}: malformed breakdown entry {entry!r}: {exc}"
            ) from exc
        if breakdown in windows:
            raise DatasetError(
                f"{manifest_path}: duplicate manifest entry for {breakdown}"
            )
        if offset < 0 or length < 0 or offset + length > ids.size:
            raise DatasetError(
                f"{root}: short {LISTS_NAME} — manifest window for "
                f"{breakdown_slug(breakdown)} spans ids "
                f"[{offset}, {offset + length}) but the file holds "
                f"{ids.size}"
            )
        windows[breakdown] = (offset, length)

    fingerprint = manifest.get("dataset_fingerprint")
    dataset = MappedBrowsingDataset(
        root,
        windows=windows,
        ids=ids,
        table=table,
        distributions=parse_distribution_entries(
            manifest.get("distributions", [])
        ),
        metadata=manifest.get("metadata", {}),
        content_fingerprint=(
            fingerprint if isinstance(fingerprint, str) else None
        ),
        ground_truth=_truth_loader(root, files, manifest_path),
    )
    dataset.version = int(manifest.get("dataset_version", 1))
    return dataset


def file_entry(data: bytes, entries: int) -> dict[str, object]:
    """A manifest ``files`` record: size, SHA-256 and element count."""
    return {"bytes": len(data), "sha256": file_fingerprint(data),
            "entries": entries}


def _entries(files: dict, name: str, manifest_path: Path) -> int | None:
    """The element count the manifest records for ``name`` (if any)."""
    record = files.get(name)
    if record is None:
        return None
    try:
        return int(record["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(
            f"{manifest_path}: malformed {name} record {record!r}"
        ) from exc


def _truth_loader(root: Path, files: dict, manifest_path: Path):
    """The dataset's lazy ground-truth source, or ``None`` without one."""
    entries = _entries(files, TRUTH_NAME, manifest_path)
    if entries is None:
        return None
    sha256 = files[TRUTH_NAME].get("sha256")

    def load(dataset: MappedBrowsingDataset):
        path = root / TRUTH_NAME
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise DatasetError(
                f"columnar dataset at {root} is torn: the manifest "
                f"references {TRUTH_NAME}, but the file is absent"
            ) from None
        truth = unpack_ground_truth(data, dataset._table.decode_all(), path)
        return check_entries(truth, entries, sha256, pack_ground_truth, path)

    return load


def _read_columnar_version(manifest_path: Path) -> int:
    try:
        manifest = unpack_manifest(manifest_path.read_bytes(), manifest_path)
    except FileNotFoundError:
        raise DatasetError(
            f"no {manifest_path.name} at {manifest_path}"
        ) from None
    return int(manifest.get("dataset_version", 1))


COLUMNAR_CODEC = register_codec(
    DatasetCodec(
        name="columnar",
        save=write_columnar,
        load=open_columnar,
        detect=lambda root: (root / MANIFEST_NAME).is_file(),
        manifest=MANIFEST_NAME,
        read_version=_read_columnar_version,
        load_at=open_columnar,
    )
)
