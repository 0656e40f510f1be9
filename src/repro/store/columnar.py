"""The columnar dataset format: encode for the one writer, open memory-mapped.

Directory layout (see :mod:`repro.store.format` for byte layouts)::

    <root>/manifest.bin     # binary manifest: breakdown index, metadata,
                            # distribution vectors, content fingerprints
    <root>/vocab.bin        # packed string table: site id -> UTF-8 name
    <root>/lists.bin        # one contiguous int32 id array; each
                            # breakdown owns an (offset, length) window
    <root>/truth.bin        # ground truth per site id: category, tags,
                            # has-Android-app (absent for datasets saved
                            # before ground truth was stored)

:func:`encode_columnar` is this format's encoder for the one write
path (:func:`repro.export.io.write_dataset`): the ids of the lists a
write adds go after the stored ones in ``lists.bin``, the grown
vocabulary and ground truth replace ``vocab.bin`` and ``truth.bin``
(stored names and rows keep their ids, so every file only grows at the
tail), and the manifest records each breakdown's window together with
per-file SHA-256 fingerprints and the dataset fingerprint.  The
ground-truth column family is keyed by the same site ids; its digest
and row count sit in the manifest next to the other files'.

Opening is O(open): read the manifest, validate the index, and
``numpy.memmap`` the two data files.  No list page is touched until a
breakdown is actually read (:class:`repro.store.MappedBrowsingDataset`
materialises lazily), and ``truth.bin`` is read — and checked against
the manifest's digest — only when the ground truth is first asked for.
"""

from __future__ import annotations

from pathlib import Path

from ..core.errors import DatasetError
from ..core.truth import check_entries
from ..core.types import Breakdown
from ..export.io import (
    MANIFESTS,
    Grown,
    breakdown_entry,
    breakdown_slug,
    parse_breakdown_entry,
    parse_distribution_entries,
)
from .format import (
    COLUMNAR_VERSION,
    HEADER_SIZE,
    MAGIC_LISTS,
    file_fingerprint,
    map_id_array,
    pack_ground_truth,
    pack_header,
    pack_manifest,
    pack_string_table,
    unpack_ground_truth,
    unpack_manifest,
)
from .mapped import MappedBrowsingDataset, MappedStringTable

#: The file whose presence marks a columnar dataset directory.
MANIFEST_NAME = MANIFESTS["columnar"]
VOCAB_NAME = "vocab.bin"
LISTS_NAME = "lists.bin"
TRUTH_NAME = "truth.bin"


def encode_columnar(grown: Grown) -> dict[str, bytes]:
    """``vocab.bin``, ``lists.bin``, ``truth.bin`` and the manifest.

    The new lists' ids are appended after the stored id prefix of
    ``lists.bin`` (the windows the stored manifest records), so every
    stored window stays a valid view of the grown file.
    """
    offset = sum(int(e["length"]) for e in grown.stored_entries.values())
    stored_ids = b""
    if offset:
        with open(grown.root / LISTS_NAME, "rb") as handle:
            handle.seek(HEADER_SIZE)
            stored_ids = handle.read(4 * offset)
    entries = []
    for (breakdown, _), ids in zip(grown.lists, grown.ids):
        entries.append(breakdown_entry(breakdown, offset=offset, length=int(ids.size)))
        offset += int(ids.size)
    files = {
        VOCAB_NAME: pack_string_table(grown.names),
        LISTS_NAME: b"".join(
            (pack_header(MAGIC_LISTS, offset), stored_ids, *grown.ids)
        ),
    }
    counts = {VOCAB_NAME: len(grown.names), LISTS_NAME: offset}
    if grown.truth is not None:
        files[TRUTH_NAME] = pack_ground_truth(grown.truth)
        counts[TRUTH_NAME] = len(grown.names)
    files[MANIFEST_NAME] = pack_manifest({
        "format_version": COLUMNAR_VERSION,
        "dataset_version": grown.version,
        "metadata": grown.metadata,
        "dataset_fingerprint": grown.fingerprint,
        "breakdowns": grown.entries(entries),
        "distributions": grown.distributions,
        "files": {name: file_entry(files[name], count)
                  for name, count in counts.items()},
    })
    return files


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
