"""The columnar dataset format: encode for the one writer, open memory-mapped.

Directory layout (see :mod:`repro.store.format` for byte layouts)::

    <root>/manifest.bin     # binary manifest: breakdown index, metadata,
                            # distribution vectors, content fingerprints
    <root>/vocab.bin        # packed string table: site id -> UTF-8 name
    <root>/lists.bin        # one contiguous int32 id array; each
                            # breakdown owns an (offset, length) window
    <root>/uids.bin         # universe uid per site id (absent for
                            # datasets saved before it was stored)

:func:`encode_columnar` is this format's encoder for the one write
path (:func:`repro.export.io.write_dataset`): the ids of the lists a
write adds go after the stored ones in ``lists.bin``, and the added
sites' names and uids after the stored ones in ``vocab.bin`` and
``uids.bin`` (stored ids keep their meaning, so every file only grows
at the tail, and the stored bytes are copied, never decoded).  The
manifest records each breakdown's window together with per-file
SHA-256 fingerprints, element counts and the dataset fingerprint.

Opening is O(open): read the manifest, validate the index, and
``numpy.memmap`` the two data files into the one dataset class
(:meth:`repro.core.BrowsingDataset.from_windows`).  No list page is
touched until a breakdown is actually read (lists decode lazily), and
``uids.bin`` is read — and checked against the manifest's digest —
only when a site's universe uid is first asked for.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.errors import DatasetError
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
    pack_header,
    pack_manifest,
    pack_string_table,
    pack_uids,
    unpack_manifest,
    unpack_uids,
)
from .mapped import MappedStringTable

#: The file whose presence marks a columnar dataset directory.
MANIFEST_NAME = MANIFESTS["columnar"]
VOCAB_NAME = "vocab.bin"
LISTS_NAME = "lists.bin"
UIDS_NAME = "uids.bin"


def encode_columnar(grown: Grown) -> dict[str, bytes | bytearray]:
    """``vocab.bin``, ``lists.bin``, ``uids.bin`` and the manifest.

    The new lists' ids are appended after the stored id prefix of
    ``lists.bin`` (the windows the stored manifest records), and the
    added names after the stored prefix of ``vocab.bin``, so every
    stored window and id stays valid in the grown files.
    """
    added = grown.sites[grown.added].tolist()
    sites = grown.stored_sites + len(added)
    if grown.stored_sites:
        vocab = MappedStringTable(grown.root / VOCAB_NAME, grown.stored_sites)
        files = {VOCAB_NAME: vocab.extended(added)}
    else:
        files = {VOCAB_NAME: pack_string_table(added)}
    del added
    # The id buffer last, once the packers' temporaries are freed.
    files[LISTS_NAME], entries = _pack_lists(grown)
    counts = {VOCAB_NAME: sites,
              LISTS_NAME: (len(files[LISTS_NAME]) - HEADER_SIZE) // 4}
    if grown.uids is not None:
        files[UIDS_NAME] = pack_uids(grown.uids)
        counts[UIDS_NAME] = sites
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


def _pack_lists(grown: Grown) -> tuple[bytearray, list[dict]]:
    """``lists.bin`` and the new lists' manifest records.

    The stored id prefix is copied as it is; each new list is gathered
    into its stored ids in place, in the file's buffer.
    """
    stored = sum(int(e["length"]) for e in grown.stored_entries.values())
    total = stored + sum(map(len, grown.windows))
    data = bytearray(HEADER_SIZE + 4 * total)
    data[:HEADER_SIZE] = pack_header(MAGIC_LISTS, total)
    if stored:
        with open(grown.root / LISTS_NAME, "rb") as handle:
            handle.seek(HEADER_SIZE)
            handle.readinto(memoryview(data)[HEADER_SIZE:HEADER_SIZE + 4 * stored])
    ids = np.frombuffer(data, np.int32, offset=HEADER_SIZE)
    entries = []
    offset = stored
    for breakdown, window in zip(grown.breakdowns, grown.windows):
        np.take(grown.renumber, window, out=ids[offset:offset + len(window)])
        entries.append(breakdown_entry(breakdown, offset=offset, length=len(window)))
        offset += len(window)
    return data, entries


def open_columnar(
    root: str | Path, manifest_path: Path | None = None
) -> BrowsingDataset:
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
    dataset = BrowsingDataset.from_windows(
        windows,
        ids,
        table.names,
        parse_distribution_entries(manifest.get("distributions", [])),
        manifest.get("metadata", {}),
        _uids_loader(root, files, manifest_path),
        fingerprint if isinstance(fingerprint, str) else None,
    )
    dataset.version = int(manifest.get("dataset_version", 1))
    dataset.root = root
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


def _uids_loader(root: Path, files: dict, manifest_path: Path):
    """The dataset's lazy uid column, or ``None`` without one."""
    entries = _entries(files, UIDS_NAME, manifest_path)
    if entries is None:
        return None
    sha256 = files[UIDS_NAME].get("sha256")

    def load():
        path = root / UIDS_NAME
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise DatasetError(
                f"columnar dataset at {root} is torn: the manifest "
                f"references {UIDS_NAME}, but the file is absent"
            ) from None
        return unpack_uids(data, entries, sha256, path)

    return load
