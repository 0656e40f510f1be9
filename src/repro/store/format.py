"""Binary layout primitives for the columnar dataset store.

Every file the store writes starts with one fixed 24-byte header::

    magic      8 bytes   file kind (``RPROVOC1`` / ``RPROIDS1`` / ...)
    version    uint32    layout version of that file kind
    reserved   uint32    zero today; room for flags
    count      uint64    kind-specific element count (see each writer)

All integers are little-endian.  The four file kinds:

``vocab.bin``   packed string table — header (count = number of names),
                ``int64 offsets[count + 1]`` of byte positions into the
                blob (``offsets[0] == 0``), then the UTF-8 blob itself.
                Name *i* is ``blob[offsets[i]:offsets[i + 1]]``; the
                index into the table *is* the site id.
``lists.bin``   one contiguous ``int32`` id array — header (count =
                total ids across every ranked list), then the ids.  The
                manifest records each breakdown's ``(offset, length)``
                window into this array.
``truth.bin``   ground truth per site id — header (count = rows), an
                ``int16`` category column, an ``int16`` tag-set column
                and a ``uint8`` has-Android-app column, then the
                category and tag-set string tables the first two index
                (see :func:`pack_ground_truth`).
``manifest.bin`` binary manifest — header (count = payload byte
                length), then an order-preserving UTF-8 JSON payload
                carrying the breakdown index, dataset metadata,
                distribution vectors and per-file content fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.errors import DatasetError
from ..core.truth import GroundTruth

#: Bump when any file layout changes incompatibly.
COLUMNAR_VERSION = 1

MAGIC_VOCAB = b"RPROVOC1"
MAGIC_LISTS = b"RPROIDS1"
MAGIC_MANIFEST = b"RPROMAN1"
MAGIC_TRUTH = b"RPROTRU1"

_HEADER = struct.Struct("<8sIIQ")
#: Fixed size of every file header, in bytes.
HEADER_SIZE = _HEADER.size


def pack_header(magic: bytes, count: int, version: int = COLUMNAR_VERSION) -> bytes:
    return _HEADER.pack(magic, version, 0, count)


def read_header(data: bytes, magic: bytes, path: Path) -> int:
    """Validate a file header; returns its element count."""
    if len(data) < HEADER_SIZE:
        raise DatasetError(f"{path}: truncated header ({len(data)} bytes)")
    got_magic, version, _reserved, count = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise DatasetError(
            f"{path}: bad magic {got_magic!r} (expected {magic!r})"
        )
    if version != COLUMNAR_VERSION:
        raise DatasetError(
            f"{path}: unsupported layout version {version} "
            f"(this build reads version {COLUMNAR_VERSION})"
        )
    return count


# -- string tables ------------------------------------------------------------------


def pack_string_table(names: Sequence[str]) -> bytes:
    """Serialise names as header + int64 offsets + UTF-8 blob.

    The blob is encoded in one pass, not name by name, so a large table
    holds no per-name bytes objects.
    """
    blob = "".join(names).encode("utf-8")
    lengths = map(len, names)
    if not blob.isascii():  # multi-byte characters: count bytes
        lengths = map(len, map(str.encode, names))
    offsets = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(lengths, np.int64, len(names)), out=offsets[1:])
    return b"".join((pack_header(MAGIC_VOCAB, len(names)), offsets.tobytes(), blob))


def unpack_string_table(data: bytes, path: Path) -> tuple[str, ...]:
    """Decode every name of a packed string table eagerly."""
    return _string_table_at(data, 0, path)[0]


def _string_table_at(
    data: bytes, start: int, path: Path
) -> tuple[tuple[str, ...], int]:
    """The names of the string table at byte ``start``, and where it ends."""
    count = read_header(data[start:start + HEADER_SIZE], MAGIC_VOCAB, path)
    offsets_end = start + HEADER_SIZE + 8 * (count + 1)
    if len(data) < offsets_end:
        raise DatasetError(f"{path}: truncated string-table offsets")
    offsets = np.frombuffer(data, dtype=np.int64, count=count + 1,
                            offset=start + HEADER_SIZE).tolist()
    end = offsets_end + offsets[-1]
    if end > len(data):
        raise DatasetError(f"{path}: string-table blob shorter than offsets")
    return decode_names(data[offsets_end:end], offsets), end


def decode_names(blob: bytes, offsets: list[int]) -> tuple[str, ...]:
    """Name *i* of a string table is ``blob[offsets[i]:offsets[i + 1]]``."""
    bounds = map(slice, offsets[:-1], offsets[1:])
    if blob.isascii():
        # Byte offsets are character offsets: decode the blob once.
        return tuple(map(blob.decode("ascii").__getitem__, bounds))
    return tuple(blob[bound].decode("utf-8") for bound in bounds)


# -- id arrays ----------------------------------------------------------------------


def map_id_array(path: Path) -> np.ndarray:
    """Memory-map the id array of ``lists.bin`` — O(open), no page reads."""
    with open(path, "rb") as handle:
        count = read_header(handle.read(HEADER_SIZE), MAGIC_LISTS, path)
    expected = HEADER_SIZE + 4 * count
    actual = path.stat().st_size
    if actual < expected:
        raise DatasetError(
            f"{path}: short id file ({actual} bytes, header promises {expected})"
        )
    if count == 0:
        return np.empty(0, dtype=np.int32)
    return np.memmap(path, dtype=np.int32, mode="r",
                     offset=HEADER_SIZE, shape=(count,))


# -- ground truth -------------------------------------------------------------------


def pack_ground_truth(truth: GroundTruth) -> bytes:
    """Serialise a ground-truth table (rows in site-id order).

    Header (count = rows), ``int16 category[count]`` and ``int32
    tags[count]`` indexing the two trailing string tables (-1 = none),
    ``uint8 has_app[count]``, then the category names and the tag sets
    (each a JSON array), both in first-use order.  The encoding is a
    pure function of the rows, so the digest a manifest records for its
    first N rows can be re-derived after ingest has appended more.
    """
    categories, category = _first_use_codes(truth.category, None)
    tag_sets, tags = _first_use_codes(truth.tags, ())
    return b"".join((
        pack_header(MAGIC_TRUTH, len(truth)),
        category.astype(np.int16).tobytes(),
        tags.tobytes(),
        np.asarray(truth.has_app, dtype=np.uint8).tobytes(),
        pack_string_table(categories),
        pack_string_table([
            json.dumps(list(t), ensure_ascii=False, separators=(",", ":"))
            for t in tag_sets
        ]),
    ))


def _first_use_codes(values: Sequence, none) -> tuple[list, np.ndarray]:
    """The distinct values other than ``none`` in first-use order, and
    each value's index among them (-1 for ``none``) as ``int32``."""
    distinct = dict.fromkeys(values)
    distinct.pop(none, None)
    index = dict(zip(distinct, range(len(distinct))))
    index[none] = -1
    codes = np.fromiter(map(index.__getitem__, values), np.int32, len(values))
    return list(distinct), codes


def unpack_ground_truth(
    data: bytes, sites: Sequence[str], path: Path
) -> GroundTruth:
    """Decode the rows of a ground-truth file that ``sites`` name.

    Row *i* belongs to ``sites[i]``; rows past ``len(sites)`` (appended
    by a later ingest than the dataset version being read) are ignored.
    """
    stored = read_header(data, MAGIC_TRUTH, path)
    columns_end = HEADER_SIZE + 7 * stored
    if len(data) < columns_end:
        raise DatasetError(f"{path}: truncated ground-truth columns")
    count = min(stored, len(sites))
    category = np.frombuffer(data, np.int16, count, HEADER_SIZE)
    tags = np.frombuffer(data, np.int32, count, HEADER_SIZE + 2 * stored)
    has_app = np.frombuffer(data, np.uint8, count, HEADER_SIZE + 6 * stored)
    names, end = _string_table_at(data, columns_end, path)
    tag_sets, _ = _string_table_at(data, end, path)
    if count and not (-1 <= category.min() and category.max() < len(names)
                      and -1 <= tags.min() and tags.max() < len(tag_sets)):
        raise DatasetError(f"{path}: ground-truth index out of range")
    try:
        tag_sets = tuple(tuple(json.loads(t)) for t in tag_sets) + ((),)
    except ValueError as exc:
        raise DatasetError(f"{path}: malformed tag set: {exc}") from exc
    names += (None,)
    return GroundTruth(
        tuple(sites[:count]),
        tuple(map(names.__getitem__, category.tolist())),
        tuple(has_app.astype(bool).tolist()),
        tuple(map(tag_sets.__getitem__, tags.tolist())),
    )


# -- manifest -----------------------------------------------------------------------


def pack_manifest(header: dict) -> bytes:
    """Serialise the manifest: binary header + order-preserving JSON.

    ``json.dumps`` without ``sort_keys`` keeps dict insertion order, so
    metadata written text → columnar → text round-trips byte-equal.
    """
    payload = json.dumps(
        header, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    return pack_header(MAGIC_MANIFEST, len(payload)) + payload


def unpack_manifest(data: bytes, path: Path) -> dict:
    count = read_header(data, MAGIC_MANIFEST, path)
    payload = data[HEADER_SIZE:HEADER_SIZE + count]
    if len(payload) < count:
        raise DatasetError(f"{path}: truncated manifest payload")
    try:
        header = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise DatasetError(f"{path}: malformed manifest JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise DatasetError(f"{path}: manifest payload is not an object")
    return header


# -- files --------------------------------------------------------------------------


def file_fingerprint(data: bytes) -> str:
    """Content fingerprint recorded in the manifest for each data file."""
    return hashlib.sha256(data).hexdigest()
