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
``uids.bin``    each site id's universe uid — header (count = sites),
                then ``int32 uids[count]`` (-1: a site the universe
                does not name); see :func:`pack_uids`.
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

#: Bump when any file layout changes incompatibly.
COLUMNAR_VERSION = 1

MAGIC_VOCAB = b"RPROVOC1"
MAGIC_LISTS = b"RPROIDS1"
MAGIC_MANIFEST = b"RPROMAN1"
MAGIC_UIDS = b"RPROUID1"

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
    """Serialise names as header + int64 offsets + UTF-8 blob."""
    offsets, blob = encode_names(names)
    return b"".join((pack_header(MAGIC_VOCAB, len(names)), offsets.tobytes(), blob))


def encode_names(names: Sequence[str]) -> tuple[np.ndarray, bytes]:
    """A string table's ``int64`` offsets (``len(names) + 1``) and blob.

    The blob is encoded in one pass, not name by name, so a large table
    holds no per-name bytes objects.
    """
    blob = "".join(names).encode("utf-8")
    lengths = map(len, names)
    if not blob.isascii():  # multi-byte characters: count bytes
        lengths = map(len, map(str.encode, names))
    offsets = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(lengths, np.int64, len(names)), out=offsets[1:])
    return offsets, blob


def unpack_string_table(data: bytes, path: Path) -> tuple[str, ...]:
    """Decode every name of a packed string table eagerly."""
    count = read_header(data, MAGIC_VOCAB, path)
    offsets_end = HEADER_SIZE + 8 * (count + 1)
    if len(data) < offsets_end:
        raise DatasetError(f"{path}: truncated string-table offsets")
    offsets = np.frombuffer(data, np.int64, count + 1, HEADER_SIZE).tolist()
    if offsets_end + offsets[-1] > len(data):
        raise DatasetError(f"{path}: string-table blob shorter than offsets")
    return decode_names(data[offsets_end:offsets_end + offsets[-1]], offsets)


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


# -- universe uids ------------------------------------------------------------------


def pack_uids(uids: np.ndarray) -> bytes:
    """``uids.bin``: header (count = sites), then the ``int32`` uids.

    The encoding of the first N uids is the file a version of N sites
    wrote, so the digest a manifest records stays checkable after
    ingest has appended more.
    """
    return pack_header(MAGIC_UIDS, len(uids)) + np.asarray(uids, "<i4").tobytes()


def unpack_uids(data: bytes, entries: int, sha256: str, path: Path) -> np.ndarray:
    """The first ``entries`` uids of ``uids.bin``, checked against the
    digest the manifest records for them."""
    stored = read_header(data, MAGIC_UIDS, path)
    if min(stored, (len(data) - HEADER_SIZE) // 4) < entries:
        raise DatasetError(
            f"{path}: truncated uid column (the manifest records {entries})"
        )
    uids = np.frombuffer(data, "<i4", entries, HEADER_SIZE)
    if file_fingerprint(pack_uids(uids)) != sha256:
        raise DatasetError(f"{path}: uid-column digest does not match the manifest")
    return uids


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
