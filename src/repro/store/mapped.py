"""The memory-mapped site table of a columnar dataset directory.

Opening a columnar dataset is O(open): the manifest (a few KB) is the
only file read eagerly; ``vocab.bin`` and ``lists.bin`` are wrapped in
``numpy.memmap`` arrays whose pages fault in on first touch.  Multiple
processes serving the same dataset therefore share one physical copy of
the id arrays and string blob — the page cache is the only copy.

Ownership and lifetime: the :class:`~repro.core.BrowsingDataset` that
:func:`~repro.store.open_columnar` returns owns the maps.  Decoded
:class:`~repro.core.rankedlist.RankedList`\\ s hold *views* into
``lists.bin`` (their cached id arrays), and numpy keeps the underlying
mmap alive through the view's ``base`` reference, so a list outliving
its dataset stays valid; pages unmap only when the last view is
garbage-collected.  Nothing is ever written through a map — all maps
are opened read-only (``mode="r"``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.errors import DatasetError
from .format import (
    HEADER_SIZE,
    MAGIC_VOCAB,
    decode_names,
    encode_names,
    pack_header,
    read_header,
)


class MappedStringTable:
    """The packed vocabulary of ``vocab.bin``.

    Index == site id.  The names decode in one blob pass on first use
    and are checked then: non-empty, and unique — a repeated name would
    alias two ids, so every id check downstream (list uniqueness, the
    vocabulary) would silently disagree with the names.

    ``count`` is the number of names the manifest records.  Ingest grows
    ``vocab.bin`` under archived manifests (and a crashed ingest can
    leave an orphaned tail), so the table covers only that prefix of
    the file; ``None`` takes every name in the file.
    """

    __slots__ = ("path", "_offsets", "_blob", "_names")

    def __init__(self, path: str | Path, count: int | None = None) -> None:
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                stored = read_header(
                    handle.read(HEADER_SIZE), MAGIC_VOCAB, self.path
                )
        except FileNotFoundError:
            raise DatasetError(
                f"columnar dataset is missing its vocabulary file {self.path}"
            ) from None
        if count is None:
            count = stored
        elif not 0 <= count <= stored:
            raise DatasetError(
                f"{self.path}: short vocabulary file (the manifest records "
                f"{count} names, the file holds {stored})"
            )
        offsets_end = HEADER_SIZE + 8 * (stored + 1)
        size = self.path.stat().st_size
        if size < offsets_end:
            raise DatasetError(
                f"{self.path}: short vocabulary file ({size} bytes, "
                f"offsets need {offsets_end})"
            )
        self._offsets = np.memmap(
            self.path, dtype=np.int64, mode="r",
            offset=HEADER_SIZE, shape=(count + 1,),
        )
        blob_len = size - offsets_end
        self._blob = (
            np.memmap(self.path, dtype=np.uint8, mode="r",
                      offset=offsets_end, shape=(blob_len,))
            if blob_len else np.empty(0, dtype=np.uint8)
        )
        if count and int(self._offsets[-1]) > blob_len:
            raise DatasetError(
                f"{self.path}: short vocabulary blob "
                f"({blob_len} bytes, offsets promise {int(self._offsets[-1])})"
            )
        self._names: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def names(self) -> np.ndarray:
        """Every name in id order as an object array (decoded once)."""
        if self._names is None:
            offsets = memoryview(self._offsets)
            names = decode_names(self._blob[:offsets[-1]].tobytes(), offsets)
            # Sorted str hashes expose repeats without a set (MBs of RSS).
            hashes = np.sort(np.fromiter(map(hash, names), np.int64, len(names)))
            if (hashes[1:] == hashes[:-1]).any() or "" in names:
                self._reject(names)
            self._names = np.array(names, dtype=object)
        return self._names

    def extended(self, names: Sequence[str]) -> bytes:
        """This table with ``names`` appended: the bytes
        :func:`~repro.store.format.pack_string_table` writes for all of
        them, with the stored names copied as bytes, never decoded."""
        offsets, blob = encode_names(names)
        end = int(self._offsets[-1])
        return b"".join((
            pack_header(MAGIC_VOCAB, len(self) + len(names)),
            self._offsets.tobytes(), (offsets[1:] + end).tobytes(),
            self._blob[:end].tobytes(), blob,
        ))

    def _reject(self, names: tuple[str, ...]) -> None:
        """Raise for the first empty or repeated name (equal hashes of
        distinct names pass)."""
        first: dict[str, int] = {}
        for sid, name in enumerate(names):
            if not name:
                raise DatasetError(f"{self.path}: the site name of id {sid} is empty")
            if name in first:
                raise DatasetError(
                    f"{self.path}: site name {name!r} is stored twice "
                    f"(ids {first[name]} and {sid})"
                )
            first[name] = sid
