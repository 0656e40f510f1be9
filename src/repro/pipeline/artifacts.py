"""Content-addressed on-disk store of analysis artifacts.

Layout::

    <root>/<dataset-fingerprint>/<task>__<key>.json

The directory is the dataset fingerprint (the generator fingerprint
recorded in the manifest, or a content hash for unprovenanced datasets)
and the file name combines the task name with :meth:`Task.key` — a digest of the
task's parameters, the reference month and, for ground-truth tasks,
the generator-config fingerprint.  A hit is therefore guaranteed to be
the value the task body would recompute, and changing any knob starts
a new cache line instead of serving stale results.

Artifacts are canonical JSON (sorted keys, fixed separators), so a
file is a pure function of its address — any two runs write
byte-identical artifacts — and stays greppable/diffable with
standard tools.  Writes go through the datasets' crash-safe
:func:`~repro.export.io.atomic_write` (tmp file + rename), so a crash
never leaves a torn artifact under its final name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from ..export.io import atomic_write
from .task import canonical_json, result_digest

#: Bump when the envelope layout changes; old artifacts become misses.
_ARTIFACT_VERSION = 1


class Artifact(NamedTuple):
    """One task result, its digest and its exact stored bytes."""

    result: object
    digest: str
    data: bytes


def _envelope(name: str, key: str) -> tuple[bytes, bytes]:
    """The bytes before and after the result in ``name``/``key``'s file.

    The envelope's canonical key order is ``key``, ``result``, ``task``,
    ``version``, so the result's canonical JSON is an exact substring
    of the envelope's: one encoding gives the digest and the file.
    """
    head = '{"key":' + canonical_json(key) + ',"result":'
    tail = f',"task":{canonical_json(name)},"version":{_ARTIFACT_VERSION}}}\n'
    return head.encode("utf-8"), tail.encode("utf-8")


def encode_artifact(name: str, key: str, result: object) -> Artifact:
    """``result`` encoded once: its digest and its stored bytes."""
    encoded = canonical_json(result).encode("utf-8")
    head, tail = _envelope(name, key)
    return Artifact(result, result_digest(encoded), head + encoded + tail)


def decode_artifact(name: str, key: str, data: bytes) -> Artifact:
    """The artifact stored as ``data``, with no re-encoding.

    Raises ``ValueError`` unless ``data`` is ``name``/``key``'s
    envelope around a JSON result.
    """
    head, tail = _envelope(name, key)
    if not (data.startswith(head) and data.endswith(tail)):
        raise ValueError(f"not the artifact of {name}/{key}")
    encoded = data[len(head):len(data) - len(tail)]
    return Artifact(json.loads(encoded), result_digest(encoded), data)


@dataclass
class CacheStats:
    """Counters for one store instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def __str__(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.writes} writes"


class ArtifactStore:
    """A content-addressed artifact store under a configurable root."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def dir_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint

    def path_for(self, fingerprint: str, name: str, key: str) -> Path:
        return self.dir_for(fingerprint) / f"{name}__{key}.json"

    def get(self, fingerprint: str, name: str, key: str) -> Artifact | None:
        """The stored artifact, or ``None`` on a miss.

        Unreadable or malformed files (torn writes, foreign formats,
        another address's envelope) count as misses — the task simply
        recomputes and overwrites.
        """
        path = self.path_for(fingerprint, name, key)
        try:
            artifact = decode_artifact(name, key, path.read_bytes())
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return artifact

    def put(self, fingerprint: str, name: str, key: str, data: bytes) -> Path:
        """Store one artifact's bytes; the write is atomic (tmp + rename)."""
        path = self.path_for(fingerprint, name, key)
        atomic_write(path, data)
        self.stats.writes += 1
        return path

    def __contains__(self, address: tuple[str, str, str]) -> bool:
        fingerprint, name, key = address
        return self.path_for(fingerprint, name, key).is_file()

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r}, {self.stats})"
