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
file is a pure function of its address — parallel and serial runs
write byte-identical artifacts — and stays greppable/diffable with
standard tools.  Writes are atomic (tmp file + rename), so a crash
never leaves a torn artifact under its final name.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .task import canonical_json

#: Bump when the envelope layout changes; old artifacts become misses.
_ARTIFACT_VERSION = 1


def artifact_bytes(name: str, key: str, result: object) -> bytes:
    """The exact bytes stored for one artifact (shared with run dirs)."""
    envelope = {
        "version": _ARTIFACT_VERSION,
        "task": name,
        "key": key,
        "result": result,
    }
    return (canonical_json(envelope) + "\n").encode("utf-8")


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

    def get(self, fingerprint: str, name: str, key: str) -> object | None:
        """The stored result, or ``None`` on a miss.

        Unreadable or malformed files (torn writes, foreign formats)
        count as misses — the task simply recomputes and overwrites.
        """
        path = self.path_for(fingerprint, name, key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != _ARTIFACT_VERSION
            or payload.get("task") != name
            or payload.get("key") != key
            or "result" not in payload
        ):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload["result"]

    def put(self, fingerprint: str, name: str, key: str, result: object) -> Path:
        """Store one artifact; the write is atomic (tmp file + rename)."""
        path = self.path_for(fingerprint, name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(artifact_bytes(name, key, result))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    def __contains__(self, address: tuple[str, str, str]) -> bool:
        fingerprint, name, key = address
        return self.path_for(fingerprint, name, key).is_file()

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r}, {self.stats})"
