"""The unit of work of the reproduction pipeline.

A :class:`Task` wraps one paper analysis as a named node of the DAG:
its body is a pure function of the run context (dataset, reference
month, optional generator config) and the results of its declared
dependencies, and its return value must be JSON-serializable — that is
what the artifact store persists and what dependents receive.  Because
results are addressed by ``(dataset fingerprint, task name, parameter
hash)``, a task's identity is fully captured by its name plus
:meth:`Task.key`; two runs that agree on those are interchangeable.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import TaskContext

#: A task body: ``fn(ctx, inputs)`` where ``inputs`` maps each declared
#: dependency name to that dependency's (JSON-shaped) result.
TaskFn = Callable[["TaskContext", dict[str, object]], object]

#: Optional plain-text renderer for a task's result (tables/figures).
RenderFn = Callable[[object], str]

#: Optional extra cache-key material derived from the run context
#: (e.g. the generator-config fingerprint for ground-truth tasks).
ContextKeyFn = Callable[["TaskContext"], str]


def canonical_json(payload: object) -> str:
    """The one JSON serialization used for hashing and artifacts.

    Sorted keys and fixed separators make the bytes a pure function of
    the value, so every run of a task emits identical artifacts.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def params_hash(params: Mapping[str, object], extra: str = "") -> str:
    """A short stable digest of a task's parameters (+ context key)."""
    blob = canonical_json(dict(params)) + "\x00" + extra
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def result_digest(encoded: bytes) -> str:
    """A short digest of a task result's canonical JSON bytes.

    Folding each dependency's result digest into a dependent's key
    gives the DAG Merkle-style early cutoff: after an ingest, a task
    whose inputs (month, params, dependency *results*) are all
    unchanged keeps its warm artifact, even though the dataset grew.
    """
    return hashlib.sha256(encoded).hexdigest()[:16]


class TaskStatus(enum.Enum):
    """Terminal state of one task within one pipeline run."""

    OK = "ok"                # executed this run
    CACHED = "cached"        # served from the artifact store
    FAILED = "failed"        # body raised; error recorded
    SKIPPED = "skipped"      # unavailable, or a dependency failed/skipped


@dataclass(frozen=True)
class Task:
    """One named analysis node; see the module docstring."""

    name: str
    fn: TaskFn
    deps: tuple[str, ...] = ()
    params: Mapping[str, object] = field(default_factory=dict)
    section: str = ""                      # paper section / figure family
    title: str = ""                        # human heading for reports
    render: RenderFn | None = None
    context_key: ContextKeyFn | None = None
    #: What slice of the dataset the body reads: ``"month"`` (only the
    #: reference month's lists — the default) or ``"all-months"`` (the
    #: whole month axis, e.g. the temporal sweep, or the dataset-wide
    #: site union the ground-truth tasks restrict to).  Drives delta
    #: invalidation: ingesting a new month changes the keys of
    #: all-months tasks and leaves month-pinned tasks warm.
    reads: str = "month"

    def key(
        self,
        ctx: "TaskContext",
        dep_digests: Mapping[str, str] | None = None,
    ) -> str:
        """The parameter half of this task's artifact address.

        Always folds in the reference month (the same saved dataset can
        be analysed at different months); tasks that consult the
        synthetic ground truth also fold in the generator-config
        fingerprint via ``context_key``; tasks reading ``"all-months"``
        fold in the dataset's month set; and when the runner supplies
        its dependencies' result digests those are folded in too, so a
        task re-runs exactly when something it actually reads changed.
        """
        extra = str(ctx.month)
        if self.reads == "all-months":
            extra += "|months:" + ctx.months_key()
        if self.context_key is not None:
            extra += "|" + self.context_key(ctx)
        if dep_digests:
            extra += "|deps:" + ",".join(
                f"{d}={dep_digests[d]}"
                for d in self.deps if d in dep_digests
            )
        return params_hash(self.params, extra)

    @property
    def heading(self) -> str:
        label = self.title or self.name
        return f"{label} ({self.section})" if self.section else label


@dataclass
class TaskRecord:
    """What one pipeline run recorded about one task."""

    name: str
    status: TaskStatus
    seconds: float = 0.0
    error: str | None = None
    key: str = ""
    digest: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "status": self.status.value,
            "seconds": round(self.seconds, 6),
            "error": self.error,
            "key": self.key,
            "digest": self.digest,
        }
