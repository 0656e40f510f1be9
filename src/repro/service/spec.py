"""The serving spec: everything that builds one :class:`QueryService`.

:func:`repro.api.serve` builds one frozen :class:`ServeSpec` per server
and passes it whole — to :func:`build_service` for a single process,
and to :class:`~repro.fleet.FleetSupervisor`, which forks it into every
worker, for more.  One spec is what keeps the two runtimes from
drifting: every worker count reads the same options from the same
place.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dataset import BrowsingDataset
    from ..core.types import Month
    from ..pipeline.artifacts import ArtifactStore
    from ..synth.generator import GeneratorConfig
    from .query import QueryService


@dataclass(frozen=True)
class ServeSpec:
    """How to build one server's service, and how that server behaves.

    ``data`` is a saved-dataset path (or, single-process only, an
    in-memory :class:`~repro.core.dataset.BrowsingDataset`).  The
    artifact store defaults to ``<data>/.artifacts`` for a path unless
    ``no_store``; ``as_of`` pins the service to one dataset version.
    ``drain_timeout`` bounds how long a stopping server waits for its
    in-flight requests.  ``trace`` is where a server writes its JSONL
    span trace when it drains; a fleet worker writes its own file next
    to it (:func:`repro.fleet.worker.worker_trace_path`).
    """

    data: "str | Path | BrowsingDataset"
    store: "ArtifactStore | str | Path | None" = None
    no_store: bool = False
    cache_size: int = 256
    cache_bytes: int | None = None
    config: "GeneratorConfig | None" = None
    month: "Month | str | None" = None
    small: bool = False
    seed: int | None = None
    as_of: int | None = None
    trace: "str | Path | None" = None
    drain_timeout: float = 10.0


def build_service(spec: ServeSpec) -> "QueryService":
    """The :class:`QueryService` a server built from ``spec`` answers with.

    A fleet worker calls this *after* forking, so a columnar dataset
    mmaps in the worker and the page cache is the one shared copy.  The
    default (latest) service follows the live manifest and picks up
    ingests without a restart.
    """
    from ..api import _context_config, load
    from ..core.types import Month
    from .query import QueryService

    dataset = load(spec.data, as_of=spec.as_of)
    on_disk = isinstance(spec.data, (str, Path))
    store = spec.store
    if spec.no_store:
        store = None
    elif store is None and on_disk:
        store = Path(spec.data) / ".artifacts"
    month = spec.month
    if isinstance(month, str):
        month = Month.parse(month)
    return QueryService(
        dataset,
        store=store,
        config=_context_config(dataset, spec.config, spec.small, spec.seed),
        month=month,
        cache=spec.cache_size,
        cache_bytes=spec.cache_bytes,
        version=int(spec.as_of) if spec.as_of is not None else None,
    )
