"""repro.api — the stable top-level facade.

Seven verbs cover the library's lifecycle, re-exported from
``repro/__init__.py`` so no consumer needs a deep import:

* :func:`generate` — build a dataset (optionally saved to disk in
  either storage format);
* :func:`load` — read a saved dataset back (format read off its files; a
  columnar directory opens memory-mapped in O(open)); ``as_of=``
  opens an earlier dataset version through its archived manifest;
* :func:`ingest` — append new months to a saved dataset in place,
  bumping its dataset version and archiving the previous manifest;
* :func:`convert` — re-encode a saved dataset between the text and
  columnar codecs, byte-identically;
* :func:`analyze` — run one pipeline task and return its result;
* :func:`report` — run the full analysis DAG into a run directory;
* :func:`serve` — stand up the HTTP serving layer over a dataset.

Dataset-versioned verbs (:func:`load`, :func:`analyze`, :func:`report`,
:func:`serve`) take a keyword-only ``as_of=<version>`` selecting which
dataset version to read (default: latest).  The handle :func:`load`
returns exposes ``.version``, ``.months`` and ``.fingerprint``, so
callers can record exactly what they analysed.

Every function accepts plain strings where an enum or value type would
otherwise be required (``platforms=("windows",)``,
``months=("2022-02",)``), coercing through the same value types the
deep APIs use, and every dataset-accepting function takes
``BrowsingDataset | str | Path`` interchangeably.  The CLI's ``_cmd_*``
handlers are thin wrappers over these functions — the shell and Python
surfaces cannot drift apart.

This module imports lazily: ``import repro`` stays cheap, and heavy
subsystems (the generator universe, the analysis catalogue) load only
when the corresponding verb is first used.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .core.types import Metric, Month, Platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.dataset import BrowsingDataset
    from .pipeline.artifacts import ArtifactStore
    from .pipeline.runner import RunReport
    from .service.http import ReproHTTPServer
    from .synth.generator import GeneratorConfig

#: What every dataset-accepting facade function takes.
DatasetLike = "BrowsingDataset | str | Path"


def _months(values: Iterable["Month | str"] | None) -> tuple[Month, ...] | None:
    if values is None:
        return None
    return tuple(
        Month.parse(v) if isinstance(v, str) else v for v in values
    )


def _platforms(
    values: Iterable["Platform | str"] | None,
) -> tuple[Platform, ...] | None:
    if values is None:
        return None
    return tuple(Platform(v) if isinstance(v, str) else v for v in values)


def _metrics(values: Iterable["Metric | str"] | None) -> tuple[Metric, ...] | None:
    if values is None:
        return None
    return tuple(Metric(v) if isinstance(v, str) else v for v in values)


def load(
    data: "DatasetLike",
    *,
    as_of: int | None = None,
) -> "BrowsingDataset":
    """A :class:`BrowsingDataset` from a saved directory (or passthrough).

    The format is read off the files present: a columnar
    directory comes back as a memory-mapped
    :class:`~repro.store.MappedBrowsingDataset` whose lists materialise
    lazily, a text directory as the eager container.  ``as_of=<version>``
    opens that archived dataset version instead of the latest (raising
    :class:`~repro.export.io.UnknownVersionError` with the available
    versions if it does not exist).  The returned handle carries
    ``.version``, ``.months`` and ``.fingerprint``.
    """
    from .core.dataset import BrowsingDataset

    if isinstance(data, BrowsingDataset):
        if as_of is not None and int(as_of) != int(data.version):
            raise ValueError(
                f"as_of={as_of} cannot re-open an in-memory dataset "
                f"(its version is {data.version}); pass the saved "
                "dataset path instead"
            )
        return data
    from .export.io import load_dataset

    return load_dataset(data, as_of=as_of)


def ingest(
    data: str | Path,
    months: Iterable["Month | str"],
    *,
    config: "GeneratorConfig | None" = None,
    small: bool = False,
    seed: int | None = None,
    trace: str | Path | None = None,
):
    """Append ``months`` to the saved dataset at ``data``, in place.

    Generates only the missing month slices (through the same
    :class:`~repro.engine.GenerationEngine` as :func:`generate`, so the
    grown dataset is byte-identical to one generated with all months up
    front), archives the previous manifest under ``versions/`` and bumps
    the dataset version.  Months already present are skipped; if nothing
    is missing the dataset is untouched — a byte-identical no-op.
    Returns an :class:`~repro.store.IngestReport` (``.version_before``,
    ``.version``, ``.months_added``, ``.changed``).  ``trace`` writes a
    JSONL span trace of the run (see :mod:`repro.obs`).
    """
    from .obs import tracing
    from .store.ingest import ingest_months

    with tracing(trace):
        return ingest_months(
            data,
            months,
            config=config,
            small=small,
            seed=seed,
        )


def convert(
    src: str | Path, dst: str | Path, *, format: str = "columnar"
) -> Path:
    """Re-encode the saved dataset at ``src`` into ``dst``.

    Conversion is lossless and exact: text → columnar → text files are
    byte-identical, and :func:`repro.export.io.dataset_fingerprint` is
    unchanged, so warm artifact stores keyed by the fingerprint remain
    valid for the converted copy.
    """
    from .export.io import convert_dataset

    return convert_dataset(src, dst, format=format)


def generate(
    *,
    small: bool = False,
    seed: int = 2022,
    config: "GeneratorConfig | None" = None,
    countries: Iterable[str] | None = None,
    platforms: Iterable["Platform | str"] | None = None,
    metrics: Iterable["Metric | str"] | None = None,
    months: Iterable["Month | str"] | None = None,
    all_months: bool = False,
    out: str | Path | None = None,
    format: str = "text",
    trace: str | Path | None = None,
) -> "BrowsingDataset":
    """Build a synthetic dataset through the generation engine.

    ``config`` overrides ``small``/``seed``; ``months`` beats
    ``all_months``; ``out`` saves the dataset before returning it,
    encoded by ``format`` (``"text"`` or ``"columnar"``); ``trace``
    writes a JSONL span trace of the run (see :mod:`repro.obs`).
    Generation runs in the calling process.
    """
    from .core.types import REFERENCE_MONTH, STUDY_MONTHS
    from .engine.engine import GenerationEngine
    from .obs import tracing
    from .synth.generator import GeneratorConfig

    if config is None:
        config = (GeneratorConfig.small(seed=seed) if small
                  else GeneratorConfig(seed=seed))
    resolved_months = _months(months) or (
        STUDY_MONTHS if all_months else (REFERENCE_MONTH,)
    )
    grid = {
        "countries": tuple(countries) if countries else None,
        "platforms": _platforms(platforms) or Platform.studied(),
        "metrics": _metrics(metrics) or Metric.studied(),
        "months": resolved_months,
    }
    if out is not None:
        from .export.io import refuse_dataset_at, save_dataset

        refuse_dataset_at(out)  # before the generation it would discard
    engine = GenerationEngine(config)
    with tracing(trace):
        dataset = engine.generate(**grid)
        if out is not None:
            save_dataset(dataset, out, format=format)
    return dataset


def _context_config(
    dataset: "BrowsingDataset",
    config: "GeneratorConfig | None",
    small: bool,
    seed: int | None,
) -> "GeneratorConfig":
    if config is not None:
        return config
    from .pipeline.context import infer_config

    return infer_config(dataset, small=small, seed=seed)


def analyze(
    data: "DatasetLike",
    task: str,
    *,
    store: "ArtifactStore | str | Path | None" = None,
    config: "GeneratorConfig | None" = None,
    month: "Month | str | None" = None,
    small: bool = False,
    seed: int | None = None,
    as_of: int | None = None,
) -> object:
    """Run one registered pipeline task and return its (JSON-shaped) result.

    Dependencies are resolved and cached through the same
    :class:`~repro.pipeline.PipelineRunner` the full report uses.
    ``as_of=<version>`` analyses that archived dataset version instead
    of the latest.  Raises
    :class:`~repro.core.errors.PipelineError` if the task body
    failed and :class:`~repro.core.errors.TaskUnavailable` if this
    dataset cannot support it.
    """
    from .core.errors import PipelineError, TaskUnavailable
    from .pipeline import TaskStatus, run_pipeline

    dataset = load(data, as_of=as_of)
    report = run_pipeline(
        dataset,
        [task],
        store=store,
        config=_context_config(dataset, config, small, seed),
        month=Month.parse(month) if isinstance(month, str) else month,
    )
    record = report.records[task]
    if record.status is TaskStatus.FAILED:
        raise PipelineError(record.error or f"task {task!r} failed")
    if record.status is TaskStatus.SKIPPED:
        raise TaskUnavailable(record.error or f"task {task!r} unavailable")
    return report.results[task]


def report(
    data: "DatasetLike",
    out: str | Path,
    *,
    tasks: Iterable[str] | None = None,
    store: "ArtifactStore | str | Path | None" = None,
    no_store: bool = False,
    config: "GeneratorConfig | None" = None,
    month: "Month | str | None" = None,
    small: bool = False,
    seed: int | None = None,
    as_of: int | None = None,
    trace: str | Path | None = None,
) -> "RunReport":
    """Run the analysis DAG into a run directory; returns the run report.

    The artifact store defaults to ``<data>/.artifacts`` when ``data``
    is a saved-dataset path (so identical reruns execute zero tasks);
    pass ``no_store=True`` to recompute everything.  ``as_of=<version>``
    reports over that archived dataset version instead of the latest.
    ``trace`` writes a JSONL span trace covering dataset load (incl.
    every slice decode of a columnar dataset) and every pipeline task.
    """
    from .obs import tracing
    from .pipeline import default_registry, run_pipeline, write_run_dir

    with tracing(trace):
        dataset = load(data, as_of=as_of)
        if no_store:
            store = None
        elif store is None and isinstance(data, (str, Path)):
            store = Path(data) / ".artifacts"
        run = run_pipeline(
            dataset,
            list(tasks) if tasks is not None else None,
            store=store,
            config=_context_config(dataset, config, small, seed),
            month=Month.parse(month) if isinstance(month, str) else month,
        )
        write_run_dir(out, default_registry(), run)
    return run


def serve(
    data: "DatasetLike",
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 1,
    store: "ArtifactStore | str | Path | None" = None,
    no_store: bool = False,
    cache_size: int = 256,
    cache_bytes: int | None = None,
    config: "GeneratorConfig | None" = None,
    month: "Month | str | None" = None,
    small: bool = False,
    seed: int | None = None,
    as_of: int | None = None,
    block: bool = True,
    trace: str | Path | None = None,
):
    """Serve a dataset over the JSON HTTP API (see :mod:`repro.service`).

    ``as_of=<version>`` pins the whole server to one archived dataset
    version; by default it serves the latest version and follows the
    live manifest (an ``ingest`` into the same directory is picked up
    on the next request, and clients can still query older versions per
    request with ``?as_of=``).

    Every worker count serves through one
    :class:`~repro.service.spec.ServeSpec` built from these arguments,
    the same handler and the same drain on SIGTERM/SIGINT.  With
    ``block=True`` (the default) this serves until stopped and returns
    ``None``.  With ``block=False`` it returns the bound
    :class:`~repro.service.ReproHTTPServer` (``.url``, ``.service``) —
    pass it to :func:`repro.service.serve_forever`, or call its
    ``serve_forever()`` on a thread and ``shutdown()`` /
    ``server_close()`` yourself; ``port=0`` picks a free port.

    ``workers > 1`` switches to the pre-forked fleet (see
    :mod:`repro.fleet`): N processes share the listening socket and one
    mmap'd dataset, each worker renders every request it accepts, and
    ``/v1/metrics`` reports the merged view.  ``block=False`` then
    returns the started :class:`~repro.fleet.FleetSupervisor`
    (``.url``, ``.wait()``, ``.stop()``).

    Like :func:`report`, the artifact store defaults to
    ``<data>/.artifacts`` for saved-dataset paths, so analyses whose
    artifacts exist are served without recomputation.  ``trace``
    installs a tracer for the server's lifetime (one ``http.<endpoint>``
    span per request).  A single process writes the JSONL file when
    :func:`repro.service.serve_forever` returns — embedders who drive
    ``server.serve_forever()`` directly should close
    ``server.trace_scope`` themselves; each fleet worker writes its own
    file, ``trace`` with ``.w<index>`` before the suffix, when it
    drains.
    """
    from .service.spec import ServeSpec

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    spec = ServeSpec(
        data=data,
        store=store,
        no_store=no_store,
        cache_size=cache_size,
        cache_bytes=cache_bytes,
        config=config,
        month=month,
        small=small,
        seed=seed,
        as_of=as_of,
        trace=trace,
    )
    if workers > 1:
        from .fleet import FleetSupervisor

        supervisor = FleetSupervisor(spec, host, port, workers)
        if not block:
            return supervisor.start()
        supervisor.run()
        return None
    from .obs import tracing
    from .service.http import create_server, serve_forever
    from .service.spec import build_service

    scope = tracing(trace)
    scope.__enter__()
    try:
        server = create_server(build_service(spec), host=host, port=port)
    except BaseException:
        scope.__exit__(None, None, None)
        raise
    server.trace_scope = scope if trace is not None else None
    server.drain_timeout = spec.drain_timeout
    if not block:
        return server
    serve_forever(server)
    return None


__all__ = [
    "analyze", "convert", "generate", "ingest", "load", "report", "serve",
]
