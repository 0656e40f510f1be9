"""repro.pipeline — DAG-orchestrated paper reproduction.

The pipeline turns the analysis catalogue into an executable artifact:
every :mod:`repro.analysis` entry point is registered as a named
:class:`Task` with declared inputs, the :class:`PipelineRunner` walks
the dependency DAG in deterministic topological order, one task at a
time in the calling thread, and every result lands in a
content-addressed :class:`ArtifactStore` keyed by (dataset
fingerprint, task name, parameter hash).  A warm store replays the
full report with zero task executions.

Quick start::

    from repro.export import load_dataset
    from repro.pipeline import run_pipeline

    report = run_pipeline(load_dataset("out/feb"),
                          store="out/feb/.artifacts")
    report.results["concentration"]["series"][0]["top1"]

or, from the shell::

    repro report --data out/feb --out runs/feb
"""

from .artifacts import ArtifactStore, encode_artifact
from .context import TaskContext, infer_config
from .registry import TaskRegistry
from .reporting import render_task, write_run_dir
from .runner import PipelineRunner, RunReport, run_pipeline
from .task import Task, TaskRecord, TaskStatus, canonical_json, params_hash
from .tasks import default_registry

__all__ = [
    "ArtifactStore",
    "PipelineRunner",
    "RunReport",
    "Task",
    "TaskContext",
    "TaskRecord",
    "TaskRegistry",
    "TaskStatus",
    "canonical_json",
    "default_registry",
    "encode_artifact",
    "infer_config",
    "params_hash",
    "render_task",
    "run_pipeline",
    "write_run_dir",
]
