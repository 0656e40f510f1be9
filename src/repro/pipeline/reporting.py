"""Render a pipeline run into a browsable run directory.

Layout::

    <out>/run.json               run summary (statuses, timings, counts)
    <out>/artifacts/<task>.json  one canonical-JSON artifact per task
    <out>/tables/<task>.txt      rendered table/figure for renderable tasks
    <out>/REPORT.txt             all rendered sections, in DAG order

Artifacts are the run report's stored bytes (encoded once per run,
or read back from the store), so a run directory's ``artifacts/``
files are byte-identical to the artifact store's — ``diff -r`` between
a run dir and the cache is empty, and between a cold and a warm run
dir only ``run.json`` differs.
"""

from __future__ import annotations

from pathlib import Path

from .registry import TaskRegistry
from .runner import RunReport
from .task import TaskStatus


def render_task(registry: TaskRegistry, report: RunReport, name: str) -> str | None:
    """The rendered table for one completed task, or ``None``."""
    task = registry.get(name)
    if task.render is None or name not in report.results:
        return None
    return task.render(report.results[name])


def write_run_dir(
    out: str | Path,
    registry: TaskRegistry,
    report: RunReport,
) -> Path:
    """Materialise ``report`` under ``out``; returns the run directory."""
    root = Path(out)
    artifacts = root / "artifacts"
    tables = root / "tables"
    artifacts.mkdir(parents=True, exist_ok=True)
    tables.mkdir(parents=True, exist_ok=True)

    sections: list[str] = []
    for name in report.order:
        record = report.records[name]
        if name in report.artifacts:
            (artifacts / f"{name}.json").write_bytes(report.artifacts[name])
        rendered = render_task(registry, report, name)
        if rendered is not None:
            (tables / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
            sections.append(f"== {registry.get(name).heading} ==\n\n{rendered}")
        elif record.status in (TaskStatus.FAILED, TaskStatus.SKIPPED):
            sections.append(
                f"== {registry.get(name).heading} ==\n\n"
                f"[{record.status.value}] {record.error or ''}".rstrip()
            )

    (root / "REPORT.txt").write_text(
        "\n\n".join(sections) + "\n", encoding="utf-8"
    )
    (root / "run.json").write_text(
        _summary_json(report) + "\n", encoding="utf-8"
    )
    return root


def _summary_json(report: RunReport) -> str:
    from .task import canonical_json

    return canonical_json(report.to_dict())
