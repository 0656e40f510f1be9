"""Run one ``repro`` CLI command with layer spans, for the traced run.

Usage::

    python perfbench/launch.py OUT.json trace|plain -- <repro CLI args>

``trace`` installs the program's own :mod:`repro.obs` tracer for the
whole process and wraps the layer entry points listed in
:data:`ENTRY_POINTS` in ``bench.*`` spans, so every layer's time is
attributed even where the program records no span of its own.
``plain`` leaves tracing off (fleet workers cannot trace) and only
records the import time and, for ``serve --workers N``, each worker's
exit code at teardown.

Spans stay in memory; at exit the launcher writes one JSON document
to ``OUT.json``: the import time, the wall time of the command itself
(``main_s``, imports excluded), its exit code and every span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: (module, attribute path, span name) of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.synth.universe", "_build_universe_uncached", "bench.build_universe"),
    ("repro.engine.engine", "GenerationEngine.run", "bench.engine.generate"),
    ("repro.export.io", "save_dataset", "bench.save_dataset"),
    ("repro.export.io", "load_dataset", "bench.load_dataset"),
    ("repro.store.ingest", "ingest_months", "bench.ingest_months"),
    ("repro.pipeline.runner", "PipelineRunner.run", "bench.run_pipeline"),
    ("repro.service.query", "QueryService.rankings", "bench.service.rankings"),
    ("repro.service.query", "QueryService.site", "bench.service.site"),
    ("repro.service.query", "QueryService.distribution",
     "bench.service.distribution"),
    ("repro.service.query", "QueryService.analysis", "bench.service.analysis"),
    ("repro.service.query", "QueryService.analyses",
     "bench.service.analyses"),
)


def _wrap(fn, name: str):
    from repro.obs import get_tracer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with get_tracer().span(name) as span:
            result = fn(*args, **kwargs)
            if name == "bench.engine.generate":
                span.set("slices", len(result))
            return result

    return wrapper


def install_spans() -> None:
    """Wrap every entry point in a ``bench.*`` span (module attributes
    are looked up at call time by their callers, so patching the
    defining module reaches every caller)."""
    import importlib

    for module_name, attr_path, span_name in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attr, _wrap(getattr(owner, attr), span_name))


def record_fleet_exits(into: dict) -> None:
    """Record each fleet worker's exit code when the supervisor stops."""
    from repro.fleet.supervisor import FleetSupervisor

    stop = FleetSupervisor.stop

    def recording_stop(self):
        stop(self)
        into["worker_exit_codes"] = [
            proc.exitcode for proc in self._procs if proc is not None
        ]

    FleetSupervisor.stop = recording_stop


def main(argv: list[str]) -> int:
    out, mode, sep, *command = argv
    if sep != "--" or mode not in ("trace", "plain"):
        print(__doc__, file=sys.stderr)
        return 2
    import repro.api  # noqa: F401 - counted as import time
    import repro.cli
    from repro import obs

    report: dict[str, object] = {
        "argv": command, "import_s": time.perf_counter() - _T0,
    }
    tracer = None
    if mode == "trace":
        tracer = obs.Tracer()
        obs.set_tracer(tracer)
        install_spans()
    record_fleet_exits(report)
    start = time.perf_counter()
    report["main_ts"] = time.time()
    rc = 1
    try:
        rc = repro.cli.main(command)
    finally:
        report["main_s"] = time.perf_counter() - start
        report["rc"] = rc
        report["spans"] = tracer.collector.snapshot() if tracer else []
        Path(out).write_text(json.dumps(report), encoding="utf-8")
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
