"""The plan/execute generation engine (see DESIGN.md, "Generation engine").

Two layers on top of :mod:`repro.synth`:

* **Planning** — :class:`SlicePlan` / :class:`SliceRequest` enumerate and
  dedupe requested breakdowns and partition them into per-country
  :class:`CountryWorkUnit`\\ s (country is the natural shard key: country
  state and month walks are shared within a country).
* **Execution** — the in-process :class:`SerialExecutor` and the
  process-pool :class:`ParallelExecutor`, both required to produce
  byte-identical output for the same config.

:class:`GenerationEngine` composes the two.  Generated lists persist
only as a saved dataset (:func:`repro.export.io.save_dataset`).
"""

from .engine import GenerationEngine
from .executor import ParallelExecutor, SerialExecutor, generator_for
from .plan import CountryWorkUnit, SlicePlan, SliceRequest

__all__ = [
    "CountryWorkUnit",
    "GenerationEngine",
    "ParallelExecutor",
    "SerialExecutor",
    "SlicePlan",
    "SliceRequest",
    "generator_for",
]
