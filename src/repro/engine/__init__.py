"""The plan/execute generation engine (see DESIGN.md, "Generation engine").

Two layers on top of :mod:`repro.synth`:

* **Planning** — :class:`SlicePlan` / :class:`SliceRequest` enumerate and
  dedupe requested breakdowns and partition them into per-country
  :class:`CountryWorkUnit`\\ s (country is the natural shard key: country
  state and month walks are shared within a country).
* **Execution** — :class:`GenerationEngine` scores each work unit in
  the calling process, in one batched matrix pass per country.

Generated lists persist only as a saved dataset
(:func:`repro.export.io.save_dataset`).
"""

from .engine import GenerationEngine, generator_for
from .plan import CountryWorkUnit, SlicePlan, SliceRequest

__all__ = [
    "CountryWorkUnit",
    "GenerationEngine",
    "SlicePlan",
    "SliceRequest",
    "generator_for",
]
