"""The plan/execute generation engine (see DESIGN.md, "Generation engine").

Three layers on top of :mod:`repro.synth`:

* **Planning** — :class:`SlicePlan` / :class:`SliceRequest` enumerate and
  dedupe requested breakdowns and partition them into per-country
  :class:`CountryWorkUnit`\\ s (country is the natural shard key: country
  state and month walks are shared within a country).
* **Execution** — the in-process :class:`SerialExecutor` and the
  process-pool :class:`ParallelExecutor`, both required to produce
  byte-identical output for the same config.
* **Caching** — :class:`SliceCache`, a content-addressed on-disk store
  keyed by ``GeneratorConfig.fingerprint()`` + breakdown slug; warm hits
  skip scoring *and* the universe build.

:class:`GenerationEngine` composes the three;
:class:`LazyBrowsingDataset` defers slice generation until first read.
"""

from .cache import CacheStats, SliceCache
from .engine import GenerationEngine
from .executor import ParallelExecutor, SerialExecutor, generator_for
from .lazy import LazyBrowsingDataset
from .plan import CountryWorkUnit, SlicePlan, SliceRequest

__all__ = [
    "CacheStats",
    "CountryWorkUnit",
    "GenerationEngine",
    "LazyBrowsingDataset",
    "ParallelExecutor",
    "SerialExecutor",
    "SliceCache",
    "SlicePlan",
    "SliceRequest",
    "generator_for",
]
