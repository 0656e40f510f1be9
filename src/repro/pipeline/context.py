"""Run context shared by every task in one pipeline run.

The context carries what tasks may not compute for themselves: the
loaded dataset, the reference month (default: the dataset's last
month), and — optionally — the :class:`GeneratorConfig` matching the
dataset.  Ground-truth tasks (labels, tags, app roster) read each
site's facts from the universe the dataset carries (``universe.bin``),
through the dataset's uid column; the config addresses their artifacts
and names the universe to restore.
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING, Mapping

from ..core.dataset import BrowsingDataset
from ..core.errors import TaskUnavailable
from ..core.types import Metric, Month, Platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.weighting import CategoryCodes
    from ..synth.generator import GeneratorConfig
    from ..synth.universe import SiteFacts


class TaskContext:
    """Immutable-by-convention inputs shared across one run's tasks."""

    def __init__(
        self,
        dataset: BrowsingDataset,
        *,
        config: "GeneratorConfig | None" = None,
        month: Month | None = None,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.month = month or dataset.months[-1]
        self._fingerprint: str | None = None
        self._codes: "CategoryCodes | None" = None
        self._facts: "SiteFacts | None" = None
        self._lock = threading.Lock()

    # -- identity -----------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """The dataset half of every artifact address.

        Engine-provenanced datasets answer from their recorded metadata
        fingerprint, and memory-mapped columnar datasets from the
        fingerprint in their binary manifest — neither path hashes a
        single list, so addressing a warm artifact store stays O(1)
        even against a cold mmap.
        """
        if self._fingerprint is None:
            from ..export.io import dataset_fingerprint

            self._fingerprint = dataset_fingerprint(self.dataset)
        return self._fingerprint

    def months_key(self) -> str:
        """A short digest of the dataset's month set.

        Folded into the cache keys of ``reads="all-months"`` tasks, so
        an ingested month invalidates exactly the tasks that sweep the
        month axis (or the dataset-wide site union) and no others.
        """
        blob = "|".join(str(m) for m in self.dataset.months)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    def config_fingerprint(self) -> str:
        """Content address of the generator config (ground-truth tasks)."""
        if self.config is None:
            raise TaskUnavailable(
                "no generator config for this dataset; pass --small/--seed "
                "matching the configuration that generated it"
            )
        return self.config.fingerprint()

    # -- dataset conveniences -----------------------------------------------------

    def site_facts(self) -> "SiteFacts":
        """Each universe site's category, tags and app flag (memoised).

        An engine dataset holds its universe; a saved one carries it as
        ``universe.bin``, read here in one ``synth.universe_load`` span
        and never built.  A missing file, another config's, or a
        truncated or corrupt one raises :class:`TaskUnavailable` naming
        the file and ``repro ingest``, which rewrites it.
        """
        from ..export.io import UNIVERSE_FILE
        from ..synth.universe import SiteFacts, load_site_facts

        with self._lock:
            if self._facts is None:
                if self.dataset.universe is not None:
                    facts = SiteFacts.of(self.dataset.universe)
                elif self.dataset.root is None:
                    raise TaskUnavailable("the dataset carries no universe")
                else:
                    path = self.dataset.root / UNIVERSE_FILE
                    self.config_fingerprint()  # raises without a config
                    facts = load_site_facts(path, self.config.resolved_universe())
                    if facts is None:
                        raise TaskUnavailable(
                            f"{path} is missing, damaged or of another "
                            "config; `repro ingest` a month to rewrite it"
                        )
                self._facts = facts
            return self._facts

    def category_codes(self, labels: Mapping[str, str]) -> "CategoryCodes":
        """The ``labels`` artifact coded over the dataset's vocabulary.

        Built on first use and shared by every task of the run that
        receives the same artifact (composition, prevalence, platforms).
        """
        from ..analysis.weighting import CategoryCodes

        with self._lock:
            if self._codes is None or self._codes.labels is not labels:
                self._codes = CategoryCodes(labels, self.dataset.vocabulary())
            return self._codes

    @property
    def primary_platform(self) -> Platform:
        """Windows when present (the paper's headline platform)."""
        if Platform.WINDOWS in self.dataset.platforms:
            return Platform.WINDOWS
        return self.dataset.platforms[-1]

    @property
    def primary_metric(self) -> Metric:
        """Page loads when present (the paper's headline metric)."""
        if Metric.PAGE_LOADS in self.dataset.metrics:
            return Metric.PAGE_LOADS
        return self.dataset.metrics[0]

    def primary_lists(self):
        """Per-country lists for the headline (platform, metric, month)."""
        return self.dataset.select(
            self.primary_platform, self.primary_metric, self.month
        )

    def __repr__(self) -> str:
        config = "yes" if self.config is not None else "no"
        return (
            f"TaskContext(fingerprint={self.fingerprint}, month={self.month}, "
            f"config={config})"
        )


def infer_config(
    dataset: BrowsingDataset,
    *,
    small: bool = False,
    seed: int | None = None,
) -> "GeneratorConfig":
    """The :class:`GeneratorConfig` matching a saved dataset.

    Engine-produced datasets record the config fingerprint in their
    manifest metadata; we try the two canonical configurations (full
    and small scale, at the recorded or requested seed) and return
    whichever one round-trips to that fingerprint.  When neither
    matches — or the dataset carries no provenance — fall back to the
    caller's ``--small``/``--seed`` flags, preserving the historical
    CLI behaviour.
    """
    from ..synth.generator import GeneratorConfig

    metadata = dataset.metadata
    if seed is None:
        recorded_seed = metadata.get("seed")
        seed = recorded_seed if isinstance(recorded_seed, int) else 2022
    recorded = metadata.get("fingerprint")
    candidates = (GeneratorConfig.small(seed=seed), GeneratorConfig(seed=seed))
    if isinstance(recorded, str):
        for candidate in candidates:
            if candidate.fingerprint() == recorded:
                return candidate
    return candidates[0] if small else candidates[1]
