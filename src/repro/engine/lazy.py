"""A BrowsingDataset view that materialises slices on first access.

Analyses consume datasets through a narrow surface (``__getitem__`` /
``get`` / ``select``), and most touch only a subset of the grid they
were handed — e.g. a figure benchmark pulling two platforms out of a
full-grid fixture.  :class:`LazyBrowsingDataset` keeps the full key set
(so indices, membership and iteration behave exactly like the eager
container) but defers list generation to the engine until a slice is
actually read; with a warm slice cache behind the engine, a fixture
declared over the whole grid costs nothing until used.

The deferred-materialisation machinery (pending set, thread-safe
``materialize``, value-path overrides) lives in
:class:`repro.core.dataset.DeferredBrowsingDataset`, shared with the
columnar store's memory-mapped dataset; this subclass only wires the
production hook to the generation engine.
"""

from __future__ import annotations

from typing import Mapping

from ..core.dataset import DeferredBrowsingDataset
from ..core.rankedlist import RankedList
from ..core.types import Breakdown
from ..synth.traffic import global_distributions
from .plan import SlicePlan


class LazyBrowsingDataset(DeferredBrowsingDataset):
    """Same contract as :class:`BrowsingDataset`; slices appear on demand."""

    storage = "engine"

    def __init__(self, engine, plan: SlicePlan) -> None:
        self._engine = engine
        super().__init__(
            plan.breakdowns(),
            global_distributions(),
            engine.metadata(),
            ground_truth=engine.ground_truth,
        )

    def _produce(
        self, breakdowns: set[Breakdown]
    ) -> Mapping[Breakdown, RankedList]:
        return self._engine.run(SlicePlan.from_breakdowns(breakdowns))
