"""The generator-path ground-truth tasks: the uid-column tasks' oracle.

The ``labels``, ``tags`` and ``has_app`` tasks gather each site's facts
from the universe through the dataset's uid column.  These bodies read
the generator's universe by canonical name instead, and
:func:`generator_path_registry` is the default registry with them
swapped in, so a run over it yields the artifacts the uid-column tasks
must reproduce byte for byte.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.pipeline import TaskRegistry, default_registry
from repro.synth import TelemetryGenerator


def generator_path_registry(generator: TelemetryGenerator) -> TaskRegistry:
    universe = generator.universe

    def labels(ctx, inputs):
        labels = generator.site_categories()
        present = ctx.dataset.all_sites()
        return {site: labels[site] for site in sorted(present) if site in labels}

    def tags(ctx, inputs):
        present = ctx.dataset.all_sites()
        return {
            universe.canonical[uid]: list(site_tags)
            for uid, site_tags in universe.tags.items()
            if universe.canonical[uid] in present
        }

    def has_app(ctx, inputs):
        present = ctx.dataset.all_sites()
        return {"sites": sorted(
            universe.canonical[int(uid)]
            for uid in np.flatnonzero(universe.has_android_app)
            if universe.canonical[int(uid)] in present
        )}

    bodies = {"labels": labels, "tags": tags, "has_app": has_app}
    return TaskRegistry(
        replace(task, fn=bodies[task.name]) if task.name in bodies else task
        for task in default_registry()
    )
