"""Monthly refresh cost: incremental ingest vs full regenerate+report.

The workload models the arrival of one new month of telemetry over a
dataset that already holds five: six countries, both platforms, both
metrics under the small calibrated universe.  Before ``repro ingest``
the refresh procedure was *regenerate everything and re-report*:
rebuild all six months from scratch, save them, and run a cold
``report`` into an empty artifact store.  After it, the refresh is one
``ingest_months`` call — generate only the new month's slices (the
month walk is append-stable) and append them under the dataset's codec.
At that point the new version is live: serving follows the manifest,
old versions stay addressable via ``as_of``, and artifacts refresh
lazily through the delta path.

The ≥5× assertion at the bottom gates ingest against the full
regenerate+report it replaces.  Each side is the median of
:data:`REPEATS` timed repetitions, alternating with the other side's
and each after a garbage collection — the timed ingest is tens of
milliseconds, so one sample of it moves with host noise — and every
ingest repetition appends to a freshly saved copy of the pre-ingest
dataset.  The delta ``report`` that refreshes the
figure artifacts is measured too (reported, not gated — its wall time
is dominated by the all-months readers and their re-run dependents,
chiefly the pure-Python ``platforms`` Fisher sweep that is its own
ROADMAP item): what *is* asserted is that it executes a strict subset
of the cold run's tasks and lands identical results.  Results go to
``BENCH_ingest.json`` for the CI artifact upload.
"""

import gc
import statistics
import time

from repro.core import Metric, Month, Platform
from repro.engine import GenerationEngine
from repro.export.io import load_dataset, save_dataset
from repro.pipeline import run_pipeline
from repro.store import ingest_months
from repro.synth import GeneratorConfig

from _bench_utils import print_comparison, write_bench_json

COUNTRIES = ("US", "DE", "IN", "BR", "JP", "FR")
BASE_MONTHS = tuple(Month(2021, m) for m in range(7, 12))
NEW_MONTH = Month(2021, 12)
PIN = BASE_MONTHS[-1]
CONFIG = GeneratorConfig.small()
MIN_INGEST_SPEEDUP = 5.0
#: Timed repetitions per side; each side's time is their median.
REPEATS = 3


def test_incremental_ingest_speedup(benchmark, tmp_path_factory):
    out = tmp_path_factory.mktemp("ingest_bench")
    grid = dict(
        countries=COUNTRIES,
        platforms=Platform.studied(),
        metrics=Metric.studied(),
    )

    # Last month's state — the starting point both paths share, so its
    # cost (base generation + the cold report that warmed the store) is
    # not part of either measurement.  Every ingest repetition grows its
    # own freshly saved copy of it.
    base = GenerationEngine(CONFIG).generate(months=BASE_MONTHS, **grid)
    base_store = out / "rolling-store"

    def pre_ingest(name: object):
        root = out / f"rolling-{name}"
        save_dataset(base, root, format="columnar")
        return root

    warmup = run_pipeline(
        load_dataset(pre_ingest("warmup")), store=base_store, config=CONFIG,
        month=PIN,
    )
    assert warmup.ok

    # The two sides alternate, one repetition each per round, so drift
    # in the host's speed over the run reaches both alike.
    ingest_samples, regenerate_samples, cold_samples = [], [], []
    for rep in range(REPEATS):
        # Incremental: append the new month.  The dataset is servable
        # at version 2 the moment this returns.
        base_root = pre_ingest(rep)
        gc.collect()
        start = time.perf_counter()
        report = ingest_months(base_root, [NEW_MONTH], config=CONFIG)
        ingest_samples.append(time.perf_counter() - start)
        assert report.changed and report.version == 2

        # Full: regenerate all six months into a fresh root, cold report.
        full_root = out / f"full-{rep}"
        gc.collect()
        start = time.perf_counter()
        full = GenerationEngine(CONFIG).generate(
            months=BASE_MONTHS + (NEW_MONTH,), **grid
        )
        save_dataset(full, full_root, format="columnar")
        regenerate_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        cold = run_pipeline(
            load_dataset(full_root), store=out / f"full-store-{rep}",
            config=CONFIG, month=PIN,
        )
        cold_samples.append(time.perf_counter() - start)
        assert cold.ok
    ingest_seconds = statistics.median(ingest_samples)
    regenerate_seconds = statistics.median(regenerate_samples)
    cold_report_seconds = statistics.median(cold_samples)
    full_seconds = statistics.median(
        r + c for r, c in zip(regenerate_samples, cold_samples)
    )

    # Artifact refresh: delta-report on the warm store.
    start = time.perf_counter()
    delta = run_pipeline(
        load_dataset(base_root), store=base_store, config=CONFIG, month=PIN
    )
    delta_report_seconds = time.perf_counter() - start
    assert delta.ok

    # Same artifacts, strictly less work: the delta executed a proper
    # subset of the cold run and every skipped task came from the store.
    assert delta.results == cold.results
    assert 0 < delta.executed < cold.executed
    assert delta.executed + delta.cached == cold.executed

    # The steady-state fast path: re-ingesting a present month is a
    # strict no-op (no generation, no version bump), cheap enough to
    # run on every scheduler tick.
    def reingest():
        noop = ingest_months(base_root, [NEW_MONTH], config=CONFIG)
        assert not noop.changed and noop.version == 2
        return noop

    benchmark.pedantic(reingest, rounds=3, iterations=1)

    ingest_speedup = full_seconds / ingest_seconds
    refresh_seconds = ingest_seconds + delta_report_seconds
    refresh_speedup = full_seconds / refresh_seconds
    slices_added = report.slices_added
    slices_full = len(full)
    print_comparison(
        [
            ("grid", "6 cty x 2 x 2", slices_full, "slices at 6 months"),
            ("ingest s", "", round(ingest_seconds, 3),
             f"{slices_added} new slices, servable (median of {REPEATS})"),
            ("delta report s", "", round(delta_report_seconds, 3),
             f"{delta.executed} tasks ({delta.cached} cached)"),
            ("regenerate s", "", round(regenerate_seconds, 3),
             f"all {slices_full} slices"),
            ("cold report s", "", round(cold_report_seconds, 3),
             f"{cold.executed} tasks"),
            ("full total s", "", round(full_seconds, 3),
             f"the pre-ingest refresh (median of {REPEATS})"),
            ("ingest speedup", ">= 5x", round(ingest_speedup, 1),
             "asserted below"),
            ("with delta report", "", round(refresh_speedup, 1),
             "end-to-end incl. artifacts"),
        ],
        "Monthly refresh — incremental ingest vs full regenerate",
    )
    write_bench_json("ingest", {
        "workload": "one_month_refresh",
        "countries": list(COUNTRIES),
        "base_months": [str(m) for m in BASE_MONTHS],
        "new_month": str(NEW_MONTH),
        "slices_added": slices_added,
        "slices_full": slices_full,
        "ingest_seconds": ingest_seconds,
        "delta_report_seconds": delta_report_seconds,
        "delta_executed": delta.executed,
        "delta_cached": delta.cached,
        "regenerate_seconds": regenerate_seconds,
        "cold_report_seconds": cold_report_seconds,
        "cold_executed": cold.executed,
        "full_seconds": full_seconds,
        "ingest_speedup": ingest_speedup,
        "refresh_seconds": refresh_seconds,
        "refresh_speedup": refresh_speedup,
    })

    assert ingest_speedup >= MIN_INGEST_SPEEDUP, (
        f"ingest only {ingest_speedup:.1f}x faster than the full refresh "
        f"({full_seconds:.2f}s regenerate+report vs "
        f"{ingest_seconds:.2f}s ingest)"
    )
