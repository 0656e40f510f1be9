"""Versioned serving: ``as_of`` pinning, live-ingest refresh, torn reads.

A service rooted at a saved dataset follows the live manifest — an
ingest into the same directory is picked up on the next request without
a restart — while ``as_of=<version>`` keeps every superseded version
addressable, byte-identically, forever.  Cache keys carry the version,
so pre-ingest payloads and post-ingest payloads never collide.
"""

from __future__ import annotations

import json

import pytest

from repro.core import Metric, Month, Platform
from repro.export.io import load_dataset, save_dataset
from repro.service import QueryService
from repro.service.errors import BadRequest, NotFound
from repro.store import ingest_months
from repro.synth import GeneratorConfig

COUNTRIES = ("US", "KR")
BASE_MONTHS = (Month(2021, 9), Month(2021, 10))
NEW_MONTH = Month(2021, 11)
CONFIG = GeneratorConfig.small()


@pytest.fixture(scope="module")
def versioned_root(generator, tmp_path_factory):
    """A saved dataset, a service over it, and payloads captured pre-ingest.

    The ingest happens *while the service is live* — module scope keeps
    the expensive generate/ingest pair to one execution, and each test
    reads a different already-captured consequence.
    """
    tmp = tmp_path_factory.mktemp("as-of")
    root = tmp / "data"
    dataset = generator.generate(
        countries=COUNTRIES, platforms=(Platform.WINDOWS,),
        metrics=(Metric.PAGE_LOADS,), months=BASE_MONTHS,
    )
    save_dataset(dataset, root, format="columnar")
    service = QueryService(load_dataset(root), config=CONFIG, root=root)

    before = {
        "healthz": service.healthz(),
        "rankings_v1": service.rankings(
            "US", month=str(BASE_MONTHS[-1]), as_of=1
        ),
        "rankings_default": service.rankings("US"),
    }
    ingest_months(root, [NEW_MONTH], config=CONFIG)
    return root, service, before


class TestAsOfServing:
    def test_healthz_reports_the_live_version(self, versioned_root):
        _, service, before = versioned_root
        assert json.loads(before["healthz"])["dataset_version"] == 1
        after = json.loads(service.healthz())
        assert after["dataset_version"] == 2
        assert after["months"] == [str(m) for m in BASE_MONTHS + (NEW_MONTH,)]
        # Slices decode on demand: pending counts the
        # not-yet-decoded windows, so it only has to be a sane count.
        assert 0 <= after["pending_slices"] <= 2 * 3

    def test_pinned_version_is_byte_identical_across_ingest(
        self, versioned_root
    ):
        root, service, before = versioned_root
        assert service.rankings(
            "US", month=str(BASE_MONTHS[-1]), as_of=1
        ) == before["rankings_v1"]
        # A service created fresh *after* the ingest renders the same
        # bytes for as_of=1 — no state carried over, same payload.
        fresh = QueryService(load_dataset(root), config=CONFIG, root=root)
        assert fresh.rankings(
            "US", month=str(BASE_MONTHS[-1]), as_of=1
        ) == before["rankings_v1"]

    def test_default_follows_latest_after_ingest(self, versioned_root):
        _, service, before = versioned_root
        payload = json.loads(service.rankings("US"))
        # The default month is the dataset's last, which moved.
        assert payload["month"] == str(NEW_MONTH)
        assert payload != json.loads(before["rankings_default"])
        # The old default is still addressable under its version.
        assert json.loads(service.rankings("US", as_of=1)) == json.loads(
            before["rankings_default"]
        )

    def test_healthz_can_pin_a_version(self, versioned_root):
        _, service, _ = versioned_root
        pinned = json.loads(service.healthz(as_of=1))
        assert pinned["dataset_version"] == 1
        assert pinned["months"] == [str(m) for m in BASE_MONTHS]

    def test_unknown_version_is_a_404_with_choices(self, versioned_root):
        _, service, _ = versioned_root
        with pytest.raises(NotFound) as excinfo:
            service.rankings("US", as_of=9)
        payload = excinfo.value.payload()
        assert payload["choices"] == ["1", "2"]

    def test_non_integer_version_is_a_400(self, versioned_root):
        _, service, _ = versioned_root
        with pytest.raises(BadRequest, match="integer"):
            service.rankings("US", as_of="latest")

    def test_metrics_snapshot_carries_the_dataset_block(self, versioned_root):
        _, service, _ = versioned_root
        block = service.metrics_snapshot()["dataset"]
        assert block["version"] == 2
        assert block["months"] == [
            str(m) for m in BASE_MONTHS + (NEW_MONTH,)
        ]
        assert 0 <= block["pending_slices"] <= 2 * 3
        assert service.metrics_snapshot()["counters"]["dataset_reloads"] >= 1

    def test_version_pinned_service_ignores_ingests(self, versioned_root):
        root, _, before = versioned_root
        pinned = QueryService(
            load_dataset(root, as_of=1), config=CONFIG, root=root, version=1
        )
        assert json.loads(pinned.healthz())["dataset_version"] == 1
        assert pinned.rankings(
            "US", month=str(BASE_MONTHS[-1])
        ) == before["rankings_v1"]


@pytest.mark.parametrize("fmt", ["text", "columnar"])
def test_a_loaded_dataset_roots_its_service(fmt, generator, tmp_path):
    # Either codec's load records the directory it read, so a service
    # built from the dataset alone follows an ingest into it.
    root = save_dataset(generator.generate(
        countries=COUNTRIES, platforms=(Platform.WINDOWS,),
        metrics=(Metric.PAGE_LOADS,), months=BASE_MONTHS,
    ), tmp_path / fmt, format=fmt)
    service = QueryService(load_dataset(root), config=CONFIG)
    ingest_months(root, [NEW_MONTH], config=CONFIG)
    assert json.loads(service.healthz())["dataset_version"] == 2
