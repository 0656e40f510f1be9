"""Work counts on the engine paths: deterministic perf gates.

Wall-clock gates flake on a shared host; the work a path does does not.
On a small grid, under both codecs:

- a generate + save interns no site name (``SiteVocabulary.intern_many``
  is never called): the engine yields universe ids and numbers its
  sites with numpy, and a save renumbers id windows;
- a one-month columnar ingest interns none either: it matches the new
  month's sites to the stored ones by universe uid;
- a traced report builds no universe and restores the dataset's
  ``universe.bin`` exactly once, to read each site's facts.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core import SiteVocabulary
from repro.engine import engine as engine_module
from repro.obs import read_trace
from repro.pipeline import TaskStatus
from repro.synth import universe as universe_module

FORMATS = ["text", "columnar"]
GRID = dict(small=True, countries=("US", "KR"), months=("2021-11", "2021-12"))
NEW_MONTH = "2022-01"


def count_interning(monkeypatch) -> list[int]:
    """The length of every ``intern_many`` call made from here on."""
    calls: list[int] = []
    intern_many = SiteVocabulary.intern_many

    def counted(self, sites):
        calls.append(len(sites))
        return intern_many(self, sites)

    monkeypatch.setattr(SiteVocabulary, "intern_many", counted)
    return calls


@pytest.mark.parametrize("fmt", FORMATS)
def test_generate_and_save_intern_no_name(fmt, tmp_path, monkeypatch):
    interned = count_interning(monkeypatch)
    api.generate(out=tmp_path / "ds", format=fmt, **GRID)
    assert interned == []


def test_columnar_ingest_interns_no_name(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    api.generate(out=root, format="columnar", **GRID)
    interned = count_interning(monkeypatch)
    report = api.ingest(root, [NEW_MONTH], small=True)
    assert report.changed
    assert interned == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_restores_the_universe_once(fmt, tmp_path, monkeypatch):
    root = tmp_path / "ds"
    api.generate(out=root, format=fmt, **GRID)
    # A fresh process holds no universe: empty this one's memos.
    monkeypatch.setattr(universe_module, "_UNIVERSE_CACHE", {})
    monkeypatch.setattr(engine_module, "_GENERATORS", {})
    trace = tmp_path / "report.jsonl"
    run = api.report(root, tmp_path / "run", no_store=True, trace=trace)
    assert run.records["labels"].status is TaskStatus.OK
    names = [span["name"] for span in read_trace(trace)]
    assert names.count("synth.universe_build") == 0
    assert names.count("synth.universe_load") == 1
