"""The one write path: pinned bytes, refused overwrites, crash points.

Saves, converts and ingests of both formats all go through
:func:`repro.export.io.write_dataset`, which writes every file with
:func:`repro.export.io.atomic_write` — archive first, data files next,
manifest last.  These tests pin the bytes it writes for a tiny grid,
check that a save never lands on a directory that already holds a
dataset, and cut a save, an ingest and an ingest that backfills
``universe.bin`` at every one of their writes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
from pathlib import Path

import pytest

import repro.export.io as io
from repro import api
from repro.core import BrowsingDataset, Metric, Month, Platform, RankedList
from repro.core.errors import DatasetError
from repro.export.io import (
    UNIVERSE_FILE,
    convert_dataset,
    dataset_versions,
    load_dataset,
    save_dataset,
)
from repro.obs import AGGREGATE
from repro.store import ingest_months
from repro.synth import GeneratorConfig

TINY = dict(small=True, countries=("US", "KR"), platforms=("windows",),
            metrics=("page_loads",), months=("2021-11",))
NEW_MONTH = "2021-12"
CONFIG = GeneratorConfig.small()

#: SHA-256 over (relative path, bytes) of every file each tree holds
#: but ``universe.bin``: any change to a written byte shows up here.
PINNED = {
    "generate-text":
        "868520ade01f768d569179338f7826110ccd414763ba2aa521eeee8e3a4b2d04",
    "generate-columnar":
        "e231023344307b0b03c3ff3d642a16ac0376c6ad5faed52b936b9e7fdec20eb9",
    "ingest-text":
        "e9737af0ef09bfd4273bc25c0ab5b73ed171df7ae03cd026a3312db29430fcf9",
    "ingest-columnar":
        "98964979cf0047cab6cf6a0a1aa2b11feb8720c662aa4057d34e0c01eb1b7e5a",
    # A convert writes exactly what a save of the same dataset writes.
    "convert-text-columnar":
        "e231023344307b0b03c3ff3d642a16ac0376c6ad5faed52b936b9e7fdec20eb9",
    "convert-columnar-text":
        "868520ade01f768d569179338f7826110ccd414763ba2aa521eeee8e3a4b2d04",
}

#: SHA-256 of the ``universe.bin`` every tree above holds: the small
#: seed-2022 universe, written by the generate, kept by the ingest and
#: copied by each convert.
UNIVERSE_PINNED = "29aa9a76b4e00f0fd265c929161232590e9797c8ef9945bfe663110638392b03"


def tree_digest(root: Path, skip: tuple[str, ...] = ()) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file() and path.name not in skip:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def written_trees(work: Path) -> dict[str, Path]:
    """A tiny generate, ingest and convert under both formats."""
    trees = {}
    for fmt in ("text", "columnar"):
        trees[f"generate-{fmt}"] = work / f"gen-{fmt}"
        api.generate(out=trees[f"generate-{fmt}"], format=fmt, **TINY)
        trees[f"ingest-{fmt}"] = work / f"ing-{fmt}"
        shutil.copytree(work / f"gen-{fmt}", trees[f"ingest-{fmt}"])
        api.ingest(trees[f"ingest-{fmt}"], [NEW_MONTH], small=True)
    trees["convert-text-columnar"] = api.convert(
        work / "gen-text", work / "t2c", format="columnar")
    trees["convert-columnar-text"] = api.convert(
        work / "t2c", work / "t2c2t", format="text")
    return trees


def test_written_bytes_are_pinned(tmp_path):
    trees = written_trees(tmp_path)
    assert {name: tree_digest(root, skip=(UNIVERSE_FILE,))
            for name, root in trees.items()} == PINNED
    assert {name: hashlib.sha256((root / UNIVERSE_FILE).read_bytes()).hexdigest()
            for name, root in trees.items()} == dict.fromkeys(PINNED, UNIVERSE_PINNED)


@pytest.mark.parametrize("src_fmt, dst_fmt", [("text", "columnar"),
                                              ("columnar", "text")])
def test_convert_copies_the_universe_file_verbatim(src_fmt, dst_fmt, tiny, tmp_path):
    # Even bytes that are no universe at all: a convert copies the
    # file, and only an ingest reads (and judges) it.
    src = save_dataset(tiny, tmp_path / "src", format=src_fmt)
    (src / UNIVERSE_FILE).write_bytes(b"not a universe\x00\xff")
    dst = convert_dataset(src, tmp_path / "dst", format=dst_fmt)
    assert (dst / UNIVERSE_FILE).read_bytes() == b"not a universe\x00\xff"
    (src / UNIVERSE_FILE).unlink()
    dst = convert_dataset(src, tmp_path / "none", format=dst_fmt)
    assert not (dst / UNIVERSE_FILE).exists()


@pytest.fixture(scope="module")
def tiny(generator):
    return generator.generate(
        countries=TINY["countries"], platforms=(Platform.WINDOWS,),
        metrics=(Metric.PAGE_LOADS,), months=(Month(2021, 11),),
    )


@pytest.fixture(scope="module")
def other(tiny):
    """A different dataset to save over ``tiny``: its lists reversed."""
    return BrowsingDataset(
        {b: RankedList(tiny[b].sites[::-1]) for b in tiny.breakdowns()},
        tiny.distributions(), tiny.metadata,
    )


class TestSaveRefusesADataset:
    @pytest.mark.parametrize("fmt", ["text", "columnar"])
    def test_save_over_a_dataset_leaves_it_untouched(
        self, tiny, other, fmt, tmp_path
    ):
        # Saving over a dataset used to replace its data files before
        # its manifest: a process dying in between left the old
        # manifest and fingerprint over the new lists, and that
        # dataset loaded without an error.
        root = save_dataset(tiny, tmp_path / "ds", format=fmt)
        before = tree_digest(root)
        with pytest.raises(DatasetError, match="repro ingest"):
            save_dataset(other, root, format=fmt)
        assert tree_digest(root) == before

    def test_save_over_an_ingested_dataset_keeps_its_versions(
        self, tiny, other, tmp_path
    ):
        # A save used to leave versions/ behind, so as_of=2 opened the
        # archived version-2 manifest over the new files.
        root = save_dataset(tiny, tmp_path / "ds", format="columnar")
        ingest_months(root, [NEW_MONTH], config=CONFIG)
        ingest_months(root, ["2022-01"], config=CONFIG)
        assert dataset_versions(root) == (1, 2, 3)
        before = tree_digest(root)
        with pytest.raises(DatasetError, match="already holds a dataset"):
            save_dataset(other, root, format="columnar")
        assert tree_digest(root) == before
        old = load_dataset(root, as_of=2)
        assert [str(m) for m in old.months] == ["2021-11", NEW_MONTH]

    def test_an_archive_alone_marks_a_dataset(self, tiny, tmp_path):
        (tmp_path / "ds" / "versions").mkdir(parents=True)
        with pytest.raises(DatasetError, match="already holds a dataset"):
            save_dataset(tiny, tmp_path / "ds")


def _materialized() -> int:
    """``store.materialize`` spans this process has closed so far."""
    return AGGREGATE.snapshot().get("store.materialize", {}).get("count", 0)


def test_convert_and_ingest_decode_no_list(generator, tmp_path):
    # The writer reads every list as its id window, so a columnar ->
    # columnar convert and a columnar ingest decode none of them.
    root = save_dataset(generator.generate(
        countries=("US", "KR", "BR"), platforms=(Platform.WINDOWS, Platform.ANDROID),
        metrics=Metric.studied(), months=(Month(2021, 11), Month(2021, 12)),
    ), tmp_path / "src", format="columnar")
    before = _materialized()
    convert_dataset(root, tmp_path / "dst", format="columnar")
    converted = _materialized() - before
    ingest_months(root, ["2022-01"], config=CONFIG)
    assert (converted, _materialized() - before - converted) == (0, 0)


# -- crash at every write ---------------------------------------------------------

#: The exit code of a child that reached its crash point.
CRASHED = 17


def _cut(action, at: int) -> int:
    """Run ``action`` in a forked child that dies at its ``at``-th write
    (``os._exit`` as :func:`atomic_write` is entered); its exit code."""

    def child() -> None:
        write, calls = io.atomic_write, []

        def cut(path, data):
            calls.append(path)
            if len(calls) == at:
                os._exit(CRASHED)
            write(path, data)

        io.atomic_write = cut
        action()

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=120)
    if proc.is_alive():
        proc.kill()
        proc.join()
    return proc.exitcode


def _state(root: Path):
    """What a reader sees at ``root``: ``None`` for no dataset."""
    try:
        dataset = load_dataset(root)
    except DatasetError:
        return None
    uids = dataset.site_uids()
    return (
        dataset.version,
        {b: dataset[b].sites for b in dataset.breakdowns()},
        None if uids is None else (dataset.site_table().tolist(), uids.tolist()),
    )


@pytest.mark.parametrize("fmt", ["text", "columnar"])
@pytest.mark.parametrize("op", ["save", "ingest", "backfill"])
def test_a_write_cut_at_any_step_leaves_a_whole_version(
    op, fmt, tiny, tmp_path, monkeypatch
):
    # "backfill" is an ingest into a dataset without universe.bin,
    # which writes the file.
    base = tmp_path / "base"
    if op != "save":
        save_dataset(tiny, base, format=fmt)
    if op == "backfill":
        (base / UNIVERSE_FILE).unlink()

    def prepare(root: Path) -> None:
        if op != "save":
            shutil.copytree(base, root)

    def run(root: Path):
        if op == "save":
            return lambda: save_dataset(tiny, root, format=fmt)
        return lambda: ingest_months(root, [NEW_MONTH], config=CONFIG)

    clean = tmp_path / "clean"
    prepare(clean)
    old = _state(clean)
    writes = []
    write = io.atomic_write
    monkeypatch.setattr(io, "atomic_write",
                        lambda path, data: (writes.append(path), write(path, data)))
    run(clean)()
    monkeypatch.undo()
    new, clean_bytes = _state(clean), tree_digest(clean)
    assert new is not None and new != old
    # Every list file (or the id and vocabulary files), the uid column
    # and the manifest, plus the archived manifest on an ingest and the
    # universe file on a save or a backfill.
    assert len(writes) == 4 + (op != "save") + (op != "ingest")
    assert (clean / UNIVERSE_FILE in writes) == (op != "ingest")
    assert writes[-1].name.startswith("manifest.")

    for at in range(1, len(writes) + 1):
        root = tmp_path / f"cut-{at}"
        prepare(root)
        assert _cut(run(root), at) == CRASHED
        assert _state(root) == old, f"a cut at write {at} is visible"
        run(root)()
        assert tree_digest(root) == clean_bytes, f"rerun after write {at}"
