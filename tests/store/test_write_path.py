"""The one write path: pinned bytes, refused overwrites, crash points.

Saves, converts and ingests of both formats all go through
:func:`repro.export.io.write_dataset`, which writes every file with
:func:`repro.export.io.atomic_write` — archive first, data files next,
manifest last.  These tests pin the bytes it writes for a tiny grid,
check that a save never lands on a directory that already holds a
dataset, and cut a save and an ingest at every one of their writes.
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
from repro.core import Metric, Month, Platform
from repro.core.errors import DatasetError
from repro.export.io import dataset_versions, load_dataset, save_dataset
from repro.store import ingest_months
from repro.synth import GeneratorConfig

TINY = dict(small=True, countries=("US", "KR"), platforms=("windows",),
            metrics=("page_loads",), months=("2021-11",))
NEW_MONTH = "2021-12"
CONFIG = GeneratorConfig.small()

#: SHA-256 over (relative path, bytes) of every file each tree holds:
#: any change to a written byte shows up here.
PINNED = {
    "generate-text":
        "1938618f2fa5714bcb238406ef35a024a13b860c513b06d232437d4c8ce1a769",
    "generate-columnar":
        "2ede8e6b9146eef201eefb86fbdfe8f98e7d69bc72877021023d5a3686faa34e",
    "ingest-text":
        "524b4cffeb90eb2190a36d8fcace151c71d2dffd186918a5f2cc56542030fb3e",
    "ingest-columnar":
        "f48229d6e4189a7774a6dd3fcc9783f10bf52a5f0012f74be8b93b6a63d0e787",
    # A convert writes exactly what a save of the same dataset writes.
    "convert-text-columnar":
        "2ede8e6b9146eef201eefb86fbdfe8f98e7d69bc72877021023d5a3686faa34e",
    "convert-columnar-text":
        "1938618f2fa5714bcb238406ef35a024a13b860c513b06d232437d4c8ce1a769",
}


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def written_trees(work: Path) -> dict[str, str]:
    """Digests of a tiny generate, ingest and convert under both formats."""
    trees = {}
    for fmt in ("text", "columnar"):
        api.generate(out=work / f"gen-{fmt}", format=fmt, **TINY)
        trees[f"generate-{fmt}"] = tree_digest(work / f"gen-{fmt}")
        shutil.copytree(work / f"gen-{fmt}", work / f"ing-{fmt}")
        api.ingest(work / f"ing-{fmt}", [NEW_MONTH], small=True)
        trees[f"ingest-{fmt}"] = tree_digest(work / f"ing-{fmt}")
    api.convert(work / "gen-text", work / "t2c", format="columnar")
    api.convert(work / "t2c", work / "t2c2t", format="text")
    trees["convert-text-columnar"] = tree_digest(work / "t2c")
    trees["convert-columnar-text"] = tree_digest(work / "t2c2t")
    return trees


def test_written_bytes_are_pinned(tmp_path):
    assert written_trees(tmp_path) == PINNED


@pytest.fixture(scope="module")
def tiny(generator):
    return generator.generate(
        countries=TINY["countries"], platforms=(Platform.WINDOWS,),
        metrics=(Metric.PAGE_LOADS,), months=(Month(2021, 11),),
    )


@pytest.fixture(scope="module")
def other(tiny):
    """A different dataset to save over ``tiny``: its lists reversed."""
    return tiny.map_lists(lambda _, ranked: type(ranked)(ranked.sites[::-1]))


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
    truth = dataset.ground_truth()
    return (
        dataset.version,
        {b: dataset[b].sites for b in dataset.breakdowns()},
        tuple(truth.rows()) if truth is not None else None,
    )


@pytest.mark.parametrize("fmt", ["text", "columnar"])
@pytest.mark.parametrize("op", ["save", "ingest"])
def test_a_write_cut_at_any_step_leaves_a_whole_version(
    op, fmt, tiny, tmp_path, monkeypatch
):
    base = tmp_path / "base"
    if op == "ingest":
        save_dataset(tiny, base, format=fmt)

    def prepare(root: Path) -> None:
        if op == "ingest":
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
    # Every list file (or the id and vocabulary files), the ground truth
    # and the manifest, plus the archived manifest on an ingest.
    assert len(writes) == 4 + (op == "ingest")
    assert writes[-1].name.startswith("manifest.")

    for at in range(1, len(writes) + 1):
        root = tmp_path / f"cut-{at}"
        prepare(root)
        assert _cut(run(root), at) == CRASHED
        assert _state(root) == old, f"a cut at write {at} is visible"
        run(root)()
        assert tree_digest(root) == clean_bytes, f"rerun after write {at}"
