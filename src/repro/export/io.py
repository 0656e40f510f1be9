"""Dataset persistence: the one write path, loading, and the text codec.

A saved dataset is a directory; *how* the directory encodes the lists
is its **format**, and the manifest present tells them apart:

``text``      the original greppable layout — ``manifest.json`` plus
              one ``lists/<slug>.txt`` file per breakdown (one site per
              line, rank order) and the ``ground_truth.jsonl`` sidecar
              (one ``[site, category, has_app, tags]`` JSON row per
              site).  Deliberately boring so exports can be consumed
              without this library; the export/debug format.
``columnar``  the binary layout of :mod:`repro.store` — ``manifest.bin``,
              a packed vocabulary string table (``vocab.bin``), one
              contiguous ``int32`` id array (``lists.bin``) that
              :func:`load_dataset` memory-maps, so cold start is
              O(open) and processes share pages, and the ground-truth
              column family (``truth.bin``) keyed by site id.

:func:`save_dataset` takes ``format=``; :func:`load_dataset` reads the
format off the files present (a ``manifest.bin`` wins over a
``manifest.json`` when both exist).  The two formats round-trip
exactly: text → columnar → text is byte-identical, and
:func:`dataset_fingerprint` agrees across them, so artifact stores
keyed by the fingerprint stay valid across a convert.

Every write goes through :func:`write_dataset`.  A save writes every
list onto an empty store, and refuses a directory that already holds a
dataset; an ingest (:func:`repro.store.ingest_months`) makes the same
call with the live version it grows.  The steps both formats share
live there — canonical breakdown order, vocabulary and ground-truth
growth, the fingerprint rule and the write order — and only the
encoders differ.  Each file is written by :func:`atomic_write` (temp
sibling + ``os.replace``): the superseded manifest is archived first,
the data files next and the manifest last, so an interrupted write
never leaves a manifest naming files that are absent or torn.

The manifest's ``metadata`` object carries the generator provenance;
datasets produced by the generation engine include a ``fingerprint``
key there — the :meth:`GeneratorConfig.fingerprint` content address of
every generation knob — so an export can be matched to the exact
configuration that produced it.

Both formats store the dataset's :class:`~repro.core.truth.GroundTruth`
(category, tags and Android-app flag per site) with its row count and
SHA-256 in the manifest, and read it lazily, checking the digest, when
the ground truth is first asked for.  A dataset saved before ground
truth was stored has none; its next ``ingest`` writes the table.

Metadata values must be JSON-serializable; :class:`Month`,
:class:`Platform` and :class:`Metric` values are coerced to their
string forms, anything else unserializable raises :class:`DatasetError`
instead of being silently dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.distribution import TrafficDistribution
from ..core.errors import DatasetError, RankListError
from ..core.rankedlist import RankedList
from ..core.truth import GroundTruth, check_entries
from ..core.types import Breakdown, Metric, Month, Platform
from ..core.vocab import SiteVocabulary
from ..obs import span as obs_span

TEXT_FORMAT_VERSION = 1

#: The text format's ground-truth sidecar.
TRUTH_TEXT = "ground_truth.jsonl"

#: Subdirectory where superseded manifests are archived by ingest.
#: ``versions/manifest.v<N>.json`` (text) / ``.bin`` (columnar) pins
#: dataset version N; its list data stays valid because ingest is
#: append-only — old windows and old list files are never rewritten.
VERSIONS_DIR = "versions"

#: Each format's live manifest, in detection order: a binary manifest
#: wins when a directory carries both.
MANIFESTS = {"columnar": "manifest.bin", "text": "manifest.json"}


def dataset_version(dataset: BrowsingDataset) -> int:
    """The dataset's monotonic version (1 for pre-versioned saves)."""
    try:
        return int(getattr(dataset, "version", 1))
    except (TypeError, ValueError):
        return 1


class UnknownVersionError(DatasetError):
    """An ``as_of`` version that no manifest (live or archived) pins."""

    def __init__(self, root: Path, wanted: int, available: tuple[int, ...]):
        self.wanted = wanted
        self.available = available
        choices = ", ".join(str(v) for v in available)
        super().__init__(
            f"unknown dataset version {wanted} at {root}; "
            f"available versions: {choices}"
        )


def breakdown_slug(breakdown: Breakdown) -> str:
    """The filesystem-safe name for one breakdown's list file."""
    return (
        f"{breakdown.country}_{breakdown.platform.value}"
        f"_{breakdown.metric.value}_{breakdown.month}"
    )


def breakdown_entry(breakdown: Breakdown, **fields: object) -> dict[str, object]:
    """One breakdown's manifest record: its key, then the format's ``fields``."""
    return {
        "country": breakdown.country,
        "platform": breakdown.platform.value,
        "metric": breakdown.metric.value,
        "month": [breakdown.month.year, breakdown.month.month],
        **fields,
    }


def _jsonable_metadata(metadata: Mapping[str, object]) -> dict[str, object]:
    """Coerce metadata for the manifest, or raise instead of dropping."""
    out: dict[str, object] = {}
    for key, value in metadata.items():
        if isinstance(value, Month):
            value = str(value)
        elif isinstance(value, (Platform, Metric)):
            value = value.value
        else:
            try:
                json.dumps(value)
            except (TypeError, ValueError) as exc:
                raise DatasetError(
                    f"metadata value {key!r} of type {type(value).__name__} "
                    "is not JSON-serializable; coerce it before saving"
                ) from exc
        out[key] = value
    return out


def sorted_breakdowns(breakdowns: Iterable[Breakdown]) -> list[Breakdown]:
    """The canonical order every format writes breakdowns in."""
    return sorted(
        breakdowns,
        key=lambda b: (b.country, b.platform.value, b.metric.value, b.month),
    )


def distribution_entries(
    distributions: Mapping[tuple[Platform, Metric], TrafficDistribution],
) -> list[dict]:
    """The canonical manifest rows for the distribution curves."""
    return [
        {
            "platform": platform.value,
            "metric": metric.value,
            **dist.to_dict(),
        }
        for (platform, metric), dist in sorted(
            distributions.items(),
            key=lambda kv: (kv[0][0].value, kv[0][1].value),
        )
    ]


def parse_distribution_entries(
    entries: list[dict],
) -> dict[tuple[Platform, Metric], TrafficDistribution]:
    return {
        (Platform(entry["platform"]), Metric(entry["metric"])):
            TrafficDistribution.from_dict(entry)
        for entry in entries
    }


def parse_breakdown_entry(entry: Mapping[str, object]) -> Breakdown:
    return Breakdown(
        entry["country"],
        Platform(entry["platform"]),
        Metric(entry["metric"]),
        Month(*entry["month"]),
    )


def dataset_fingerprint(dataset: BrowsingDataset) -> str:
    """The content address identifying this dataset's exact lists.

    Datasets produced by the generation engine carry the generator's
    ``fingerprint`` in their metadata, and save/load round-trips it, so
    the recorded value is authoritative when present.  Columnar
    datasets additionally record the computed content fingerprint in
    their binary manifest
    (:attr:`~repro.store.MappedBrowsingDataset.content_fingerprint`),
    so an unprovenanced import still resolves without touching a single
    list page.  Only when neither record exists is the fingerprint a
    SHA-256 over every breakdown slug and its sites in canonical
    order — still a pure function of the content, just paid per call.
    """
    return _fingerprint(
        dataset.metadata, dataset.breakdowns(), dataset.__getitem__,
        getattr(dataset, "content_fingerprint", None),
    )


def _fingerprint(
    metadata: Mapping[str, object],
    breakdowns: Iterable[Breakdown],
    lists: Callable[[Breakdown], RankedList],
    content: str | None = None,
) -> str:
    """The fingerprint rule: the recorded provenance, else the recorded
    ``content`` fingerprint, else a content hash over every list."""
    for recorded in (metadata.get("fingerprint"), content):
        if isinstance(recorded, str) and recorded:
            return recorded
    return content_hash(
        (breakdown_slug(b), lists(b).sites) for b in sorted_breakdowns(breakdowns)
    )


def content_hash(rows: Iterable[tuple[str, Iterable[str]]]) -> str:
    """The content fingerprint: SHA-256 over (breakdown slug, sites) rows."""
    digest = hashlib.sha256()
    for slug, sites in rows:
        digest.update(slug.encode("utf-8"))
        digest.update(b"\x00")
        for site in sites:
            digest.update(site.encode("utf-8"))
            digest.update(b"\n")
    return digest.hexdigest()[:16]


# -- finding and loading a dataset --------------------------------------------------


def detect_format(root: str | Path) -> str | None:
    """The format whose manifest is present under ``root`` (or ``None``)."""
    for format, manifest in MANIFESTS.items():
        if (Path(root) / manifest).is_file():
            return format
    return None


def _format_at(root: Path) -> str:
    format = detect_format(root)
    if format is None:
        raise DatasetError(
            f"no dataset under {root}: neither manifest.bin (columnar) "
            "nor manifest.json (text) is present"
        )
    return format


def _manifest_name(format: str, version: int | None = None) -> str:
    """The live manifest, or the archived one that pins ``version``."""
    name = MANIFESTS[format]
    if version is None:
        return name
    return f"{VERSIONS_DIR}/manifest.v{version}{Path(name).suffix}"


def _read_manifest(path: Path, data: bytes | None = None) -> dict:
    """The manifest at ``path`` (either format), or :class:`DatasetError`."""
    if data is None:
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise DatasetError(f"no {path.name} under {path.parent}") from None
    if path.suffix == ".bin":
        from ..store.format import unpack_manifest

        return unpack_manifest(data, path)
    try:
        manifest = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise DatasetError(f"{path}: malformed manifest JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError(f"{path}: manifest is not a JSON object")
    return manifest


def latest_version(root: str | Path) -> int:
    """The version the live manifest at ``root`` records."""
    root = Path(root)
    manifest = _read_manifest(root / _manifest_name(_format_at(root)))
    return int(manifest.get("dataset_version", 1))


def dataset_versions(root: str | Path) -> tuple[int, ...]:
    """Every loadable version at ``root``: archived ones plus the live one.

    A dataset that has never been ingested into has exactly one version
    (whatever its manifest records, 1 for pre-versioned saves); every
    ingest archives the superseded manifest under ``versions/`` and
    bumps the live one.
    """
    root = Path(root)
    suffix = Path(MANIFESTS[_format_at(root)]).suffix
    versions = {latest_version(root)}
    for path in (root / VERSIONS_DIR).glob(f"manifest.v*{suffix}"):
        try:
            versions.add(int(path.name[len("manifest.v"):-len(suffix)]))
        except ValueError:
            continue
    return tuple(sorted(versions))


def load_dataset(root: str | Path, *, as_of: int | None = None) -> BrowsingDataset:
    """Load a dataset previously written by :func:`save_dataset`.

    The format is the one whose manifest is present.  ``as_of`` loads a
    specific dataset version: the live manifest when it matches, else
    the archived manifest under ``versions/`` — raising
    :class:`UnknownVersionError` (listing the available versions) when
    neither pins it.  Each load is one ``store.open`` span (attributes
    ``format``, ``version``).
    """
    from ..store.columnar import open_columnar

    root = Path(root)
    format = _format_at(root)
    path = root / _manifest_name(format)
    with obs_span("store.open", format=format) as span:
        if as_of is not None:
            available = dataset_versions(root)
            if int(as_of) not in available:
                raise UnknownVersionError(root, int(as_of), available)
            if int(as_of) != latest_version(root):
                path = root / _manifest_name(format, int(as_of))
        opener = _load_text if format == "text" else open_columnar
        dataset = opener(root, path)
        span.set("version", dataset.version)
        return dataset


# -- the one write path -------------------------------------------------------------


def atomic_write(path: Path, data: bytes) -> None:
    """Crash-safe write: a temp sibling ``os.replace``\\ d onto ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def refuse_dataset_at(root: Path) -> None:
    """Raise unless ``root`` is free for a save: no manifest, no archive."""
    if any((Path(root) / name).exists()
           for name in (*MANIFESTS.values(), VERSIONS_DIR)):
        raise DatasetError(
            f"{root} already holds a dataset; add months to it with "
            "`repro ingest`, or save to a fresh directory"
        )


@dataclass(frozen=True)
class Stored:
    """The live version an ingest grows; a save grows the empty store."""

    dataset: BrowsingDataset
    #: Its sites in stored id order; new sites are numbered after them.
    names: tuple[str, ...]
    #: Its manifest, kept verbatim under ``versions/``.
    manifest: bytes


@dataclass(frozen=True)
class Grown:
    """The store after a write: what the shared steps hand an encoder."""

    root: Path
    #: The lists this write adds, in canonical order, and their ids.
    lists: list[tuple[Breakdown, RankedList]]
    ids: list[np.ndarray]
    #: Every site name in id order: the stored ones, then the new.
    names: tuple[str, ...]
    truth: GroundTruth | None
    version: int
    metadata: dict[str, object]
    fingerprint: str
    distributions: list[dict]
    #: The stored version's breakdown records, as written.
    stored_entries: dict[Breakdown, dict]

    def entries(self, new: list[dict]) -> list[dict]:
        """The stored and the ``new`` breakdown records, in canonical order."""
        merged = dict(self.stored_entries)
        merged.update((b, entry) for (b, _), entry in zip(self.lists, new))
        return [merged[b] for b in sorted_breakdowns(merged)]


def _grown_truth(
    truth: GroundTruth | None, sites: Sequence[str], truth_for
) -> GroundTruth:
    """``truth`` plus rows for every site of ``sites`` it lacks.

    ``sites`` is the grown site order (stored ids first), so an ingest
    appends rows for the new sites, and a save — or an ingest into a
    dataset saved before ground truth was stored — writes every row in
    id order.
    """
    if truth is None:
        return truth_for(sites)
    known = set(truth.sites)
    return truth.extend(truth_for([s for s in sites if s not in known]))


def write_dataset(
    root: Path,
    format: str,
    lists: Mapping[Breakdown, RankedList],
    *,
    metadata: Mapping[str, object],
    distributions: Mapping[tuple[Platform, Metric], TrafficDistribution],
    version: int,
    truth_for: Callable[[Sequence[str]], GroundTruth] | None = None,
    stored: Stored | None = None,
) -> Path:
    """Write ``lists`` under ``format`` onto the store at ``root``.

    A save passes no ``stored`` version: the lists go onto an empty
    store, and a directory that already holds a dataset is refused.  An
    ingest passes the live version it grows; its manifest is archived
    under ``versions/`` and its lists, ids and ground-truth rows are
    kept.  ``truth_for`` gives the ground-truth rows of sites the store
    lacks (``None``: the dataset has no ground truth).  One
    ``store.write`` span (attributes ``lists`` and ``bytes``) covers
    the write.
    """
    if format not in MANIFESTS:
        raise DatasetError(
            f"unknown dataset format {format!r}; choose one of: "
            + ", ".join(sorted(MANIFESTS))
        )
    root = Path(root)
    if stored is None:
        refuse_dataset_at(root)
    with obs_span("store.write") as span:
        ordered = [(b, lists[b]) for b in sorted_breakdowns(lists)]
        vocab = SiteVocabulary(stored.names if stored else ())
        ids = [vocab.intern_many(ranked.sites) for _, ranked in ordered]
        names = vocab.names()
        truth = stored.dataset.ground_truth() if stored else None
        if truth_for is not None:
            truth = _grown_truth(truth, names, truth_for)
        every = [*lists, *(stored.dataset.breakdowns() if stored else ())]
        grown = Grown(
            root=root,
            lists=ordered,
            ids=ids,
            names=names,
            truth=truth,
            version=version,
            metadata=_jsonable_metadata(metadata),
            fingerprint=_fingerprint(
                metadata, every,
                lambda b: lists[b] if b in lists else stored.dataset[b],
            ),
            distributions=distribution_entries(distributions),
            # Both loaders key a dataset by its manifest's breakdown
            # records, in the manifest's order.
            stored_entries={} if stored is None else dict(zip(
                stored.dataset.breakdowns(),
                _read_manifest(root / _manifest_name(format),
                               stored.manifest)["breakdowns"],
            )),
        )
        if format == "text":
            files = _encode_text(grown)
        else:
            from ..store.columnar import encode_columnar

            files = encode_columnar(grown)
        if stored is not None:
            archived = _manifest_name(format, dataset_version(stored.dataset))
            files = {archived: stored.manifest, **files}
        # Archive first, data files next, the manifest last: a torn
        # write leaves the previous version (or no dataset) live.
        for path, data in files.items():
            atomic_write(root / path, data)
        span.set("lists", len(ordered))
        span.set("bytes", sum(map(len, files.values())))
    return root


def save_dataset(
    dataset: BrowsingDataset, root: str | Path, *, format: str = "text"
) -> Path:
    """Write ``dataset`` to a fresh directory ``root``; returns the path.

    A directory that already holds a dataset (a ``manifest.json``, a
    ``manifest.bin`` or a ``versions/`` archive) raises
    :class:`DatasetError`: grow it with ``repro ingest`` instead.
    """
    truth = dataset.ground_truth()
    return write_dataset(
        Path(root),
        format,
        {b: dataset[b] for b in dataset.breakdowns()},
        metadata=dataset.metadata,
        distributions=dataset.distributions(),
        version=dataset_version(dataset),
        truth_for=None if truth is None else truth.reindex,
    )


def convert_dataset(
    src: str | Path, dst: str | Path, *, format: str = "columnar"
) -> Path:
    """Re-encode the dataset at ``src`` into ``dst`` under ``format``.

    Round-trips are exact: converting text → columnar → text yields
    byte-identical files, and the dataset fingerprint (hence every
    artifact-store address) is unchanged.
    """
    src, dst = Path(src), Path(dst)
    if dst.resolve() == src.resolve():
        raise DatasetError(
            "convert requires a destination different from the source "
            f"({src})"
        )
    return save_dataset(load_dataset(src), dst, format=format)


# -- the text format ----------------------------------------------------------------


def _truth_text(truth: GroundTruth) -> str:
    """The sidecar encoding: one canonical JSON row per site."""
    return "".join(
        json.dumps([site, category, app, list(tags)],
                   ensure_ascii=False, separators=(",", ":")) + "\n"
        for site, category, app, tags in truth.rows()
    )


def _truth_bytes(truth: GroundTruth) -> bytes:
    return _truth_text(truth).encode("utf-8")


def _parse_truth_text(data: bytes, path: Path) -> GroundTruth:
    rows = []
    # JSON escapes every newline inside a string, so rows split on "\n".
    for number, line in enumerate(data.decode("utf-8").split("\n")[:-1], 1):
        try:
            site, category, app, tags = json.loads(line)
            rows.append((site, category, bool(app), tuple(tags)))
        except (TypeError, ValueError) as exc:
            raise DatasetError(
                f"{path}:{number}: malformed ground-truth row: {exc}"
            ) from exc
    return GroundTruth.from_rows(rows)


def _text_truth_loader(root: Path, manifest: dict, manifest_path: Path):
    """The dataset's lazy ground-truth source, or ``None`` without one."""
    record = manifest.get("ground_truth")
    if record is None:
        return None
    try:
        path, entries = root / record["file"], int(record["entries"])
        sha256 = record["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(
            f"{manifest_path}: malformed ground_truth record {record!r}"
        ) from exc

    def load(dataset: BrowsingDataset) -> GroundTruth:
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise DatasetError(
                f"dataset at {root} is torn: manifest names "
                f"{record['file']}, but the file is absent"
            ) from None
        truth = _parse_truth_text(data, path)
        return check_entries(truth, entries, sha256, _truth_bytes, path)

    return load


def _encode_text(grown: Grown) -> dict[str, bytes]:
    """One ``lists/<slug>.txt`` per new list, the sidecar, the manifest."""
    files: dict[str, bytes] = {}
    entries = []
    for breakdown, ranked in grown.lists:
        name = f"lists/{breakdown_slug(breakdown)}.txt"
        files[name] = ("\n".join(ranked.sites) + "\n").encode("utf-8")
        entries.append(breakdown_entry(breakdown, file=name))
    manifest = {
        "format_version": TEXT_FORMAT_VERSION,
        "dataset_version": grown.version,
        "metadata": grown.metadata,
        "breakdowns": grown.entries(entries),
        "distributions": grown.distributions,
    }
    if grown.truth is not None:
        files[TRUTH_TEXT] = _truth_bytes(grown.truth)
        manifest["ground_truth"] = {
            "file": TRUTH_TEXT,
            "entries": len(grown.truth),
            "sha256": hashlib.sha256(files[TRUTH_TEXT]).hexdigest(),
        }
    files[MANIFESTS["text"]] = json.dumps(manifest, indent=2).encode("utf-8")
    return files


def _load_text(root: Path, manifest_path: Path) -> BrowsingDataset:
    manifest = _read_manifest(manifest_path)
    if manifest.get("format_version") != TEXT_FORMAT_VERSION:
        raise DatasetError(
            f"{manifest_path}: unsupported format version "
            f"{manifest.get('format_version')!r}"
        )

    lists: dict[Breakdown, RankedList] = {}
    for entry in manifest.get("breakdowns", ()):
        try:
            breakdown = parse_breakdown_entry(entry)
            path = root / entry["file"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                f"{manifest_path}: malformed breakdown entry {entry!r}: {exc!r}"
            ) from exc
        if breakdown in lists:
            raise DatasetError(
                f"{manifest_path}: duplicate manifest entry for {breakdown}"
            )
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise DatasetError(
                f"dataset at {root} is torn: manifest names "
                f"{entry['file']} for {breakdown}, but the file is absent"
            ) from None
        try:
            lists[breakdown] = RankedList(
                line for line in text.splitlines() if line
            )
        except RankListError as exc:
            raise DatasetError(f"{path}: {exc}") from exc

    distributions = parse_distribution_entries(manifest.get("distributions", []))
    dataset = BrowsingDataset(
        lists, distributions, manifest.get("metadata", {}),
        ground_truth=_text_truth_loader(root, manifest, manifest_path),
    )
    dataset.version = int(manifest.get("dataset_version", 1))
    return dataset
