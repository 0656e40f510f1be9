"""Dataset persistence: the one write path, loading, and the text codec.

A saved dataset is a directory; *how* the directory encodes the lists
is its **format**, and the manifest present tells them apart:

``text``      the original greppable layout — ``manifest.json`` plus
              one ``lists/<slug>.txt`` file per breakdown (one site per
              line, rank order) and the ``sites.tsv`` sidecar (one
              ``site<TAB>uid`` line per site, in id order).
              Deliberately boring so exports can be consumed without
              this library; the export/debug format.
``columnar``  the binary layout of :mod:`repro.store` — ``manifest.bin``,
              a packed vocabulary string table (``vocab.bin``), one
              contiguous ``int32`` id array (``lists.bin``) that
              :func:`load_dataset` memory-maps, so cold start is
              O(open) and processes share pages, and the uid column
              (``uids.bin``) keyed by site id.

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
live there — canonical breakdown order, site numbering and uid-column
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

A generated dataset also carries its universe as :data:`UNIVERSE_FILE`
in either format (written first; a convert copies it verbatim), which
``ingest`` restores instead of building the universe.

Both formats store each site's universe uid (-1 for a site the
universe does not name) as one append-only column in site-id order,
with its count and SHA-256 in the manifest; a site's category, tags
and Android-app flag are read from :data:`UNIVERSE_FILE` through it
and stored nowhere else.  The text sidecar also numbers the sites, so
a text load numbers them as ``vocab.bin`` does; the columnar store
reads the column, checking the digest, on first use.  A dataset saved
before the column was stored has none; its next ``ingest`` writes it.

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
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from ..core.dataset import (
    BrowsingDataset,
    first_appearance,
    intern_lists,
    sorted_breakdowns,
)
from ..core.distribution import TrafficDistribution
from ..core.errors import DatasetError, RankListError
from ..core.rankedlist import RankedList
from ..core.types import Breakdown, Metric, Month, Platform
from ..core.vocab import SiteVocabulary
from ..obs import span as obs_span

if TYPE_CHECKING:
    from ..synth.universe import Universe

TEXT_FORMAT_VERSION = 1

#: The text format's site list: ``site<TAB>uid`` per site in id order.
SITES_TEXT = "sites.tsv"

#: Subdirectory where superseded manifests are archived by ingest.
#: ``versions/manifest.v<N>.json`` (text) / ``.bin`` (columnar) pins
#: dataset version N; its list data stays valid because ingest is
#: append-only — old windows and old list files are never rewritten.
VERSIONS_DIR = "versions"

#: Each format's live manifest, in detection order: a binary manifest
#: wins when a directory carries both.
MANIFESTS = {"columnar": "manifest.bin", "text": "manifest.json"}

#: The packed universe a generated dataset carries in either format
#: (:func:`repro.synth.universe.pack_universe`), so an ingest restores
#: it instead of building it.  No manifest names it: the universe is a
#: pure function of its config, so it never changes across versions,
#: and the file carries its own config and SHA-256.
UNIVERSE_FILE = "universe.bin"


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
    their binary manifest (:attr:`BrowsingDataset.content_fingerprint`),
    so an unprovenanced import still resolves without touching a single
    list page.  Only when neither record exists is the fingerprint a
    SHA-256 over every breakdown slug and its sites in canonical
    order — still a pure function of the content, just paid per call.
    """
    return (_recorded(dataset.metadata, dataset.content_fingerprint)
            or _content_fingerprint(dataset))


def _recorded(
    metadata: Mapping[str, object], content: str | None = None
) -> str | None:
    """The recorded fingerprint: the provenance in ``metadata``, else
    the ``content`` fingerprint a columnar manifest records."""
    for recorded in (metadata.get("fingerprint"), content):
        if isinstance(recorded, str) and recorded:
            return recorded
    return None


def _content_fingerprint(*datasets: BrowsingDataset) -> str:
    """The content hash over every list of ``datasets``, each read as
    its id window into its dataset's site table."""
    owner = {b: dataset for dataset in datasets for b in dataset.breakdowns()}
    return content_hash(
        (breakdown_slug(b), owner[b].site_table()[owner[b].window(b)].tolist())
        for b in sorted_breakdowns(owner)
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


def atomic_write(path: Path, data) -> None:
    """Crash-safe write: a temp sibling ``os.replace``\\ d onto ``path``.

    ``data`` is bytes, or a sequence of buffers (arrays included)
    written one after another, with no joined copy.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            for buffer in [data] if isinstance(data, (bytes, bytearray)) else data:
                handle.write(buffer)
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

    #: Its sites (:meth:`BrowsingDataset.site_table`) keep their ids,
    #: and new sites are numbered after them.
    dataset: BrowsingDataset
    #: Its manifest, kept verbatim under ``versions/``.
    manifest: bytes
    #: Its sites' universe uids: the stored column, or the backfill of a
    #: dataset saved before datasets stored one.
    uids: np.ndarray


@dataclass(frozen=True)
class Grown:
    """The store after a write: what the shared steps hand an encoder."""

    root: Path
    #: The lists this write adds, in canonical order: their id windows
    #: into the source's site table ``sites``, and the stored id of each
    #: source id (so a list's stored ids are ``renumber[window]``).
    breakdowns: list[Breakdown]
    windows: list[np.ndarray]
    sites: np.ndarray
    renumber: np.ndarray
    #: The stored sites keep ids ``0 .. stored_sites - 1``; the sites
    #: this write adds (source ids) are numbered after them, in order.
    stored_sites: int
    added: np.ndarray
    #: The stored site table, read only where a file lists every site.
    stored_table: Callable[[], np.ndarray]
    #: Every site's universe uid in stored id order, or ``None`` when
    #: the dataset stores no uid column.
    uids: np.ndarray | None
    version: int
    metadata: dict[str, object]
    fingerprint: str
    distributions: list[dict]
    #: The stored version's breakdown records, as written.
    stored_entries: dict[Breakdown, dict]

    def entries(self, new: list[dict]) -> list[dict]:
        """The stored and the ``new`` breakdown records, in canonical order."""
        merged = dict(self.stored_entries)
        merged.update(zip(self.breakdowns, new))
        return [merged[b] for b in sorted_breakdowns(merged)]

    def names(self) -> list[str]:
        """Every site name in stored id order: the stored, then the added."""
        stored = self.stored_table()[:self.stored_sites].tolist()
        return stored + self.sites[self.added].tolist()


def _stored_ids(stored: Stored, uids: np.ndarray, names: np.ndarray) -> np.ndarray:
    """The stored id of each site with universe uid ``uids`` and name
    ``names`` (-1: not stored), through a uid-indexed array.

    A ccTLD variant (uid -1) is matched by name among the stored
    variants; only then is a stored name read.
    """
    have = stored.uids
    at = np.full(max(have.max(initial=0), uids.max(initial=0)) + 1, -1, np.int32)
    at[have[have >= 0]] = np.flatnonzero(have >= 0)
    ids = np.where(uids >= 0, at[uids], -1)
    if (uids < 0).any():
        variants = np.flatnonzero(have < 0)
        at_name = dict(zip(stored.dataset.site_table()[variants].tolist(), variants))
        ids[uids < 0] = [at_name.get(name, -1) for name in names[uids < 0].tolist()]
    return ids


def write_dataset(
    root: Path,
    format: str,
    source: BrowsingDataset,
    *,
    stored: Stored | None = None,
    universe: Universe | Path | None = None,
) -> Path:
    """Write the lists of ``source`` under ``format`` onto the store at ``root``.

    A save passes no ``stored`` version: the lists go onto an empty
    store with the source's metadata, distributions and version, and a
    directory that already holds a dataset is refused.  An ingest
    passes the live version it grows: its manifest is archived under
    ``versions/``, its lists, ids, uids, metadata and distributions are
    kept, and the version goes up by one.  ``universe`` is written as
    :data:`UNIVERSE_FILE` before any other file: a
    :class:`~repro.synth.universe.Universe` is packed, a path (another
    dataset's file) copied verbatim, and ``None`` writes no file.

    The lists are read as id windows and no name is interned.  A save
    numbers the source's sites by first appearance over its lists in
    canonical order; an ingest keeps the stored ids, finds each source
    site among them by its universe uid, and numbers the rest after
    them in the same order.  Each list's stored ids are then a gather
    (by the columnar encoder, straight into ``lists.bin``).  One
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
    base = source if stored is None else stored.dataset
    with obs_span("store.write") as span:
        written = 0
        if universe is not None:
            # First, so its buffers are freed before the encoders run.
            # No manifest names the file: a cut after it leaves the
            # previous version (or no dataset) live.
            if isinstance(universe, Path):
                buffers = [universe.read_bytes()]
            else:
                from ..synth.universe import pack_universe

                buffers = pack_universe(universe)
            atomic_write(root / UNIVERSE_FILE, buffers)
            written = sum(memoryview(b).nbytes for b in buffers)
            del buffers
        order = sorted_breakdowns(source.breakdowns())
        windows = [source.window(b) for b in order]
        table = source.site_table()
        appear = first_appearance(windows, len(table))
        uids = source.site_uids()
        renumber = np.zeros(len(table), dtype=np.int32)
        if stored is None:
            added, stored_sites = appear, 0
            renumber[appear] = np.arange(len(appear), dtype=np.int32)
        else:
            stored_sites = len(stored.uids)
            found = _stored_ids(stored, uids[appear], table[appear])
            new = found < 0
            added = appear[new]
            found[new] = stored_sites + np.arange(len(added), dtype=np.int32)
            renumber[appear] = found
        if uids is not None:
            uids = uids[added]
            if stored is not None:
                uids = np.concatenate([stored.uids, uids])
        grown = Grown(
            root=root,
            breakdowns=order,
            windows=windows,
            sites=table,
            renumber=renumber,
            stored_sites=stored_sites,
            added=added,
            stored_table=base.site_table,
            uids=uids,
            version=(source.version if stored is None
                     else stored.dataset.version + 1),
            metadata=_jsonable_metadata(base.metadata),
            fingerprint=_recorded(base.metadata) or _content_fingerprint(
                source, *([stored.dataset] if stored else [])
            ),
            distributions=distribution_entries(base.distributions()),
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
            archived = _manifest_name(format, stored.dataset.version)
            files = {archived: stored.manifest, **files}
        # Archive first, data files next, the manifest last: a torn
        # write leaves the previous version (or no dataset) live.
        for path, data in files.items():
            atomic_write(root / path, data)
        span.set("lists", len(order))
        span.set("bytes", written + sum(map(len, files.values())))
    return root


def save_dataset(
    dataset: BrowsingDataset, root: str | Path, *, format: str = "text"
) -> Path:
    """Write ``dataset`` to a fresh directory ``root``; returns the path.

    A directory that already holds a dataset (a ``manifest.json``, a
    ``manifest.bin`` or a ``versions/`` archive) raises
    :class:`DatasetError`: grow it with ``repro ingest`` instead.

    A generated dataset's universe is written as :data:`UNIVERSE_FILE`;
    a loaded dataset's file, when it has one, is copied verbatim.
    """
    return write_dataset(
        Path(root), format, dataset,
        universe=dataset.universe or _universe_file(dataset.root),
    )


def _universe_file(root: Path | None) -> Path | None:
    """The :data:`UNIVERSE_FILE` of the dataset at ``root``, if it has one."""
    if root is not None and (root / UNIVERSE_FILE).is_file():
        return root / UNIVERSE_FILE
    return None


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


def _sites_text(names: list[str], uids: np.ndarray) -> bytes:
    """The sidecar encoding: one ``site<TAB>uid`` line per site."""
    return "".join(map("{}\t{}\n".format, names, uids.tolist())).encode("utf-8")


def _read_sites(
    root: Path, record: dict, manifest_path: Path
) -> tuple[list[str], np.ndarray]:
    """The sidecar's first ``entries`` sites and uids, digest-checked."""
    try:
        path, entries = root / record["file"], int(record["entries"])
        sha256 = record["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(
            f"{manifest_path}: malformed sites record {record!r}"
        ) from exc
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise DatasetError(
            f"dataset at {root} is torn: manifest names "
            f"{record['file']}, but the file is absent"
        ) from None
    # An ingest appends lines: the version's sites are the first
    # ``entries``, and the manifest records the digest of exactly those.
    lines = data.split(b"\n", entries)
    if len(lines) <= entries:
        raise DatasetError(
            f"{path}: truncated site list ({len(lines) - 1} sites, "
            f"the manifest records {entries})"
        )
    data = data[:len(data) - len(lines[-1])]
    if hashlib.sha256(data).hexdigest() != sha256:
        raise DatasetError(f"{path}: site-list digest does not match the manifest")
    # A site name may hold a tab; a uid never does.
    rows = [line.rpartition("\t") for line in data.decode("utf-8").split("\n")[:-1]]
    try:
        if not all(tab for _, tab, _ in rows):
            raise ValueError("a line holds no tab")
        uids = np.fromiter((int(uid) for _, _, uid in rows), np.int32, entries)
    except ValueError as exc:
        raise DatasetError(f"{path}: malformed site list: {exc}") from exc
    uids.setflags(write=False)
    return [name for name, _, _ in rows], uids


def _encode_text(grown: Grown) -> dict[str, bytes]:
    """One ``lists/<slug>.txt`` per new list, the sidecar, the manifest."""
    files: dict[str, bytes] = {}
    entries = []
    for breakdown, window in zip(grown.breakdowns, grown.windows):
        name = f"lists/{breakdown_slug(breakdown)}.txt"
        sites = grown.sites[window].tolist()
        files[name] = ("\n".join(sites) + "\n").encode("utf-8")
        entries.append(breakdown_entry(breakdown, file=name))
    manifest = {
        "format_version": TEXT_FORMAT_VERSION,
        "dataset_version": grown.version,
        "metadata": grown.metadata,
        "breakdowns": grown.entries(entries),
        "distributions": grown.distributions,
    }
    if grown.uids is not None:
        files[SITES_TEXT] = _sites_text(grown.names(), grown.uids)
        manifest["sites"] = {
            "file": SITES_TEXT,
            "entries": len(grown.uids),
            "sha256": hashlib.sha256(files[SITES_TEXT]).hexdigest(),
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
    metadata = manifest.get("metadata", {})
    record = manifest.get("sites")
    if record is None:
        dataset = BrowsingDataset(lists, distributions, metadata)
    else:
        # The sidecar numbers the sites, exactly as vocab.bin does.
        names, uids = _read_sites(root, record, manifest_path)
        windows, ids, table = intern_lists(lists, SiteVocabulary(names))
        if len(table) != len(uids):
            raise DatasetError(
                f"{root / record['file']}: the lists name "
                f"{len(table)} distinct sites, the site list {len(uids)}"
            )
        dataset = BrowsingDataset.from_windows(
            windows, ids, lambda: table, distributions, metadata, uids
        )
    dataset.version = int(manifest.get("dataset_version", 1))
    dataset.root = root
    return dataset
