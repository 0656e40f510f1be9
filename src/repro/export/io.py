"""Dataset persistence: the codec registry plus the text codec.

A saved dataset is a directory; *how* the directory encodes the lists
is a **codec**:

``text``      the original greppable layout — ``manifest.json`` plus
              one ``lists/<slug>.txt`` file per breakdown (one site per
              line, rank order) and the ``ground_truth.jsonl`` sidecar
              (one ``[site, category, has_app, tags]`` JSON row per
              site).  Deliberately boring so exports can be consumed
              without this library; the export/debug codec.
``columnar``  the binary layout of :mod:`repro.store` — ``manifest.bin``,
              a packed vocabulary string table (``vocab.bin``), one
              contiguous ``int32`` id array (``lists.bin``) that
              :func:`load_dataset` memory-maps, so cold start is
              O(open) and processes share pages, and the ground-truth
              column family (``truth.bin``) keyed by site id.

:func:`save_dataset` takes ``format=``; :func:`load_dataset`
auto-detects from the files present (a ``manifest.bin`` wins over a
``manifest.json`` when both exist).  The two codecs round-trip exactly:
text → columnar → text is byte-identical, and
:func:`dataset_fingerprint` agrees across codecs, so artifact stores
keyed by the fingerprint stay valid across a convert.

Saves are crash-safe under both codecs: every file is written to a
temp sibling and ``os.replace``\\ d into place, with the manifest
written last, so an interrupted save never leaves a manifest naming
files that are absent or torn.

The manifest's ``metadata`` object carries the generator provenance;
datasets produced by the generation engine include a ``fingerprint``
key there — the :meth:`GeneratorConfig.fingerprint` content address of
every generation knob — so an export can be matched to the exact
configuration that produced it.

Both codecs store the dataset's :class:`~repro.core.truth.GroundTruth`
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
from typing import Callable, Iterable, Mapping

from ..core.dataset import BrowsingDataset
from ..core.distribution import TrafficDistribution
from ..core.errors import DatasetError
from ..core.rankedlist import RankedList
from ..core.truth import GroundTruth, check_entries
from ..core.types import Breakdown, Metric, Month, Platform
from ..core.vocab import SiteVocabulary

TEXT_FORMAT_VERSION = 1

#: The text codec's ground-truth sidecar.
TRUTH_TEXT = "ground_truth.jsonl"

#: Subdirectory where superseded manifests are archived by ingest.
#: ``versions/manifest.v<N>.json`` (text) / ``.bin`` (columnar) pins
#: dataset version N; its list data stays valid because ingest is
#: append-only — old windows and old list files are never rewritten.
VERSIONS_DIR = "versions"


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
    """One breakdown's manifest record: its key, then the codec's ``fields``."""
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


def sorted_breakdowns(dataset: BrowsingDataset) -> list[Breakdown]:
    """The canonical save order every codec writes breakdowns in."""
    return sorted(
        dataset.breakdowns(),
        key=lambda b: (b.country, b.platform.value, b.metric.value, b.month),
    )


def distribution_entries(dataset: BrowsingDataset) -> list[dict]:
    """The canonical manifest rows for the distribution curves."""
    return [
        {
            "platform": platform.value,
            "metric": metric.value,
            **dist.to_dict(),
        }
        for (platform, metric), dist in sorted(
            dataset.distributions().items(),
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
    recorded = dataset.metadata.get("fingerprint")
    if isinstance(recorded, str) and recorded:
        return recorded
    recorded = getattr(dataset, "content_fingerprint", None)
    if isinstance(recorded, str) and recorded:
        return recorded
    return content_hash(
        (breakdown_slug(b), dataset[b].sites) for b in sorted_breakdowns(dataset)
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


# -- codec registry -----------------------------------------------------------------


@dataclass(frozen=True)
class DatasetCodec:
    """One on-disk dataset encoding: how to save, load and recognise it.

    The three optional fields opt a codec into versioned (``as_of``)
    loading: ``manifest`` names the live manifest file, ``read_version``
    reads the ``dataset_version`` out of one manifest file, and
    ``load_at`` loads the dataset *as described by* an archived manifest
    under ``versions/`` (valid because ingest appends, never rewrites).
    """

    name: str
    save: Callable[[BrowsingDataset, Path], Path]
    load: Callable[[Path], BrowsingDataset]
    detect: Callable[[Path], bool]
    manifest: str | None = None
    read_version: Callable[[Path], int] | None = None
    load_at: Callable[[Path, Path], BrowsingDataset] | None = None

    def archived_manifest(self, root: Path, version: int) -> Path:
        """Where ingest archives the manifest that pinned ``version``."""
        suffix = Path(self.manifest).suffix if self.manifest else ""
        return Path(root) / VERSIONS_DIR / f"manifest.v{version}{suffix}"


_CODECS: dict[str, DatasetCodec] = {}

#: Detection order: binary manifests win when a directory carries both.
_DETECT_ORDER = ("columnar", "text")


def register_codec(codec: DatasetCodec) -> DatasetCodec:
    """Add (or replace) a codec under its name; returns it for chaining."""
    _CODECS[codec.name] = codec
    return codec


def _ensure_codecs() -> None:
    """Import-time registration of the built-in non-text codecs.

    The columnar codec lives in :mod:`repro.store`, which imports this
    module for the shared manifest helpers — so the registry pulls it
    in lazily rather than at import time.
    """
    if "columnar" not in _CODECS:
        from .. import store  # noqa: F401  (registers "columnar")


def codec_for(name: str) -> DatasetCodec:
    """The registered codec called ``name``; raises with valid choices."""
    _ensure_codecs()
    try:
        return _CODECS[name]
    except KeyError:
        choices = ", ".join(sorted(_CODECS))
        raise DatasetError(
            f"unknown dataset format {name!r}; choose one of: {choices}"
        ) from None


def available_formats() -> tuple[str, ...]:
    """Names of every registered codec, sorted."""
    _ensure_codecs()
    return tuple(sorted(_CODECS))


def detect_format(root: str | Path) -> str | None:
    """The codec whose files are present under ``root`` (or ``None``)."""
    _ensure_codecs()
    root = Path(root)
    for name in _DETECT_ORDER:
        codec = _CODECS.get(name)
        if codec is not None and codec.detect(root):
            return name
    for name, codec in sorted(_CODECS.items()):
        if name not in _DETECT_ORDER and codec.detect(root):
            return name
    return None


def save_dataset(
    dataset: BrowsingDataset, root: str | Path, *, format: str = "text"
) -> Path:
    """Write a dataset to ``root`` (created if needed); returns the path."""
    return codec_for(format).save(dataset, Path(root))


def _resolve_codec(root: Path, format: str | None) -> DatasetCodec:
    if format is None:
        format = detect_format(root)
        if format is None:
            raise DatasetError(
                f"no dataset under {root}: neither manifest.bin (columnar) "
                "nor manifest.json (text) is present"
            )
    return codec_for(format)


def dataset_versions(
    root: str | Path, *, format: str | None = None
) -> tuple[int, ...]:
    """Every loadable version at ``root``: archived ones plus the live one.

    A dataset that has never been ingested into has exactly one version
    (whatever its manifest records, 1 for pre-versioned saves); every
    ingest archives the superseded manifest under ``versions/`` and
    bumps the live one.
    """
    root = Path(root)
    codec = _resolve_codec(root, format)
    if codec.manifest is None or codec.read_version is None:
        raise DatasetError(
            f"codec {codec.name!r} does not support versioned loading"
        )
    versions = {codec.read_version(root / codec.manifest)}
    suffix = Path(codec.manifest).suffix
    for path in (root / VERSIONS_DIR).glob(f"manifest.v*{suffix}"):
        stem = path.name[len("manifest.v"):]
        stem = stem[: -len(suffix)] if suffix else stem
        try:
            versions.add(int(stem))
        except ValueError:
            continue
    return tuple(sorted(versions))


def latest_version(root: str | Path, *, format: str | None = None) -> int:
    """The version the live manifest at ``root`` records."""
    root = Path(root)
    codec = _resolve_codec(root, format)
    if codec.manifest is None or codec.read_version is None:
        raise DatasetError(
            f"codec {codec.name!r} does not support versioned loading"
        )
    return codec.read_version(root / codec.manifest)


def load_dataset(
    root: str | Path,
    *,
    format: str | None = None,
    as_of: int | None = None,
) -> BrowsingDataset:
    """Load a dataset previously written by :func:`save_dataset`.

    With ``format=None`` (the default) the codec is auto-detected from
    the files present; pass a name to force one.  ``as_of`` loads a
    specific dataset version: the live manifest when it matches, else
    the archived manifest under ``versions/`` — raising
    :class:`UnknownVersionError` (listing the available versions) when
    neither pins it.
    """
    root = Path(root)
    codec = _resolve_codec(root, format)
    if as_of is None:
        return codec.load(root)
    wanted = int(as_of)
    available = dataset_versions(root, format=codec.name)
    if wanted not in available:
        raise UnknownVersionError(root, wanted, available)
    if wanted == codec.read_version(root / codec.manifest):
        return codec.load(root)
    if codec.load_at is None:  # pragma: no cover - registry misuse
        raise DatasetError(
            f"codec {codec.name!r} cannot load archived versions"
        )
    return codec.load_at(root, codec.archived_manifest(root, wanted))


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


# -- the text codec -----------------------------------------------------------------


def _atomic_write_text(path: Path, text: str) -> None:
    """Crash-safe text write: temp sibling + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _truth_text(truth: GroundTruth) -> str:
    """The sidecar encoding: one canonical JSON row per site."""
    return "".join(
        json.dumps([site, category, app, list(tags)],
                   ensure_ascii=False, separators=(",", ":")) + "\n"
        for site, category, app, tags in truth.rows()
    )


def _truth_bytes(truth: GroundTruth) -> bytes:
    return _truth_text(truth).encode("utf-8")


def truth_record(truth: GroundTruth) -> tuple[str, dict[str, object]]:
    """The sidecar text and its manifest record."""
    text = _truth_text(truth)
    return text, {
        "file": TRUTH_TEXT,
        "entries": len(truth),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


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


def _save_text(dataset: BrowsingDataset, root: Path) -> Path:
    lists_dir = root / "lists"
    truth = dataset.ground_truth()
    vocab = SiteVocabulary()

    breakdowns = []
    for breakdown in sorted_breakdowns(dataset):
        slug = breakdown_slug(breakdown)
        sites = dataset[breakdown].sites
        _atomic_write_text(lists_dir / f"{slug}.txt", "\n".join(sites) + "\n")
        if truth is not None:
            vocab.intern_many(sites)
        breakdowns.append(breakdown_entry(breakdown, file=f"lists/{slug}.txt"))

    manifest = {
        "format_version": TEXT_FORMAT_VERSION,
        "dataset_version": dataset_version(dataset),
        "metadata": _jsonable_metadata(dataset.metadata),
        "breakdowns": breakdowns,
        "distributions": distribution_entries(dataset),
    }
    if truth is not None:
        # Rows in first-seen site order, as a columnar save numbers them.
        text, manifest["ground_truth"] = truth_record(
            truth.reindex(vocab.names())
        )
        _atomic_write_text(root / TRUTH_TEXT, text)
    # The manifest goes last: a torn save leaves stray list files at
    # worst, never a manifest naming files that are absent or short.
    _atomic_write_text(root / "manifest.json", json.dumps(manifest, indent=2))
    return root


def _load_text(
    root: Path, manifest_path: Path | None = None
) -> BrowsingDataset:
    if manifest_path is None:
        manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetError(f"no {manifest_path.name} under {root}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format_version") != TEXT_FORMAT_VERSION:
        raise DatasetError(
            f"unsupported format version {manifest.get('format_version')!r}"
        )

    lists: dict[Breakdown, RankedList] = {}
    for entry in manifest["breakdowns"]:
        breakdown = parse_breakdown_entry(entry)
        if breakdown in lists:
            raise DatasetError(
                f"{manifest_path}: duplicate manifest entry for {breakdown}"
            )
        path = root / entry["file"]
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise DatasetError(
                f"dataset at {root} is torn: manifest names "
                f"{entry['file']} for {breakdown}, but the file is absent"
            ) from None
        lists[breakdown] = RankedList(
            line for line in text.splitlines() if line
        )

    distributions = parse_distribution_entries(manifest["distributions"])
    dataset = BrowsingDataset(
        lists, distributions, manifest.get("metadata", {}),
        ground_truth=_text_truth_loader(root, manifest, manifest_path),
    )
    dataset.version = int(manifest.get("dataset_version", 1))
    return dataset


def _read_text_version(manifest_path: Path) -> int:
    if not manifest_path.is_file():
        raise DatasetError(f"no {manifest_path.name} at {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return int(manifest.get("dataset_version", 1))


register_codec(
    DatasetCodec(
        name="text",
        save=_save_text,
        load=_load_text,
        detect=lambda root: (root / "manifest.json").is_file(),
        manifest="manifest.json",
        read_version=_read_text_version,
        load_at=_load_text,
    )
)

