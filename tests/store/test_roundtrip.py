"""Property tests: codec round-trips are exact, not approximately so.

Three contracts the refactor must keep, checked across hypothesis-built
datasets rather than one fixture:

* text → columnar → text re-export is **byte-identical**, file by file;
* a memory-mapped list's ``ids()`` equals eager interning exactly;
* :func:`dataset_fingerprint` agrees across codecs — and still equals
  the value the pre-codec-registry layout produced (pinned below).
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Breakdown,
    BrowsingDataset,
    Metric,
    Month,
    Platform,
    RankedList,
    SiteVocabulary,
    TrafficDistribution,
)
from repro.export.io import (
    dataset_fingerprint,
    load_dataset,
    save_dataset,
    sorted_breakdowns,
)
import pytest

from repro.core.errors import DatasetError
from repro.store.format import (
    HEADER_SIZE,
    pack_string_table,
    unpack_string_table,
)

from .conftest import make_tiny_dataset

# ``str.splitlines`` boundaries cannot appear in a text-codec site name;
# surrogates cannot be UTF-8 encoded.  Everything else is fair game.
_SITE_CHARS = st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
)
sites = st.text(alphabet=_SITE_CHARS, min_size=1, max_size=12)
site_lists = st.lists(sites, min_size=0, max_size=8, unique=True)

_GRID = tuple(
    Breakdown(country, platform, metric, Month(2022, 2))
    for country in ("US", "KR")
    for platform in Platform.studied()
    for metric in Metric.studied()
)

_DIST = TrafficDistribution([(1, 0.17), (10, 0.4), (10_000, 0.95)])
_DISTRIBUTIONS = {
    (platform, metric): _DIST
    for platform in Platform.studied()
    for metric in Metric.studied()
}

metadata_values = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet=_SITE_CHARS, max_size=10),
    st.booleans(),
)
metadata = st.dictionaries(
    st.text(alphabet=_SITE_CHARS, min_size=1, max_size=8).filter(
        lambda k: k != "fingerprint"
    ),
    metadata_values,
    max_size=3,
)


@st.composite
def datasets(draw):
    lists = draw(
        st.dictionaries(
            st.sampled_from(_GRID), site_lists, min_size=1, max_size=4
        )
    )
    return BrowsingDataset(
        {b: RankedList(s) for b, s in lists.items()},
        _DISTRIBUTIONS,
        draw(metadata),
    )


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestCodecRoundTrips:
    @given(datasets())
    @settings(max_examples=25, deadline=None)
    def test_text_columnar_text_is_byte_identical(self, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_dataset(dataset, tmp / "a", format="text")
            save_dataset(load_dataset(tmp / "a"), tmp / "b",
                         format="columnar")
            save_dataset(load_dataset(tmp / "b"), tmp / "c", format="text")
            assert _tree_bytes(tmp / "a") == _tree_bytes(tmp / "c")

    @given(datasets())
    @settings(max_examples=25, deadline=None)
    def test_mapped_ids_equal_eager_interning(self, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "ds"
            save_dataset(dataset, root, format="columnar")
            mapped = load_dataset(root)
            mapped_vocab = mapped.vocabulary()
            eager_vocab = SiteVocabulary()
            for breakdown in sorted_breakdowns(dataset.breakdowns()):
                expected = dataset[breakdown].ids(eager_vocab)
                got = mapped[breakdown].ids(mapped_vocab)
                assert got.tolist() == expected.tolist()
                assert mapped[breakdown].sites == dataset[breakdown].sites

    @given(datasets())
    @settings(max_examples=25, deadline=None)
    def test_fingerprint_agrees_across_codecs(self, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_dataset(dataset, tmp / "text", format="text")
            save_dataset(dataset, tmp / "col", format="columnar")
            expected = dataset_fingerprint(dataset)
            assert dataset_fingerprint(load_dataset(tmp / "text")) == expected
            assert dataset_fingerprint(load_dataset(tmp / "col")) == expected


class TestStringTable:
    @given(st.lists(st.text(alphabet=_SITE_CHARS, max_size=20), max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_identity(self, names):
        packed = pack_string_table(names)
        assert unpack_string_table(packed, Path("x")) == tuple(names)

    def test_non_ascii_names_round_trip(self):
        # A non-ASCII blob decodes name by name (byte offsets are not
        # character offsets there).
        names = ["google.com", "네이버.com", "yandex.ru", "café.example"]
        packed = pack_string_table(names)
        assert unpack_string_table(packed, Path("x")) == tuple(names)

    def test_header_only_table_is_empty(self):
        # Count 0 and the single zero offset: a valid empty table, not
        # a truncated one.
        packed = pack_string_table([])
        assert len(packed) == HEADER_SIZE + 8
        assert unpack_string_table(packed, Path("x")) == ()

    @pytest.mark.parametrize("keep", [70, 65, 53, 10])
    def test_truncated_table_raises(self, keep):
        # 71 bytes: 24 header + 4 offsets x 8 + a 15-byte blob.  Cut in
        # the blob, in the offsets and in the header.
        packed = pack_string_table(["a.com", "b.org", "c.net"])
        assert len(packed) == 71
        with pytest.raises(DatasetError, match="truncated|shorter"):
            unpack_string_table(packed[:keep], Path("x"))


class TestFingerprintPin:
    """The content hash is an on-disk contract; the refactor must not move it.

    This value was produced by the pre-registry ``dataset_fingerprint``
    on the same two-breakdown fixture.  If it changes, every existing
    artifact store and slice cache silently goes cold.
    """

    PINNED = "026da0e712715033"

    def test_pre_refactor_value(self):
        assert dataset_fingerprint(make_tiny_dataset(metadata={})) == \
            self.PINNED

    def test_pin_survives_both_codecs(self, tmp_path):
        dataset = make_tiny_dataset(metadata={})
        save_dataset(dataset, tmp_path / "text", format="text")
        save_dataset(dataset, tmp_path / "col", format="columnar")
        assert dataset_fingerprint(load_dataset(tmp_path / "text")) == \
            self.PINNED
        assert dataset_fingerprint(load_dataset(tmp_path / "col")) == \
            self.PINNED
