"""repro.store — the versioned on-disk columnar dataset layout.

The store gives every layer above it a zero-copy cold path:

* :func:`write_columnar` serialises a :class:`BrowsingDataset` as a
  packed vocabulary string table, one contiguous ``int32`` id array
  holding every ranked list, the ground-truth column family keyed by
  site id, and a binary manifest carrying the breakdown index,
  metadata, distribution vectors and content fingerprints;
* :func:`open_columnar` memory-maps those files back as a
  :class:`MappedBrowsingDataset` — cold start is O(open), lists
  materialise lazily from mapped ids plus the shared vocabulary, and
  multiple processes share one physical copy of the pages.

Importing this package registers the ``"columnar"`` codec with
:mod:`repro.export.io`, so ``save_dataset(..., format="columnar")``
and auto-detecting ``load_dataset`` work without touching this module
directly.  The text layout stays available as the export/debug codec;
round-trips between the two are byte-identical.
"""

from .columnar import (
    COLUMNAR_CODEC,
    LISTS_NAME,
    MANIFEST_NAME,
    TRUTH_NAME,
    VOCAB_NAME,
    open_columnar,
    write_columnar,
)
from .format import COLUMNAR_VERSION
from .ingest import IngestReport, ingest_months
from .mapped import MappedBrowsingDataset, MappedStringTable

__all__ = [
    "COLUMNAR_CODEC",
    "COLUMNAR_VERSION",
    "IngestReport",
    "LISTS_NAME",
    "MANIFEST_NAME",
    "MappedBrowsingDataset",
    "MappedStringTable",
    "TRUTH_NAME",
    "VOCAB_NAME",
    "ingest_months",
    "open_columnar",
    "write_columnar",
]
