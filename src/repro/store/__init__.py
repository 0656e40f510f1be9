"""repro.store — the versioned on-disk columnar dataset layout.

The store gives every layer above it a zero-copy cold path:

* :func:`~repro.store.columnar.encode_columnar` is the format's
  encoder for the one write path (:func:`repro.export.io.write_dataset`):
  a packed vocabulary string table, one contiguous ``int32`` id array
  holding every ranked list, the ground-truth column family keyed by
  site id, and a binary manifest carrying the breakdown index,
  metadata, distribution vectors and content fingerprints;
* :func:`open_columnar` memory-maps those files back as a
  :class:`MappedBrowsingDataset` — cold start is O(open), lists
  materialise lazily from mapped ids plus the shared vocabulary, and
  multiple processes share one physical copy of the pages.

``save_dataset(..., format="columnar")`` writes this layout and
``load_dataset`` opens any directory holding a ``manifest.bin``, so
callers rarely touch this module directly.  The text layout stays
available as the export/debug format; round-trips between the two are
byte-identical.  :func:`ingest_months` appends months to a saved
dataset of either format.
"""

from .columnar import (
    LISTS_NAME,
    MANIFEST_NAME,
    TRUTH_NAME,
    VOCAB_NAME,
    open_columnar,
)
from .format import COLUMNAR_VERSION
from .ingest import IngestReport, ingest_months
from .mapped import MappedBrowsingDataset, MappedStringTable

__all__ = [
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
]
