"""Exports: CrUX-style public rank buckets and dataset persistence."""

from .crux import (
    CRUX_BUCKETS,
    CruxExport,
    bucket_of,
    coarsen_list,
    export_crux,
    global_ranking,
)
from .io import (
    breakdown_slug,
    convert_dataset,
    dataset_fingerprint,
    detect_format,
    load_dataset,
    save_dataset,
)

__all__ = [
    "CRUX_BUCKETS",
    "CruxExport",
    "breakdown_slug",
    "bucket_of",
    "coarsen_list",
    "convert_dataset",
    "dataset_fingerprint",
    "detect_format",
    "export_crux",
    "global_ranking",
    "load_dataset",
    "save_dataset",
]
