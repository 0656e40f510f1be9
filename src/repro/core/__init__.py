"""Core data model: breakdown keys, ranked lists, traffic distributions."""

from .dataset import BrowsingDataset
from .distribution import TrafficDistribution, concentration_table
from .errors import (
    AnalysisError,
    DatasetError,
    DistributionError,
    GenerationError,
    MissingBreakdownError,
    PipelineError,
    RankListError,
    ReproError,
    TaskUnavailable,
    TaxonomyError,
)
from .rankedlist import RankedList
from .vocab import SiteVocabulary
from .types import (
    DECEMBER,
    REFERENCE_MONTH,
    STUDY_MONTHS,
    Breakdown,
    Metric,
    Month,
    Platform,
)

__all__ = [
    "AnalysisError",
    "Breakdown",
    "BrowsingDataset",
    "DECEMBER",
    "DatasetError",
    "DistributionError",
    "GenerationError",
    "Metric",
    "MissingBreakdownError",
    "Month",
    "PipelineError",
    "Platform",
    "RankListError",
    "RankedList",
    "REFERENCE_MONTH",
    "ReproError",
    "STUDY_MONTHS",
    "SiteVocabulary",
    "TaskUnavailable",
    "TaxonomyError",
    "TrafficDistribution",
    "concentration_table",
]
