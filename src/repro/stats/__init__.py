"""Statistics toolkit: every method the paper names, from first principles."""

from .affinity import AffinityResult, affinity_propagation
from .dbscan import NOISE, DBSCANResult, dbscan, eps_sweep
from .correction import bonferroni, bonferroni_adjusted, holm
from .descriptive import Quartiles, mean, median, quantile, quartiles, rankdata
from .fisher import (
    ProportionTestResult,
    fisher_exact_batch,
    normalized_difference,
    proportion_test_batch,
)
from .kendall import kendall_from_lists, kendall_tau
from .kernels import (
    agreement_sequence_ids,
    bucket_intersections,
    intersection_count_ids,
    pairwise_wrbo,
    rank_matrix,
    rank_pairs_ids,
    weighted_rbo_ids,
)
from .outliers import OutlierResult, iqr_outliers, mad_outliers
from .rbo import agreement_sequence, rbo, traffic_weighted_rbo, weighted_rbo
from .silhouette import (
    SilhouetteReport,
    silhouette_samples,
    similarity_to_distance,
)
from .spearman import spearman_from_lists, spearman_rho

__all__ = [
    "AffinityResult",
    "DBSCANResult",
    "NOISE",
    "OutlierResult",
    "ProportionTestResult",
    "Quartiles",
    "SilhouetteReport",
    "affinity_propagation",
    "agreement_sequence",
    "agreement_sequence_ids",
    "bucket_intersections",
    "intersection_count_ids",
    "pairwise_wrbo",
    "rank_matrix",
    "rank_pairs_ids",
    "weighted_rbo_ids",
    "bonferroni",
    "bonferroni_adjusted",
    "fisher_exact_batch",
    "holm",
    "dbscan",
    "eps_sweep",
    "iqr_outliers",
    "kendall_from_lists",
    "kendall_tau",
    "mad_outliers",
    "mean",
    "median",
    "normalized_difference",
    "proportion_test_batch",
    "quantile",
    "quartiles",
    "rankdata",
    "rbo",
    "silhouette_samples",
    "similarity_to_distance",
    "spearman_from_lists",
    "spearman_rho",
    "traffic_weighted_rbo",
    "weighted_rbo",
]
