"""The paper's analyses, one module per section/figure family.

==================  ==============================================
Module              Paper section / figures
==================  ==============================================
concentration       §4.1, Figure 1
composition         §4.2.2, Figure 2
prevalence          §4.2.3, Figures 3 & 14
platforms           §4.3, Figures 4 & 15
metrics_compare     §4.4, Figures 5 & 16
temporal            §4.5
endemicity          §5.1–5.2, Figures 6–8, Tables 1 & 2
popularity_mix      §5.2, Figures 9 & 17
similarity          §5.3.1/5.3.3, Figures 10, 12, 18–20
clustering          §5.3.1, Figures 11 & 21
top10               §4.2.1, §5.3.2, Table 4
==================  ==============================================
"""

from .clustering import ClusterReport, CountryCluster, cluster_countries
from .composition import CompositionPanel, composition_panel, dominant_category, figure2_panels
from .concentration import (
    ConcentrationCurve,
    HeadlineConcentration,
    all_concentration_curves,
    concentration_curve,
    headline_concentration,
    per_country_top1,
)
from .geography import (
    GLOBAL_SOUTH,
    GlobalSouthPattern,
    SimilarityDecomposition,
    decompose_similarity,
    explained_variance,
    global_south_patterns,
)
from .endemicity import (
    ALL_SHAPES,
    EndemicityResult,
    MISSING_RANK,
    PopularityCurve,
    category_split,
    classify_shape,
    curve_shapes,
    exclusivity_fraction,
    popularity_curves,
    score_endemicity,
)
from .metrics_compare import (
    LOADS_LEANING,
    OTHER,
    TIME_LEANING,
    LeaningComposition,
    MetricOverlap,
    category_overlap,
    classify_leaning,
    leaning_composition,
    metric_overlap,
)
from .platforms import PlatformDifference, platform_differences, split_by_leaning
from .popularity_mix import GlobalShareByBucket, global_share_by_rank, national_majority_rank
from .prevalence import PrevalenceCurve, head_tail_ratio, prevalence_by_rank
from .sampling import (
    CoverageReport,
    compare_strategies,
    country_coverage,
    coverage_report,
    global_study_set,
    hybrid_study_set,
)
from .similarity import (
    IntersectionCurve,
    SimilarityMatrix,
    intersection_curves,
    pairwise_intersections,
    rbo_matrix_for,
    weighted_rbo_matrix,
)
from .temporal import (
    DecemberAnomaly,
    MonthPairSimilarity,
    adjacent_month_series,
    anchored_series,
    category_share_over_months,
    december_anomaly,
    month_pair_similarity,
)
from .top10 import (
    CategoryPresence,
    PlatformExclusives,
    category_presence,
    single_country_sites,
    tag_presence,
    union_of_top_sites,
    windows_only_top_sites,
)
from .weighting import (
    CategoryCodes,
    average_over_countries,
    category_shares,
    count_by_category,
    per_site_share,
    share_by_category,
    weighted_volume_by_category,
)

__all__ = [
    "ALL_SHAPES",
    "CategoryCodes",
    "CategoryPresence",
    "ClusterReport",
    "CompositionPanel",
    "ConcentrationCurve",
    "CoverageReport",
    "CountryCluster",
    "DecemberAnomaly",
    "EndemicityResult",
    "GLOBAL_SOUTH",
    "GlobalShareByBucket",
    "GlobalSouthPattern",
    "SimilarityDecomposition",
    "HeadlineConcentration",
    "IntersectionCurve",
    "LOADS_LEANING",
    "LeaningComposition",
    "MISSING_RANK",
    "MetricOverlap",
    "MonthPairSimilarity",
    "OTHER",
    "PlatformDifference",
    "PlatformExclusives",
    "PopularityCurve",
    "PrevalenceCurve",
    "SimilarityMatrix",
    "TIME_LEANING",
    "adjacent_month_series",
    "all_concentration_curves",
    "anchored_series",
    "average_over_countries",
    "category_overlap",
    "category_presence",
    "category_shares",
    "category_share_over_months",
    "category_split",
    "classify_leaning",
    "classify_shape",
    "curve_shapes",
    "cluster_countries",
    "compare_strategies",
    "composition_panel",
    "concentration_curve",
    "count_by_category",
    "country_coverage",
    "coverage_report",
    "december_anomaly",
    "decompose_similarity",
    "dominant_category",
    "exclusivity_fraction",
    "explained_variance",
    "figure2_panels",
    "global_share_by_rank",
    "global_south_patterns",
    "global_study_set",
    "hybrid_study_set",
    "head_tail_ratio",
    "headline_concentration",
    "intersection_curves",
    "leaning_composition",
    "metric_overlap",
    "month_pair_similarity",
    "national_majority_rank",
    "pairwise_intersections",
    "per_country_top1",
    "per_site_share",
    "platform_differences",
    "popularity_curves",
    "rbo_matrix_for",
    "score_endemicity",
    "share_by_category",
    "single_country_sites",
    "split_by_leaning",
    "tag_presence",
    "union_of_top_sites",
    "weighted_rbo_matrix",
    "weighted_volume_by_category",
    "windows_only_top_sites",
]
