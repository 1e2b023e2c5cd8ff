"""Neighborly families of boxes as ternary strings.

Construct, verify, bound and exactly solve maximum k-neighborly families
of axis-aligned boxes in R^d, represented as strings over {0, 1, *}, with
the equivalent view as biclique coverings of complete graphs.
"""

__version__ = "0.1.0"

from .biclique import BicliqueCover, CoverReport, cover_to_family, family_to_cover, verify_cover
from .bounds import (
    Bound,
    BoundsEntry,
    GreedyProfile,
    NoValidSplit,
    PascalFinding,
    alon_lower,
    alon_upper,
    ball_lower,
    best_bounds,
    bounds_table,
    greedy_kappa_upper,
    huang_sudakov_upper,
    kappa,
    pascal_audit,
    refined_upper,
    split_upper,
    split_upper_best,
    strict_floor,
)
from .constructions import (
    FragmentPlan,
    MValueResult,
    ball_family,
    canonical,
    extremal_dminus1,
    fragmented,
    fragmented_parts,
    m_value,
    mbar_value,
    product,
    realize_mbar,
)
from .families import (
    Family,
    NeighborlinessReport,
    diameter,
    is_lamination,
    is_partition,
    is_total_lamination,
    reduce_to_trivial,
    sgn_sum,
    verify_neighborly,
    volume,
)
from .search import (
    CapacityExceeded,
    EnumerationIncomplete,
    SearchConfig,
    SearchResult,
    enumerate_candidates,
    enumerate_max_families,
    max_family,
    verify_certificate,
)
from .strings import TernaryString, all_jokers, all_strings, parse

__all__ = [
    "TernaryString", "parse", "all_jokers", "all_strings",
    "Family", "NeighborlinessReport", "verify_neighborly", "volume",
    "is_partition", "is_lamination", "is_total_lamination",
    "reduce_to_trivial", "sgn_sum", "diameter",
    "FragmentPlan", "MValueResult", "canonical", "ball_family", "product",
    "fragmented", "fragmented_parts", "extremal_dminus1", "m_value",
    "mbar_value", "realize_mbar",
    "Bound", "BoundsEntry", "GreedyProfile", "PascalFinding", "NoValidSplit",
    "kappa", "alon_lower", "alon_upper", "huang_sudakov_upper", "ball_lower",
    "split_upper", "split_upper_best", "greedy_kappa_upper", "refined_upper",
    "best_bounds", "bounds_table", "pascal_audit", "strict_floor",
    "SearchConfig", "SearchResult", "CapacityExceeded", "EnumerationIncomplete",
    "enumerate_candidates", "max_family", "enumerate_max_families",
    "verify_certificate",
    "BicliqueCover", "CoverReport", "family_to_cover", "cover_to_family",
    "verify_cover",
]
