"""Exact construction and verification of locally most reliable two-terminal graphs."""

from .classify import (
    Sign,
    SpectrumParams,
    classify,
    quasi_complete_m1,
    quasi_complete_params,
    quasi_star_m1,
    quasi_star_params,
    spectrum,
    tie_pairs,
)
from .errors import DomainError, FamilyDoesNotExist, SizeLimitError
from .families import (
    FamilyTag,
    build_family,
    build_h_optimal,
    build_lmrttg,
    candidate_set,
    family_exists,
)
from .graphs import (
    Graph,
    TwoTerminalGraph,
    canonical_key,
    complement,
    from_json,
    graph_key,
    join,
    threshold_graph,
    to_dot,
)
from .invariants import (
    InvariantBundle,
    complement_residuals,
    family_h,
    family_h_values,
    h_sum_offset,
    invariant_bundle,
    quasi_complete_h,
)
from .quadratic import (
    GAP_LOWER,
    MARGIN,
    SPREAD_UPPER,
    QuadNumber,
    QuadPolynomial,
    band_bounds_check,
    count_roots,
    refine_root,
    sturm_sequence,
)
from .reliability import find_lmrttg, n_vector, reliability_at
from .scans import (
    ScanReport,
    band_bounds_report,
    band_decomposition_violations,
    brute_record,
    identity_suite,
    scan_tie_band,
    scan_uniqueness,
    sturm_report,
    verify_seven_pairs,
)
