"""Rough-angle analysis of finite metric spaces.

The SRA(alpha) condition bounds every "rough angle" of a finite metric
space: d(x,y) <= max{d(x,z) + alpha d(z,y), alpha d(x,z) + d(z,y)} for all
triples.  This package decides it, finds critical parameters and maximal
SRA subspaces, verifies discrete self-expanding spaces and self-contracted
curves, evaluates the explicit constants of the extraction argument, and
measures distance-to-net embeddings, each with brute-force oracles at desk
scale.
"""

from .metric_core import (
    EUCLIDEAN_L2,
    HYPERBOLIC_PLANE,
    NORMED_L1,
    NORMED_LINF,
    SPHERE_UNIT,
    FiniteMetricSpace,
    MetricStructureError,
    ModelSpaceSpec,
    PointCloud,
    ValidationReport,
    default_tol,
    diameter,
    from_point_cloud,
    sample_model,
    snowflake,
    subspace,
    validate_metric,
)
from .sra_analysis import (
    AngleAudit,
    SraVerdict,
    SubsetCertificate,
    critical_alpha,
    euclidean_angle_audit,
    is_sra,
    max_sra_subset,
    sra_free_order,
    sra_report,
    violating_triples,
)
from .dse_spaces import (
    DseSpace,
    DseVerdict,
    RejectionError,
    as_dse,
    check_two_lemma,
    gap_D,
    gen_random_dse,
    gen_snowflaked_path,
    is_dse,
    length_L,
)
from .curves import (
    DivergenceError,
    SampledCurve,
    curve_diameter,
    curve_length,
    curve_to_dse,
    gen_gradient_trajectory,
    gen_quasiconvex_trajectory,
    gen_subgradient_trajectory,
    is_self_contracted,
)
from .constants_extraction import (
    ConstantsBundle,
    ExtractionResult,
    RefutationReport,
    all_pair_colorings_force_triangle,
    c_of_m_theta,
    default_theta,
    extract_sra_subspace,
    find_theta_straight_subset,
    format_constant,
    globq_bound,
    make_bundle,
    max_theta_straight_subset,
    n_of_theta_alpha,
    ramsey_pair_bound,
    ramsey_triple_bound,
    refute_weird_angles,
    weird_angle_limit,
    weird_angle_threshold,
    weird_conditions_satisfied,
)
from .net_embedding import (
    CoverFreenessReport,
    NetEmbedding,
    doubling_estimate,
    freeness_via_cover,
    greedy_net,
    net_embed,
)

__version__ = "0.1.0"
