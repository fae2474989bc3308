"""Simplicial complexes, reduced Laplacians, spectral gaps, and degree bounds."""

from .bounds import (
    BoundReport,
    DegreeSumRecord,
    VanishingReport,
    bound_profile,
    degree_sum_check,
    effective_missing_dim,
    gershgorin_from_degrees,
    gershgorin_lower_bound,
    spectral_gap_bound,
    vanishing_threshold,
)
from .complexes import (
    MissingFaceReport,
    Simplex,
    SimplicialComplex,
    clique_complex,
    compactify,
    degree,
    facets,
    from_facets,
    from_missing_faces,
    full_simplex,
    induced,
    join,
    link,
    load_edge_file,
    load_facet_file,
    min_degree,
    missing_faces,
    relabel,
    simplex,
    skeleton,
)
from .errors import DomainError, InputError, IntegrityError, SizeLimitError
from .extremal import (
    EqualityVerdict,
    ProbeHit,
    ProbeReport,
    ZParams,
    build_z,
    canonical_equality_complex,
    equality_case_check,
    graphs_up_to_isomorphism,
    isomorphic,
    predicted_z_profile,
    probe_equality_cases,
    verify_z_family,
)
from .operators import (
    BochnerSplit,
    OperatorMatrix,
    bochner_split,
    coboundary_matrix,
    laplacian,
    laplacian_entry,
    laplacian_entrywise,
    offdiag_abs_row_sum,
    sign,
)
from .spectral import (
    Spectrum,
    SpectralProfile,
    betti,
    eigenvalues,
    join_spectrum,
    multiset_close,
    rank_mod_p,
    skeleton_spectrum,
    spectral_gap,
    spectral_profile,
    spectrum_of,
    spectrum_table,
)

__version__ = "0.1.0"
