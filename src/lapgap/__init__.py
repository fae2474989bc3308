"""Simplicial complexes, reduced Laplacians, spectral gaps, and degree bounds.

Importing the package loads none of its modules.  ``_EXPORTS`` lists each
submodule with the names the package exports from it; ``lapgap.X`` imports
the submodule that defines X on first access and looks X up there on every
access (PEP 562), so it is always that module's current binding, and
numpy is loaded only by the first name whose module needs it.  A
submodule's own name resolves to the submodule.
"""

from importlib import import_module

_EXPORTS = {
    "bounds": (
        "BoundReport",
        "DegreeSumRecord",
        "VanishingReport",
        "bound_profile",
        "degree_sum_check",
        "effective_missing_dim",
        "gershgorin_from_degrees",
        "gershgorin_lower_bound",
        "spectral_gap_bound",
        "vanishing_threshold",
    ),
    "cli": (),
    "complexes": (
        "MissingFaceReport",
        "Simplex",
        "SimplicialComplex",
        "ZParams",
        "build_z",
        "clique_complex",
        "compactify",
        "degree",
        "facets",
        "from_facets",
        "from_missing_faces",
        "full_simplex",
        "induced",
        "join",
        "link",
        "load_edge_file",
        "load_facet_file",
        "min_degree",
        "missing_faces",
        "relabel",
        "simplex",
        "skeleton",
    ),
    "errors": ("DomainError", "InputError", "IntegrityError", "SizeLimitError"),
    "extremal": (
        "EqualityVerdict",
        "ProbeHit",
        "ProbeReport",
        "canonical_equality_complex",
        "equality_case_check",
        "graphs_up_to_isomorphism",
        "isomorphic",
        "predicted_z_profile",
        "probe_equality_cases",
        "verify_z_family",
    ),
    "hodge": (),
    "operators": (
        "BochnerSplit",
        "OperatorMatrix",
        "bochner_split",
        "coboundary_matrix",
        "laplacian",
        "laplacian_entry",
        "laplacian_entrywise",
        "offdiag_abs_row_sum",
        "sign",
    ),
    "spectral": (
        "Spectrum",
        "SpectralProfile",
        "betti",
        "eigenvalues",
        "join_spectrum",
        "multiset_close",
        "rank_mod_p",
        "skeleton_spectrum",
        "spectral_gap",
        "spectral_profile",
        "spectrum_of",
        "spectrum_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        # a submodule is a package attribute once it has loaded
        return getattr(globals().get(home) or import_module(f"{__name__}.{home}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
