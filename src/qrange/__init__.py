"""Convexity of the joint range of two quadratic functions.

The joint range of a pair of quadratics ``f, g`` on R^n is the planar set
``{(f(x), g(x)) : x in R^n}``.  This package decides whether that set is
convex, and when it is not, produces a checkable certificate: a level of one
function whose level set is split into two nonempty open pieces by a level
set of the other, together with two concrete points exhibiting the split and
the midpoint of their range images that the range misses.

Main entry points:

* :func:`check_convexity` — verdict plus certificate and decision trail.
* :func:`check_flores_bazan` — verdict via a direction criterion, on the same reduction.
* :func:`cross_check` — run both and compare.
* :func:`level_pair_separation` — the two-way separation test at fixed levels.
* :func:`sample_range` / :func:`detect_holes` — sampling oracle.
* :func:`run_curated_suite` — re-derive the bundled reference instances.

``import qrange`` loads no submodule: each public name below is imported
from its home submodule on first access (PEP 562), so a command pays only
for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home submodule -> the public names it exports through the package.
_EXPORTS = {
    # verdicts and reports
    "convexity": (
        "VERDICT_CONVEX",
        "VERDICT_NONCONVEX",
        "ConvexityCertificate",
        "CrossCheckResult",
        "FBReport",
        "NonconvexityWitness",
        "check_convexity",
        "check_flores_bazan",
        "cross_check",
        "verify_certificate",
    ),
    # problem data
    "quadratic": (
        "ProblemInstance",
        "QuadraticFunction",
        "ToleranceSet",
        "compose_affine",
        "evaluate",
        "evaluate_many",
        "load_problem",
        "make_quadratic",
        "problem_from_dict",
        "problem_to_dict",
        "save_problem",
    ),
    # separation machinery
    "separation": (
        "AffineForm",
        "LevelPairReport",
        "LevelSearchResult",
        "SeparationReport",
        "SeparationWitness",
        "affine_separates_quadratic",
        "combination_affine_form",
        "construct_separation_witness",
        "exists_separating_affine_levels",
        "level_pair_separation",
    ),
    # spectral helpers: eigh decomposes a matrix once, and inertia,
    # range_membership and apply_pseudoinverse take its SpectralData
    "spectral": (
        "Inertia",
        "SpectralData",
        "apply_pseudoinverse",
        "eigh",
        "inertia",
        "null_space_basis",
        "pencil_dependence",
        "range_membership",
    ),
    # sampling oracle
    "range_oracle": (
        "HoleReport",
        "RangeSample",
        "SampleMode",
        "detect_holes",
        "domain_points",
        "emit_plot_data",
        "sample_range",
    ),
    # curated instances
    "instances": (
        "CuratedCase",
        "SuiteRow",
        "case_file_document",
        "curated_cases",
        "evaluate_case",
        "get_case",
        "run_curated_suite",
        "suite_passed",
    ),
    "errors": (
        "QRangeError",
        "AsymmetricInput",
        "ConvergenceFailure",
        "DegenerateCloud",
        "DimensionMismatch",
        "InvalidInstance",
        "InvalidReport",
        "IoFailure",
        "OutOfRange",
        "RootFailure",
        "ZeroMatrix",
        "ZeroVector",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
