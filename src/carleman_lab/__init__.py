"""carleman-lab: a computable calculus of Denjoy-Carleman weight sequences.

Log-space tabulations of weight sequences, their derived scales and
minorants, the check-sequence bijection, finite-prefix diagnostics for
quasianalyticity and growth conditions, separating-majorant constructions,
and exact truncated formal-power-series composition with growth
certificates.
"""

from .seqcore import (
    DerivedScales,
    DomainError,
    MembershipCertificate,
    WeightSequence,
    fm_membership,
    log_factorial,
    rescale,
    tabulate,
)
from .envelope import (
    EnvelopeResult,
    check_sequence,
    compose_sequences,
    increasing_minorant,
    log_convex_minorant,
    lower_convex_envelope,
    uncheck_sequence,
)
from .predicates import (
    QuasiDiagnostic,
    Verdict,
    growth_diagnostic,
    inclusion_diagnostic,
    is_log_convex,
    quasianalytic_diagnostic,
)
from .families import FamilySpec, builtin_sequences, kappa, make_family, parse_family
from .intersections import (
    MajorantTrace,
    escape_log_coefficients,
    lprime_construction,
    min_combine,
    separating_majorant,
    separating_majorant_weak,
)
from .fdb import (
    TruncatedSeries,
    compose_series,
    multiply_series,
    verify_composition_bound,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedScales",
    "DomainError",
    "EnvelopeResult",
    "FamilySpec",
    "MajorantTrace",
    "MembershipCertificate",
    "QuasiDiagnostic",
    "TruncatedSeries",
    "Verdict",
    "WeightSequence",
    "builtin_sequences",
    "check_sequence",
    "compose_sequences",
    "compose_series",
    "escape_log_coefficients",
    "fm_membership",
    "growth_diagnostic",
    "inclusion_diagnostic",
    "increasing_minorant",
    "is_log_convex",
    "kappa",
    "log_convex_minorant",
    "log_factorial",
    "lower_convex_envelope",
    "lprime_construction",
    "make_family",
    "min_combine",
    "multiply_series",
    "parse_family",
    "quasianalytic_diagnostic",
    "rescale",
    "separating_majorant",
    "separating_majorant_weak",
    "tabulate",
    "uncheck_sequence",
    "verify_composition_bound",
    "__version__",
]
