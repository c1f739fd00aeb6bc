"""Exact certificate toolkit for a superelliptic curve family.

Two engines.  The first certifies that the rational torsion of the
Jacobian attached to a family member is trivial, by enumerating
divisibility-constrained candidates, eliminating them through rational
root checks, and, when needed, producing a pair of good primes whose
Jacobian orders are coprime.  The second certifies that a companion
Diophantine equation has no integer solutions in a box and records
exhaustive residue-class obstructions.

Every certificate is canonical JSON and can be re-verified offline with
``selli-cert verify``.
"""

# Set before the submodules load: certificates stamps it as tool_version.
__version__ = "0.1.0"

from .certificates import (
    DioCertificate,
    TorsionCertificate,
    build_dio_certificate,
    build_torsion_certificate,
    canonical_json,
)
from .diophantine import DioParams, bounded_search, obstruction_sweep, validate_dio_params
from .errors import (
    BudgetExceededError,
    HypothesisError,
    NonIntegerCoefficientError,
    ParameterError,
    SelliCertError,
    WeilViolationError,
)
from .family import FamilyParams, discriminant_profile, validate_params, y_candidates
from .ffield import CurveEquation, count_points, find_irreducible, is_smooth_mod_p
from .jacobian import GenusSpec, genus_superelliptic, jacobian_order, l_polynomial_from_counts
from .polyring import IntPolynomial, discriminant, rational_roots, resultant
from .verify import verify_certificate

__all__ = [
    "BudgetExceededError",
    "CurveEquation",
    "DioCertificate",
    "DioParams",
    "FamilyParams",
    "GenusSpec",
    "HypothesisError",
    "IntPolynomial",
    "NonIntegerCoefficientError",
    "ParameterError",
    "SelliCertError",
    "TorsionCertificate",
    "WeilViolationError",
    "bounded_search",
    "build_dio_certificate",
    "build_torsion_certificate",
    "canonical_json",
    "count_points",
    "discriminant",
    "discriminant_profile",
    "find_irreducible",
    "genus_superelliptic",
    "is_smooth_mod_p",
    "jacobian_order",
    "l_polynomial_from_counts",
    "obstruction_sweep",
    "rational_roots",
    "resultant",
    "validate_dio_params",
    "validate_params",
    "verify_certificate",
    "y_candidates",
]
