"""Self-contained, canonically serialized certificates for both pipelines.

Every certificate embeds all inputs needed for independent re-checking,
records the assumptions its conclusion is conditional on, and carries
computed-vs-claimed replication evidence verbatim; divergences surface as
first-class `discrepancies` entries, never silently.

Canonical JSON: sorted keys, arbitrary-precision integers rendered exactly,
rationals as "p/q" strings, stable across runs and thread counts.  Both
kinds write `"timing": null`: schema selli-cert/1 fixes that key, and no
wall time is ever recorded, so output is byte-reproducible.

Every block that `verify` recomputes has one producer here, shared by the
builder and the verifier: `profile_block`, `elimination_list`,
`convention_evidence` and `replication_evidence`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd

from . import __version__
from . import jacobian as jac
from .diophantine import (
    DioParams,
    bounded_search,
    obstruction_sweep,
    qr_law_check,
    tuples_checked,
)
from .errors import ParameterError
from .family import (
    ASSUMPTION_GENUS,
    ASSUMPTION_INFINITY,
    ASSUMPTION_NL,
    CandidateSet,
    DiscriminantProfile,
    EliminationRecord,
    FamilyParams,
    discriminant_profile,
    eliminate_points,
    y_candidates,
)
from .ffield import CurveEquation, PointCountTable

SCHEMA = "selli-cert/1"
TORSION_KIND = "torsion-triviality"
DIO_KIND = "diophantine-insolubility"

CONCLUSION_ELIMINATION = "TRIVIAL_BY_POINT_ELIMINATION"
CONCLUSION_COPRIME = "TRIVIAL_BY_COPRIME_ORDERS"
CONCLUSION_INCONCLUSIVE = "INCONCLUSIVE"

# Discrepancy codes (stable strings; see README for meanings)
DISCREPANCY_CONVENTION = "xcoeff-convention-divergence"
DISCREPANCY_DIFF_TABLE = "mod4-difference-table"
DISCREPANCY_SUM_TABLE = "mod4-sum-table"
DISCREPANCY_PARITY = "parity-table"
DISCREPANCY_QR = "qr-law"

DEFAULT_PRIME_BOUND = 100
DEFAULT_QR_BOUND = 10**4


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---- torsion certificate ----

def profile_block(profile: DiscriminantProfile) -> dict:
    """The profile block: Delta(f)(y) as stored and as verify recomputes it."""
    return {
        "c3": profile.c3,
        "c0": profile.c0,
        "lead_abs": profile.lead_abs,
        "const_abs": profile.const_abs,
        "y_degree": profile.y_degree,
    }


def elimination_list(records: Iterable[EliminationRecord]) -> list[dict]:
    """The elimination block, one entry per surviving y0, roots as "p/q"."""
    return [
        {
            "y0": r.y0,
            "cubic": list(r.reduced_cubic.coefficients),
            "rational_x": [str(x) for x in r.rational_x],
            "eliminated": r.eliminated,
        }
        for r in records
    ]


@dataclass(frozen=True)
class TorsionCertificate:
    params: FamilyParams
    convention: str
    profile: DiscriminantProfile
    convention_comparison: dict | None
    candidate_set: CandidateSet
    elimination: tuple[EliminationRecord, ...]
    conclusion: str
    genus: "jac.GenusSpec | None"
    prime_scan: "jac.PrimeScan | None"
    assumptions: tuple[str, ...]
    discrepancies: tuple[str, ...]
    inconclusive_reason: str | None

    def to_dict(self) -> dict:
        p = self.params
        cs = self.candidate_set
        return {
            "schema": SCHEMA,
            "kind": TORSION_KIND,
            "tool_version": __version__,
            "params": {
                "a": p.a,
                "m": p.m,
                "d1": p.d1,
                "d2": p.d2,
                "b": p.b,
                "d": p.d,
                "b_explicit": p.b_explicit,
            },
            "convention": self.convention,
            "profile": profile_block(self.profile),
            "convention_comparison": self.convention_comparison,
            "y_max": cs.y_max,
            "boundary": {
                "y": cs.boundary_y,
                "lhs": cs.boundary_lhs,
                "rhs": cs.boundary_rhs,
            },
            "zero_reason": cs.zero_reason,
            "candidates": list(cs.candidates),
            "surviving": list(cs.surviving),
            "elimination": elimination_list(self.elimination),
            "conclusion": self.conclusion,
            "genus": None
            if self.genus is None
            else {"g": self.genus.g, "source": self.genus.source},
            # the scan counts the one point at infinity of the C_{d1,d2} model
            "infinity_count": None if self.prime_scan is None else 1,
            "prime_scan": _scan_dict(self.prime_scan),
            "assumptions": sorted(self.assumptions),
            "discrepancies": sorted(self.discrepancies),
            "inconclusive_reason": self.inconclusive_reason,
            "timing": None,
        }


def _counts_dict(table: PointCountTable | None) -> dict | None:
    if table is None:
        return None
    return {
        "entries": [[k, n] for k, n in table.entries],
        "infinity_count": table.infinity_count,
    }


def _scan_dict(scan: "jac.PrimeScan | None") -> dict | None:
    if scan is None:
        return None
    cert = scan.certificate
    return {
        "prime_bound": scan.prime_bound,
        "records": [
            {
                "p": r.p,
                "status": r.status,
                "reason": r.reason,
                "order": r.order,
                "counts": _counts_dict(r.counts),
            }
            for r in scan.records
        ],
        "certificate": None
        if cert is None
        else {
            "p1": cert.p1,
            "p2": cert.p2,
            "order1": cert.order1,
            "order2": cert.order2,
            "gcd": cert.gcd_value,
            "counts1": _counts_dict(cert.counts1),
            "counts2": _counts_dict(cert.counts2),
        },
    }


def convention_evidence(params: FamilyParams, convention: str) -> tuple[dict | None, list[str]]:
    """The convention_comparison block and the discrepancies it raises.

    With m = 1 the two conventions coincide and there is nothing to compare.
    Otherwise both profiles are recorded, and a certificate under the
    standard convention carries their divergence as a discrepancy.
    """
    if params.m == 1:
        return None, []
    std = discriminant_profile(params, "standard")
    alt = discriminant_profile(params, "paper-ex2")
    comparison = {
        "standard": {"c3": std.c3, "c0": std.c0},
        "paper-ex2": {"c3": alt.c3, "c0": alt.c0},
    }
    return comparison, [DISCREPANCY_CONVENTION] if convention == "standard" else []


def build_torsion_certificate(
    params: FamilyParams,
    convention: str = "standard",
    *,
    genus: "jac.GenusSpec | None" = None,
    prime_bound: int | None = None,
    budget: int = 10**8,
    threads: int = 1,
) -> TorsionCertificate:
    """Run the torsion pipeline and assemble its certificate.

    Point elimination is always attempted first.  The coprime-order route
    runs only when elimination leaves survivors; it needs a genus, which
    the curve's mixed x*y term prevents deriving by formula, so for m != 0
    the caller must supply one (tagged GENUS-USER) or the outcome is
    honestly INCONCLUSIVE.  `budget` caps the candidate box (see
    `y_candidates`) and each point count of the scan.
    """
    profile = discriminant_profile(params, convention)
    candidates = y_candidates(profile, budget=budget)
    elimination = tuple(eliminate_points(params, candidates.surviving, convention))

    comparison, discrepancies = convention_evidence(params, convention)
    assumptions = [ASSUMPTION_NL]
    genus_used: "jac.GenusSpec | None" = None
    scan = None
    inconclusive_reason = None

    if all(r.eliminated for r in elimination):
        conclusion = CONCLUSION_ELIMINATION
    else:
        genus_used = genus
        if genus_used is None:
            if params.m == 0:
                genus_used = jac.genus_superelliptic(params.d2, params.d1)
            else:
                conclusion = CONCLUSION_INCONCLUSIVE
                inconclusive_reason = (
                    "survivors not eliminated and no genus available: the mixed "
                    "x*y term rules out the superelliptic genus formula, supply "
                    "genus explicitly to enable the coprime-order route"
                )
        if genus_used is not None:
            if genus_used.source == jac.GENUS_USER:
                assumptions.append(ASSUMPTION_GENUS)
            assumptions.append(ASSUMPTION_INFINITY)
            curve = CurveEquation.from_family(params, convention)
            scan = jac.find_certificate_primes(
                curve,
                genus_used,
                prime_bound if prime_bound is not None else DEFAULT_PRIME_BOUND,
                budget=budget,
                threads=threads,
            )
            if scan.certificate is not None:
                conclusion = CONCLUSION_COPRIME
            else:
                conclusion = CONCLUSION_INCONCLUSIVE
                inconclusive_reason = (
                    "survivors not eliminated and the prime scan found no "
                    "coprime-order pair within the bound"
                )

    return TorsionCertificate(
        params=params,
        convention=convention,
        profile=profile,
        convention_comparison=comparison,
        candidate_set=candidates,
        elimination=elimination,
        conclusion=conclusion,
        genus=genus_used,
        prime_scan=scan,
        assumptions=tuple(assumptions),
        discrepancies=tuple(discrepancies),
        inconclusive_reason=inconclusive_reason,
    )


# ---- diophantine certificate ----

@dataclass(frozen=True)
class DioCertificate:
    params: DioParams
    box: int
    solutions: tuple[tuple[int, int, int], ...]
    sweep_bound: int
    sweep_smallest: tuple[int | None, ...]
    replication: dict
    discrepancies: tuple[str, ...]

    def to_dict(self) -> dict:
        p = self.params
        return {
            "schema": SCHEMA,
            "kind": DIO_KIND,
            "tool_version": __version__,
            "params": {
                "a": p.a,
                "b": p.b,
                "d1": p.d1,
                "d2": p.d2,
                "b_mode": p.b_mode,
                "m_prime": p.m_prime,
            },
            "search": {
                "box": self.box,
                "solutions": [list(s) for s in self.solutions],
            },
            "obstructions": {
                "modulus_bound": self.sweep_bound,
                "classes": [
                    {
                        "r": r,
                        "smallest_modulus": self.sweep_smallest[r],
                        "tuples_checked": tuples_checked(self.sweep_smallest[r]),
                    }
                    for r in range(12)
                ],
            },
            "replication": self.replication,
            "discrepancies": sorted(self.discrepancies),
            "timing": None,
        }


# replication entry -> the discrepancy code its `matches: false` raises
_REPLICATION_CODES = (
    ("sum_mod4", DISCREPANCY_SUM_TABLE),
    ("diff_mod4", DISCREPANCY_DIFF_TABLE),
    ("parity", DISCREPANCY_PARITY),
    ("qr_law", DISCREPANCY_QR),
)


def replication_evidence(qr_bound: int) -> tuple[dict, list[str]]:
    """The replication block and the discrepancies it raises.

    Each entry stores computed evidence next to the claim it is measured
    against.  The claims assert that residue 3 is unattainable by
    y^2 + z^2 and by y^2 - z^2 mod 4, that y^2 + z^2 + y*z = 0 (mod 2)
    only at the origin (even powers y^(2s) agree with y^2 mod 2, so the
    quadratic table covers the general claim), and that the
    quadratic-residue law for 3 holds up to `qr_bound`.  The attained sets
    are read off the full tables, nothing is hard-coded, and each entry
    with `matches` false adds its discrepancy code.
    """
    squares = sorted({y * y % 4 for y in range(4)})
    sums = sorted({(y * y + z * z) % 4 for y in range(4) for z in range(4)})
    diffs = sorted({(y * y - z * z) % 4 for y in range(4) for z in range(4)})
    parity = [[y, z] for y in range(2) for z in range(2) if (y * y + z * z + y * z) % 2 == 0]
    qr_holds = qr_law_check(qr_bound)
    block = {
        "squares_mod4": {"attained": squares},
        "sum_mod4": {"attained": sums, "claim_obstructs_3": True, "matches": 3 not in sums},
        "diff_mod4": {"attained": diffs, "claim_obstructs_3": True, "matches": 3 not in diffs},
        "parity": {"solutions": parity, "claim_only_origin": True, "matches": parity == [[0, 0]]},
        "qr_law": {
            "prime_bound": qr_bound,
            "holds": qr_holds,
            "claim_holds": True,
            "matches": qr_holds,
        },
    }
    return block, [code for key, code in _REPLICATION_CODES if not block[key]["matches"]]


def build_dio_certificate(
    params: DioParams,
    *,
    box: int = 30,
    modulus_bound: int = 360,
    qr_bound: int = DEFAULT_QR_BOUND,
) -> DioCertificate:
    """Bounded search plus obstruction sweep plus claim replication.

    The replication block and the discrepancy codes its mismatches raise
    come from `replication_evidence`; `verify` rebuilds all three through
    this function.
    """
    solutions = tuple(bounded_search(params, box))
    sweep = obstruction_sweep(params, modulus_bound)
    replication, discrepancies = replication_evidence(qr_bound)
    return DioCertificate(
        params=params,
        box=box,
        solutions=solutions,
        sweep_bound=sweep.modulus_bound,
        sweep_smallest=sweep.smallest_modulus,
        replication=replication,
        discrepancies=tuple(discrepancies),
    )
