"""Self-contained, canonically serialized certificates for both pipelines.

Every certificate embeds all inputs needed for independent re-checking,
records the assumptions its conclusion is conditional on, and carries
computed-vs-claimed replication evidence verbatim; divergences surface as
first-class `discrepancies` entries, never silently.

Canonical JSON: sorted keys, arbitrary-precision integers rendered exactly,
rationals as "p/q" strings, stable across runs.  Both kinds write
`"timing": null`: schema selli-cert/1 fixes that key, and no wall time is
ever recorded, so output is byte-reproducible.

Every block that `verify` rebuilds has one producer here, shared by the
builder and the verifier: `params_block`, `profile_block`,
`elimination_list`, `convention_evidence`, `torsion_outcome`, `scan_block`
(with `record_block`, `pair_block` and `counts_block`) and
`replication_evidence`, assembled by `TorsionCertificate.to_dict` and
`build_dio_certificate`.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from . import __version__
from . import jacobian as jac
from .diophantine import (
    DioParams,
    bounded_search,
    check_qr_bound,
    check_search_box,
    obstruction_sweep,
    qr_law_check,
    sweep_plan,
    tuples_checked,
)
from .family import (
    ASSUMPTION_GENUS,
    ASSUMPTION_INFINITY,
    ASSUMPTION_NL,
    DEFAULT_BUDGET,
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

# Defaults of the two builders, which the CLI also takes.
DEFAULT_PRIME_BOUND = 100
DEFAULT_BOX = 30
DEFAULT_MODULUS_BOUND = 360
DEFAULT_QR_BOUND = 10**4


def canonical_json(doc: dict) -> str:
    """The certificate bytes: `json.dumps(doc, sort_keys=True, indent=2) + "\\n"`.

    That call takes the stdlib's pure-Python encoder, because an indent
    rules out its C encoder.  Here every container whose children are all
    scalars is written by one call of the C encoder, with ",\\n" plus the
    children's indent as its item separator, and then wrapped in its
    opening line and its closing bracket.  A list of non-empty such dicts
    is one call too, at the dicts' own indent; each "},\\n" + indent + "{"
    between two records is then rewritten to the list's indent.  That
    rewrite is safe because the C encoder escapes every newline inside a
    string, so each newline comes from a separator, and a "}" right before
    one closes a dict.  Only containers nested deeper are walked here.

    Keys must be strings where a container is walked (certificates carry
    no other kind); a non-str key there raises TypeError.
    """
    return _indented(doc, "") + "\n"


# exact types only: a container that holds a subclass of one is walked
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _all_scalars(values: Iterable) -> bool:
    return _SCALARS.issuperset(map(type, values))


@functools.cache
def _c_encoder(pad: str):
    """C encoder, sorted keys and ASCII output, whose item separator ends in pad."""
    return c_make_encoder(
        None, JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + pad, True, False, True,
    )


def _one_level(value, pad: str) -> str:
    # past about 100,000 pieces the encoder returns several chunks
    return "".join(_c_encoder(pad)(value, 0))


def _wrap(open_: str, pad: str, body: str, outer: str, close: str) -> str:
    """body between its brackets, on lines of its own; one copy of body."""
    return f"{open_}\n{pad}{body}\n{outer}{close}"


def _indented(value, outer: str) -> str:
    """value as `json.dumps(..., sort_keys=True, indent=2)` writes it at indent outer."""
    pad = outer + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if _all_scalars(value.values()):
            return _wrap("{", pad, _one_level(value, pad)[1:-1], outer, "}")
        body = (",\n" + pad).join(
            encode_basestring_ascii(k) + ": " + _indented(v, pad)
            for k, v in sorted(value.items())
        )
        return _wrap("{", pad, body, outer, "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if _SCALARS.issuperset(types):
            return _wrap("[", pad, _one_level(value, pad)[1:-1], outer, "]")
        if (
            types == {dict}
            and all(value)
            and _all_scalars(chain.from_iterable(map(dict.values, value)))
        ):
            inner = pad + "  "
            records = _one_level(value, inner)[2:-2].replace(
                "},\n" + inner + "{", "\n" + pad + "},\n" + pad + "{\n" + inner
            )
            return _wrap("[", pad, _wrap("{", inner, records, pad, "}"), outer, "]")
        body = (",\n" + pad).join(_indented(v, pad) for v in value)
        return _wrap("[", pad, body, outer, "]")
    return _one_level(value, pad)


# ---- torsion certificate ----

def params_block(params: FamilyParams) -> dict:
    """The params block: the family member with its derived b and d."""
    return {
        "a": params.a,
        "m": params.m,
        "d1": params.d1,
        "d2": params.d2,
        "b": params.b,
        "d": params.d,
        "b_explicit": params.b_explicit,
    }


def profile_block(profile: DiscriminantProfile) -> dict:
    """The profile block: Delta(f)(y) as stored and as verify recomputes it."""
    return {
        "c3": profile.c3,
        "c0": profile.c0,
        "lead_abs": abs(profile.lead),
        "const_abs": abs(profile.const),
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
class TorsionOutcome:
    """How a torsion certificate concludes; `torsion_outcome` decides it."""

    conclusion: str
    genus: "jac.GenusSpec | None"  # the genus the prime scan ran under; None when none ran
    assumptions: tuple[str, ...]
    inconclusive_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "genus": None
            if self.genus is None
            else {"g": self.genus.g, "source": self.genus.source},
            # the scan counts the one point at infinity of the C_{d1,d2} model
            "infinity_count": None if self.genus is None else 1,
            "assumptions": sorted(self.assumptions),
            "inconclusive_reason": self.inconclusive_reason,
        }


@dataclass(frozen=True)
class TorsionCertificate:
    params: FamilyParams
    convention: str
    profile: DiscriminantProfile
    convention_comparison: dict | None
    candidate_set: CandidateSet
    elimination: tuple[EliminationRecord, ...]
    outcome: TorsionOutcome
    prime_scan: "jac.PrimeScan | None"
    discrepancies: tuple[str, ...]

    def to_dict(self) -> dict:
        cs = self.candidate_set
        return {
            "schema": SCHEMA,
            "kind": TORSION_KIND,
            "tool_version": __version__,
            "params": params_block(self.params),
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
            **self.outcome.to_dict(),
            "prime_scan": scan_block(self.prime_scan),
            "discrepancies": sorted(self.discrepancies),
            "timing": None,
        }


def counts_block(table: PointCountTable | None) -> dict | None:
    """A point-count table: N_k for each k, and the points counted at infinity."""
    if table is None:
        return None
    return {
        "entries": [[k, n] for k, n in table.entries],
        "infinity_count": table.infinity_count,
    }


def record_block(record: "jac.PrimeOrderRecord") -> dict:
    """One prime of the scan: its status, skip reason, Jacobian order and counts."""
    return {
        "p": record.p,
        "status": record.status,
        "reason": record.reason,
        "order": record.order,
        "counts": counts_block(record.counts),
    }


def pair_block(pair: "tuple[jac.PrimeOrderRecord, jac.PrimeOrderRecord] | None") -> dict | None:
    """The coprime-order pair, two ok records of the scan (`jac.coprime_pair`)."""
    if pair is None:
        return None
    r1, r2 = pair
    return {
        "p1": r1.p,
        "p2": r2.p,
        "order1": r1.order,
        "order2": r2.order,
        "gcd": 1,  # what makes the two records the pair
        "counts1": counts_block(r1.counts),
        "counts2": counts_block(r2.counts),
    }


def scan_block(scan: "jac.PrimeScan | None") -> dict | None:
    """The prime_scan block: every record of the scan, and its coprime-order pair."""
    if scan is None:
        return None
    return {
        "prime_bound": scan.prime_bound,
        "records": [record_block(r) for r in scan.records],
        "certificate": pair_block(scan.certificate),
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


_NO_GENUS = (
    "survivors not eliminated and no genus available: the mixed "
    "x*y term rules out the superelliptic genus formula, supply "
    "genus explicitly to enable the coprime-order route"
)
_NO_PAIR = (
    "survivors not eliminated and the prime scan found no "
    "coprime-order pair within the bound"
)


def torsion_outcome(
    params: FamilyParams,
    eliminated: bool,
    genus: "jac.GenusSpec | None",
    scan: "Callable[[jac.GenusSpec], bool]",
) -> TorsionOutcome:
    """The conclusion of a torsion certificate, with its genus, assumptions
    and the reason it is inconclusive.

    Point elimination settles it when every survivor is eliminated.
    Otherwise the coprime-order route needs a genus: `genus` if given,
    else the superelliptic formula, which the mixed x*y term rules out
    unless m = 0; with neither the outcome is honestly INCONCLUSIVE.
    `scan(genus)` runs the prime scan under that genus (or, in `verify`,
    reads the stored one) and says whether it found a coprime-order pair.
    """
    if eliminated:
        return TorsionOutcome(CONCLUSION_ELIMINATION, None, (ASSUMPTION_NL,))
    if genus is None and params.m == 0:
        genus = jac.genus_superelliptic(params.d2, params.d1)
    if genus is None:
        return TorsionOutcome(CONCLUSION_INCONCLUSIVE, None, (ASSUMPTION_NL,), _NO_GENUS)
    assumptions = (ASSUMPTION_NL, ASSUMPTION_INFINITY)
    if genus.source == jac.GENUS_USER:
        assumptions += (ASSUMPTION_GENUS,)
    if scan(genus):
        return TorsionOutcome(CONCLUSION_COPRIME, genus, assumptions)
    return TorsionOutcome(CONCLUSION_INCONCLUSIVE, genus, assumptions, _NO_PAIR)


def build_torsion_certificate(
    params: FamilyParams,
    convention: str = "standard",
    *,
    genus: "jac.GenusSpec | None" = None,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    budget: int = DEFAULT_BUDGET,
) -> TorsionCertificate:
    """Run the torsion pipeline and assemble its certificate.

    Point elimination is always attempted first.  The coprime-order route
    runs only when elimination leaves survivors; it needs a genus, which
    the curve's mixed x*y term prevents deriving by formula, so for m != 0
    the caller must supply one (tagged GENUS-USER) or the outcome is
    honestly INCONCLUSIVE (see `torsion_outcome`).  `budget` caps the
    candidate box (see `y_candidates`) and each point count of the scan.
    """
    profile = discriminant_profile(params, convention)
    candidates = y_candidates(profile, budget=budget)
    elimination = tuple(eliminate_points(params, candidates.surviving, convention))
    comparison, discrepancies = convention_evidence(params, convention)
    prime_scan = None

    def scan(genus_used: jac.GenusSpec) -> bool:
        nonlocal prime_scan
        prime_scan = jac.find_certificate_primes(
            CurveEquation.from_family(params, convention),
            genus_used,
            prime_bound,
            budget=budget,
        )
        return prime_scan.certificate is not None

    outcome = torsion_outcome(params, all(r.eliminated for r in elimination), genus, scan)
    return TorsionCertificate(
        params=params,
        convention=convention,
        profile=profile,
        convention_comparison=comparison,
        candidate_set=candidates,
        elimination=elimination,
        outcome=outcome,
        prime_scan=prime_scan,
        discrepancies=tuple(discrepancies),
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
    box: int = DEFAULT_BOX,
    modulus_bound: int = DEFAULT_MODULUS_BOUND,
    qr_bound: int = DEFAULT_QR_BOUND,
) -> DioCertificate:
    """Bounded search plus obstruction sweep plus claim replication.

    The replication block and the discrepancy codes its mismatches raise
    come from `replication_evidence`; `verify` rebuilds all three through
    this function.  All three stages are priced before any of them runs.
    """
    sweep_plan(modulus_bound)
    check_search_box(box)
    check_qr_bound(qr_bound)
    sweep = obstruction_sweep(params, modulus_bound)
    solutions = tuple(bounded_search(params, box))
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
