"""Independent re-verification of emitted certificates.

Works from the certificate's stated inputs alone: parameters are
revalidated, the discriminant profile, candidate divisibility, growth
boundary, elimination polynomials and their rational roots are recomputed,
Jacobian orders are rebuilt from the stored point counts through the full
L-polynomial reconstruction (functional equation and Weil bounds included),
and obstruction tables are re-enumerated.  Any mismatch is reported as a
failure naming the offending block; an empty failure list means the
certificate re-verifies.

Deliberately not re-run: the raw field enumerations behind stored point
counts (that is the emitting tool's work; the stored counts are instead
required to be mutually consistent through the Weil machinery).
"""

from __future__ import annotations

from math import gcd

from . import jacobian as jac
from .certificates import (
    CONCLUSION_COPRIME,
    CONCLUSION_ELIMINATION,
    DIO_KIND,
    SCHEMA,
    TORSION_KIND,
    build_dio_certificate,
)
# The search and the sweep run once per certificate, inside
# build_dio_certificate.  Their names stay bound here because
# perfbench/tracing.py patches them on this module.
from .diophantine import bounded_search, obstruction_sweep, validate_dio_params  # noqa: F401
from .errors import SelliCertError
from .family import (
    ASSUMPTION_NL,
    FamilyParams,
    delta_of_y,
    discriminant_profile,
    elimination_polynomial,
    y_bound,
)
from .ffield import PointCountTable
from .polyring import rational_roots

__all__ = ["verify_certificate"]


def verify_certificate(doc: dict) -> list[str]:
    """Failure descriptions for each evidence block that does not re-check."""
    if not isinstance(doc, dict):
        return ["document: not a JSON object"]
    if doc.get("schema") != SCHEMA:
        return [f"schema: expected {SCHEMA!r}, found {doc.get('schema')!r}"]
    kind = doc.get("kind")
    if kind == TORSION_KIND:
        return _verify_torsion(doc)
    if kind == DIO_KIND:
        return _verify_dio(doc)
    return [f"kind: unknown certificate kind {kind!r}"]


# ---- torsion ----

def _verify_torsion(doc: dict) -> list[str]:
    failures: list[str] = []
    try:
        p = doc["params"]
        params = FamilyParams(
            a=p["a"], m=p["m"], d1=p["d1"], d2=p["d2"], b=p["b"], d=p["d"],
            b_explicit=p["b_explicit"],
        )
        convention = doc["convention"]
    except (KeyError, TypeError) as exc:
        return [f"params: malformed ({exc})"]

    if params.d * 2 != params.d2:
        failures.append("params: d != d2/2")
    if not params.b_explicit and params.b != 2**params.d1 * params.a - 3:
        failures.append("params: b does not match 2^d1*a - 3")

    try:
        profile = discriminant_profile(params, convention)
    except SelliCertError as exc:
        return failures + [f"profile: cannot recompute ({exc})"]
    stored = doc["profile"]
    if (
        stored["c3"] != profile.c3
        or stored["c0"] != profile.c0
        or stored["lead_abs"] != profile.lead_abs
        or stored["const_abs"] != profile.const_abs
        or stored["y_degree"] != profile.y_degree
    ):
        failures.append("profile: stored coefficients do not recompute")

    try:
        ymax = y_bound(profile)
    except SelliCertError as exc:
        return failures + [f"y_max: cannot recompute ({exc})"]
    if doc["y_max"] != ymax:
        failures.append(f"y_max: stored {doc['y_max']}, recomputed {ymax}")

    boundary = doc["boundary"]
    wy = ymax + 1
    rhs = max(abs(delta_of_y(profile, wy)), abs(delta_of_y(profile, -wy)))
    if (
        boundary["y"] != wy
        or boundary["lhs"] != wy**params.d2
        or boundary["rhs"] != rhs
        or not boundary["lhs"] > boundary["rhs"]
    ):
        failures.append("boundary: growth witness does not re-check")

    surviving = []
    seen_y = set()
    for rec in doc["candidates"]:
        y = rec["y"]
        seen_y.add(y)
        value = delta_of_y(profile, y)
        if rec["delta"] != value:
            failures.append(f"candidates: delta({y}) stored {rec['delta']}, recomputed {value}")
            continue
        _, r = divmod(value, y**params.d2)
        passes = r == 0
        if rec["passes"] != passes:
            failures.append(f"candidates: divisibility flag wrong at y = {y}")
        if passes:
            surviving.append(y)
    expected_y = {y for y in range(-ymax, ymax + 1) if y != 0}
    if seen_y != expected_y:
        failures.append("candidates: box does not cover exactly 0 < |y| <= y_max")
    if sorted(doc["surviving"]) != sorted(surviving):
        failures.append("surviving: stored list does not match recomputed survivors")

    elim_y0 = []
    all_eliminated = True
    for rec in doc["elimination"]:
        y0 = rec["y0"]
        elim_y0.append(y0)
        poly = elimination_polynomial(params, y0, convention)
        if list(poly.coefficients) != rec["cubic"]:
            failures.append(f"elimination: polynomial at y0 = {y0} does not recompute")
            continue
        roots = [str(x) for x in rational_roots(poly)]
        if roots != rec["rational_x"]:
            failures.append(f"elimination: rational roots at y0 = {y0} do not recompute")
        if rec["eliminated"] != (not roots):
            failures.append(f"elimination: eliminated flag wrong at y0 = {y0}")
        all_eliminated = all_eliminated and not roots
    if sorted(elim_y0) != sorted(doc["surviving"]):
        failures.append("elimination: records do not cover exactly the survivors")

    if ASSUMPTION_NL not in doc["assumptions"]:
        failures.append("assumptions: missing the Nagell-Lutz-type assumption tag")

    conclusion = doc["conclusion"]
    if conclusion == CONCLUSION_ELIMINATION:
        if not all_eliminated:
            failures.append("conclusion: point-elimination claimed but a survivor has a rational point")
    elif conclusion == CONCLUSION_COPRIME:
        failures.extend(_verify_coprime_block(doc))
    return failures


def _verify_coprime_block(doc: dict) -> list[str]:
    failures: list[str] = []
    scan = doc.get("prime_scan")
    cert = None if scan is None else scan.get("certificate")
    if cert is None:
        return ["conclusion: coprime-order conclusion without a certificate block"]
    genus_doc = doc.get("genus")
    if genus_doc is None:
        return ["genus: coprime-order conclusion without a genus"]
    try:
        genus = jac.GenusSpec(g=genus_doc["g"], source=genus_doc["source"])
    except SelliCertError as exc:
        return [f"genus: invalid ({exc})"]
    if gcd(cert["order1"], cert["order2"]) != 1 or cert["gcd"] != 1:
        failures.append("certificate_primes: orders are not coprime")
    for label in ("1", "2"):
        p = cert[f"p{label}"]
        stored_order = cert[f"order{label}"]
        counts_doc = cert[f"counts{label}"]
        if counts_doc is None:
            failures.append(f"certificate_primes: missing counts for p{label}")
            continue
        table = PointCountTable(
            entries=tuple((k, n) for k, n in counts_doc["entries"]),
            infinity_count=counts_doc["infinity_count"],
        )
        try:
            lpoly = jac.l_polynomial_from_counts(p, genus, table)
        except SelliCertError as exc:
            failures.append(f"certificate_primes: counts for p = {p} inconsistent ({exc})")
            continue
        if jac.jacobian_order(lpoly) != stored_order:
            failures.append(f"certificate_primes: order at p = {p} does not recompute")
    return failures


# ---- diophantine ----

def _verify_dio(doc: dict) -> list[str]:
    failures: list[str] = []
    try:
        p = doc["params"]
        params = validate_dio_params(
            p["a"], p["d1"], p["d2"], b_mode=p["b_mode"], m_prime=p["m_prime"]
        )
    except SelliCertError as exc:
        return [f"params: invalid ({exc})"]
    if params.b != doc["params"]["b"]:
        failures.append("params: stored b does not match its construction")

    search = doc["search"]
    obstructions = doc["obstructions"]
    reference = build_dio_certificate(
        params,
        box=search["box"],
        modulus_bound=obstructions["modulus_bound"],
        qr_bound=doc["replication"]["qr_law"]["prime_bound"],
    )
    if [list(s) for s in reference.solutions] != search["solutions"]:
        failures.append("search: bounded search does not reproduce stored solutions")

    for entry in obstructions["classes"]:
        r = entry["r"]
        smallest = reference.sweep_smallest[r]
        if smallest != entry["smallest_modulus"]:
            failures.append(
                f"obstructions: class {r} stored modulus {entry['smallest_modulus']}, "
                f"recomputed {smallest}"
            )
            continue
        cert = reference.sweep_certificates[r]
        stored_tc = entry["tuples_checked"]
        if cert is not None and stored_tc != cert.tuples_checked:
            failures.append(f"obstructions: class {r} tuple count does not recompute")

    if reference.replication != doc["replication"]:
        failures.append("replication: tables do not recompute")
    if sorted(reference.discrepancies) != doc["discrepancies"]:
        failures.append("discrepancies: list does not recompute")
    return failures
