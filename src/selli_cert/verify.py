"""Independent re-verification of emitted certificates.

Works from the certificate's stated inputs alone: parameters are
revalidated against the hypotheses the emitting tool enforces (H1-H5 for
the curve family, D1-D5 for the Diophantine equation) and the stored
derived values must match the validated ones; the discriminant profile,
the convention comparison and its discrepancies, candidate divisibility
and the growth boundary are recomputed, and the survivors, listed in
ascending order, are re-solved with the builder's own functions
(`family.eliminate_points`, `certificates.elimination_list`).  Jacobian
orders are rebuilt from the stored point counts through the full
L-polynomial reconstruction (functional equation and Weil bounds
included), and obstruction tables are re-enumerated for the twelve
classes r = 0..11, listed once each in order.  y_max and each class's
smallest modulus and tuple count must be JSON integers (or null for an
open class), and the replication block must match as JSON text, so a
float or a bool that compares equal fails.  The conclusion must be one of
the three the tool emits.  A coprime-order pair must be two odd primes
p1 < p2 whose ok records it repeats, in a scan that lists every prime up
to its bound, under a genus that matches its stated source; every count
adds the one point at infinity of the C_{d1,d2} model.  Work stays
bounded by the document: a candidate box whose length is not 2*y_max, or
a prime bound too large for the number of records, fails before anything
is enumerated, and elimination records that do not list exactly the
recomputed survivors, in order, fail before any polynomial is solved.
Any mismatch, or a missing or mistyped field, is reported as a failure
naming the offending block; an empty failure list means the certificate
re-verifies.

Deliberately not re-run: the raw field enumerations behind stored point
counts (that is the emitting tool's work; the stored counts are instead
required to be mutually consistent through the Weil machinery).
"""

from __future__ import annotations

import json
from math import gcd

from . import jacobian as jac
from .arith import is_prime, primes_upto
from .certificates import (
    CONCLUSION_COPRIME,
    CONCLUSION_ELIMINATION,
    CONCLUSION_INCONCLUSIVE,
    DIO_KIND,
    SCHEMA,
    TORSION_KIND,
    build_dio_certificate,
    convention_evidence,
    elimination_list,
    profile_block,
)
# The search and the sweep run once per certificate, inside
# build_dio_certificate.  Their names stay bound here because
# perfbench/tracing.py patches them on this module.
from .diophantine import (  # noqa: F401
    bounded_search,
    obstruction_sweep,
    tuples_checked,
    validate_dio_params,
)
from .errors import SelliCertError
from .family import (
    ASSUMPTION_GENUS,
    ASSUMPTION_INFINITY,
    ASSUMPTION_NL,
    FamilyParams,
    delta_of_y,
    discriminant_profile,
    eliminate_points,
    validate_params,
    y_bound,
)
from .ffield import PointCountTable
# Elimination records are solved inside family.eliminate_points.  This name
# stays bound here because perfbench/tracing.py patches it on this module.
from .polyring import rational_roots  # noqa: F401

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


# What reading a missing or mistyped field raises; verify reports it as a
# failure of the block being read, never as a crash.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError, ZeroDivisionError)


# ---- torsion ----

def _verify_torsion(doc: dict) -> list[str]:
    failures: list[str] = []
    block = "params"
    try:
        p = doc["params"]
        try:
            params = validate_params(
                p["a"], p["m"], p["d1"], p["d2"], p["b"] if p["b_explicit"] else None
            )
        except SelliCertError as exc:
            return [f"params: invalid ({exc})"]
        if (p["b"], p["d"]) != (params.b, params.d):
            failures.append("params: stored b or d does not match the validated parameters")
        convention = doc["convention"]

        block = "profile"
        profile = discriminant_profile(params, convention)
        if doc["profile"] != profile_block(profile):
            failures.append("profile: stored coefficients do not recompute")

        block = "y_max"
        ymax = y_bound(profile)
        if type(doc["y_max"]) is not int or doc["y_max"] != ymax:
            failures.append(f"y_max: stored {doc['y_max']}, recomputed {ymax}")

        block = "boundary"
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

        block = "candidates"
        records = doc["candidates"]
        # the length check comes first: y_max follows from the parameters,
        # not from the document's size, and may be near 2^55
        if len(records) != 2 * ymax or [rec["y"] for rec in records] != [
            *range(-ymax, 0),
            *range(1, ymax + 1),
        ]:
            failures.append("candidates: box does not list 0 < |y| <= y_max in order")
            records = []
        surviving = []
        for rec in records:
            y = rec["y"]
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

        block = "surviving"
        if doc["surviving"] != surviving:
            failures.append("surviving: stored list does not match recomputed survivors")

        block = "elimination"
        elimination = []
        # coverage comes first, so no record outside the survivors is solved
        if [rec["y0"] for rec in doc["elimination"]] != surviving:
            failures.append("elimination: records do not cover exactly the survivors")
        else:
            elimination = eliminate_points(params, surviving, convention)
            if elimination_list(elimination) != doc["elimination"]:
                failures.append("elimination: stored records do not recompute")
        all_eliminated = all(r.eliminated for r in elimination)

        block = "assumptions"
        if ASSUMPTION_NL not in doc["assumptions"]:
            failures.append("assumptions: missing the Nagell-Lutz-type assumption tag")

        block = "convention_comparison"
        comparison, discrepancies = convention_evidence(params, convention)
        if doc["convention_comparison"] != comparison:
            failures.append("convention_comparison: stored profiles do not recompute")
        block = "discrepancies"
        if doc["discrepancies"] != discrepancies:
            failures.append(f"discrepancies: stored {doc['discrepancies']}, recomputed {discrepancies}")

        block = "infinity_count"
        failures.extend(_verify_infinity_counts(doc))

        block = "conclusion"
        conclusion = doc["conclusion"]
        if conclusion == CONCLUSION_ELIMINATION:
            if not all_eliminated:
                failures.append("conclusion: point-elimination claimed but a survivor has a rational point")
        elif conclusion == CONCLUSION_COPRIME:
            block = "prime_scan"
            failures.extend(_verify_coprime_block(doc, params))
        elif conclusion != CONCLUSION_INCONCLUSIVE:
            failures.append(f"conclusion: unknown conclusion {conclusion!r}")
    except _MALFORMED as exc:
        failures.append(f"{block}: malformed ({type(exc).__name__}: {exc})")
    except SelliCertError as exc:
        failures.append(f"{block}: cannot recompute ({exc})")
    return failures


def _verify_infinity_counts(doc: dict) -> list[str]:
    """Every count must add the one point at infinity of the C_{d1,d2} model.

    The top-level infinity_count is null (no prime scan ran) or 1, and so
    is every point-count table in the scan.
    """
    scan = doc["prime_scan"]
    failures = []
    if doc["infinity_count"] not in (None, 1):
        failures.append(f"infinity_count: stored {doc['infinity_count']!r}, expected null or 1")
    if scan is not None:
        tables = [r["counts"] for r in scan["records"]]
        if scan["certificate"] is not None:
            tables += [scan["certificate"]["counts1"], scan["certificate"]["counts2"]]
        if any(t is not None and t["infinity_count"] != 1 for t in tables):
            failures.append("prime_scan: a count table does not count one point at infinity")
    return failures


def _verify_coprime_block(doc: dict, params: FamilyParams) -> list[str]:
    """Check the coprime-order block against the scan records it came from.

    Only the two certificate primes have their L-polynomials rebuilt; for
    every other prime the records are checked for presence, not content.
    """
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
    if genus.source == jac.GENUS_FORMULA:
        formula = jac.genus_superelliptic(params.d2, params.d1).g
        if genus.g != formula:
            failures.append(f"genus: stored {genus.g}, the superelliptic formula gives {formula}")
    elif ASSUMPTION_GENUS not in doc["assumptions"]:
        failures.append("assumptions: user-supplied genus without the GENUS-USER tag")
    if ASSUMPTION_INFINITY not in doc["assumptions"]:
        failures.append("assumptions: coprime-order conclusion without the INFINITY-MODEL tag")

    bound = scan["prime_bound"]
    records = scan["records"]
    # pi(x) > x/ln(x) > x/bit_length(x) for x >= 17 (Rosser-Schoenfeld 1962),
    # so n records can list every prime up to x only if n*bit_length(x) >= x;
    # checking that first keeps the sieve within O(n log n) of the input.
    too_far = bound >= 17 and len(records) * bound.bit_length() < bound
    if too_far or [r["p"] for r in records] != primes_upto(bound):
        failures.append("prime_scan: records do not list exactly the primes up to prime_bound")
    p1, p2 = cert["p1"], cert["p2"]
    if not (2 < p1 < p2 <= bound and is_prime(p1) and is_prime(p2)):
        failures.append(
            f"certificate_primes: p1 = {p1}, p2 = {p2} are not odd primes "
            "p1 < p2 within prime_bound"
        )
    by_p = {r["p"]: r for r in records}
    if gcd(cert["order1"], cert["order2"]) != 1 or cert["gcd"] != 1:
        failures.append("certificate_primes: orders are not coprime")
    for label in ("1", "2"):
        p = cert[f"p{label}"]
        stored_order = cert[f"order{label}"]
        counts_doc = cert[f"counts{label}"]
        rec = by_p.get(p)
        if (
            rec is None
            or rec["status"] != "ok"
            or rec["order"] != stored_order
            or rec["counts"] != counts_doc
        ):
            failures.append(
                f"prime_scan: no ok record of p = {p} with the certificate's order and counts"
            )
        if counts_doc is None:
            failures.append(f"certificate_primes: missing counts for p{label}")
            continue
        table = PointCountTable(
            entries=tuple((k, n) for k, n in counts_doc["entries"]), infinity_count=1
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

def _same_int(stored, value: int | None) -> bool:
    """stored is the int value, or null where value is None; a float or bool
    that compares equal is not."""
    return stored is None if value is None else type(stored) is int and stored == value


def _verify_dio(doc: dict) -> list[str]:
    failures: list[str] = []
    block = "params"
    try:
        p = doc["params"]
        try:
            params = validate_dio_params(
                p["a"], p["d1"], p["d2"], b_mode=p["b_mode"], m_prime=p["m_prime"]
            )
        except SelliCertError as exc:
            return [f"params: invalid ({exc})"]
        if params.b != p["b"]:
            failures.append("params: stored b does not match its construction")

        # The rebuild runs loops bounded by these three values, so each must
        # be an integer before anything is recomputed.
        block = "search"
        search = doc["search"]
        box = search["box"]
        block = "obstructions"
        obstructions = doc["obstructions"]
        modulus_bound = obstructions["modulus_bound"]
        block = "replication"
        qr_bound = doc["replication"]["qr_law"]["prime_bound"]
        malformed = [
            f"{where}: malformed ({name} must be an integer, found {value!r})"
            for where, name, value in (
                ("search", "box", box),
                ("obstructions", "modulus_bound", modulus_bound),
                ("replication", "qr_law.prime_bound", qr_bound),
            )
            if type(value) is not int
        ]
        if malformed:
            return failures + malformed

        block = "search"
        reference = build_dio_certificate(
            params, box=box, modulus_bound=modulus_bound, qr_bound=qr_bound
        )
        if [list(s) for s in reference.solutions] != search["solutions"]:
            failures.append("search: bounded search does not reproduce stored solutions")

        block = "obstructions"
        classes = obstructions["classes"]
        if [entry["r"] for entry in classes] != list(range(12)):
            failures.append("obstructions: classes do not list r = 0..11 once each, in order")
            classes = []
        for entry in classes:
            r = entry["r"]
            smallest = reference.sweep_smallest[r]
            if not _same_int(entry["smallest_modulus"], smallest):
                failures.append(
                    f"obstructions: class {r} stored modulus {entry['smallest_modulus']}, "
                    f"recomputed {smallest}"
                )
                continue
            if not _same_int(entry["tuples_checked"], tuples_checked(smallest)):
                failures.append(f"obstructions: class {r} tuple count does not recompute")

        block = "replication"
        # JSON text tells true from 1, which Python equality does not
        if json.dumps(reference.replication, sort_keys=True) != json.dumps(
            doc["replication"], sort_keys=True
        ):
            failures.append("replication: tables do not recompute")
        block = "discrepancies"
        if sorted(reference.discrepancies) != doc["discrepancies"]:
            failures.append("discrepancies: list does not recompute")
    except _MALFORMED as exc:
        failures.append(f"{block}: malformed ({type(exc).__name__}: {exc})")
    except SelliCertError as exc:
        failures.append(f"{block}: cannot recompute ({exc})")
    return failures

