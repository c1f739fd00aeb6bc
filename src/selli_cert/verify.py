"""Independent re-verification of emitted certificates: rebuild, then compare.

The guards run first.  Each bounds the work that follows by the parameters
or by the document's own size, in this order:
- the parameters are revalidated against the hypotheses the builder
  enforces (H1-H5 for the curve family, D1-D5 for the Diophantine
  equation), after d1 (and a corollary m') is refused when 2^d1*a (or
  3^m') has more digits than a certificate can write, before either
  power is formed;
- Delta(f)(y)'s constant term must be writable too, checked by bit
  length before it is formed;
- d2 must be below the bit length of the stored boundary witness
  (y_max + 1)^d2, before 2^d2 is evaluated;
- the candidate box is enumerated only if the document lists at least
  its 2*y_max records;
- the elimination records must name exactly the recomputed survivors, in
  order, before any polynomial is solved;
- a prime scan must list every prime up to its bound, with the bound
  checked against the number of records before any sieve, and each ok
  record's counts are read k by k, refused at the first missing k, so a
  stored genus costs no more than the stored tables;
- the Diophantine box and bounds must be JSON integers, and the sweep, the
  QR sieve and the search box are priced before anything is rebuilt; the
  search forms no y^d2 for a y past its reach, so it is O(pairs) at any d2.

Then every block is rebuilt with the builder's own code (`y_candidates`,
`eliminate_points`, `convention_evidence`, `torsion_outcome`,
`TorsionCertificate.to_dict`, `l_polynomial_from_counts`, `coprime_pair`,
`scan_block`, `build_dio_certificate`) and
compared with the stored one under one rule, `_diff`: the JSON type must
match at every node, so `true` is not 1 and 12.0 is not 12, objects must
have the same keys and lists the same length.  Each failure names its block
and the first path that differs, for example
`obstructions.classes[5].smallest_modulus: stored 12, recomputed null`; an
empty failure list means the certificate re-verifies.

Schema selli-cert/1 still trusts three things:
- the point counts and skip reasons of scan records, since checking them
  means recounting points (each ok record's order is rebuilt from its
  stored counts through the L-polynomial, Weil bounds included, and the
  coprime-order pair is chosen from the rebuilt records, as the builder
  chooses it);
- a user-supplied genus on a certificate whose scan has no ok record,
  which nothing is rebuilt from;
- `candidates` and `elimination`, compared by value alone, as their size
  grows with y_max: 1.0 passes for 1 there.
"""

from __future__ import annotations

import json
import operator

from . import jacobian as jac
from .arith import primes_upto
from .certificates import (
    DIO_KIND,
    SCHEMA,
    TORSION_KIND,
    _SCALARS,
    TorsionCertificate,
    build_dio_certificate,
    convention_evidence,
    params_block,
    record_block,
    scan_block,
    torsion_outcome,
)
# The search and the sweep run once per certificate, inside
# build_dio_certificate.  Their names stay bound here because
# perfbench/tracing.py patches them on this module.
from .diophantine import (  # noqa: F401
    bounded_search,
    check_qr_bound,
    check_search_box,
    obstruction_sweep,
    sweep_plan,
    validate_dio_params,
)
from .errors import BudgetExceededError, SelliCertError
from .family import (
    discriminant_profile,
    eliminate_points,
    validate_params,
    y_bound,
    y_candidates,
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

_JSON_TYPES = {int: "integer", str: "string", list: "list", dict: "object"}


def _show(value) -> str:
    """value as JSON, cut at 80 characters; a container that holds containers
    or types, by its size."""
    if isinstance(value, type):
        return f"any {_JSON_TYPES[value]}"
    if isinstance(value, (list, dict)):
        children = value.values() if isinstance(value, dict) else value
        if any(isinstance(v, (list, dict, type)) for v in children):
            return f"a list of {len(value)}" if isinstance(value, list) else "an object"
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 80 else text[:77] + "..."


def _diff(stored, expected, path: str = "") -> str | None:
    """The first path where stored differs from expected, as a failure, or None.

    Type-strict at every node: objects must have the same keys, lists the
    same length, and `true` is not 1.  An expected type (`int`, `str`,
    `list`, `dict`) stands for any value of exactly that type; those are
    the values verify trusts.  The walk goes no deeper than expected, so no
    stored nesting can exhaust the stack.  Inner calls leave `path` empty
    and their caller prepends the key, so a match builds no path at all,
    and a scalar child that matches is passed over without a call.
    """
    kind = type(stored)
    if stored is expected or kind is expected:
        return None
    if kind is type(expected):
        if kind is dict:
            if stored.keys() != expected.keys():
                key = min(stored.keys() ^ expected.keys())
                return f"{path}.{key}: " + ("missing" if key in expected else "unexpected key")
            for key, e in expected.items():
                s = stored[key]
                # a matching scalar, or a trusted value of its type, ends here
                if s is e or type(s) is e or (type(s) is type(e) in _SCALARS and s == e):
                    continue
                if (found := _diff(s, e)) is not None:
                    return f"{path}.{key}{found}"
            return None
        if kind is list:
            if len(stored) == len(expected):
                for i, e in enumerate(expected):
                    s = stored[i]
                    if s is e or type(s) is e or (type(s) is type(e) in _SCALARS and s == e):
                        continue
                    if (found := _diff(s, e)) is not None:
                        return f"{path}[{i}]{found}"
                return None
        elif stored == expected:
            return None
    return f"{path}: stored {_show(stored)}, recomputed {_show(expected)}"


def _compare(doc: dict, expected: dict) -> list[str]:
    """One failure per top-level block of doc that does not match expected."""
    if _diff(doc, expected) is None:  # the common case, in one walk
        return []
    failures = [f"{key}: unexpected key" for key in sorted(doc.keys() - expected.keys())]
    for key in sorted(expected):
        if key not in doc:
            failures.append(f"{key}: missing")
        elif (found := _diff(doc[key], expected[key], key)) is not None:
            failures.append(found)
    return failures


# ---- torsion ----

def _verify_torsion(doc: dict) -> list[str]:
    block = "params"
    try:
        p = doc["params"]
        try:
            params = validate_params(
                p["a"], p["m"], p["d1"], p["d2"], p["b"] if p["b_explicit"] else None
            )
        except SelliCertError as exc:
            return [f"params: invalid ({exc})"]
        # compared first, so a guard's failure comes with its cause
        failures = [*filter(None, [_diff(p, params_block(params), "params")])]
        block = "convention"
        convention = doc["convention"]
        profile = discriminant_profile(params, convention)

        # y_bound evaluates 2^d2, so d2 is bounded by the document first: an
        # honest boundary.lhs is (y_max + 1)^d2 with y_max >= 1 (|const| >= 27
        # makes h(1) < 0), so its bit length exceeds d2
        block = "boundary"
        if params.d2 >= doc["boundary"]["lhs"].bit_length():
            return failures + [f"boundary: lhs has fewer than d2 + 1 = {params.d2 + 1} bits"]

        # the stored box is the budget: y_max follows from the parameters,
        # not from the document's size, and may be near 2^55
        block = "candidates"
        try:
            candidates = y_candidates(profile, budget=len(doc["candidates"]))
        except BudgetExceededError:
            block = "y_max"
            failures += filter(None, [_diff(doc["y_max"], y_bound(profile), "y_max")])
            return failures + ["candidates: box does not list 0 < |y| <= y_max in order"]

        block = "elimination"
        # coverage comes first, so no record outside the survivors is solved
        if [rec["y0"] for rec in doc["elimination"]] != list(candidates.surviving):
            return failures + ["elimination: records do not cover exactly the survivors"]
        elimination = tuple(eliminate_points(params, candidates.surviving, convention))

        block = "genus"
        stored_scan = doc.get("prime_scan")
        outcome = torsion_outcome(
            params,
            all(r.eliminated for r in elimination),
            _user_genus(doc["genus"]),
            lambda _: isinstance(stored_scan, dict) and stored_scan.get("certificate") is not None,
        )
        comparison, discrepancies = convention_evidence(params, convention)
        expected = TorsionCertificate(
            params=params,
            convention=convention,
            profile=profile,
            convention_comparison=comparison,
            candidate_set=candidates,
            elimination=elimination,
            outcome=outcome,
            prime_scan=None,
            discrepancies=tuple(discrepancies),
        ).to_dict()
        expected["tool_version"] = str
        expected["params"] = p  # compared above
        # compared by value alone, as their size grows with y_max: a match
        # stands in for the expected block, which _diff then passes over
        for key in ("candidates", "elimination"):
            if doc[key] == expected[key]:
                expected[key] = doc[key]
        if outcome.genus is not None:
            block = "prime_scan"
            expected["prime_scan"], scan_failures = _expected_scan(stored_scan, outcome.genus)
            failures += scan_failures
        return failures + _compare(doc, expected)
    except _MALFORMED as exc:
        return [f"{block}: malformed ({type(exc).__name__}: {exc})"]
    except SelliCertError as exc:
        return [f"{block}: cannot recompute ({exc})"]


def _user_genus(stored) -> jac.GenusSpec | None:
    """The stored genus if the user supplied it, an input verify cannot rebuild."""
    if stored is None or stored["source"] != jac.GENUS_USER:
        return None
    return jac.GenusSpec(g=operator.index(stored["g"]), source=jac.GENUS_USER)


# Every skipped record as the builder renders it, with `int` and `str`
# standing for its p, which the listing pins, and its trusted skip reason.
_SKIPPED_RECORD = record_block(jac.PrimeOrderRecord(int, "skipped", str, None, None))


def _expected_scan(scan, genus: jac.GenusSpec) -> tuple[object, list[str]]:
    """The prime_scan block as the builder renders it, and the failures met.

    The records must list every prime up to the bound.  Each ok record is
    rebuilt from its stored N_1..N_g (the stored k are compared, not read),
    its order through the L-polynomial, Weil bounds included.  The pair is
    `jac.coprime_pair` of the rebuilt records, as in the builder.  Counts
    that are not integers are compared with an empty table, so they fail by
    form; skipped records are compared with one shared form.
    """
    if not isinstance(scan, dict):
        return dict, []
    bound, records = scan["prime_bound"], scan["records"]
    # pi(x) > x/ln(x) > x/bit_length(x) for x >= 17 (Rosser-Schoenfeld 1962),
    # so n records can list every prime up to x only if n*bit_length(x) >= x;
    # checking that first keeps the sieve within O(n log n) of the input.
    too_far = bound >= 17 and len(records) * bound.bit_length() < bound
    primes = [] if too_far else primes_upto(bound)
    if too_far or [r["p"] for r in records] != primes:
        return scan, ["prime_scan: records do not list exactly the primes up to prime_bound"]
    failures, expected_records, rebuilt = [], [], []
    for p, stored in zip(primes, records):
        if stored["status"] != "ok":
            expected_records.append(_SKIPPED_RECORD)
            continue
        order = int
        try:
            entries = zip(range(1, genus.g + 1), stored["counts"]["entries"])
            table = PointCountTable(tuple((k, operator.index(n)) for k, (_, n) in entries), 1)
            order = jac.jacobian_order(jac.l_polynomial_from_counts(p, genus, table))
        except _MALFORMED:
            table = PointCountTable((), 1)
        except SelliCertError as exc:
            failures.append(f"prime_scan: counts for p = {p} inconsistent ({exc})")
        record = jac.PrimeOrderRecord(p, "ok", None, order, table)
        if order is not int:
            rebuilt.append(record)
        expected_records.append(record_block(record))
    expected = scan_block(jac.PrimeScan(int, (), jac.coprime_pair(rebuilt)))
    expected["records"] = expected_records
    return expected, failures


# ---- diophantine ----

def _verify_dio(doc: dict) -> list[str]:
    block = "params"
    try:
        p = doc["params"]
        try:
            params = validate_dio_params(
                p["a"], p["d1"], p["d2"], b_mode=p["b_mode"], m_prime=p["m_prime"]
            )
        except SelliCertError as exc:
            return [f"params: invalid ({exc})"]

        # The rebuild runs loops bounded by these three values, so each must
        # be an integer before anything is recomputed.
        block = "search"
        box = doc["search"]["box"]
        block = "obstructions"
        modulus_bound = doc["obstructions"]["modulus_bound"]
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
            return malformed

        # the sweep, the QR sieve and the search are priced before any runs
        block = "obstructions"
        sweep_plan(modulus_bound)
        block = "replication"
        check_qr_bound(qr_bound)
        block = "search"
        check_search_box(box, params.d1)
        expected = build_dio_certificate(
            params, box=box, modulus_bound=modulus_bound, qr_bound=qr_bound
        ).to_dict()
        expected["tool_version"] = str
        return _compare(doc, expected)
    except _MALFORMED as exc:
        return [f"{block}: malformed ({type(exc).__name__}: {exc})"]
    except SelliCertError as exc:
        return [f"{block}: cannot recompute ({exc})"]
