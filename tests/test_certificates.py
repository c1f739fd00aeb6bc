import copy
import json
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selli_cert.certificates import (
    CONCLUSION_COPRIME,
    CONCLUSION_ELIMINATION,
    CONCLUSION_INCONCLUSIVE,
    build_dio_certificate,
    build_torsion_certificate,
    canonical_json,
    replication_evidence,
)
from selli_cert.diophantine import validate_dio_params
from selli_cert import certificates, family, ffield, verify
from selli_cert.errors import BudgetExceededError
from selli_cert.family import FamilyParams, elimination_polynomial, validate_params
from selli_cert.jacobian import GENUS_USER, GenusSpec
from selli_cert.verify import verify_certificate


def torsion_doc(a=13, m=1, d1=3, d2=10, convention="standard", **kw):
    params = validate_params(a, m, d1, d2)
    cert = build_torsion_certificate(params, convention, **kw)
    return cert.to_dict()


def default_build_kw():
    return dict(
        genus=None, prime_bound=certificates.DEFAULT_PRIME_BOUND, budget=family.DEFAULT_BUDGET
    )


def test_canonical_json_stable():
    doc = {"b": 2, "a": 1, "nested": {"z": [3, 2], "y": None}}
    text = canonical_json(doc)
    assert text == canonical_json(json.loads(text))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def stdlib_json(doc) -> str:
    """The writer canonical_json must reproduce byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# strings that look like the separators, the record boundaries and the
# escapes canonical_json relies on
AWKWARD_STRINGS = [
    "}, {", "},\n  {", "},\n    {", "],\n  [", "\\n", "\n", "é中", 'a "q" b', "", "{", "]",
]
# scalars, and empty containers at every depth
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**59, max_value=10**80).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.just(-0.0),
    st.sampled_from(AWKWARD_STRINGS),
    st.text(),
    st.just({}),
    st.just([]),
    st.just(()),
)
KEYS = st.one_of(st.text(max_size=6), st.sampled_from(AWKWARD_STRINGS))
# non-empty dicts of leaves: flat records, unless a leaf is an empty container
RECORDS = st.dictionaries(KEYS, LEAVES, min_size=1, max_size=4)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        st.lists(RECORDS, min_size=1, max_size=5),
        st.lists(RECORDS, min_size=1, max_size=5).map(tuple),
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(LEAVES, _containers, max_leaves=40))
# tuples come out exactly as lists, also as records and inside records
@example({"t": (1, (2, ()), ({"a": 1}, {"b": (3,)}), ({"c": 4}, {"d": 5}))})
def test_canonical_json_matches_the_stdlib_writer(doc):
    assert canonical_json(doc) == stdlib_json(doc)


def test_canonical_json_joins_every_chunk():
    # past about 100,000 pieces the C encoder hands back several chunks
    records = [{"y": y, "delta": -y * 10**40, "passes": y % 3 == 0} for y in range(60000)]
    assert len(certificates._c_encoder("    ")(records, 0)) > 1
    doc = {"candidates": records, "surviving": list(range(60000)), "nested": [records[:5], {}]}
    text = canonical_json(doc)
    assert len(text) > 2 * 10**6
    assert text == stdlib_json(doc)


def test_canonical_json_walked_keys_are_strings():
    with pytest.raises(TypeError):
        canonical_json({1: [[]]})


def test_torsion_certificate_shape():
    doc = torsion_doc(**default_build_kw())
    assert doc["schema"] == "selli-cert/1"
    assert doc["kind"] == "torsion-triviality"
    assert doc["conclusion"] == CONCLUSION_ELIMINATION
    assert doc["params"] == {
        "a": 13,
        "m": 1,
        "d1": 3,
        "d2": 10,
        "b": 101,
        "d": 5,
        "b_explicit": False,
    }
    assert doc["profile"]["c3"] == -52
    assert doc["profile"]["c0"] == -47473452
    assert doc["y_max"] == 5
    assert doc["surviving"] == [-1, 1]
    assert doc["assumptions"] == ["NL-property-C1"]
    assert doc["discrepancies"] == []
    assert doc["timing"] is None
    assert doc["convention_comparison"] is None  # m = 1: conventions coincide


def test_torsion_convention_comparison_block():
    doc = torsion_doc(a=25, m=2, d1=3, d2=14, **default_build_kw())
    cmp_block = doc["convention_comparison"]
    assert cmp_block["standard"]["c3"] == -800
    assert cmp_block["paper-ex2"]["c3"] == -100
    assert doc["discrepancies"] == ["xcoeff-convention-divergence"]
    doc2 = torsion_doc(a=25, m=2, d1=3, d2=14, convention="paper-ex2", **default_build_kw())
    assert doc2["discrepancies"] == []
    assert doc2["convention_comparison"] == cmp_block
    assert doc2["conclusion"] == CONCLUSION_INCONCLUSIVE


def test_torsion_round_trip_verifies():
    for kwargs in (
        dict(a=13),
        dict(a=37),
        dict(a=25, m=2, d2=14),
        dict(a=25, m=2, d2=14, convention="paper-ex2"),
    ):
        doc = torsion_doc(**kwargs, **default_build_kw())
        reloaded = json.loads(canonical_json(doc))
        assert verify_certificate(reloaded) == [], kwargs


def test_torsion_scan_round_trip_verifies():
    params = validate_params(25, 2, 3, 14)
    cert = build_torsion_certificate(
        params,
        "paper-ex2",
        genus=GenusSpec(g=7, source=GENUS_USER),
        prime_bound=30,
        budget=10**6,
    )
    doc = cert.to_dict()
    assert doc["genus"] == {"g": 7, "source": GENUS_USER}
    assert set(doc["assumptions"]) == {"GENUS-USER", "INFINITY-MODEL", "NL-property-C1"}
    assert verify_certificate(json.loads(canonical_json(doc))) == []


def test_torsion_tamper_detected():
    base = torsion_doc(**default_build_kw())
    tampered_cases = [
        ("surviving", [1]),
        ("conclusion", CONCLUSION_COPRIME),
        ("y_max", 7),
    ]
    for key, value in tampered_cases:
        doc = copy.deepcopy(base)
        doc[key] = value
        assert verify_certificate(doc) != [], key
    doc = copy.deepcopy(base)
    doc["profile"]["c0"] = -47473453
    assert verify_certificate(doc) != []
    doc = copy.deepcopy(base)
    doc["candidates"][3]["delta"] += 1
    assert verify_certificate(doc) != []
    doc = copy.deepcopy(base)
    doc["elimination"][0]["eliminated"] = False
    assert verify_certificate(doc) != []
    # the params block is compared type for type, so retyped values fail too
    for key, value, message in (
        ("b", 99, "params.b: stored 99, recomputed 101"),
        ("d", 4, "params.d: stored 4, recomputed 5"),
        ("b_explicit", None, "params.b_explicit: stored null, recomputed false"),
        ("b_explicit", 0, "params.b_explicit: stored 0, recomputed false"),
        ("b", 101.0, "params.b: stored 101.0, recomputed 101"),
        ("d", 5.0, "params.d: stored 5.0, recomputed 5"),
        ("m", True, "params.m: stored true, recomputed 1"),
    ):
        doc = copy.deepcopy(base)
        doc["params"][key] = value
        assert verify_certificate(doc) == [message], (key, value)
    doc = copy.deepcopy(base)
    doc["params"]["a"] = 13.0
    assert verify_certificate(doc) == [
        "params: malformed (TypeError: 'float' object cannot be interpreted as an integer)"
    ]
    # values that compare equal to the recomputed ones but are not them
    doc = copy.deepcopy(base)
    doc["y_max"] = 5.0
    assert verify_certificate(doc) == ["y_max: stored 5.0, recomputed 5"]
    doc = copy.deepcopy(base)
    doc["surviving"] = [1, -1]
    assert verify_certificate(doc) == ["surviving[0]: stored 1, recomputed -1"]
    # no prime scan ran, so no point at infinity was counted
    for forged in (1, True):
        doc = copy.deepcopy(base)
        doc["infinity_count"] = forged
        assert verify_certificate(doc) == [
            f"infinity_count: stored {json.dumps(forged)}, recomputed null"
        ], forged


def test_verify_rejects_fields_the_builder_never_writes():
    torsion = torsion_doc(**default_build_kw())  # point-elimination conclusion
    dio = build_dio_certificate(
        validate_dio_params(13, 3, 2), modulus_bound=48, qr_bound=200
    ).to_dict()
    timing = 'timing: stored {"wall_s": 1.0}, recomputed null'
    cases = [
        (torsion, lambda doc: doc.update(timing={"wall_s": 1.0}), [timing]),
        (dio, lambda doc: doc.update(timing={"wall_s": 1.0}), [timing]),
        (
            torsion,
            lambda doc: doc.update(zero_reason="anything"),
            [f"zero_reason: stored \"anything\", recomputed {json.dumps(family.ZERO_REASON)}"],
        ),
        (
            torsion,
            lambda doc: doc.update(genus={"g": 99, "source": "made-up"}),
            ['genus: stored {"g": 99, "source": "made-up"}, recomputed null'],
        ),
        (
            torsion,
            # no scan runs after a point elimination, so neither block is due
            lambda doc: doc.update(
                prime_scan={"prime_bound": 2, "records": [], "certificate": None},
                infinity_count=1,
            ),
            [
                "infinity_count: stored 1, recomputed null",
                "prime_scan: stored an object, recomputed null",
            ],
        ),
        (torsion, lambda doc: doc.pop("timing"), ["timing: missing"]),
        (dio, lambda doc: doc.pop("timing"), ["timing: missing"]),
        (torsion, lambda doc: doc.pop("zero_reason"), ["zero_reason: missing"]),
    ]
    for base, edit, messages in cases:
        assert verify_certificate(base) == []
        doc = copy.deepcopy(base)
        edit(doc)
        assert verify_certificate(doc) == messages


def test_torsion_conclusion_and_convention_blocks_recomputed():
    base = torsion_doc(a=25, m=2, d1=3, d2=14, **default_build_kw())  # standard, m != 1
    assert verify_certificate(base) == []
    cases = [
        (
            lambda doc: doc.update(conclusion="TRIVIAL_BY_MAGIC"),
            'conclusion: stored "TRIVIAL_BY_MAGIC", recomputed "TRIVIAL_BY_POINT_ELIMINATION"',
        ),
        (
            lambda doc: doc.update(discrepancies=[]),
            'discrepancies: stored [], recomputed ["xcoeff-convention-divergence"]',
        ),
        (
            lambda doc: doc["convention_comparison"]["paper-ex2"].update(c3=-99),
            "convention_comparison.paper-ex2.c3: stored -99, recomputed -100",
        ),
        (
            lambda doc: doc.update(convention_comparison=None),
            "convention_comparison: stored null, recomputed an object",
        ),
    ]
    for edit, message in cases:
        doc = copy.deepcopy(base)
        edit(doc)
        assert verify_certificate(doc) == [message], message
    # m = 1: the conventions coincide, so there is nothing to flag
    doc = torsion_doc(**default_build_kw())
    doc["discrepancies"] = ["xcoeff-convention-divergence"]
    assert verify_certificate(doc) == [
        'discrepancies: stored ["xcoeff-convention-divergence"], recomputed []'
    ]


def test_verify_box_check_is_bounded_by_the_document(tmp_path):
    # (13, 1, 21, 26) passes H1..H5 and has y_max = 2735928361: a verifier
    # that enumerated that box would need tens of GB, so the check runs in a
    # child process under a 2 GiB address-space cap.  The boundary witness
    # is edited to (5 + 1)^26 as well, so the d2 guard passes and the box
    # check is what stops the forgery
    doc = torsion_doc(**default_build_kw())
    params = validate_params(13, 1, 21, 26)
    doc["params"].update(d1=21, d2=26, b=params.b, d=params.d)
    doc["boundary"]["lhs"] = 6**26
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, resource.RLIM_INFINITY))\n"
        "from selli_cert.cli import main\n"
        "sys.exit(main(['verify', sys.argv[1]]))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 3, run.stderr
    assert "FAIL y_max: stored 5, recomputed 2735928361" in run.stderr
    assert "FAIL candidates: box does not list 0 < |y| <= y_max in order" in run.stderr


def test_verify_bounds_d2_by_the_boundary_before_y_bound(monkeypatch):
    # d2 = 2d with d = 10^10 + 19 passes H1..H5, but y_bound evaluates 2^d2,
    # minutes and gigabytes of work; the stored boundary witness has far
    # fewer than d2 bits, so verify fails it before the box is bounded
    doc = torsion_doc(**default_build_kw())
    params = validate_params(13, 1, 3, 2 * (10**10 + 19))
    doc["params"].update(d2=params.d2, d=params.d)
    bounded = []
    for name in ("y_bound", "y_candidates"):
        monkeypatch.setattr(verify, name, lambda *args, name=name, **kw: bounded.append(name))
    start = time.perf_counter()
    failures = verify_certificate(doc)
    assert time.perf_counter() - start < 1
    assert failures == ["boundary: lhs has fewer than d2 + 1 = 20000000039 bits"]
    assert bounded == []


def test_sweep_is_priced_before_the_search_and_the_rebuild(monkeypatch):
    # the bound would build a table for every prime power up to 10^5; the
    # builder refuses it before searching, verify reports it as a failure
    # of the obstructions block
    params = validate_dio_params(13, 3, 10)
    doc = build_dio_certificate(params, modulus_bound=48).to_dict()
    doc["obstructions"]["modulus_bound"] = 1_200_000
    searched = []
    monkeypatch.setattr(certificates, "bounded_search", lambda *args: searched.append(args))
    with pytest.raises(BudgetExceededError):
        build_dio_certificate(params, modulus_bound=1_200_000)
    start = time.perf_counter()
    failures = verify_certificate(doc)
    assert time.perf_counter() - start < 1
    assert len(failures) == 1
    assert failures[0].startswith(
        "obstructions: cannot recompute (obstruction sweep to modulus 1200000 needs at least"
    )
    assert searched == []


def test_verify_qr_sieve_is_capped(tmp_path):
    # qr_law.prime_bound = 3e9 passes the int64 limit but would sieve 3 GB,
    # so the check runs in a child process under a 2 GiB address-space cap
    doc = build_dio_certificate(validate_dio_params(13, 3, 10), modulus_bound=48).to_dict()
    doc["replication"]["qr_law"]["prime_bound"] = 3 * 10**9
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, resource.RLIM_INFINITY))\n"
        "from selli_cert.cli import main\n"
        "sys.exit(main(['verify', sys.argv[1]]))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 3, run.stderr
    assert "cannot recompute (qr bound 3000000000 exceeds the cap" in run.stderr


def test_verify_checks_coverage_before_solving_records(monkeypatch):
    # a self-consistent record for a y0 that is not a survivor, or the
    # survivors' own records out of order, must fail the coverage check
    # without any polynomial being solved; records are solved inside
    # family.eliminate_points, so the root finder is watched there
    base = torsion_doc(**default_build_kw())
    y0 = 10**200 + 1
    poly = elimination_polynomial(validate_params(13, 1, 3, 10), y0)
    solved = []
    monkeypatch.setattr(family, "rational_roots", lambda f: solved.append(f) or [])
    edits = [
        lambda records: records.append(
            {"y0": y0, "cubic": list(poly.coefficients), "rational_x": [], "eliminated": True}
        ),
        list.reverse,
    ]
    for edit in edits:
        doc = copy.deepcopy(base)
        edit(doc["elimination"])
        start = time.perf_counter()
        assert verify_certificate(doc) == [
            "elimination: records do not cover exactly the survivors"
        ]
        assert time.perf_counter() - start < 1
    assert solved == []
    # the watch is live: the untouched certificate does solve its survivors
    assert verify_certificate(base) == []
    assert len(solved) == 2


def test_infinity_counts_are_one_point():
    scan_doc = build_torsion_certificate(
        validate_params(613, 2, 3, 10),
        "paper-ex2",
        genus=GenusSpec(g=3, source=GENUS_USER),
        prime_bound=12,
        budget=10**7,
    ).to_dict()
    assert (scan_doc["conclusion"], scan_doc["infinity_count"]) == (CONCLUSION_COPRIME, 1)
    ok_index = next(i for i, r in enumerate(scan_doc["prime_scan"]["records"]) if r["counts"])
    elimination_doc = torsion_doc(**default_build_kw())
    assert elimination_doc["infinity_count"] is None
    cases = [
        (scan_doc, lambda doc: doc.update(infinity_count=2), "infinity_count: stored 2"),
        (elimination_doc, lambda doc: doc.update(infinity_count=0), "infinity_count: stored 0"),
        (
            scan_doc,
            lambda doc: doc["prime_scan"]["records"][ok_index]["counts"].update(infinity_count=0),
            f"prime_scan.records[{ok_index}].counts.infinity_count: stored 0, recomputed 1",
        ),
        (
            scan_doc,
            lambda doc: doc["prime_scan"]["certificate"]["counts1"].update(infinity_count=2),
            "prime_scan.certificate.counts1.infinity_count: stored 2, recomputed 1",
        ),
    ]
    for base, edit, message in cases:
        doc = copy.deepcopy(base)
        assert verify_certificate(doc) == []
        edit(doc)
        assert message in " | ".join(verify_certificate(doc)), message


def test_scan_certificate_bytes_do_not_depend_on_earlier_fields():
    def scan_json(a, d2, genus, bound):
        cert = build_torsion_certificate(
            validate_params(a, 2, 3, d2),
            "paper-ex2",
            genus=GenusSpec(g=genus, source=GENUS_USER),
            prime_bound=bound,
            budget=10**7,
        )
        return canonical_json(cert.to_dict())

    def clear_caches():
        ffield.find_irreducible.cache_clear()
        ffield._FIELD_TABLES.clear()
        ffield._MIXED_TABLES.clear()

    clear_caches()
    scan_json(613, 10, 3, 12)  # fills the caches with F_{p^k}, p <= 11, k <= 3
    held = ffield._FIELD_TABLES.nbytes
    warm = scan_json(25, 14, 2, 12)  # counts over F_11 and F_121 only
    assert ffield._FIELD_TABLES.nbytes == held  # no new field: B read A's tables
    clear_caches()
    cold = scan_json(25, 14, 2, 12)
    assert warm == cold
    assert '"status": "ok"' in cold  # B counted points


@pytest.mark.parametrize("a, d1, d2, code", [(14, 3, 10, "H3"), (13, 4, 10, "H1"), (13, 3, 12, "H2")])
def test_verify_revalidates_family_hypotheses(a, d1, d2, code):
    # built from raw FamilyParams, so nothing validated them on the way in
    params = FamilyParams(a=a, m=1, d1=d1, d2=d2, b=2**d1 * a - 3, d=d2 // 2)
    doc = json.loads(canonical_json(build_torsion_certificate(params).to_dict()))
    [failure] = verify_certificate(doc)
    assert failure.startswith("params: invalid (hypothesis violations: ")
    assert f"{code}: " in failure


def _counts(n1):
    return {"entries": [[1, n1]], "infinity_count": 1}


def _graft_coprime_block(doc):
    """Attach an arithmetically consistent coprime-order block.

    Re-verification recomputes L-polynomials from the stored counts rather
    than re-enumerating fields, so a stored-count block that is internally
    consistent, whose certificate primes carry ok scan records and whose
    genus and infinity model are tagged, must pass and any inconsistent
    edit must fail.
    """
    doc = copy.deepcopy(doc)
    doc["conclusion"] = CONCLUSION_COPRIME
    doc["inconclusive_reason"] = None
    doc["genus"] = {"g": 1, "source": GENUS_USER}
    doc["infinity_count"] = 1  # a scanned certificate counts one point at infinity
    doc["assumptions"] = sorted(doc["assumptions"] + ["GENUS-USER", "INFINITY-MODEL"])
    skipped = {"status": "skipped", "reason": "characteristic guard", "order": None, "counts": None}
    doc["prime_scan"] = {
        "prime_bound": 10,
        "records": [
            {"p": 2, **skipped},
            {"p": 3, **skipped},
            {"p": 5, "status": "ok", "reason": None, "order": 9, "counts": _counts(9)},
            {"p": 7, "status": "ok", "reason": None, "order": 5, "counts": _counts(5)},
        ],
        "certificate": {
            "p1": 5,
            "p2": 7,
            "order1": 9,
            "order2": 5,
            "gcd": 1,
            "counts1": _counts(9),
            "counts2": _counts(5),
        },
    }
    return doc


def test_coprime_block_recheck():
    base = torsion_doc(a=25, m=2, d1=3, d2=14, convention="paper-ex2", **default_build_kw())
    good = _graft_coprime_block(base)
    assert verify_certificate(good) == []

    doc = copy.deepcopy(good)
    doc["prime_scan"]["certificate"]["order1"] = 10
    assert any("coprime" in f or "order" in f for f in verify_certificate(doc))

    doc = copy.deepcopy(good)
    doc["prime_scan"]["certificate"]["counts1"]["entries"] = [[1, 20]]
    assert verify_certificate(doc) != []

    doc = copy.deepcopy(good)
    doc["prime_scan"]["certificate"] = None
    assert verify_certificate(doc) != []


def _failures_after(edit):
    doc = _graft_coprime_block(
        torsion_doc(a=25, m=2, d1=3, d2=14, convention="paper-ex2", **default_build_kw())
    )
    edit(doc)
    return " | ".join(verify_certificate(doc))


def test_coprime_block_must_match_its_scan():
    def swap_pair(doc):
        c = doc["prime_scan"]["certificate"]
        c["p1"], c["p2"] = c["p2"], c["p1"]
        c["order1"], c["order2"] = c["order2"], c["order1"]
        c["counts1"], c["counts2"] = c["counts2"], c["counts1"]

    def composite_p2(doc):
        doc["prime_scan"]["certificate"]["p2"] = 9
        doc["prime_scan"]["records"].append(
            {"p": 9, "status": "ok", "reason": None, "order": 5, "counts": _counts(5)}
        )

    def record(i, **changes):
        return lambda doc: doc["prime_scan"]["records"][i].update(changes)

    def far_record(doc):
        doc["prime_scan"]["records"].append(
            {"p": 10**12, "status": "skipped", "reason": None, "order": None, "counts": None}
        )
        doc["prime_scan"]["prime_bound"] = 10**12

    cases = [
        (lambda doc: doc["prime_scan"].update(records=[]), "records do not list exactly"),
        # refused before the sieve: a 10**12 bound would need a 1 TB bytearray
        (lambda doc: doc["prime_scan"].update(prime_bound=10**12), "prime_scan: records do not"),
        (far_record, "prime_scan: records do not"),
        (lambda doc: doc["prime_scan"]["records"].pop(1), "records do not list exactly"),
        # the pair is rebuilt from the records, so the bound must list its primes
        (lambda doc: doc["prime_scan"].update(prime_bound=6), "prime_scan: records do not"),
        (swap_pair, "prime_scan.certificate.p1: stored 7, recomputed 5"),
        (composite_p2, "prime_scan: records do not list exactly the primes up to prime_bound"),
        (
            record(2, status="skipped"),
            "prime_scan.records[2].reason: stored null, recomputed any string",
        ),
        (
            # a well-formed skipped record leaves p = 7 without a partner
            record(2, status="skipped", reason="not smooth", order=None, counts=None),
            "prime_scan.certificate: stored an object, recomputed null",
        ),
        (record(3, order=7), "prime_scan.records[3].order: stored 7, recomputed 5"),
        # the order is rebuilt from the record's own counts
        (record(2, counts=_counts(8)), "prime_scan.records[2].order: stored 9, recomputed 8"),
        (lambda doc: doc["assumptions"].remove("GENUS-USER"), "GENUS-USER"),
        (lambda doc: doc["assumptions"].remove("INFINITY-MODEL"), "INFINITY-MODEL"),
        (
            # m = 2, so no genus formula applies and no scan is due
            lambda doc: doc.update(genus={"g": 1, "source": "formula-superelliptic"}),
            'genus: stored {"g": 1, "source": "formula-superelliptic"}, recomputed null',
        ),
    ]
    for edit, message in cases:
        assert message in _failures_after(edit), message


def test_torsion_missing_assumption_flagged():
    doc = torsion_doc(**default_build_kw())
    doc["assumptions"] = []
    assert any("assumption" in f for f in verify_certificate(doc))


def test_dio_certificate_shape():
    params = validate_dio_params(13, 3, 2)
    doc = build_dio_certificate(params).to_dict()
    assert doc["schema"] == "selli-cert/1"
    assert doc["kind"] == "diophantine-insolubility"
    assert doc["params"]["b"] == 101
    assert doc["search"]["box"] == 30
    assert doc["search"]["solutions"] == []
    classes = doc["obstructions"]["classes"]
    assert [c["r"] for c in classes] == list(range(12))
    assert [c["smallest_modulus"] for c in classes] == [
        12, 12, 12, 12, 12, None, 12, 12, 12, None, 12, 12,
    ]
    assert doc["discrepancies"] == ["mod4-difference-table"]
    assert doc["replication"]["sum_mod4"]["matches"] is True
    assert doc["replication"]["diff_mod4"]["matches"] is False
    assert doc["replication"]["parity"]["matches"] is True
    assert doc["replication"]["qr_law"]["matches"] is True


def test_replication_evidence():
    # the mod-4 and parity entries are pinned in test_diophantine
    block, discrepancies = replication_evidence(200)
    assert set(block) == {"squares_mod4", "sum_mod4", "diff_mod4", "parity", "qr_law"}
    assert block["qr_law"] == {
        "prime_bound": 200, "holds": True, "claim_holds": True, "matches": True
    }
    assert discrepancies == ["mod4-difference-table"]


def test_dio_round_trip_verifies():
    for a, d1, d2 in ((13, 3, 2), (25, 3, 4), (37, 3, 2)):
        params = validate_dio_params(a, d1, d2)
        doc = build_dio_certificate(
            params, modulus_bound=48, qr_bound=200
        ).to_dict()
        assert verify_certificate(json.loads(canonical_json(doc))) == [], (a, d1, d2)


def test_dio_tamper_detected():
    params = validate_dio_params(13, 3, 2)
    base = build_dio_certificate(params, modulus_bound=48, qr_bound=200).to_dict()
    cases = [
        (
            lambda doc: doc["search"].update(solutions=[[2, 1, 2]]),
            "search.solutions: stored a list of 1, recomputed []",
        ),
        (
            lambda doc: doc["obstructions"]["classes"][5].update(smallest_modulus=12),
            "obstructions.classes[5].smallest_modulus: stored 12, recomputed null",
        ),
        (
            lambda doc: doc["obstructions"]["classes"][0].update(tuples_checked=145),
            "obstructions.classes[0].tuples_checked: stored 145, recomputed 144",
        ),
        # class 5 stays open, so its tuple count must be null
        (
            lambda doc: doc["obstructions"]["classes"][5].update(tuples_checked=10**9),
            "obstructions.classes[5].tuples_checked: stored 1000000000, recomputed null",
        ),
        (
            lambda doc: doc.update(discrepancies=[]),
            'discrepancies: stored [], recomputed ["mod4-difference-table"]',
        ),
        (lambda doc: doc["params"].update(b=99), "params.b: stored 99, recomputed 101"),
        # values that compare equal to the recomputed ones but are not them
        (
            lambda doc: doc["obstructions"]["classes"][0].update(
                smallest_modulus=12.0, tuples_checked=144.0
            ),
            "obstructions.classes[0].smallest_modulus: stored 12.0, recomputed 12",
        ),
        (
            lambda doc: doc["obstructions"]["classes"][0].update(tuples_checked=144.0),
            "obstructions.classes[0].tuples_checked: stored 144.0, recomputed 144",
        ),
        (
            lambda doc: doc["replication"]["qr_law"].update(holds=1),
            "replication.qr_law.holds: stored 1, recomputed true",
        ),
        (
            lambda doc: doc["params"].update(a=13.0),
            "params: malformed (TypeError: 'float' object cannot be interpreted as an integer)",
        ),
        (lambda doc: doc["params"].update(b=101.0), "params.b: stored 101.0, recomputed 101"),
    ]
    assert verify_certificate(base) == []
    for edit, message in cases:
        doc = copy.deepcopy(base)
        edit(doc)
        assert verify_certificate(doc) == [message], message


def test_dio_verify_not_fooled_by_a_warm_qr_cache(monkeypatch):
    from selli_cert import diophantine

    params = validate_dio_params(13, 3, 2)
    diophantine._qr_law_holds.cache_clear()
    assert diophantine.qr_law_check(10**4)
    base = build_dio_certificate(params, modulus_bound=48).to_dict()
    assert base["replication"]["qr_law"]["prime_bound"] == 10**4
    for key in ("holds", "matches"):
        doc = copy.deepcopy(base)
        doc["replication"]["qr_law"][key] = False
        assert verify_certificate(doc) == [
            f"replication.qr_law.{key}: stored false, recomputed true"
        ]
    honest = build_dio_certificate(params, modulus_bound=48, qr_bound=200).to_dict()
    assert honest["replication"]["qr_law"]["prime_bound"] == 200
    assert verify_certificate(honest) == []

    # the verdict is kept per bound: one computed false at 10^4 (the ladder
    # patched to fail) reaches only documents at 10^4
    diophantine._qr_law_holds.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(diophantine, "_euler_ladder", lambda p: p * 0)
        assert diophantine.qr_law_check(10**4) is False
    try:
        assert verify_certificate(honest) == []
        assert verify_certificate(base) == [
            'discrepancies: stored ["mod4-difference-table"], '
            'recomputed ["mod4-difference-table", "qr-law"]',
            "replication.qr_law.holds: stored true, recomputed false",
        ]
    finally:
        diophantine._qr_law_holds.cache_clear()
    assert verify_certificate(base) == []


@pytest.mark.parametrize(
    "edit, message",
    [
        (list.clear, "obstructions.classes: stored [], recomputed a list of 12"),
        (list.pop, "obstructions.classes: stored a list of 11, recomputed a list of 12"),
        (
            lambda classes: classes.append(dict(classes[0])),
            "obstructions.classes: stored a list of 13, recomputed a list of 12",
        ),
        (
            lambda classes: classes.__setitem__(11, dict(classes[0])),
            "obstructions.classes[11].r: stored 0, recomputed 11",
        ),
        (list.reverse, "obstructions.classes[0].r: stored 11, recomputed 0"),
    ],
    ids=["empty", "truncated", "extra-duplicate", "duplicate", "reordered"],
)
def test_dio_classes_listed_once_in_order(edit, message):
    params = validate_dio_params(13, 3, 2)
    doc = build_dio_certificate(params, modulus_bound=48, qr_bound=200).to_dict()
    edit(doc["obstructions"]["classes"])
    assert verify_certificate(doc) == [message]


def test_dio_verify_recomputes_once(monkeypatch):
    from selli_cert import certificates, diophantine, verify

    params = validate_dio_params(13, 3, 2)
    doc = build_dio_certificate(params, modulus_bound=48, qr_bound=200).to_dict()
    calls = {"search": 0, "sweep": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (certificates, verify):
        monkeypatch.setattr(
            module, "bounded_search", counted("search", diophantine.bounded_search)
        )
        monkeypatch.setattr(
            module, "obstruction_sweep", counted("sweep", diophantine.obstruction_sweep)
        )
    assert verify_certificate(doc) == []
    assert calls == {"search": 1, "sweep": 1}


def test_unknown_kind_rejected():
    assert verify_certificate({"schema": "selli-cert/1", "kind": "nonsense"}) != []
    assert verify_certificate({"schema": "other/9", "kind": "torsion-triviality"}) != []
