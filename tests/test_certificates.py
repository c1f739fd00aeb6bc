import copy
import json
import subprocess
import sys
import time

import pytest

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
from selli_cert import family
from selli_cert.family import FamilyParams, elimination_polynomial, validate_params
from selli_cert.jacobian import GENUS_USER, GenusSpec
from selli_cert.verify import verify_certificate


def torsion_doc(a=13, m=1, d1=3, d2=10, convention="standard", **kw):
    params = validate_params(a, m, d1, d2)
    cert = build_torsion_certificate(params, convention, **kw)
    return cert.to_dict()


def default_build_kw():
    return dict(genus=None, prime_bound=None, budget=10**8, threads=1)


def test_canonical_json_stable():
    doc = {"b": 2, "a": 1, "nested": {"z": [3, 2], "y": None}}
    text = canonical_json(doc)
    assert text == canonical_json(json.loads(text))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


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
        threads=1,
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
    for key, value in (("b", 99), ("d", 4)):
        doc = copy.deepcopy(base)
        doc["params"][key] = value
        assert verify_certificate(doc) == [
            "params: stored b or d does not match the validated parameters"
        ], key
    # values that compare equal to the recomputed ones but are not them
    doc = copy.deepcopy(base)
    doc["y_max"] = 5.0
    assert verify_certificate(doc) == ["y_max: stored 5.0, recomputed 5"]
    doc = copy.deepcopy(base)
    doc["surviving"] = [1, -1]
    assert verify_certificate(doc) == [
        "surviving: stored list does not match recomputed survivors"
    ]


def test_torsion_conclusion_and_convention_blocks_recomputed():
    base = torsion_doc(a=25, m=2, d1=3, d2=14, **default_build_kw())  # standard, m != 1
    assert verify_certificate(base) == []
    cases = [
        (
            lambda doc: doc.update(conclusion="TRIVIAL_BY_MAGIC"),
            "conclusion: unknown conclusion 'TRIVIAL_BY_MAGIC'",
        ),
        (
            lambda doc: doc.update(discrepancies=[]),
            "discrepancies: stored [], recomputed ['xcoeff-convention-divergence']",
        ),
        (
            lambda doc: doc["convention_comparison"]["paper-ex2"].update(c3=-99),
            "convention_comparison: stored profiles do not recompute",
        ),
        (
            lambda doc: doc.update(convention_comparison=None),
            "convention_comparison: stored profiles do not recompute",
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
        "discrepancies: stored ['xcoeff-convention-divergence'], recomputed []"
    ]


def test_verify_box_check_is_bounded_by_the_document(tmp_path):
    # (13, 1, 21, 26) passes H1..H5 and has y_max = 2735928361: a verifier
    # that enumerated that box would need tens of GB, so the check runs in a
    # child process under a 2 GiB address-space cap
    doc = torsion_doc(**default_build_kw())
    params = validate_params(13, 1, 21, 26)
    doc["params"].update(d1=21, d2=26, b=params.b, d=params.d)
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
            "prime_scan: a count table does not count one point at infinity",
        ),
        (
            scan_doc,
            lambda doc: doc["prime_scan"]["certificate"]["counts1"].update(infinity_count=2),
            "prime_scan: a count table does not count one point at infinity",
        ),
    ]
    for base, edit, message in cases:
        doc = copy.deepcopy(base)
        assert verify_certificate(doc) == []
        edit(doc)
        assert message in " | ".join(verify_certificate(doc)), message


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
    doc["genus"] = {"g": 1, "source": GENUS_USER}
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
        (lambda doc: doc["prime_scan"].update(prime_bound=6), "within prime_bound"),
        (swap_pair, "p1 = 7, p2 = 5"),
        (composite_p2, "are not odd primes"),
        (record(2, status="skipped"), "no ok record of p = 5"),
        (record(3, order=7), "no ok record of p = 7"),
        (record(2, counts=_counts(8)), "no ok record of p = 5"),
        (lambda doc: doc["assumptions"].remove("GENUS-USER"), "GENUS-USER"),
        (lambda doc: doc["assumptions"].remove("INFINITY-MODEL"), "INFINITY-MODEL"),
        (
            lambda doc: doc.update(genus={"g": 1, "source": "formula-superelliptic"}),
            "stored 1, the superelliptic formula gives 13",
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
    doc = copy.deepcopy(base)
    doc["search"]["solutions"] = [[2, 1, 2]]
    assert verify_certificate(doc) == [
        "search: bounded search does not reproduce stored solutions"
    ]
    doc = copy.deepcopy(base)
    doc["obstructions"]["classes"][5]["smallest_modulus"] = 12
    assert verify_certificate(doc) == [
        "obstructions: class 5 stored modulus 12, recomputed None"
    ]
    doc = copy.deepcopy(base)
    doc["obstructions"]["classes"][0]["tuples_checked"] += 1
    assert verify_certificate(doc) == [
        "obstructions: class 0 tuple count does not recompute"
    ]
    # class 5 stays open, so its tuple count must be null
    doc = copy.deepcopy(base)
    doc["obstructions"]["classes"][5]["tuples_checked"] = 10**9
    assert verify_certificate(doc) == [
        "obstructions: class 5 tuple count does not recompute"
    ]
    doc = copy.deepcopy(base)
    doc["discrepancies"] = []
    assert verify_certificate(doc) != []
    doc = copy.deepcopy(base)
    doc["params"]["b"] = 99
    assert verify_certificate(doc) != []
    # values that compare equal to the recomputed ones but are not them
    doc = copy.deepcopy(base)
    doc["obstructions"]["classes"][0].update(smallest_modulus=12.0, tuples_checked=144.0)
    assert verify_certificate(doc) == [
        "obstructions: class 0 stored modulus 12.0, recomputed 12"
    ]
    doc = copy.deepcopy(base)
    doc["obstructions"]["classes"][0]["tuples_checked"] = 144.0
    assert verify_certificate(doc) == [
        "obstructions: class 0 tuple count does not recompute"
    ]
    doc = copy.deepcopy(base)
    doc["replication"]["qr_law"]["holds"] = 1
    assert verify_certificate(doc) == ["replication: tables do not recompute"]


@pytest.mark.parametrize(
    "edit",
    [
        list.clear,
        list.pop,
        lambda classes: classes.append(dict(classes[0])),
        lambda classes: classes.__setitem__(11, dict(classes[0])),
        list.reverse,
    ],
    ids=["empty", "truncated", "extra-duplicate", "duplicate", "reordered"],
)
def test_dio_classes_listed_once_in_order(edit):
    params = validate_dio_params(13, 3, 2)
    doc = build_dio_certificate(params, modulus_bound=48, qr_bound=200).to_dict()
    edit(doc["obstructions"]["classes"])
    assert verify_certificate(doc) == [
        "obstructions: classes do not list r = 0..11 once each, in order"
    ]


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


def test_byte_identical_across_threads():
    params = validate_params(13, 1, 3, 10)
    texts = {
        canonical_json(
            build_torsion_certificate(
                params,
                "standard",
                genus=None,
                prime_bound=None,
                budget=10**8,
                threads=t,
            ).to_dict()
        )
        for t in (1, 2, 8)
    }
    assert len(texts) == 1
