import copy
import json

import pytest

from selli_cert.certificates import (
    CONCLUSION_COPRIME,
    CONCLUSION_ELIMINATION,
    CONCLUSION_INCONCLUSIVE,
    build_dio_certificate,
    build_torsion_certificate,
    canonical_json,
)
from selli_cert.diophantine import validate_dio_params
from selli_cert.family import validate_params
from selli_cert.jacobian import GENUS_USER, GenusSpec
from selli_cert.verify import verify_certificate


def torsion_doc(a=13, m=1, d1=3, d2=10, convention="standard", **kw):
    params = validate_params(a, m, d1, d2)
    cert = build_torsion_certificate(params, convention, **kw)
    return cert.to_dict()


def default_build_kw():
    return dict(genus=None, prime_bound=None, infinity_count=1, budget=10**8, threads=1)


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
        infinity_count=1,
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


def _graft_coprime_block(doc):
    """Attach an arithmetically consistent coprime-order block.

    Re-verification recomputes L-polynomials from the stored counts rather
    than re-enumerating fields, so a stored-count block that is internally
    consistent must pass and any inconsistent edit must fail.
    """
    doc = copy.deepcopy(doc)
    doc["conclusion"] = CONCLUSION_COPRIME
    doc["genus"] = {"g": 1, "source": GENUS_USER}
    doc["prime_scan"] = {
        "prime_bound": 10,
        "records": [],
        "certificate": {
            "p1": 5,
            "p2": 7,
            "order1": 9,
            "order2": 5,
            "gcd": 1,
            "counts1": {"entries": [[1, 9]], "infinity_count": 1},
            "counts2": {"entries": [[1, 5]], "infinity_count": 1},
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
    doc = copy.deepcopy(base)
    doc["discrepancies"] = []
    assert verify_certificate(doc) != []
    doc = copy.deepcopy(base)
    doc["params"]["b"] = 99
    assert verify_certificate(doc) != []


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
                infinity_count=1,
                budget=10**8,
                threads=t,
            ).to_dict()
        )
        for t in (1, 2, 8)
    }
    assert len(texts) == 1
