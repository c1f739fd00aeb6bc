"""verify on edited certificates.

Four certificates are edited one leaf at a time: every int goes up or down
by one or is retyped to a float, a string, null or a bool; every bool is
flipped or set to 0 or 1; every string is edited, emptied or nulled; every
null is set to 0, "" or false; and every object loses each of its keys and
gains one.  `candidates`, `elimination` and the reasons of skipped scan
records are left alone: the first two are compared by value only, and a
skip reason is trusted.  Every other scan record leaf is edited, since each
ok record is rebuilt from its counts.  Every edit must fail with a message
that names the block it edited, unless it edited an input (`INPUTS`), or
re-verify for the reason `REVERIFY` gives; none may raise.  A user genus
edited by one fails too wherever the scan has an ok record, whose counts
then do not fit it.
"""

import copy
import json
import re
import subprocess
import sys

import pytest

from selli_cert.certificates import (
    build_dio_certificate,
    build_torsion_certificate,
    canonical_json,
)
from selli_cert.diophantine import validate_dio_params
from selli_cert.family import validate_params
from selli_cert.jacobian import GENUS_USER, GenusSpec
from selli_cert.verify import verify_certificate


def _torsion(a, m, d1, d2, convention="standard", **kwargs):
    return build_torsion_certificate(validate_params(a, m, d1, d2), convention, **kwargs)


@pytest.fixture(scope="module")
def certificates():
    scan = dict(genus=GenusSpec(g=2, source=GENUS_USER), budget=10**7)
    built = {
        "standard": _torsion(13, 1, 3, 10),
        "coprime": _torsion(1009, 0, 3, 22, "paper-ex2", prime_bound=22, **scan),
        "inconclusive": _torsion(1009, 0, 3, 22, "paper-ex2", prime_bound=12, **scan),
        "diophantine": build_dio_certificate(
            validate_dio_params(13, 3, 10), box=30, modulus_bound=360
        ),
    }
    docs = {name: json.loads(canonical_json(cert.to_dict())) for name, cert in built.items()}
    assert [docs[name]["conclusion"] for name in ("standard", "coprime", "inconclusive")] == [
        "TRIVIAL_BY_POINT_ELIMINATION",
        "TRIVIAL_BY_COPRIME_ORDERS",
        "INCONCLUSIVE",
    ]
    return docs


# Edits that still re-verify, each for the reason given.
REVERIFY = {
    **{
        (name, ("tool_version",), edit): "the emitting release's version; any string passes"
        for name in ("standard", "coprime", "inconclusive", "diophantine")
        for edit in ("edited", "emptied")
    },
    **{
        (name, ("params", "b_explicit"), "flipped"): (
            "b = 2^d1*a - 3 given explicitly is the same member (3 = 3^1 passes H4)"
        )
        for name in ("standard", "coprime", "inconclusive")
    },
    ("coprime", ("prime_scan", "prime_bound"), "-1"): "no prime lies in (21, 22]",
    ("inconclusive", ("prime_scan", "prime_bound"), "-1"): "no prime lies in (11, 12]",
    **{
        ("diophantine", path, edit): "an honest bound change with the same answer"
        for path in (
            ("search", "box"),
            ("obstructions", "modulus_bound"),
            ("replication", "qr_law", "prime_bound"),
        )
        for edit in ("+1", "-1")
    },
}

# The inputs no other field pins down: an edited m or user genus asks
# another question, whose answer shows in the blocks rebuilt from it, not
# in its own.
INPUTS = {("params", "m"), ("genus", "g")}


def _skipped(doc):
    """The paths left unedited: `candidates`, `elimination` and the reason
    of each skipped scan record."""
    records = (doc.get("prime_scan") or {}).get("records", [])
    reasons = {
        ("prime_scan", "records", i, "reason")
        for i, record in enumerate(records)
        if record["status"] == "skipped"
    }
    return {("candidates",), ("elimination",), *reasons}


def _nodes(node, skipped, path=()):
    """(path, value) for every object and leaf outside skipped."""
    if path in skipped:
        return
    if not isinstance(node, list):
        yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, skipped, (*path, key))


def _edits(value):
    """(label, edit of the parent at that key) for one node."""
    if isinstance(value, dict):
        deletions = [
            (f"without {key}", lambda parent, k, key=key: parent[k].pop(key)) for key in value
        ]
        return [*deletions, ("with extra", lambda parent, k: parent[k].update(extra=0))]
    if isinstance(value, bool):
        values = [("flipped", not value), ("0", 0), ("1", 1)]
    elif isinstance(value, int):
        values = [
            ("+1", value + 1), ("-1", value - 1), ("float", float(value)),
            ("str", str(value)), ("null", None), ("true", True), ("false", False),
        ]
    elif isinstance(value, str):
        values = [("edited", value + "x"), ("emptied", ""), ("null", None)]
    else:
        values = [("0", 0), ("empty string", ""), ("false", False)]
    return [(label, lambda parent, k, v=v: parent.__setitem__(k, v)) for label, v in values]


def _block(message):
    return re.match(r"[^.:\[]+", message).group()


def test_every_single_edit_fails_in_its_block(certificates):
    reverified = set()
    edits = 0
    for name, base in certificates.items():
        assert verify_certificate(base) == []
        for path, value in _nodes(base, _skipped(base)):
            for label, edit in _edits(value):
                doc = {"root": copy.deepcopy(base)}
                parent, key = doc, "root"
                for step in path:
                    parent, key = parent[key], step
                edit(parent, key)
                failures = verify_certificate(doc["root"])
                edits += 1
                where = (name, path, label)
                if where in REVERIFY:
                    assert failures == [], where
                    reverified.add(where)
                    continue
                assert failures, where
                if path[:2] not in INPUTS:
                    block = path[0] if path else label.split()[-1]
                    assert block in map(_block, failures), (where, failures)
    assert reverified == REVERIFY.keys()
    assert edits > 1900


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "name, edit, failures",
    [
        (
            "standard",
            lambda doc: doc.update(timing=_nested(900)),
            ["timing: stored a list of 1, recomputed null"],
        ),
        (
            "diophantine",
            lambda doc: doc.update(timing=_nested(900)),
            ["timing: stored a list of 1, recomputed null"],
        ),
        (
            "standard",
            lambda doc: doc.update(genus=_nested(900)),
            ["genus: malformed (TypeError: list indices must be integers or slices, not str)"],
        ),
        (
            "coprime",
            lambda doc: doc.update(genus=_nested(900)),
            ["genus: malformed (TypeError: list indices must be integers or slices, not str)"],
        ),
        (
            "coprime",
            lambda doc: doc["prime_scan"]["records"][2].update(counts=_nested(900)),
            ["prime_scan.records[2].counts: stored a list of 1, recomputed an object"],
        ),
        (
            "coprime",
            lambda doc: doc["prime_scan"]["records"][3].update(counts=_nested(900)),
            ["prime_scan.records[3].counts: stored a list of 1, recomputed an object"],
        ),
        ("standard", lambda doc: doc.update(extra=0), ["extra: unexpected key"]),
        ("diophantine", lambda doc: doc.update(extra=0), ["extra: unexpected key"]),
    ],
)
def test_hostile_documents_fail_without_raising(certificates, name, edit, failures):
    doc = copy.deepcopy(certificates[name])
    edit(doc)
    assert verify_certificate(doc) == failures


# Hostile integers that still re-verify, each for the reason given.
HOSTILE_REVERIFY = {
    ("diophantine", ("replication", "qr_law", "prime_bound"), 10**6): (
        "an honest bound: the QR law holds to 10^6"
    ),
    **{
        ("diophantine", ("params", "d2"), d2): (
            "another admitted member (even d2 prime to d1) with the same search and sweep"
        )
        for d2 in (10**6, 10**9, 10**18)
    },
}
HOSTILE_VALUES = (10**6, 10**9, 10**18, -(10**9))

# Reads the four certificates, as one JSON list, and verifies each in
# process, so every child starts warm; then forks one child per later line,
# one at a time, and prints how its verify ended.  Being small, it forks in
# less time than the test process would.
_PROBE_SERVER = r"""
import gc, json, os, resource, signal, sys
from selli_cert.verify import verify_certificate

assert not any(map(verify_certificate, json.loads(sys.stdin.readline())))
gc.freeze()
print("ready", flush=True)
for line in sys.stdin:
    doc = json.loads(line)
    pid = os.fork()
    if pid == 0:
        code = 2  # raised
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, resource.RLIM_INFINITY))
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            code = 0 if verify_certificate(doc) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        print("killed", flush=True)
    else:
        print(("failures", "reverified", "raised")[os.WEXITSTATUS(status)], flush=True)
"""


def _int_leaves(node, path=()):
    """(parent, key, path) for every JSON integer leaf, bools excluded."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        if type(child) is int:
            yield node, key, (*path, key)
        elif isinstance(child, (dict, list)):
            yield from _int_leaves(child, (*path, key))


def test_hostile_integers_fail_within_a_second(certificates):
    """Every integer leaf of the four certificates, set to each of
    HOSTILE_VALUES, must make verify return failures within 1 s under a
    1.5 GB address-space cap, or re-verify for the reason HOSTILE_REVERIFY
    gives."""
    server = subprocess.Popen(
        [sys.executable, "-c", _PROBE_SERVER],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    outcomes, reverified, edits = {}, set(), 0
    try:
        server.stdin.write(json.dumps(list(certificates.values())) + "\n")
        server.stdin.flush()
        assert server.stdout.readline() == "ready\n"
        for name, base in certificates.items():
            doc = copy.deepcopy(base)
            for parent, key, path in list(_int_leaves(doc)):
                value = parent[key]
                for hostile in HOSTILE_VALUES:
                    parent[key] = hostile
                    server.stdin.write(json.dumps(doc) + "\n")
                    server.stdin.flush()
                    got = server.stdout.readline().strip()
                    edits += 1
                    where = (name, path, hostile)
                    if where in HOSTILE_REVERIFY and got == "reverified":
                        reverified.add(where)
                    elif got != "failures":
                        outcomes[where] = got
                parent[key] = value
    finally:
        server.stdin.close()
        server.wait(timeout=60)
    assert outcomes == {}
    assert reverified == HOSTILE_REVERIFY.keys()
    assert edits == 1064
