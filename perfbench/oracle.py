"""Correctness oracle: the answer a certificate gives, and the stored references.

The answer is what a user reads off a certificate, not its bytes, so a later
schema still compares: for a torsion certificate the conclusion, the
surviving y-candidates, each scanned prime's status and Jacobian order, and
the coprime pair; for a Diophantine certificate the solutions found and the
smallest obstructing modulus per residue class mod 12.

References are stored for one seed (`REFERENCE_SEED`) of every workload,
one entry per generated job.  At that seed a job without a stored answer
fails, so a change to the generators cannot shrink the comparison unseen.
Jobs of other seeds are checked for an allowed exit code and a passing
`verify` only.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0


def answer(doc: dict) -> dict:
    """The answer fields of a certificate document."""
    if doc.get("kind") == "diophantine-insolubility":
        return {
            "solutions": doc["search"]["solutions"],
            "smallest_modulus": [c["smallest_modulus"] for c in doc["obstructions"]["classes"]],
        }
    scan = doc.get("prime_scan")
    pair = None
    primes = None
    if scan is not None:
        primes = [[r["p"], r["status"], r["order"]] for r in scan["records"]]
        cert = scan["certificate"]
        if cert is not None:
            pair = [cert["p1"], cert["p2"]]
    return {
        "conclusion": doc["conclusion"],
        "surviving": doc["surviving"],
        "primes": primes,
        "coprime_pair": pair,
    }


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    """Stored {job key: {"exit": code, "answer": {...}}}, or None for other seeds.

    A missing file at the reference seed gives {}, so every job fails.
    """
    if seed != REFERENCE_SEED:
        return None
    path = reference_path(workload)
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["jobs"]


def write_reference(workload: str, entries: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": REFERENCE_SEED, "jobs": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path
