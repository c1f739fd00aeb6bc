"""Seeded job generators for the three benchmark workloads.

A job is one CLI call that writes a certificate (`analyze-curve` or
`check-diophantine`), followed by `verify` on the written file.

Jobs come in rounds.  A round is a fixed list of slots, shuffled by the
seed, and each slot accepts only members whose predicted work falls in the
slot's band.  The seed picks the members (a, m, d2, ...), so every run
draws different parameters, while the work sizes a run sees stay the same
from seed to seed.  Slots are listed from cheapest to dearest, and the bands
are laid out so that the median and the tail percentile of a run land
inside a band of several slots, never on the edge between two bands: that
keeps both percentiles steady across seeds.

Before a draw is accepted, its work is sized with cheap public functions of
the program: `family.y_bound` for the y-box, p^k and `--budget` for point
counts, and closed forms for the Diophantine search and sweep.  Draws past
a cap are excluded and reported, never silently dropped: the CLI itself has
no y-box budget, so some family members would never finish.  Draws under
the cap but outside the slot's band are simply drawn again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from selli_cert.arith import primes_upto
from selli_cert.errors import SelliCertError
from selli_cert.family import discriminant_profile, validate_params, y_bound
from selli_cert.ffield import CurveEquation, CurveEquationModP, is_smooth_mod_p

# Exit codes a certificate-writing job may return: 0 (clean) or 2
# (inconclusive or a surfaced discrepancy).  Exit 1 writes no certificate.
ALLOWED_EXITS = frozenset({0, 2})

# Jobs generated per run: a whole number of rounds, about twice what one
# 35 s run completes at the commit that defined the benchmark.  A run that
# exhausts its pool starts over at its first job and says so.
POOL_ROUNDS = {"curve-sweep": 40, "prime-scan": 60, "dio-sweep": 14}

A_VALUES = tuple(1 + 12 * k for k in range(1, 201))  # a == 1 (mod 12), up to 2401


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]  # CLI arguments without --out
    work: dict = field(default_factory=dict, compare=False)  # predicted work
    counts: tuple = field(default=(), compare=False)  # prime-scan: ((p, k, cells), ...)
    curve: CurveEquation | None = field(default=None, compare=False)  # prime-scan

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Exclusion:
    argv: tuple[str, ...]
    reason: str


# ---- curve-sweep ----

# Largest y-box (2 * y_max candidates) accepted per d1.  For d1 > 3 every
# candidate costs one Bareiss discriminant in build and again in verify;
# past these caps a job takes seconds to hours.
CURVE_BOX_CAP = {3: 20000, 9: 1200, 15: 240}
ALL_M = tuple(range(6))
# (d1, d2 choices, m choices, y-box band); each d2 = 2d with d prime,
# gcd(d1, d) = 1 and d2 > d1.  A candidate costs about 10 us at d1 = 3,
# 0.45 ms at d1 = 9 and 2 ms at d1 = 15, and that cost varies about 2x from
# member to member, so the bands are sized in time, not in candidates.  Three
# cheap slots, then four alike (0.05-0.06 s to build) that hold the median,
# then three alike (about 0.23 s) that hold p90 at two thirds of their
# range: neither percentile sits on the edge between two kinds of job.
# d2 = 10 at d1 = 9 gives y-boxes of 10^5 to 10^15 candidates, past the cap
# on every draw; those draws are reported as excluded.
CURVE_SLOTS = (
    (3, (10, 14, 22, 26), ALL_M, (2, 200)),
    (9, (10, 62, 74), ALL_M, (16, 30)),
    (15, (122, 134, 142, 146), ALL_M, (10, 20)),
    (9, (46,), ALL_M, (100, 140)),
    (9, (46,), ALL_M, (100, 140)),
    (9, (46,), ALL_M, (100, 140)),
    (9, (46,), ALL_M, (100, 140)),
    (9, (34,), ALL_M, (450, 600)),
    (9, (34,), ALL_M, (450, 600)),
    (15, (94,), ALL_M, (100, 140)),
)


def _curve_draw(rng: random.Random, slot):
    d1, d2s, ms, (lo, hi) = slot
    a = rng.choice(A_VALUES)
    m = rng.choice(ms)
    d2 = rng.choice(d2s)
    argv = (
        "analyze-curve", "--a", str(a), "--m", str(m), "--d1", str(d1),
        "--d2", str(d2), "--convention", "standard", "--threads", "1",
    )
    try:
        profile = discriminant_profile(validate_params(a, m, d1, d2), "standard")
        box = 2 * y_bound(profile)
    except SelliCertError as exc:
        return Exclusion(argv, f"invalid member ({exc})")
    if box > CURVE_BOX_CAP[d1]:
        return Exclusion(
            argv,
            f"y-box of {box} candidates exceeds the d1={d1} cap of "
            f"{CURVE_BOX_CAP[d1]} (the CLI has no y-box budget)",
        )
    if not lo <= box <= hi:
        return None
    return Job(argv, {"ybox_candidates": box})


# ---- prime-scan ----

PRIME_CELL_CAP = 2_500_000  # predicted point-count cells per job
# d2 = 4 is left out: its y-boxes run to 10^4 candidates, which would make
# the y-box, not the point counts, set the time of those jobs.
PRIME_D2 = (10, 14, 22, 26)


def scan_plan(curve: CurveEquation, genus: int, bound: int, budget: int):
    """Counts the prime scan will run, and the (p, k) it will refuse.

    Mirrors the scan: primes failing the characteristic guard or the
    smoothness test are skipped; for the rest k = 1..genus are counted until
    the first k whose work (q, or q^2 with the mixed term) exceeds the budget.
    """
    counts, refused = [], []
    for p in primes_upto(bound):
        reduced = CurveEquationModP.reduce(curve, p)
        if not is_smooth_mod_p(reduced, budget=budget).smooth:
            continue
        for k in range(1, genus + 1):
            q = p**k
            cells = q if reduced.m == 0 else q * q
            if cells > budget:
                refused.append((p, k))
                break
            counts.append((p, k, cells))
    return tuple(counts), tuple(refused)


# (genus, prime-bound range, budgets, d2 choices, predicted-cells band).
# The median falls among the four genus-2 slots of 2-3 * 10^5 cells, and
# p90 between the last two, which both count over F_{11^3}.  Bounds stop
# short of 23 for genus 2: there the supplied genus 2 often contradicts the
# counts, and the CLI refuses with exit 1 and no certificate.  The last slot
# takes members with 13 | d2, so the characteristic guard skips p = 13 and
# the scan reaches p = 17, 19, 23, whose k = 3 counts the 10^7 budget
# refuses after k = 1, 2 were counted.
PRIME_SLOTS = (
    (2, (11, 13), (10**7, 10**8), PRIME_D2, (2_000, 50_000)),
    (2, (11, 13), (10**7, 10**8), PRIME_D2, (2_000, 50_000)),
    (2, (11, 13), (10**7, 10**8), PRIME_D2, (2_000, 50_000)),
    (2, (19, 22), (10**7, 10**8), PRIME_D2, (200_000, 300_000)),
    (2, (19, 22), (10**7, 10**8), PRIME_D2, (200_000, 300_000)),
    (2, (19, 22), (10**7, 10**8), PRIME_D2, (200_000, 300_000)),
    (2, (19, 22), (10**7, 10**8), PRIME_D2, (200_000, 300_000)),
    (3, (11, 12), (10**7, 10**8), PRIME_D2, (1_750_000, 2_200_000)),
    (3, (17, 23), (10**7,), (26,), (1_750_000, PRIME_CELL_CAP)),
)


def _prime_draw(rng: random.Random, slot):
    genus, (lo, hi), budgets, d2s, (cells_lo, cells_hi) = slot
    a = rng.choice(A_VALUES)
    m = rng.choice((0, 2))
    d2 = rng.choice(d2s)
    bound = rng.randint(lo, hi)
    budget = rng.choice(budgets)
    argv = (
        "analyze-curve", "--a", str(a), "--m", str(m), "--d1", "3",
        "--d2", str(d2), "--convention", "paper-ex2", "--genus", str(genus),
        "--prime-bound", str(bound), "--budget", str(budget), "--threads", "1",
    )
    try:
        params = validate_params(a, m, 3, d2)
    except SelliCertError as exc:
        return Exclusion(argv, f"invalid member ({exc})")
    curve = CurveEquation.from_family(params, "paper-ex2")
    counts, refused = scan_plan(curve, genus, bound, budget)
    cells = sum(c for _, _, c in counts)
    if cells > PRIME_CELL_CAP:
        return Exclusion(
            argv, f"predicted point-count work {cells} cells exceeds the cap {PRIME_CELL_CAP}"
        )
    if not cells_lo <= cells <= cells_hi:
        return None
    return Job(
        argv, {"count_cells": cells, "counts": len(counts), "refused": len(refused)}, counts, curve
    )


# ---- dio-sweep ----

# d2 even with gcd(d1, d2) = 1.
DIO_D2 = {3: (2, 4, 8, 10, 14), 9: (2, 4, 8, 10, 14), 15: (2, 4, 8, 14)}
# (modulus bound, box) per slot; the seed draws the (a, d1, d2) triple.  The
# sweep's cost grows with about the fourth power of the bound and the
# search's with the square of the box.  The median falls among the five
# slots of about 0.1 s to build, p75 between the two slots at bound 300.
DIO_SLOTS = (
    (120, 30), (120, 60), (144, 30),
    (216, 30), (216, 60), (192, 100), (204, 90), (228, 30),
    (300, 30), (300, 60),
    (360, 60), (192, 300),
)


def sweep_tuples_upper(bound: int) -> int:
    """Tuples the sweep checks up to `bound` if no class ever closed:
    sum over M = 12, 24, .. of 12 classes * (M/12) x-values * M^2 (y, z)."""
    return sum(m**3 for m in range(12, bound + 1, 12))


def _dio_draw(rng: random.Random, slot):
    bound, box = slot
    a = rng.choice(A_VALUES)
    d1 = rng.choice((3, 9, 15))
    d2 = rng.choice(DIO_D2[d1])
    argv = (
        "check-diophantine", "--a", str(a), "--d1", str(d1), "--d2", str(d2),
        "--box", str(box), "--modulus-bound", str(bound),
    )
    return Job(argv, {"search_pairs": (2 * box + 1) ** 2, "sweep_tuples_max": sweep_tuples_upper(bound)})


_SLOTS = {
    "curve-sweep": (CURVE_SLOTS, _curve_draw),
    "prime-scan": (PRIME_SLOTS, _prime_draw),
    "dio-sweep": (DIO_SLOTS, _dio_draw),
}

MAX_DRAWS = 5000  # per slot and round, before the generator gives up


def round_size(workload: str) -> int:
    return len(_SLOTS[workload][0])


def generate(workload: str, seed: int):
    """(jobs, exclusions) for a workload and seed; the same seed gives the same jobs.

    Each slot draws until it yields a new job in its band; every draw past a
    cap is returned as an exclusion with its reason.
    """
    slots, draw = _SLOTS[workload]
    rng = random.Random(f"{workload}/{seed}")
    jobs: list[Job] = []
    exclusions: list[Exclusion] = []
    seen: set[str] = set()
    for _ in range(POOL_ROUNDS[workload]):
        round_jobs = []
        for slot in slots:
            for _ in range(MAX_DRAWS):
                got = draw(rng, slot)
                if isinstance(got, Exclusion):
                    exclusions.append(got)
                elif got is not None and got.key not in seen:
                    seen.add(got.key)
                    round_jobs.append(got)
                    break
            else:
                raise RuntimeError(f"{workload}: slot {slot} yields no new job in its band")
        rng.shuffle(round_jobs)
        jobs.extend(round_jobs)
    return jobs, exclusions
