"""selli-cert benchmark: time to a certificate, time to re-verify it, memory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curve-sweep --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py for how each draws its jobs from the seed):

    curve-sweep  analyze-curve --convention standard, d1 in {3, 9, 15}:
                 family / polyring / verify; no point counting
    prime-scan   analyze-curve --convention paper-ex2 --genus 2|3: the
                 coprime-order route; ffield point counting dominates
    dio-sweep    check-diophantine: bounded search and obstruction sweep,
                 which verify runs again

One client runs jobs back to back (a closed loop) in this process for
`--seconds`.  A job is `cli.main([... "--out", file])` followed by
`cli.main(["verify", file])`, with `--threads 1`.  Every job's exit codes and
answer are checked (oracle.py).  The program is imported from `src/` of the
checkout; nothing is installed.

Every time in the end-to-end metrics is CPU time (see cpu_s) scaled to a
reference machine speed (calibration.py): a job runs on one thread, so on an
idle machine its CPU time is its wall time, but a shared host slows the vCPU
by up to 1.6x for seconds at a time.  A fixed calibration loop of the same
kind of work, timed before and after each job, measures that slowdown and
the job's time is divided by it.  Raw CPU and wall times are kept in the run
record, and the notes print how far the scaling moved them.

`--trace 0` prints the end-to-end metrics.  `--trace 1` is the separate
traced run: it installs span wrappers around the program's cross-module calls
(tracing.py), runs a self-test whose counters must equal known work, runs a
fixed number of whole rounds of the workload traced (TRACED_ROUNDS), replays
the same jobs untraced to measure the tracing overhead, and times the seed's
prime-scan point counts at 1 and 2 threads.  Span times and the thread
speed-up are wall times.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Spans and the full run
record are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("curve-sweep", "prime-scan", "dio-sweep")
SETUP_REPEATS = 5
# Tail percentile per workload, of cert_s and of verify_s.  It never changes
# with the run's length, so runs compare like with like; a run goes on past
# --seconds until it has at least 10 samples beyond it (min_jobs).  A
# prime-scan verify does not recount, so it costs about 4 ms on every job and
# its p90 measured only scheduler jitter (IQR/median 0.24 over ten seeds on
# a shared 2-vCPU machine, against 0.06 for p75).
DESIGN_TAIL = {
    "curve-sweep": {"cert_s": 90, "verify_s": 90},
    "prime-scan": {"cert_s": 90, "verify_s": 75},
    "dio-sweep": {"cert_s": 75, "verify_s": 75},
}
# Whole rounds in the traced phase (and in its untraced replay), so every
# per-module total is the same fixed work for a given seed, however fast the
# program runs.  About 0.4 * 35 s at the commit that defined the benchmark.
TRACED_ROUNDS = {"curve-sweep": 6, "prime-scan": 9, "dio-sweep": 3}
SPEEDUP_SHARE = 0.12  # of --seconds, for the 1- vs 2-thread count timing
# The calibration loop (calibration.py) that matches the work of each step
# of a job; set-up, imports and job generation, always uses "python".  A
# prime-scan verify does not recount: it is interpreter work.
CALIBRATION_KIND = {
    "curve-sweep": {"cert_s": "python", "verify_s": "python"},
    "prime-scan": {"cert_s": "numpy", "verify_s": "python"},
    "dio-sweep": {"cert_s": "numpy", "verify_s": "numpy"},
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.process_time(); "
    "import selli_cert; print(time.process_time() - t)"
)


def cpu_s() -> float:
    """CPU seconds (user + system) of this process and its waited-for children.

    The kernel leaves steal time out of a task's CPU time, so this clock runs
    only while the program does; children count once they have been waited
    for, so work moved into a subprocess still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import selli_cert from the checkout's src/, or exit 2 if it is missing."""
    package = SRC / "selli_cert" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from the root "
              "of a selli-cert checkout", file=sys.stderr)
        raise SystemExit(2)
    os.environ.pop("SELLI_CERT_THREADS", None)
    # One thread per job: numpy's OpenBLAS would otherwise start a helper
    # thread per core at import, and their start-up would count as CPU time.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import selli_cert
    from selli_cert import cli

    if Path(selli_cert.__file__).resolve().parent != package.parent.resolve():
        print(f"error: imported selli_cert from {selli_cert.__file__}, not from src/",
              file=sys.stderr)
        raise SystemExit(2)
    return cli


# ---- environment record ----

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "selli_cert").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---- jobs ----

class Runner:
    """Runs jobs through the CLI, times them and checks their answers."""

    def __init__(self, cli, workloads, oracle, reference, cert_cal, verify_cal):
        self.cli = cli
        self.cert_cal = cert_cal
        self.verify_cal = verify_cal  # may be cert_cal itself
        self.workloads = workloads
        self.oracle = oracle
        self.reference = reference
        self.cert_path = OUT_DIR / f"cert-{os.getpid()}.json"
        self.recorder = None
        self.failures: list[str] = []
        self.compared = 0

    def _main(self, argv):
        if self.recorder is None:
            return self.cli.main(argv)
        return self.recorder.call("cli", self.cli.main, (argv,), {})

    def run(self, job) -> dict:
        """Build, write and verify one certificate; returns timings and verdict."""
        out = str(self.cert_path)
        result = {"job": job.key, "work": job.work, "cert_s": None, "verify_s": None,
                  "cpu_s": None, "wall_s": None, "timed": False, "ok": False}
        cert_cal, verify_cal = self.cert_cal, self.verify_cal
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                p0 = cert_cal.probe()
                w0, t0 = time.perf_counter(), cpu_s()
                rc = self._main([*job.argv, "--out", out])
                t1, w1 = cpu_s(), time.perf_counter()
                p1 = cert_cal.probe()
                q1 = p1 if verify_cal is cert_cal else verify_cal.probe()
                w2, t2 = time.perf_counter(), cpu_s()
                rv = self._main(["verify", out]) if rc in self.workloads.ALLOWED_EXITS else None
                t3, w3 = cpu_s(), time.perf_counter()
                q2 = verify_cal.probe()
        except (Exception, SystemExit):
            self._fail(job, "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1])
            return result
        result.update(cert_s=cert_cal.scale(t1 - t0, p0, p1),
                      verify_s=verify_cal.scale(t3 - t2, q1, q2),
                      cpu_s=t1 - t0 + t3 - t2, wall_s=w1 - w0 + w3 - w2)
        # A certificate that was written and re-verifies is timed even if its
        # answer differs from the reference; that job still counts as failed.
        result["timed"] = rc in self.workloads.ALLOWED_EXITS and rv == 0
        if rc not in self.workloads.ALLOWED_EXITS:
            self._fail(job, f"exit {rc} not in {sorted(self.workloads.ALLOWED_EXITS)}")
        elif rv != 0:
            self._fail(job, f"verify exit {rv}")
        elif self._answer_ok(job, rc):
            result["ok"] = True
        return result

    def _answer_ok(self, job, rc) -> bool:
        if self.reference is None:
            return True
        want = self.reference.get(job.key)
        if want is None:
            self._fail(job, "no stored reference answer (the job generators or the program changed)")
            return False
        with open(self.cert_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            got = self.oracle.answer(doc)
        except (KeyError, TypeError) as exc:
            self._fail(job, f"certificate lacks an answer field ({exc!r})")
            return False
        self.compared += 1
        if rc != want["exit"] or got != want["answer"]:
            self._fail(job, f"answer differs from reference (exit {rc}, stored {want['exit']})")
            return False
        return True

    def _fail(self, job, why: str) -> None:
        self.failures.append(f"{job.key}: {why}")

    def loop(self, pool, seconds: float, round_size: int, min_jobs: int):
        """Closed loop: the next job starts when the previous one ends.

        Runs until `seconds` have passed, at least `min_jobs` jobs have run
        and the current round of `round_size` jobs is complete, so a run
        measures whole rounds and every run sees the same mix of sizes.  With
        `seconds` = 0 it runs exactly the whole rounds that cover `min_jobs`.
        """
        results = []
        start = time.perf_counter()
        i = 0
        while True:
            if (i >= min_jobs and i % round_size == 0
                    and time.perf_counter() - start >= seconds):
                break
            if i == len(pool):
                print(f"note: pool of {len(pool)} jobs exhausted; starting over")
            if self.recorder is not None:
                self.recorder.job = str(i)
            results.append(self.run(pool[i % len(pool)]))
            i += 1
        return results


# ---- statistics ----

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(pct: float, n: int) -> int:
    """Samples above the nearest-rank `pct` percentile of `n`."""
    return n - math.ceil(pct / 100 * n)


def min_jobs(workload: str, round_size: int) -> int:
    """Whole rounds of jobs that leave 10 samples beyond DESIGN_TAIL."""
    n = round_size
    while beyond(max(DESIGN_TAIL[workload].values()), n) < 10:
        n += round_size
    return n


def timing_metrics(workload: str, results: list[dict]) -> tuple[dict, list[str]]:
    timed = [r for r in results if r["timed"]]
    n = len(timed)
    if not n:
        raise SystemExit("error: no job wrote a certificate that re-verifies; nothing to time")
    ran = [r for r in results if r["cert_s"] is not None]
    busy = sum(r["cert_s"] + r["verify_s"] for r in ran)
    cpu = sum(r["cpu_s"] for r in ran)
    wall = sum(r["wall_s"] for r in ran)
    metrics = {"certs_per_s": (n / busy, "1/s")}
    notes = [
        f"certs_per_s: {n} jobs in {busy:.3f} s of scaled job time "
        f"({cpu:.3f} s of CPU time, {wall:.3f} s of wall time)",
        f"cert_s_p50, verify_s_p50: median of {n} jobs",
    ]
    for step in ("cert_s", "verify_s"):
        values = [r[step] for r in timed]
        metrics[f"{step}_p50"] = (statistics.median(values), "s")
    for step, pct in DESIGN_TAIL[workload].items():
        # Fewer than min_jobs timed jobs means some jobs failed, and so does the run.
        if beyond(pct, n) >= 10:
            metrics[f"{step}_tail"] = (percentile([r[step] for r in timed], pct), "s")
            notes.append(f"{step}_tail: p{pct} of {n} jobs, {beyond(pct, n)} beyond it")
        else:
            notes.append(f"{step}_tail: absent, {n} timed jobs leave fewer than 10 beyond p{pct}")
    return metrics, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---- set-up ----

def measure_setup(workloads, calibration, workload: str, seed: int):
    """Median over SETUP_REPEATS of (import selli_cert in a fresh interpreter
    + generate the workload's jobs), in CPU seconds scaled by `calibration`.
    Returns (setup_s, jobs, exclusions)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibration.probe()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        t = cpu_s()
        jobs, exclusions = workloads.generate(workload, seed)
        took = float(probe.stdout.strip()) + cpu_s() - t
        samples.append(calibration.scale(took, before, calibration.probe()))
    return statistics.median(samples), jobs, exclusions


# ---- traced run ----

# Tiny jobs whose work is known exactly: (label, argv, span, counter, value).
SELF_TEST = (
    ("y-box of (13,1,3,10)",
     ("analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10", "--threads", "1"),
     "family.ybox", "candidates", 10),
    # y_max = 25; each candidate's Delta(y) is a Bareiss discriminant.
    ("y-box of (13,1,9,34)",
     ("analyze-curve", "--a", "13", "--m", "1", "--d1", "9", "--d2", "34", "--threads", "1"),
     "family.ybox", "candidates", 50),
    ("search pairs at box 30",
     ("check-diophantine", "--a", "13", "--d1", "3", "--d2", "2", "--box", "30",
      "--modulus-bound", "48"),
     "diophantine.search", "pairs", 61**2),
    # At bound 48 ten classes close at M = 12 and classes 5, 9 stay open:
    # 12 classes * 1 * 12^2 + 2 classes * (2 * 24^2 + 3 * 36^2 + 4 * 48^2).
    ("sweep tuples at bound 48",
     ("check-diophantine", "--a", "13", "--d1", "3", "--d2", "2", "--box", "30",
      "--modulus-bound", "48"),
     "diophantine.sweep", "tuples", 12 * 144 + 2 * (2 * 24**2 + 3 * 36**2 + 4 * 48**2)),
    ("count cells of y^10=13x^3+x*y-102 over F_7",
     ("count-points", "--curve", "y^10=13x^3+x*y-102", "--p", "7", "--k", "1",
      "--threads", "1"),
     "ffield.count", "cells", 7**2),
    # Primes up to 13; the 10^4 budget refuses k = 2 at p = 11.
    ("primes tried up to 13",
     ("analyze-curve", "--a", "25", "--m", "2", "--d1", "3", "--d2", "26",
      "--convention", "paper-ex2", "--genus", "2", "--prime-bound", "13",
      "--budget", "10000", "--threads", "1"),
     "jacobian.scan", "tried", 6),
)


def self_test(runner) -> list[str]:
    """Run SELF_TEST under the recorder; returns the mismatches."""
    rec = runner.recorder
    problems = []
    for i, (label, argv, span_name, counter, expected) in enumerate(SELF_TEST):
        rec.job = f"selftest-{i}"
        first = len(rec.spans)
        out = str(runner.cert_path)
        with contextlib.redirect_stderr(io.StringIO()):
            rc = runner._main([*argv, "--out", out])
            if argv[0] != "count-points" and rc in runner.workloads.ALLOWED_EXITS:
                rv = runner._main(["verify", out])
                if rv != 0:
                    problems.append(f"{label}: verify exit {rv}")
        spans = [s for s in rec.spans[first:] if s.name == span_name]
        if span_name in rec.absent:
            print(f"self-test {label}: absent ({rec.absent[span_name]})")
            continue
        got = spans[0].attrs.get(counter) if spans else None
        status = "ok" if got == expected else "MISMATCH"
        print(f"self-test {label}: {span_name}.{counter} = {got}, expected {expected}: {status}")
        if got != expected:
            problems.append(f"{label}: {span_name}.{counter} = {got}, expected {expected}")
    return problems


def count_speedup(jobs, budget_s: float):
    """ffield count time at 1 thread over 2 threads, on prime-scan counts.

    Walks the prime-scan jobs in order and times every count each job makes
    at both thread counts (alternating which goes first) until the time
    budget is spent.  Returns (ratio or None, description).
    """
    count_points = getattr(importlib.import_module("selli_cert.ffield"), "count_points", None)
    if count_points is None:
        return None, "absent: selli_cert.ffield.count_points not found"
    t1 = t2 = 0.0
    counts = cells = 0
    start = time.perf_counter()
    for job in jobs:
        if time.perf_counter() - start > budget_s and counts:
            break
        for p, k, c in job.counts:
            for threads in ((1, 2) if counts % 2 == 0 else (2, 1)):
                t = time.perf_counter()
                try:
                    count_points(job.curve, p, k, budget=c, threads=threads)
                except TypeError as exc:
                    return None, f"absent: count_points no longer takes a thread count ({exc})"
                if threads == 1:
                    t1 += time.perf_counter() - t
                else:
                    t2 += time.perf_counter() - t
            counts += 1
            cells += c
    return t1 / t2, f"{counts} counts, {cells} cells, {t1:.3f} s at 1 thread, {t2:.3f} s at 2"


# ---- main ----

def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    import calibration
    import oracle
    import tracing
    import workloads

    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)

    setup_cal = calibration.Calibration("python")
    setup_s, pool, exclusions = measure_setup(workloads, setup_cal, args.workload, args.seed)
    excluded = {}
    for ex in exclusions:
        excluded.setdefault((ex.argv, ex.reason), 0)
        excluded[ex.argv, ex.reason] += 1
    for (ex_argv, reason), times in excluded.items():
        print(f"excluded {' '.join(ex_argv)} ({times}x): {reason}")
    print(f"setup_s {setup_s!r} s (median of {SETUP_REPEATS}: import selli_cert in a fresh "
          f"interpreter + generate {len(pool)} jobs, {len(exclusions)} draws excluded)")

    reference = oracle.load_reference(args.workload, args.seed)
    kinds = CALIBRATION_KIND[args.workload]
    cert_cal = calibration.Calibration(kinds["cert_s"])
    verify_cal = (cert_cal if kinds["verify_s"] == kinds["cert_s"]
                  else calibration.Calibration(kinds["verify_s"]))
    runner = Runner(cli, workloads, oracle, reference, cert_cal, verify_cal)
    record = {"environment": env, "exclusions": len(exclusions)}
    try:
        if args.trace == 0:
            size = workloads.round_size(args.workload)
            results = runner.loop(pool, args.seconds, size, min_jobs(args.workload, size))
            timing, notes = timing_metrics(args.workload, results)
            metrics = {"setup_s": (setup_s, "s"), **timing, "peak_rss_mb": (peak_rss_mb(), "MB")}
            problems = []
        else:
            metrics, notes, results, problems = traced_run(runner, tracing, workloads, args, pool)
    finally:
        runner.cert_path.unlink(missing_ok=True)

    notes.append(setup_cal.describe("set-up"))
    if verify_cal is cert_cal:
        notes.append(cert_cal.describe("jobs"))
    else:
        notes += [cert_cal.describe("builds"), verify_cal.describe("verifies")]
    for note in notes:
        print(note)
    attempted, failed = len(results), len(runner.failures)
    print(f"jobs_failed_ratio {failed / max(attempted, 1)!r} ({failed} of {attempted} attempted); "
          f"{runner.compared} answers compared with stored references"
          + ("" if reference is not None else f" (references exist for seed {oracle.REFERENCE_SEED} only)"))
    for failure in runner.failures[:50]:
        print(f"FAILED {failure}")
    for problem in problems:
        print(f"SELF-TEST FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")

    record.update(metrics={k: v for k, (v, _) in metrics.items()},
                  failures=runner.failures, problems=problems, jobs=results)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    correct = not runner.failures and not problems
    emit(correct, attempted, failed, metrics)
    return 0


def traced_run(runner, tracing, workloads, args, pool):
    """Self-test, traced phase, untraced replay of the same jobs, thread speed-up.

    The self-test's spans stay in the trace, so every module records some
    work on every workload; the self-test adds the same small, known work to
    each traced run.
    """
    recorder = tracing.Recorder()
    runner.recorder = recorder
    size = workloads.round_size(args.workload)
    with tracing.installed(recorder):
        problems = self_test(runner)
        traced = runner.loop(pool, 0, size, TRACED_ROUNDS[args.workload] * size)
    runner.recorder = None
    for name, why in recorder.absent.items():
        print(f"absent span {name}: {why}")
    replay = runner.loop(pool, 0, size, len(traced))

    values, absent = tracing.layer_metrics(recorder)
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        if name in values:
            metrics[name] = (values[name], unit)
    notes = [f"ABSENT {name}: {why}" for name, why in absent.items()]

    scan_jobs = pool if args.workload == "prime-scan" else workloads.generate("prime-scan", args.seed)[0]
    speedup, how = count_speedup(scan_jobs, SPEEDUP_SHARE * args.seconds)
    if speedup is not None:
        metrics["parallel.count_speedup_2t"] = (speedup, "ratio")
    notes.append(f"parallel.count_speedup_2t: {how}")

    traced_p50 = statistics.median(r["cert_s"] for r in traced if r["timed"])
    plain_p50 = statistics.median(r["cert_s"] for r in replay if r["timed"])
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    notes.append(f"trace.overhead_s: traced cert_s_p50 {traced_p50:.6f} s minus untraced "
                 f"{plain_p50:.6f} s over the same {len(traced)} jobs")
    notes.append(f"traced spans: {len(recorder.spans)}")

    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(recorder.to_json()) + "\n")
    return metrics, notes, traced + replay, problems


if __name__ == "__main__":
    sys.exit(main())
