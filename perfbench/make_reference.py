"""Record the reference answers the oracle compares against.

Runs every generated job of the reference seed once, untimed, and stores each
job's exit code and answer in perfbench/reference/<workload>.json.  Re-run
it only when the job generators change, and only on a program whose answers
are known to be right:

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main(argv=None) -> int:
    cli = run.load_program()
    import oracle
    import workloads

    names = (argv if argv is not None else sys.argv[1:]) or run.WORKLOADS
    run.OUT_DIR.mkdir(exist_ok=True)
    out = run.OUT_DIR / "reference-cert.json"
    for workload in names:
        jobs, _ = workloads.generate(workload, oracle.REFERENCE_SEED)
        entries = {}
        for job in jobs:
            messages = io.StringIO()
            with contextlib.redirect_stderr(messages):
                rc = cli.main([*job.argv, "--out", str(out)])
                rv = cli.main(["verify", str(out)]) if rc in workloads.ALLOWED_EXITS else None
            if rc not in workloads.ALLOWED_EXITS:
                print(f"error: {job.key}: exit {rc}: {messages.getvalue().strip()}", file=sys.stderr)
                return 1
            if rv != 0:
                print(f"error: {job.key}: verify exit {rv}", file=sys.stderr)
                return 1
            with open(out, encoding="utf-8") as fh:
                entries[job.key] = {"exit": rc, "answer": oracle.answer(json.load(fh))}
        path = oracle.write_reference(workload, entries)
        print(f"{workload}: {len(entries)} answers written to {path.relative_to(run.ROOT)}")
    out.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
