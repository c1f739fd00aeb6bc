"""Byte-identity replay of the benchmark's seed-0 jobs.

perfbench/workloads.py generates the jobs of every workload at seed 0
(1,108 of them).  Each runs through `cli.main` with a fresh `--out`, and
`verify` then runs on what it wrote.  The sha256 of the written bytes, the
build exit code and the `verify` exit code must equal the entry kept for
that job in `seed0_manifest.json`, so a change that alters one certificate
byte or one exit code anywhere in the benchmark's reach fails here.

The manifest is regenerated only on purpose, when a change is meant to alter
those bytes or codes:

    PYTHONPATH=src python tests/test_seed0_replay.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from selli_cert import cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "seed0_manifest.json"
WORKLOADS = ("curve-sweep", "prime-scan", "dio-sweep")
SEED = 0


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def replay(tmp_dir: Path) -> dict:
    """{workload: {job key: [sha256 or None, build exit, verify exit or None]}}."""
    workloads = _workloads()
    got = {}
    for workload in WORKLOADS:
        jobs, _ = workloads.generate(workload, SEED)
        rows = got[workload] = {}
        for i, job in enumerate(jobs):
            out = tmp_dir / f"{workload}-{i}.json"
            rc = cli.main([*job.argv, "--out", str(out)])
            if out.is_file():
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                rv = cli.main(["verify", str(out)])
            else:
                digest, rv = None, None
            rows[job.key] = [digest, rc, rv]
    return got


def test_seed0_jobs_replay_byte_identical(tmp_path, capsys):
    want = json.loads(MANIFEST.read_text())
    got = replay(tmp_path)
    capsys.readouterr()
    assert sum(len(rows) for rows in got.values()) == 1108
    for workload in WORKLOADS:
        assert list(got[workload]) == list(want[workload]), workload
        diff = {
            key: (want[workload][key], row)
            for key, row in got[workload].items()
            if row != want[workload][key]
        }
        assert diff == {}, workload


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    quiet = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
        quiet
    ), contextlib.redirect_stderr(quiet):
        rows = replay(Path(tmp))
    # one job per line, so a regenerated manifest diffs job by job
    blocks = [
        f"{json.dumps(w)}: {{\n"
        + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows[w].items())
        + "\n}"
        for w in WORKLOADS
    ]
    MANIFEST.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
