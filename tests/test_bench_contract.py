"""The program surface the benchmark in perfbench/ depends on.

perfbench/workloads.py sizes its jobs with `family`, `ffield`, `arith` and
`errors` names, perfbench/tracing.py wraps named functions of several
modules, and perfbench/run.py drives `cli.main` with the flags of each
generated job plus `--out`, then `verify`.  Generating every workload and
running its first job end to end, untraced and traced, fails here instead
of in a benchmark run when one of those names or flags goes missing, an
answer changes, or a traced metric can no longer be read.  The traced run
also starts with a self-test whose counters must equal known work, and
times point counts at 1 and 2 threads; both are replayed here, since the
traced path can break while the untraced one still passes.  Last, each
workload is run through perfbench/run.py itself for zero seconds, traced
and untraced, and must end with a strict-JSON result line.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from selli_cert import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("curve-sweep", "prime-scan", "dio-sweep")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import oracle
        import run
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, oracle, tracing, run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_job_matches_reference(bench, workload, tmp_path, capsys):
    workloads, oracle, _, _ = bench
    jobs, _ = workloads.generate(workload, oracle.REFERENCE_SEED)
    job = jobs[0]
    out = tmp_path / "cert.json"
    rc = cli.main([*job.argv, "--out", str(out)])
    assert rc in workloads.ALLOWED_EXITS
    assert cli.main(["verify", str(out)]) == 0
    want = oracle.load_reference(workload, oracle.REFERENCE_SEED)[job.key]
    got = oracle.answer(json.loads(out.read_text()))
    assert (rc, got) == (want["exit"], want["answer"])
    capsys.readouterr()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_first_job_reports_every_layer_metric(bench, workload, tmp_path, capsys):
    workloads, oracle, tracing, _ = bench
    job = workloads.generate(workload, oracle.REFERENCE_SEED)[0][0]
    out = tmp_path / "cert.json"
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        rc = cli.main([*job.argv, "--out", str(out)])
        rv = cli.main(["verify", str(out)])
    assert rc in workloads.ALLOWED_EXITS
    assert rv == 0
    assert recorder.absent == {}
    values, absent = tracing.layer_metrics(recorder)
    assert absent == {}
    assert set(values) == set(tracing.LAYER_METRICS)
    # a call moved out from under its patched binding reads 0, not absent,
    # so the spans behind the metrics most at risk must really be there
    spans = recorder.spans

    def under_verify(span):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == "verify":
                return True
        return False

    if workload == "dio-sweep":
        assert any(s.name == "diophantine.qr" for s in spans)
    if workload == "curve-sweep":
        assert any(s.name == "polyring.rational_roots" and under_verify(s) for s in spans)
    # the benchmark reads its result from the last line of stdout, so a run
    # that writes its certificate to --out must print nothing there
    assert capsys.readouterr().out == ""


def test_traced_names_exist(bench):
    _, _, tracing, _ = bench
    for module_name, attr, _, _ in tracing.PATCH_POINTS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_traced_self_test_counters(bench, tmp_path, capsys):
    workloads, _, tracing, run = bench
    out = str(tmp_path / "cert.json")
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        for label, argv, span_name, counter, expected in run.SELF_TEST:
            first = len(recorder.spans)
            rc = cli.main([*argv, "--out", out])
            assert rc in workloads.ALLOWED_EXITS, label
            if argv[0] != "count-points":
                assert cli.main(["verify", out]) == 0, label
            spans = [s for s in recorder.spans[first:] if s.name == span_name]
            assert spans, f"{label}: no {span_name} span"
            assert spans[0].attrs.get(counter) == expected, label
    assert recorder.absent == {}
    capsys.readouterr()


def test_count_speedup_runs_at_two_threads(bench):
    # count_speedup reports no ratio when count_points refuses threads=2
    workloads, oracle, _, run = bench
    jobs = workloads.generate("prime-scan", oracle.REFERENCE_SEED)[0]
    speedup, how = run.count_speedup([j for j in jobs if j.counts][:1], 0.0)
    assert speedup is not None, how


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_ends_with_its_result_line(workload, trace):
    # the benchmark reads a run's result from its last line of stdout: text
    # after it, or a NaN or infinite metric, loses the whole run
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
