"""The program surface the benchmark in perfbench/ depends on.

perfbench/workloads.py sizes its jobs with `family`, `ffield`, `arith` and
`errors` names, perfbench/tracing.py wraps named functions of several
modules, and perfbench/run.py drives `cli.main` with the flags of each
generated job plus `--out`, then `verify`.  Generating every workload and
running its first job end to end, untraced and traced, fails here instead
of in a benchmark run when one of those names or flags goes missing, an
answer changes, or a traced metric can no longer be read.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from selli_cert import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("curve-sweep", "prime-scan", "dio-sweep")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import oracle
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, oracle, tracing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_job_matches_reference(bench, workload, tmp_path, capsys):
    workloads, oracle, _ = bench
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
    workloads, oracle, tracing = bench
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
    # the benchmark reads its result from the last line of stdout, so a run
    # that writes its certificate to --out must print nothing there
    assert capsys.readouterr().out == ""


def test_traced_names_exist(bench):
    _, _, tracing = bench
    for module_name, attr, _, _ in tracing.PATCH_POINTS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
