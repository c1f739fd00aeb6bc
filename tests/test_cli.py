import hashlib
import json
import subprocess
import sys

import pytest

from selli_cert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_curve_success(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, stdout, stderr = run_cli(
        capsys,
        "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10",
        "--out", str(out),
    )
    assert code == 0
    assert stdout == ""  # JSON went to the file
    assert "TRIVIAL_BY_POINT_ELIMINATION" in stderr
    doc = json.loads(out.read_text())
    assert doc["surviving"] == [-1, 1]


def test_analyze_curve_stdout_is_json(capsys):
    code, stdout, stderr = run_cli(
        capsys, "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["kind"] == "torsion-triviality"
    assert stdout.endswith("\n")


def test_analyze_curve_invalid_params(capsys):
    code, stdout, stderr = run_cli(
        capsys, "analyze-curve", "--a", "14", "--m", "1", "--d1", "3", "--d2", "10"
    )
    assert code == 1
    assert "H3" in stderr
    assert stdout == ""


def test_analyze_curve_discrepancy_exit(capsys):
    code, stdout, _ = run_cli(
        capsys, "analyze-curve", "--a", "25", "--m", "2", "--d1", "3", "--d2", "14"
    )
    assert code == 2  # conclusion is trivial but the convention flag is raised
    assert json.loads(stdout)["discrepancies"] == ["xcoeff-convention-divergence"]


def test_analyze_curve_inconclusive_exit(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "analyze-curve", "--a", "25", "--m", "2", "--d1", "3", "--d2", "14",
        "--convention", "paper-ex2",
    )
    assert code == 2
    assert json.loads(stdout)["conclusion"] == "INCONCLUSIVE"


def test_check_diophantine(capsys, tmp_path):
    out = tmp_path / "dio.json"
    code, _, stderr = run_cli(
        capsys,
        "check-diophantine", "--a", "13", "--d1", "3", "--d2", "2",
        "--modulus-bound", "48", "--qr-bound", "200", "--out", str(out),
    )
    # solutions empty, obstructions found, but the difference-table claim
    # diverges from its tabulation, so the run surfaces exit 2
    assert code == 2
    assert "mod4-difference-table" in stderr
    doc = json.loads(out.read_text())
    assert doc["search"]["solutions"] == []


# sha256 of the canonical check-diophantine JSON at --modulus-bound 360,
# recorded from a sweep that enumerated all of (Z/M)^3 per modulus; the
# prime-power engine must reproduce these bytes exactly
DIO_CERT_SHA256 = {
    (13, 3, 2): "013724672bbde29f2808b4125e0a4078e370ba34630b4e2fe07dabbc3a9e57cc",
    (25, 3, 4): "364128bae3ff6afc738d1d0404dfc6cf2c0a61cfb3da48e785f020e7ff736f93",
    (13, 3, 10): "2d63d9069896f354f3a87e661276163ec82acd503036268a1d55c9c33b9104a6",
}


@pytest.mark.parametrize(
    "triple", sorted(DIO_CERT_SHA256), ids=lambda t: "-".join(map(str, t))
)
def test_check_diophantine_bytes_pinned(capsys, tmp_path, triple):
    a, d1, d2 = triple
    out = tmp_path / "dio.json"
    code, _, _ = run_cli(
        capsys,
        "check-diophantine", "--a", str(a), "--d1", str(d1), "--d2", str(d2),
        "--modulus-bound", "360", "--out", str(out),
    )
    assert code == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIO_CERT_SHA256[triple]


# sha256 of the canonical analyze-curve JSON for two prime-scan runs
# (paper-ex2, d1 = 3, one thread), recorded from a point counter that
# visited every (x, y) pair; the second run stores a budget refusal as a
# skip reason
TORSION_CERT_SHA256 = {
    ("613", "2", "10", "3", "12", "10000000"): (
        0, "e91de83ce0d9cafd4918179e39c44495301b7f02d700120e1b8a03738243764d"
    ),
    ("25", "2", "26", "2", "13", "10000"): (
        2, "e75662d3f17ddb05c5ad8ff3781ca417674ba384d5678cb5ca6c900c8c9c8b7d"
    ),
}


@pytest.mark.parametrize(
    "args", sorted(TORSION_CERT_SHA256), ids=lambda t: f"a{t[0]}-d2_{t[2]}"
)
def test_analyze_curve_bytes_pinned(capsys, tmp_path, args):
    a, m, d2, genus, bound, budget = args
    out = tmp_path / "torsion.json"
    code, _, _ = run_cli(
        capsys,
        "analyze-curve", "--a", a, "--m", m, "--d1", "3", "--d2", d2,
        "--convention", "paper-ex2", "--genus", genus, "--prime-bound", bound,
        "--budget", budget, "--threads", "1", "--out", str(out),
    )
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert (code, digest) == TORSION_CERT_SHA256[args]


def test_count_points(capsys):
    code, stdout, _ = run_cli(
        capsys, "count-points", "--curve", "y^2=x^3+1", "--p", "5"
    )
    assert code == 0
    assert json.loads(stdout)["n_k"] == 6


def test_count_points_budget_exit(capsys):
    code, _, stderr = run_cli(
        capsys,
        "count-points", "--curve", "y^2=x^5-x+1", "--p", "101", "--k", "4",
        "--budget", "1000000",
    )
    assert code == 1
    assert "budget" in stderr


def test_jacobian_order(capsys):
    code, stdout, _ = run_cli(
        capsys, "jacobian-order", "--p", "11", "--g", "2", "--counts", "19,135"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["l_coefficients"] == [1, 7, 31, 77, 121]
    assert doc["order"] == 237


def test_jacobian_order_bad_counts(capsys):
    code, _, stderr = run_cli(
        capsys, "jacobian-order", "--p", "7", "--g", "2", "--counts", "50,49"
    )
    assert code == 1


def test_y_candidates(capsys):
    code, stdout, _ = run_cli(
        capsys, "y-candidates", "--a", "37", "--m", "1", "--d1", "3", "--d2", "10"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["y_max"] == 8
    assert doc["surviving"] == [-1, 1]
    assert doc["profile"]["c3"] == -148


def test_fixed_delta_candidates(capsys):
    code, stdout, _ = run_cli(
        capsys, "fixed-delta-candidates", "--delta", "2869", "--d2", "10"
    )
    assert code == 0
    assert json.loads(stdout)["candidates"] == [-1, 1]


def test_poly_disc_match_and_mismatch(capsys):
    code, stdout, _ = run_cli(
        capsys, "poly-disc", "--coeffs", "1,-1,0,0,0,1", "--expect", "2869"
    )
    assert code == 0
    assert json.loads(stdout)["matches"] is True
    code, stdout, _ = run_cli(
        capsys, "poly-disc", "--coeffs", "1,-1,0,0,0,1", "--expect", "57600"
    )
    assert code == 2
    assert json.loads(stdout)["matches"] is False


def test_verify_round_trip_and_tamper(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run_cli(
        capsys,
        "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10",
        "--out", str(path),
    )
    code, _, stderr = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "re-verifies" in stderr

    doc = json.loads(path.read_text())
    doc["y_max"] = 9
    path.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert "FAIL" in stderr


def test_verify_missing_file(capsys):
    code, _, stderr = run_cli(capsys, "verify", "/no/such/file.json")
    assert code == 1


def test_verify_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 1


def test_threads_env_fallback(capsys, tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(
        capsys,
        "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10",
        "--threads", "1", "--out", str(a),
    )
    monkeypatch.setenv("SELLI_CERT_THREADS", "8")
    run_cli(
        capsys,
        "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10",
        "--out", str(b),
    )
    assert a.read_bytes() == b.read_bytes()


def test_timing_flag_populates_field(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10",
        "--timing",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert isinstance(doc["timing"], float) and doc["timing"] > 0


def test_subprocess_entry_point(tmp_path):
    """Fresh-interpreter end-to-end: emit, verify, tamper, re-verify."""
    path = tmp_path / "cert.json"
    emit = subprocess.run(
        [
            sys.executable, "-m", "selli_cert",
            "analyze-curve", "--a", "37", "--m", "1", "--d1", "3", "--d2", "10",
            "--out", str(path),
        ],
        capture_output=True,
        text=True,
    )
    assert emit.returncode == 0, emit.stderr
    check = subprocess.run(
        [sys.executable, "-m", "selli_cert", "verify", str(path)],
        capture_output=True,
        text=True,
    )
    assert check.returncode == 0, check.stderr
    doc = json.loads(path.read_text())
    doc["conclusion"] = "TRIVIAL_BY_COPRIME_ORDERS"
    path.write_text(json.dumps(doc))
    recheck = subprocess.run(
        [sys.executable, "-m", "selli_cert", "verify", str(path)],
        capture_output=True,
        text=True,
    )
    assert recheck.returncode == 3


def test_console_script_installed():
    result = subprocess.run(
        ["selli-cert", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "analyze-curve" in result.stdout
