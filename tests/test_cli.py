import hashlib
import json
import subprocess
import sys
import time

import pytest

from selli_cert import certificates, family
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
# prime-power engine must reproduce these bytes exactly.  The box-300 run
# was recorded from a search that took an isqrt of every (x, y) pair; the
# sieved search must reproduce it too.
DIO_CERT_SHA256 = {
    (13, 3, 2, 30): "013724672bbde29f2808b4125e0a4078e370ba34630b4e2fe07dabbc3a9e57cc",
    (25, 3, 4, 30): "364128bae3ff6afc738d1d0404dfc6cf2c0a61cfb3da48e785f020e7ff736f93",
    (13, 3, 10, 30): "2d63d9069896f354f3a87e661276163ec82acd503036268a1d55c9c33b9104a6",
    (25, 3, 4, 300): "2b2402b3d911cae319ce8a1e3396fc958c0e0254588759fa972b44a982c0c1dd",
}


@pytest.mark.parametrize(
    "args",
    sorted(DIO_CERT_SHA256),
    ids=lambda t: "-".join(map(str, t[:3])) + ("" if t[3] == 30 else f"-box{t[3]}"),
)
def test_check_diophantine_bytes_pinned(capsys, tmp_path, args):
    a, d1, d2, box = args
    out = tmp_path / "dio.json"
    code, _, _ = run_cli(
        capsys,
        "check-diophantine", "--a", str(a), "--d1", str(d1), "--d2", str(d2),
        "--box", str(box), "--modulus-bound", "360", "--out", str(out),
    )
    assert code == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIO_CERT_SHA256[args]


def test_main_calls_do_not_share_parsed_values(capsys, tmp_path):
    # main() reuses one parser; each call must still see only its own flags
    first, plain = tmp_path / "first.json", tmp_path / "plain.json"
    code, _, _ = run_cli(
        capsys,
        "check-diophantine", "--a", "13", "--d1", "3", "--d2", "2", "--box", "5",
        "--modulus-bound", "24", "--qr-bound", "50", "--out", str(first),
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "check-diophantine", "--a", "25", "--d1", "3", "--d2", "4",
        "--out", str(plain),
    )
    assert code == 2
    doc = json.loads(plain.read_text())
    assert doc["timing"] is None
    assert (doc["params"]["a"], doc["search"]["box"]) == (25, 30)
    assert doc["obstructions"]["modulus_bound"] == 360
    assert doc["replication"]["qr_law"]["prime_bound"] == 10**4
    code, stdout, _ = run_cli(
        capsys, "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10"
    )
    assert code == 0
    assert json.loads(stdout)["timing"] is None
    assert run_cli(capsys, "verify", str(plain))[0] == 0


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


# sha256 of the canonical analyze-curve JSON for two standard-convention
# members with d1 > 3, recorded when every Delta(y) was a Sylvester-matrix
# determinant; the closed-form discriminant must reproduce these bytes
STANDARD_CERT_SHA256 = {
    ("469", "4", "9", "74"): (
        2, "d79fcc03cf7974c3f855b6a8d616018aefd0795fe70c76ead37d07e001a7bd85"
    ),
    ("25", "3", "15", "134"): (
        2, "641056f9d1de258215f9bd06d86d91a723117a6899e98d7550d29c559e26ca7d"
    ),
}


@pytest.mark.parametrize(
    "args", sorted(STANDARD_CERT_SHA256), ids=lambda t: f"a{t[0]}-d1_{t[2]}"
)
def test_analyze_curve_standard_bytes_pinned(capsys, tmp_path, args):
    a, m, d1, d2 = args
    out = tmp_path / "torsion.json"
    code, _, _ = run_cli(
        capsys,
        "analyze-curve", "--a", a, "--m", m, "--d1", d1, "--d2", d2,
        "--convention", "standard", "--threads", "1", "--out", str(out),
    )
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert (code, digest) == STANDARD_CERT_SHA256[args]


# Each member has a survivor whose constant term m^2 + b + y0^d2 keeps a
# composite cofactor that trial division up to 10^6 does not split
# (702553568781511, 35471460477197232931); finding roots must not factor it
@pytest.mark.parametrize("a, m, d1, d2", [("25", "3", "15", "26"), ("361", "0", "9", "14")])
def test_elimination_does_not_factor_the_constant_term(capsys, tmp_path, a, m, d1, d2):
    out = tmp_path / "torsion.json"
    code, _, stderr = run_cli(
        capsys, "analyze-curve", "--a", a, "--m", m, "--d1", d1, "--d2", d2, "--out", str(out)
    )
    assert code == 2  # eliminated, with the standard convention's divergence flag
    assert "conclusion: TRIVIAL_BY_POINT_ELIMINATION" in stderr
    assert run_cli(capsys, "verify", str(out))[0] == 0


def test_y_box_over_budget_refused_before_enumeration(capsys):
    # (13, 1, 21, 26) passes H1..H5 and has y_max = 2735928361
    start = time.perf_counter()
    code, stdout, stderr = run_cli(
        capsys, "analyze-curve", "--a", "13", "--m", "1", "--d1", "21", "--d2", "26"
    )
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (1, "")
    assert "candidate box of 5471856722 values of y exceeds the budget 100000000" in stderr


def test_y_candidates_box_over_budget_refused(capsys):
    # the subcommand enumerates the same box under analyze-curve's default budget
    start = time.perf_counter()
    code, stdout, stderr = run_cli(
        capsys, "y-candidates", "--a", "13", "--m", "1", "--d1", "21", "--d2", "26"
    )
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (1, "")
    assert "candidate box of 5471856722 values of y exceeds the budget 100000000" in stderr


def test_sweep_over_budget_refused_before_any_table(capsys):
    # classes 5 and 9 never close, so this sweep would build a table for
    # every prime power up to 10^5; it is priced and refused instead
    start = time.perf_counter()
    code, stdout, stderr = run_cli(
        capsys, "check-diophantine", "--a", "13", "--d1", "3", "--d2", "10",
        "--modulus-bound", "1200000",
    )
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (1, "")
    assert "error: obstruction sweep to modulus 1200000 needs at least" in stderr


def test_search_box_over_budget_refused_before_any_pair(capsys, tmp_path):
    # box 10^5 is 4 * 10^10 (x, y) pairs, minutes of sieving; the builder
    # and verify of a certificate edited to that box both refuse it at once
    refusal = (
        "search box 100000 at d1 = 3 needs 40000400001 (x, y) pairs times 1 64-bit word(s) "
        "of box^d1 = 40000400001; the budget is 200000000"
    )
    start = time.perf_counter()
    code, stdout, stderr = run_cli(
        capsys, "check-diophantine", "--a", "13", "--d1", "3", "--d2", "10",
        "--box", "100000",
    )
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (1, "")
    assert f"error: {refusal}" in stderr

    # exit 2: the difference-table discrepancy every such certificate carries
    path = tmp_path / "dio.json"
    assert run_cli(
        capsys, "check-diophantine", "--a", "13", "--d1", "3", "--d2", "10",
        "--modulus-bound", "48", "--out", str(path),
    )[0] == 2
    doc = json.loads(path.read_text())
    doc["search"]["box"] = 100000
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, stderr = run_cli(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert f"FAIL search: cannot recompute ({refusal})" in stderr


def test_qr_bound_over_cap_refused_before_the_sweep_and_the_search(capsys, monkeypatch):
    # box 7000 searches for over a second; the QR bound past its cap is
    # priced with the sweep and the box, before either of them runs
    searched = []
    monkeypatch.setattr(certificates, "bounded_search", lambda *args: searched.append(args))
    start = time.perf_counter()
    code, stdout, stderr = run_cli(
        capsys, "check-diophantine", "--a", "13", "--d1", "3", "--d2", "10",
        "--box", "7000", "--qr-bound", "60000000",
    )
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (1, "")
    assert "error: qr bound 60000000 exceeds the cap 50000000" in stderr
    assert searched == []


@pytest.mark.parametrize(
    "command, d2",
    [
        ("analyze-curve", 20000038),  # d = 10^7 + 19
        ("analyze-curve", 14302),  # d = 7151, the first prime d past the cap
        ("y-candidates", 14302),
    ],
)
def test_d2_past_the_digit_cap_refused_before_the_box(capsys, monkeypatch, command, d2):
    # 2^d2, the least boundary.lhs, would have more than 4300 digits, which
    # a certificate cannot write; y_bound refuses d2 before the y-box
    walked = []
    monkeypatch.setattr(family, "delta_of_y", lambda *args: walked.append(args))
    start = time.perf_counter()
    code, stdout, stderr = run_cli(
        capsys, command, "--a", "13", "--m", "1", "--d1", "3", "--d2", str(d2)
    )
    assert time.perf_counter() - start < 1
    assert (code, stdout, walked) == (1, "", [])
    assert stderr == (
        f"error: d2 = {d2} exceeds the cap: 2^d2 has more than 4300 digits, "
        "Python's limit for integer strings\n"
    )


def test_d2_below_the_digit_cap_writes_a_certificate(capsys, tmp_path):
    # d = 7129 is the last prime d whose 2^d2 has at most 4300 digits
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "14258",
        "--out", str(path),
    )
    assert code == 0
    assert run_cli(capsys, "verify", str(path))[0] == 0


@pytest.mark.parametrize(
    "command, d1",
    [
        ("analyze-curve", 14301),
        ("analyze-curve", 99999),
        ("analyze-curve", 999999999),
        ("check-diophantine", 14301),
        ("check-diophantine", 999999999),
    ],
)
def test_d1_past_the_digit_cap_refused_before_any_power(capsys, command, d1):
    # b = 2^d1*a - 3 would have more than 4300 digits, which a certificate
    # cannot write; both validators refuse d1 before forming 2^d1
    member = ("--m", "1") if command == "analyze-curve" else ()
    start = time.perf_counter()
    code, stdout, stderr = run_cli(
        capsys, command, "--a", "13", *member, "--d1", str(d1), "--d2", "10"
    )
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (1, "")
    assert stderr == (
        f"error: d1 = {d1} exceeds the cap: 2^d1*a has more than 4300 digits, "
        "Python's limit for integer strings\n"
    )


def test_profile_constant_past_the_digit_cap_refused(capsys):
    # 2^d1*a fits at d1 = 4503, but Delta's constant term, about d1^2 bits,
    # does not; it is priced before the 4 s power that would form it
    start = time.perf_counter()
    code, _, stderr = run_cli(capsys, "analyze-curve", "--a", "13", "--m", "1", "--d1", "4503", "--d2", "10")
    assert time.perf_counter() - start < 1
    assert (code, stderr) == (
        1,
        "error: Delta(f)(y) exceeds the cap: its constant term has more than 4300 digits, "
        "Python's limit for integer strings\n",
    )


def test_search_at_a_huge_d2_is_priced_by_pairs(capsys, tmp_path):
    # no y^d2 is formed for a y past the search's reach, so d2 = 10^6 costs
    # what d2 = 10 does; the bytes are those the exact search wrote
    out = tmp_path / "dio.json"
    start = time.perf_counter()
    code, _, _ = run_cli(
        capsys, "check-diophantine", "--a", "13", "--d1", "3", "--d2", "1000000", "--box", "30",
        "--out", str(out),
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5e0ada368a185da4fc2513840382e8192c237e3990b93e09908a1854233e47d8"
    )


def test_search_box_priced_by_the_size_of_box_to_the_d1(capsys, tmp_path):
    # at d1 = 14277 each x^d1 of box 1000 is 2231 words long, so 4 * 10^6
    # pairs are 8.9 * 10^9 word-pairs: refused at once, where the search
    # took 4.7 s; box 30 is 3721 pairs of 1116 words and still runs
    refusal = (
        "search box 1000 at d1 = 14277 needs 4004001 (x, y) pairs times 2231 "
        "64-bit word(s) of box^d1 = 8932926231; the budget is 200000000"
    )
    member = ("--a", "13", "--d1", "14277", "--d2", "2", "--modulus-bound", "48")
    start = time.perf_counter()
    code, stdout, stderr = run_cli(capsys, "check-diophantine", *member, "--box", "1000")
    assert time.perf_counter() - start < 1
    assert (code, stdout, stderr) == (1, "", f"error: {refusal}\n")

    # verify prices a certificate edited to that box the same way
    path = tmp_path / "dio.json"
    assert run_cli(capsys, "check-diophantine", *member, "--box", "30", "--out", str(path))[0] == 2
    doc = json.loads(path.read_text())
    doc["search"]["box"] = 1000
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, stderr = run_cli(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert f"FAIL search: cannot recompute ({refusal})" in stderr


def test_count_points(capsys):
    code, stdout, _ = run_cli(
        capsys, "count-points", "--curve", "y^2=x^3+1", "--p", "5"
    )
    assert code == 0
    assert json.loads(stdout)["n_k"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10"),
        ("count-points", "--curve", "y^2=x^3+1", "--p", "5"),
    ],
    ids=["analyze-curve", "count-points"],
)
def test_thread_count_below_one_exits_1(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv, "--threads", "0")
    assert code == 1
    assert stdout == ""
    assert "thread count must be >= 1" in stderr


def test_count_points_budget_exit(capsys):
    code, _, stderr = run_cli(
        capsys,
        "count-points", "--curve", "y^2=x^5-x+1", "--p", "101", "--k", "4",
        "--budget", "1000000",
    )
    assert code == 1
    assert "budget" in stderr


def test_smoothness_scan_over_budget_skips_the_prime(capsys, tmp_path):
    out = tmp_path / "torsion.json"
    code, _, stderr = run_cli(
        capsys,
        "analyze-curve", "--a", "25", "--m", "2", "--d1", "3", "--d2", "26",
        "--convention", "paper-ex2", "--genus", "2", "--prime-bound", "13",
        "--budget", "100", "--out", str(out),
    )
    assert code == 2, stderr
    records = {r["p"]: r for r in json.loads(out.read_text())["prime_scan"]["records"]}
    assert (records[11]["status"], records[11]["reason"]) == (
        "skipped", "smoothness scan p^2 = 121 exceeds budget 100"
    )
    assert records[13]["reason"].startswith("characteristic guard")  # guard first
    assert run_cli(capsys, "verify", str(out))[0] == 0


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


# sha256 of the y-candidates JSON, recorded while the command rendered its
# candidate list itself instead of through the torsion certificate's helper
Y_CANDIDATES_SHA256 = {
    ("37", "1", "10", "standard"): "e94d4aca06061f9ab3825abd0a7f56322d6c371df0cc1b20ba42cf265ea8a434",
    ("613", "2", "10", "paper-ex2"): "ca9e81c131fac5f97ef16501e3cd83a8553a6071b2be122e542952a2a73021ec",
}


@pytest.mark.parametrize("args", sorted(Y_CANDIDATES_SHA256), ids=lambda t: f"a{t[0]}-{t[3]}")
def test_y_candidates_bytes_pinned(capsys, args):
    a, m, d2, convention = args
    code, stdout, _ = run_cli(
        capsys, "y-candidates", "--a", a, "--m", m, "--d1", "3", "--d2", d2,
        "--convention", convention,
    )
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == Y_CANDIDATES_SHA256[args]


def test_fixed_delta_candidates(capsys):
    code, stdout, _ = run_cli(
        capsys, "fixed-delta-candidates", "--delta", "2869", "--d2", "10"
    )
    assert code == 0
    assert json.loads(stdout)["candidates"] == [-1, 1]


def test_out_overwrites_in_place(capsys, tmp_path):
    """--out leaves exactly the new document in a longer old file, writes
    through a symlink to its target, and writes to a device."""
    argv = ("fixed-delta-candidates", "--delta", "2869", "--d2", "10")
    _, expected, _ = run_cli(capsys, *argv)
    target = tmp_path / "cert.json"
    target.write_text("x" * (3 * len(expected)) + "\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    for path in (target, link):
        code, stdout, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and stdout == ""
        assert target.read_text() == expected
    assert link.is_symlink()
    assert run_cli(capsys, *argv, "--out", "/dev/null")[0] == 0


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
    code, _, stderr = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert "FAIL document: malformed" in stderr


def test_verify_deeply_nested_json(capsys, tmp_path):
    # the parser gives up with RecursionError, which verify reports, not raises
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000 + "\n")
    code, _, stderr = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert stderr.startswith("FAIL document: malformed (maximum recursion depth exceeded")


def _verify_edited(capsys, path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return run_cli(capsys, "verify", str(path))


def test_verify_reports_malformed_fields(capsys, tmp_path):
    torsion = tmp_path / "torsion.json"
    dio = tmp_path / "dio.json"
    run_cli(
        capsys,
        "analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10",
        "--out", str(torsion),
    )
    run_cli(
        capsys,
        "check-diophantine", "--a", "13", "--d1", "3", "--d2", "2", "--box", "5",
        "--modulus-bound", "24", "--out", str(dio),
    )
    cases = [
        (torsion, lambda doc: doc.pop("profile"), "FAIL profile: missing"),
        (torsion, lambda doc: doc.update(candidates=None), "FAIL candidates: malformed (TypeError"),
        (
            dio,
            lambda doc: doc["search"].update(box="30"),
            "FAIL search: malformed (box must be an integer, found '30')",
        ),
    ]
    for path, edit, message in cases:
        text = path.read_text()
        code, _, stderr = _verify_edited(capsys, path, edit)
        path.write_text(text)
        assert code == 3, message
        assert message in stderr


def test_verify_rejects_forged_coprime_block(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        "analyze-curve", "--a", "13", "--m", "2", "--d1", "3", "--d2", "4",
        "--convention", "paper-ex2", "--out", str(path),
    )
    assert code == 2  # the survivor y0 = 1 has the rational point x = 2

    def forge(doc):
        doc["conclusion"] = "TRIVIAL_BY_COPRIME_ORDERS"
        doc["genus"] = {"g": 1, "source": "formula-superelliptic"}
        doc["prime_scan"] = {
            "prime_bound": 60,
            "records": [],
            "certificate": {
                "p1": 9, "p2": 7, "order1": 8, "order2": 9, "gcd": 1,
                "counts1": {"entries": [[1, 8]], "infinity_count": 1},
                "counts2": {"entries": [[1, 9]], "infinity_count": 1},
            },
        }

    def forge_user_genus(doc):
        forge(doc)
        doc["genus"]["source"] = "user-supplied"

    text = path.read_text()
    code, _, stderr = _verify_edited(capsys, path, forge)
    assert code == 3
    # m = 2 rules out the genus formula, so no scan is due at all
    assert stderr.splitlines() == [
        'FAIL conclusion: stored "TRIVIAL_BY_COPRIME_ORDERS", recomputed "INCONCLUSIVE"',
        'FAIL genus: stored {"g": 1, "source": "formula-superelliptic"}, recomputed null',
        "FAIL prime_scan: stored an object, recomputed null",
    ]
    path.write_text(text)
    code, _, stderr = _verify_edited(capsys, path, forge_user_genus)
    assert code == 3
    # the pair is chosen from the rebuilt records, so the composite p1 = 9
    # fails with the records that do not list it
    assert [line for line in stderr.splitlines() if line.startswith("FAIL prime_scan")] == [
        "FAIL prime_scan: records do not list exactly the primes up to prime_bound",
    ]
    assert (
        'FAIL assumptions: stored ["NL-property-C1"], recomputed ["GENUS-USER", '
        '"INFINITY-MODEL", "NL-property-C1"]'
    ) in stderr


def test_verify_rebuilds_every_ok_record_and_the_first_pair(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        "analyze-curve", "--a", "1609", "--m", "2", "--d1", "3", "--d2", "10",
        "--convention", "paper-ex2", "--genus", "2", "--prime-bound", "22",
        "--budget", "100000000", "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    records = {r["p"]: r for r in doc["prime_scan"]["records"]}
    assert [p for p, r in records.items() if r["status"] == "ok"] == [11, 13, 17, 19]
    assert [records[p]["order"] for p in (11, 13, 17, 19)] == [105, 209, 426, 441]

    def later_pair(doc):
        # (13, 17) is coprime too, but (11, 13) comes first
        r13, r17 = records[13], records[17]
        doc["prime_scan"]["certificate"].update(
            p1=13, p2=17, order1=r13["order"], order2=r17["order"],
            counts1=r13["counts"], counts2=r17["counts"],
        )

    def order_19(doc):
        # p = 19 is in no pair; its order is rebuilt from its own counts
        doc["prime_scan"]["records"][7]["order"] = 442

    text = path.read_text()
    for edit, message in (
        (later_pair, "FAIL prime_scan.certificate.p1: stored 13, recomputed 11"),
        (order_19, "FAIL prime_scan.records[7].order: stored 442, recomputed 441"),
    ):
        path.write_text(text)
        code, _, stderr = _verify_edited(capsys, path, edit)
        assert (code, stderr.splitlines()) == (3, [message])


def test_verify_reads_counts_up_to_the_first_missing_k(capsys, tmp_path):
    # a stored genus of 10^9 fails at k = 3 of each ok record, before
    # anything of size g is built; verify runs in a child process under a
    # 2 GiB address-space cap, so a regression fails with MemoryError
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        "analyze-curve", "--a", "1609", "--m", "2", "--d1", "3", "--d2", "10",
        "--convention", "paper-ex2", "--genus", "2", "--prime-bound", "22", "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    doc["genus"]["g"] = 10**9
    path.write_text(json.dumps(doc))
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, resource.RLIM_INFINITY))\n"
        "from selli_cert.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['verify', sys.argv[1]])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stderr.splitlines()) == (
        3,
        [
            *(
                f"FAIL prime_scan: counts for p = {p} inconsistent (counts missing for k = 3)"
                for p in (11, 13, 17, 19)
            ),
            "FAIL prime_scan.certificate: stored an object, recomputed null",
        ],
    )
    assert float(run.stdout) < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10", "--timing"),
        ("check-diophantine", "--a", "13", "--d1", "3", "--d2", "2", "--timing"),
        ("analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10",
         "--infinity-count", "1"),
        ("jacobian-order", "--p", "11", "--g", "2", "--counts", "19,135",
         "--infinity-count", "1"),
    ],
    ids=["analyze-timing", "dio-timing", "analyze-infinity", "jacobian-infinity"],
)
def test_removed_options_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
