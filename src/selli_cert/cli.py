"""Command-line surface.

Machine-readable canonical JSON goes to stdout (or --out), human summaries
to stderr, so output composes in pipelines.  Exit codes: 0 success, 1
invalid parameters or budget refusal, 2 inconclusive outcome or surfaced
discrepancy, 3 certificate re-verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from . import diophantine as dio
from . import jacobian as jac
from .certificates import (
    build_dio_certificate,
    build_torsion_certificate,
    canonical_json,
)
from .errors import HypothesisError, ParameterError, SelliCertError
from .family import CONVENTIONS, discriminant_profile, validate_params, y_candidates
from .ffield import CurveEquation, PointCountTable, count_points
from .polyring import IntPolynomial, discriminant
from .verify import verify_certificate

EXIT_OK = 0
EXIT_PARAMS = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY = 3


def _emit(doc: dict, out_path: str | None) -> None:
    text = canonical_json(doc)
    if out_path:
        _write_over(out_path, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _write_over(path: str, data: bytes) -> None:
    """Write `data` to `path`, overwriting a regular file in place.

    The old bytes are written over and the file is then cut to the new
    length, instead of being emptied on open as mode "w" does: ext4 starts
    writeback on close of a file that was truncated to zero and rewritten,
    which gave every `--out` call a blocking wait and kernel time that
    grow with other I/O on the disk.  Pipes and devices are written as
    before.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _check_threads(args) -> None:
    """`--threads N` is accepted and selects nothing (every count runs in
    one thread); N < 1 is still refused."""
    if args.threads is not None and args.threads < 1:
        raise ParameterError("thread count must be >= 1")


def _cmd_analyze_curve(args) -> int:
    _check_threads(args)
    params = validate_params(args.a, args.m, args.d1, args.d2, args.b_override)
    genus = None
    if args.genus is not None:
        genus = jac.GenusSpec(g=args.genus, source=jac.GENUS_USER)
    cert = build_torsion_certificate(
        params,
        args.convention,
        genus=genus,
        prime_bound=args.prime_bound,
        budget=args.budget,
    )
    _emit(cert.to_dict(), args.out)
    _say(
        f"conclusion: {cert.outcome.conclusion}; "
        f"survivors {list(cert.candidate_set.surviving)}"
    )
    if cert.discrepancies:
        _say(f"discrepancies: {', '.join(sorted(cert.discrepancies))}")
    if cert.outcome.inconclusive_reason:
        _say(f"reason: {cert.outcome.inconclusive_reason}")
    clean = cert.outcome.conclusion.startswith("TRIVIAL") and not cert.discrepancies
    return EXIT_OK if clean else EXIT_INCONCLUSIVE


def _cmd_check_diophantine(args) -> int:
    params = dio.validate_dio_params(
        args.a, args.d1, args.d2, b_mode=args.b_mode, m_prime=args.m_prime
    )
    cert = build_dio_certificate(
        params,
        box=args.box,
        modulus_bound=args.modulus_bound,
        qr_bound=args.qr_bound,
    )
    _emit(cert.to_dict(), args.out)
    _say(
        f"solutions in box {cert.box}: {len(cert.solutions)}; "
        f"certified classes mod 12: "
        f"{[r for r in range(12) if cert.sweep_smallest[r] is not None]}"
    )
    if cert.discrepancies:
        _say(f"discrepancies: {', '.join(sorted(cert.discrepancies))}")
    clean = not cert.solutions and not cert.discrepancies
    return EXIT_OK if clean else EXIT_INCONCLUSIVE


def _cmd_count_points(args) -> int:
    _check_threads(args)
    curve = CurveEquation.parse(args.curve)
    k, n_k = count_points(
        curve,
        args.p,
        args.k,
        infinity_count=args.infinity_count,
        budget=args.budget,
    )
    _emit(
        {
            "curve": args.curve,
            "p": args.p,
            "k": k,
            "infinity_count": args.infinity_count,
            "affine": n_k - args.infinity_count,
            "n_k": n_k,
        },
        args.out,
    )
    _say(f"N_{k} = {n_k} over F_{args.p}^{k} (infinity_count {args.infinity_count})")
    return EXIT_OK


def _cmd_jacobian_order(args) -> int:
    counts = [int(c) for c in args.counts.split(",")]
    genus = jac.GenusSpec(g=args.g, source=jac.GENUS_USER)
    table = PointCountTable(
        entries=tuple((i + 1, n) for i, n in enumerate(counts)), infinity_count=1
    )
    lpoly = jac.l_polynomial_from_counts(args.p, genus, table)
    order = jac.jacobian_order(lpoly)
    _emit(
        {
            "p": args.p,
            "g": args.g,
            "counts": counts,
            "l_coefficients": list(lpoly.coefficients),
            "order": order,
        },
        args.out,
    )
    _say(f"#Jac(F_{args.p}) = {order}")
    return EXIT_OK


def _cmd_y_candidates(args) -> int:
    params = validate_params(args.a, args.m, args.d1, args.d2, args.b_override)
    profile = discriminant_profile(params, args.convention)
    cs = y_candidates(profile)
    _emit(
        {
            "params": {"a": params.a, "m": params.m, "d1": params.d1, "d2": params.d2, "b": params.b},
            "convention": args.convention,
            "profile": {"c3": profile.c3, "c0": profile.c0},
            "y_max": cs.y_max,
            "candidates": list(cs.candidates),
            "surviving": list(cs.surviving),
        },
        args.out,
    )
    _say(f"surviving candidates: {list(cs.surviving)}")
    return EXIT_OK


def _cmd_fixed_delta_candidates(args) -> int:
    from .family import fixed_delta_candidates

    values = fixed_delta_candidates(args.delta, args.d2)
    _emit({"delta": args.delta, "d2": args.d2, "candidates": values}, args.out)
    _say(f"candidates: {values}")
    return EXIT_OK


def _cmd_poly_disc(args) -> int:
    coeffs = [int(c) for c in args.coeffs.split(",")]
    poly = IntPolynomial.from_coefficients(coeffs)
    value = discriminant(poly)
    doc = {"coefficients": coeffs, "discriminant": value}
    if args.expect is not None:
        doc["expected"] = args.expect
        doc["matches"] = value == args.expect
    _emit(doc, args.out)
    if args.expect is not None and value != args.expect:
        _say(f"discriminant {value} does NOT match expected {args.expect}")
        return EXIT_INCONCLUSIVE
    _say(f"discriminant: {value}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        failures = [f"document: malformed ({exc})"]
    else:
        failures = verify_certificate(doc)
    if failures:
        for f in failures:
            _say(f"FAIL {f}")
        return EXIT_VERIFY
    _say("certificate re-verifies")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selli-cert",
        description=(
            "Exact certificates: torsion triviality for a superelliptic curve "
            "family and insolubility evidence for its companion Diophantine "
            "equation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("analyze-curve", help="full torsion-triviality pipeline")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--b-override", type=int, default=None)
    p.add_argument("--convention", choices=CONVENTIONS, default="standard")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--prime-bound", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--budget", type=int, default=10**8)
    add_out(p)
    p.set_defaults(func=_cmd_analyze_curve)

    p = sub.add_parser("check-diophantine", help="insolubility certificates")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--b-mode", choices=dio.B_MODES, default="standard")
    p.add_argument("--m-prime", type=int, default=None)
    p.add_argument("--box", type=int, default=30)
    p.add_argument("--modulus-bound", type=int, default=360)
    p.add_argument("--qr-bound", type=int, default=10**4)
    add_out(p)
    p.set_defaults(func=_cmd_check_diophantine)

    p = sub.add_parser("count-points", help="exact point count over F_{p^k}")
    p.add_argument("--curve", required=True, help='e.g. "y^2=x^3+1" or "y^10=13x^3+x*y-102"')
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--infinity-count", type=int, default=1)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--budget", type=int, default=10**8)
    add_out(p)
    p.set_defaults(func=_cmd_count_points)

    p = sub.add_parser("jacobian-order", help="L-polynomial and order from counts")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--counts", required=True, help="comma-separated N_1..N_g")
    add_out(p)
    p.set_defaults(func=_cmd_jacobian_order)

    p = sub.add_parser("y-candidates", help="torsion y-candidate box and survivors")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--b-override", type=int, default=None)
    p.add_argument("--convention", choices=CONVENTIONS, default="standard")
    add_out(p)
    p.set_defaults(func=_cmd_y_candidates)

    p = sub.add_parser("fixed-delta-candidates", help="all y with y^d2 | delta")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    add_out(p)
    p.set_defaults(func=_cmd_fixed_delta_candidates)

    p = sub.add_parser("poly-disc", help="exact discriminant of an integer polynomial")
    p.add_argument("--coeffs", required=True, help="ascending, comma-separated")
    p.add_argument("--expect", type=int, default=None, help="flag mismatch via exit 2")
    add_out(p)
    p.set_defaults(func=_cmd_poly_disc)

    p = sub.add_parser("verify", help="independently re-check a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        for code, message in exc.violations:
            _say(f"violation {code}: {message}")
        return EXIT_PARAMS
    except SelliCertError as exc:
        _say(f"error: {exc}")
        return EXIT_PARAMS
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _say(f"error: {exc}")
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
