"""Command-line interface.

Exit codes: 0 = ran to completion (results, including "not certified",
are payload), 2 = invalid input or flags, 3 = numerical failure, such as a
tolerance decision the input defeats.  Copy counts (``witness --copies``,
``multicopy --n``) run from 1 to ``qcore.MAX_COPIES``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import __version__
from .edgestate import (
    EdgeParams,
    build_edge_bundle,
    edge_state,
    min_positive_pt_eigenvalue,
)
from .harness import EnsembleSpec, random_state, run_suite, sample_ensemble
from .multicopy import extremal_rank2_tensor_power, verify_n_undistillable
from .qcore import (
    MAX_COPIES,
    PSD_TOL,
    Dims,
    NumericalFailureError,
    is_ppt,
    min_pt_eigenvalue,
)
from .serialize import (
    certificate_document,
    dumps,
    matrix_document,
    pure_state_document,
    state_from_json,
)
from .witness import best_rank2_witness, certify_1_distillable, verify_certificate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

_COPY_CHOICES = tuple(range(1, MAX_COPIES + 1))


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_state(path: str):
    with open(path, encoding="utf-8") as fh:
        return state_from_json(fh.read())


def _cmd_sigma(args: argparse.Namespace) -> int:
    params = EdgeParams(args.b, args.theta)
    state = edge_state(params)
    gap = min_positive_pt_eigenvalue(params)
    meta = {
        "b": args.b,
        "theta": args.theta,
        "eps": 0.0,
        "p1": gap,
        "margin": gap / 3,
    }
    _write_output(dumps(matrix_document(state.mat, state.dims, meta)), args.out)
    return EXIT_OK


def _cmd_rho(args: argparse.Namespace) -> int:
    eps = 0.0 if args.eps == "auto" else float(args.eps)
    bundle = build_edge_bundle(EdgeParams(args.b, args.theta), eps)
    meta = {
        "b": args.b,
        "theta": args.theta,
        "eps": bundle.eps,
        "p1": bundle.p1,
        "margin": bundle.margin,
    }
    _write_output(
        dumps(matrix_document(bundle.npt_state.mat, bundle.npt_state.dims, meta)),
        args.out,
    )
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    state = _load_state(args.infile)

    cert = certify_1_distillable(state) if args.copies == 1 else None
    if cert is None:
        best, cert = best_rank2_witness(state, args.copies)

    if cert is not None:
        doc = {"certified": True, "certificate": certificate_document(cert)}
        if args.json:
            print(dumps(doc))
        else:
            print(
                f"certified distillable: route={cert.route} copies={cert.copies} "
                f"value={cert.value:.6e} schmidt_rank={cert.schmidt_rank}"
            )
        return EXIT_OK

    doc = {"certified": False, "copies": args.copies, "best_value": best}
    if args.json:
        print(dumps(doc))
    else:
        print(f"no witness found; best rank-2 value {best:.6e} (copies={args.copies})")
    return EXIT_OK


def _cmd_certify_rank4(args: argparse.Namespace) -> int:
    state = _load_state(args.infile)
    rank = state._rank
    if rank != 4:
        print(f"input state has rank {rank}, expected 4", file=sys.stderr)
        return EXIT_INVALID
    if is_ppt(state):
        print(
            f"input state is PPT: smallest PT eigenvalue {min_pt_eigenvalue(state):.3e}"
            f" (NPT needs < -PSD_TOL = {-PSD_TOL:g})",
            file=sys.stderr,
        )
        return EXIT_INVALID
    cert = certify_1_distillable(state)
    if cert is None:
        doc = {"certified": False, "rank": rank}
    else:
        ok = verify_certificate(cert, state)
        doc = {
            "certified": bool(ok),
            "rank": rank,
            "certificate": certificate_document(cert),
        }
    if args.json:
        print(dumps(doc))
    else:
        if cert is None:
            print("no certificate found (unexpected for a rank-4 NPT state)")
        else:
            print(
                f"certified: route={cert.route} value={cert.value:.6e} "
                f"verified={doc['certified']}"
            )
    return EXIT_OK


def _cmd_multicopy(args: argparse.Namespace) -> int:
    if args.target == "werner":
        if (args.b, args.theta, args.eps) != (None, None, None):
            raise ValueError("--b, --theta and --eps apply to --target rho only")
        report = extremal_rank2_tensor_power(args.n)
    else:
        b = 1.0 if args.b is None else args.b
        theta = math.pi / 6 if args.theta is None else args.theta
        eps = 0.0 if args.eps is None else args.eps
        report = verify_n_undistillable(EdgeParams(b, theta), args.n, eps=eps)
    doc = {
        "n": report.n,
        "target": report.target,
        "max_value": report.max_value,
        "min_value": report.min_value,
        "bound_lower": report.bound_lower,
        "conjecture_value": report.conjecture_value,
        "eps_threshold": report.eps_threshold,
        "eps_used": report.eps_used,
        "product_maximizer_value": report.product_maximizer_value,
        "npt_min_pt_eigenvalue": report.npt_min_pt_eigenvalue,
        "max_witness": pure_state_document(report.max_witness),
        "min_witness": pure_state_document(report.min_witness),
    }
    if args.json:
        print(dumps(doc))
    else:
        print(
            f"n={report.n} target={report.target}: "
            f"min={report.min_value:.8e} (lower bound {report.bound_lower:.8e}), "
            f"max={report.max_value:.8e}"
        )
        if report.conjecture_value is not None:
            print(
                f"distance of min to conjectured value "
                f"{report.conjecture_value:.8e}: "
                f"{report.min_value - report.conjecture_value:+.3e}"
            )
        if report.eps_threshold is not None:
            print(
                f"eps threshold {report.eps_threshold:.6e} (closed-form root of the proven "
                f"series bound, implies the undistillability claim); "
                f"eps used {report.eps_used:.6e}"
            )
    return EXIT_OK


def _cmd_random(args: argparse.Namespace) -> int:
    dims = Dims(args.dimA, args.dimB)
    if args.npt:
        spec = EnsembleSpec(dims=dims, rank=args.rank, count=1, filter="NPT", seed=args.seed)
        state = sample_ensemble(spec)[0][0]
    else:
        state = random_state(dims, args.rank, args.seed)
    meta = {"rank": args.rank, "seed": args.seed, "npt_filter": bool(args.npt)}
    _write_output(dumps(matrix_document(state.mat, state.dims, meta)), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, args.trials, args.seed)
    if args.json:
        print(dumps(report.to_document()))
    else:
        reports = report.sub_reports if report.sub_reports else [report]
        for rep in reports:
            line = (
                f"{rep.suite}: {rep.passes}/{rep.trials} passed"
                + (f", {rep.skipped} skipped" if rep.skipped else "")
                + f" ({rep.wall_time_s:.2f}s)"
            )
            print(line)
            for failure in rep.failures:
                print(f"  FAIL: {failure.get('reason', failure)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distill-lab",
        description="Construct, certify, and stress-test two-qutrit distillability.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="emit an edge-family state as JSON")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("rho", help="emit the rank-5 NPT perturbation as JSON")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--eps", default="auto", help="noise weight, or 'auto'")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("witness", help="search a state file for a distillation witness")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--copies", type=int, choices=_COPY_CHOICES, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("certify-rank4", help="certify a rank-4 NPT state distillable")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify_rank4)

    p = sub.add_parser("multicopy", help="n-copy extremal values and thresholds")
    p.add_argument("--n", type=int, choices=_COPY_CHOICES, required=True)
    p.add_argument("--b", type=float, help="--target rho only (default 1.0)")
    p.add_argument("--theta", type=float, help="--target rho only (default pi/6)")
    p.add_argument(
        "--eps",
        type=float,
        help="--target rho only (default 0: 0.9 * gap/3); capped at eps(n)/2, so 1 or inf"
        " runs at eps(n)/2; the noise used is printed as 'eps used' (--json: eps_used)",
    )
    p.add_argument("--target", choices=("werner", "rho"), default="werner")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_multicopy)

    p = sub.add_parser("random", help="sample a reproducible Ginibre state")
    p.add_argument("--dimA", type=int, required=True)
    p.add_argument("--dimB", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--npt", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=100, metavar="T")
    p.add_argument("--seed", type=int, default=2024, metavar="S")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
