"""Command-line interface.

Commands::

    qrange check        --input FILE        convexity verdict + certificate
    qrange fb-check     --input FILE        direction-criterion verdict
    qrange cross-check  --input FILE        both checkers; exit 3 on disagreement
    qrange separate     --input FILE --alpha=A --beta=B   two-way level separation
    qrange witness      --input FILE        nonconvexity witness + verification
    qrange sample       --input FILE --output CSV         range cloud, hole report, CSVs
    qrange reproduce                        curated suite pass/fail table

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 cross-check
disagreement, 4 internal invariant violation.  JSON output (the default for
everything but ``reproduce``) is canonical and byte-stable for identical
invocations; the tolerances, read from the problem file (the defaults for
``reproduce``), are always echoed.

Every command takes one path to its bytes.  Its handler in ``_COMMANDS``
maps the loaded problem (``None`` for ``reproduce``, which reads no file)
and the parsed arguments to ``(result, exit code)``; ``_run`` loads the
problem, calls the handler, wraps a result that is not already text in the
``{command, tolerances, result}`` envelope, renders it with
:mod:`qrange.serialize` and writes it to ``--output`` or stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Sequence

from .errors import (
    ConvergenceFailure,
    DegenerateCloud,
    InvalidReport,
    QRangeError,
    RootFailure,
)
from .quadratic import ProblemInstance, ToleranceSet, load_problem
from .serialize import canonical_json, jsonable, report_text

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_DISAGREEMENT = 3
EXIT_INTERNAL = 4

_INTERNAL_ERRORS = (InvalidReport, RootFailure, ConvergenceFailure)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via exceptions."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _csv_base(path: str) -> str:
    """``path``, or a usage error if its file name less a ``.csv`` suffix is empty, ``.`` or ``..``."""
    root = path[:-4] if path.lower().endswith(".csv") else path
    if os.path.basename(root) in ("", ".", ".."):
        raise argparse.ArgumentTypeError(f"CSV base path {path!r} names no file")
    return path


def _build_parser() -> _Parser:
    parser = _Parser(prog="qrange", description="Convexity of the joint range of two quadratics.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p: _Parser, *, reads_problem: bool = True, csv_output: bool = False) -> None:
        if reads_problem:
            p.add_argument("--input", "-i", required=True, help="problem JSON file")
        if csv_output:
            p.add_argument("--output", "-o", dest="csv", metavar="OUTPUT", required=True, type=_csv_base,
                           help="CSV base path; the report goes to stdout")
            p.set_defaults(output=None)
        else:
            p.add_argument("--output", "-o", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default=None, help="output format")

    add_common(sub.add_parser("check", help="decide convexity of the joint range"))
    add_common(sub.add_parser("fb-check", help="decide via the direction criterion"))
    add_common(sub.add_parser("cross-check", help="run both checkers and compare"))

    p_sep = sub.add_parser("separate", help="two-way level-set separation at given levels")
    add_common(p_sep)
    # argparse reads a separate "-4e0" as an option, so such a level needs "=".
    p_sep.add_argument("--alpha", type=float, required=True, help="level of f; write -4e0 as --alpha=-4e0")
    p_sep.add_argument("--beta", type=float, required=True, help="level of g; write -4e0 as --beta=-4e0")

    add_common(sub.add_parser("witness", help="nonconvexity witness with verification"))

    p_sample = sub.add_parser("sample", help="sample the joint range and look for holes")
    add_common(p_sample, csv_output=True)
    p_sample.add_argument("--box", type=float, default=None, help="domain half-width (default 5, or 3 above dimension 4)")
    p_sample.add_argument("--samples", type=int, default=100_000, help="number of sample points")
    p_sample.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_sample.add_argument("--mode", choices=("uniform", "grid"), default="uniform", help="domain point layout")
    p_sample.add_argument("--resolution", type=int, default=200, help="raster resolution for hole detection")
    p_sample.add_argument("--coverage-radius", type=float, default=None, help="uncovered distance (default: 2 cell diagonals)")
    p_sample.add_argument("--min-cluster", type=int, default=4, help="smallest hole-cell cluster that counts")

    p_reproduce = sub.add_parser("reproduce", help="re-derive the curated suite expectations")
    add_common(p_reproduce, reads_problem=False)
    return parser


def _check(p: ProblemInstance, args: argparse.Namespace) -> tuple[Any, int]:
    from .convexity import check_convexity

    return check_convexity(p), EXIT_OK


def _fb_check(p: ProblemInstance, args: argparse.Namespace) -> tuple[Any, int]:
    from .convexity import check_flores_bazan

    return check_flores_bazan(p), EXIT_OK


def _cross_check(p: ProblemInstance, args: argparse.Namespace) -> tuple[Any, int]:
    from .convexity import cross_check

    result = cross_check(p)
    return result, EXIT_OK if result.agree else EXIT_DISAGREEMENT


def _separate(p: ProblemInstance, args: argparse.Namespace) -> tuple[Any, int]:
    from .separation import level_pair_separation

    rep = level_pair_separation(p.f, p.g, args.alpha, args.beta, p.tolerances)
    return {"f_level": args.alpha, "g_level": args.beta, **jsonable(rep)}, EXIT_OK


def _witness(p: ProblemInstance, args: argparse.Namespace) -> tuple[Any, int]:
    from .convexity import VERDICT_NONCONVEX, check_convexity, verify_certificate

    cert = check_convexity(p)
    verification = verify_certificate(p, cert)
    result = {
        "verdict": cert.verdict,
        "f_level": cert.f_level,
        "g_level": cert.g_level,
        "witness": cert.witness,
        "verification": verification,
    }
    return result, EXIT_INTERNAL if cert.verdict == VERDICT_NONCONVEX and not verification["valid"] else EXIT_OK


def _sample(p: ProblemInstance, args: argparse.Namespace) -> tuple[Any, int]:
    from .range_oracle import SampleMode, detect_holes, emit_plot_data, sample_range

    box = args.box if args.box is not None else (5.0 if p.n <= 4 else 3.0)
    cloud = sample_range(p, box, args.samples, args.seed, SampleMode(args.mode))
    try:
        report = detect_holes(cloud, args.resolution, args.coverage_radius, args.min_cluster)
        holes: dict[str, Any] = {
            "suspected_nonconvex": report.suspected_nonconvex,
            "hole_cell_count": int(report.hole_cells.shape[0]),
            "largest_cluster": report.largest_cluster,
            "coverage_radius": report.coverage_radius,
            "resolution": report.resolution,
        }
    except DegenerateCloud as exc:
        report = None
        holes = {"suspected_nonconvex": False, "degenerate_cloud": str(exc)}
    return {"sample": cloud, "holes": holes, "files": emit_plot_data(cloud, report, args.csv)}, EXIT_OK


def _reproduce(p: None, args: argparse.Namespace) -> tuple[Any, int]:
    from .instances import run_curated_suite, suite_passed

    rows = run_curated_suite()
    passed = suite_passed(rows)
    code = EXIT_OK if passed else EXIT_INTERNAL
    if args.format == "json":
        return {"passed": passed, "rows": rows}, code
    case_width = max(len(r.case) for r in rows)
    check_width = max(len(r.check) for r in rows)
    lines = [f"{'case':<{case_width}}  {'check':<{check_width}}  result  detail"]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.case:<{case_width}}  {r.check:<{check_width}}  {status:<6}  {r.detail}")
    lines.append(f"{'ALL PASS' if passed else 'FAILURES PRESENT'} ({sum(r.passed for r in rows)}/{len(rows)})")
    return "\n".join(lines) + "\n", code


# Every command's handler: (loaded problem or None, arguments) -> (result, exit code).
_COMMANDS = {
    "check": _check,
    "fb-check": _fb_check,
    "cross-check": _cross_check,
    "separate": _separate,
    "witness": _witness,
    "sample": _sample,
    "reproduce": _reproduce,
}


def _run(args: argparse.Namespace) -> int:
    """Load the problem, run the command's handler, and write its report."""
    p = load_problem(args.input) if "input" in args else None
    result, code = _COMMANDS[args.command](p, args)
    if isinstance(result, str):
        text = result
    else:
        tolerances = (p.tolerances if p is not None else ToleranceSet()).to_dict()
        doc = {"command": args.command, "tolerances": tolerances, "result": result}
        text = report_text(doc) if args.format == "text" else canonical_json(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError("a command is required (try --help)")
        return _run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _INTERNAL_ERRORS as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (QRangeError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
