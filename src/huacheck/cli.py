"""Command-line driver for reproducible verification campaigns.

Subcommands:
  verify kernel | hypergeom | dirichlet | embeddings
  demo counterexample
  report merge

Each campaign (see huacheck.campaigns) runs a fixed battery of identity
checks and assembles a VerificationReport; the command exits 0 iff every
record passes. Reports are byte-identical for identical configuration and
seed.
"""

from __future__ import annotations

import argparse
import sys

from . import campaigns, domains
from .domains import parse_spec

# The benchmark's tracer test checks that tracing patches this module's
# binding of wirtinger_hessian, so it stays bound here.
from .fields import wirtinger_hessian  # noqa: F401
from .report import VerificationReport, merge_reports

DEFAULT_KERNEL_DOMAINS = ("I:2,2", "I:2,3", "II:2", "II:3", "III:4")
DEFAULT_DIRICHLET_DOMAINS = ("I:2,2", "II:2", "III:4")


def _emit(report, out, fmt):
    text = report.to_json() if fmt == "json" else report.to_text()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(("PASS" if report.passed else "FAIL") + f" -> {out}")
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _domain_spec(text):
    try:
        return parse_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid domain {text!r}: {exc}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="huacheck", description="verification campaigns for huacheck"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_points):
        p.add_argument("--domain", type=_domain_spec, action="append", default=None)
        p.add_argument("--points", type=_positive_int, default=default_points)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "text"), default="text")

    verify = sub.add_parser("verify", help="run one verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)
    common(vsub.add_parser("kernel"), 10)
    common(vsub.add_parser("hypergeom"), 50)
    common(vsub.add_parser("dirichlet"), 50)
    common(vsub.add_parser("embeddings"), 20)

    demo = sub.add_parser("demo", help="run a demonstration campaign")
    dsub = demo.add_subparsers(dest="suite", required=True)
    common(dsub.add_parser("counterexample"), 200)

    rep = sub.add_parser("report", help="report utilities")
    rsub = rep.add_subparsers(dest="suite", required=True)
    merge = rsub.add_parser("merge")
    merge.add_argument("inputs", nargs="+")
    merge.add_argument("--out", default=None)
    merge.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except domains.UnsupportedDomainError as exc:
        parser.error(str(exc))


def _dispatch(args):
    if args.command == "report":
        import json as _json

        reports = []
        for path in args.inputs:
            with open(path) as fh:
                reports.append(VerificationReport.from_dict(_json.load(fh)))
        merged = merge_reports(reports)
        return _emit(merged, args.out, args.format)

    if args.command == "verify" and args.suite == "kernel":
        specs = args.domain or [parse_spec(s) for s in DEFAULT_KERNEL_DOMAINS]
        report = campaigns.run_kernel_campaign(specs, args.points, args.seed, args.tol)
    elif args.command == "verify" and args.suite == "hypergeom":
        report = campaigns.run_hypergeom_campaign(args.points, args.seed, args.tol)
    elif args.command == "verify" and args.suite == "dirichlet":
        specs = args.domain or [parse_spec(s) for s in DEFAULT_DIRICHLET_DOMAINS]
        report = campaigns.run_dirichlet_campaign(
            specs, args.points, args.seed, args.tol
        )
    elif args.command == "verify" and args.suite == "embeddings":
        report = campaigns.run_embeddings_campaign(args.points, args.seed, args.tol)
    elif args.command == "demo" and args.suite == "counterexample":
        report = campaigns.run_counterexample_campaign(args.points, args.seed, args.tol)
    else:
        raise SystemExit(2)
    return _emit(report, args.out, args.format)


if __name__ == "__main__":
    raise SystemExit(main())
