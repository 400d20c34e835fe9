"""Command-line driver for reproducible verification campaigns.

Subcommands: one ``verify`` or ``demo`` campaign per row of CAMPAIGNS, and
``report merge``.

Each campaign (see huacheck.campaigns) runs a fixed battery of identity
checks and assembles a VerificationReport; the command exits 0 iff every
record passes. Reports are byte-identical for identical configuration and
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import campaigns, domains
from .domains import parse_spec

# The benchmark's tracer test checks that tracing patches this module's
# binding of wirtinger_hessian, so it stays bound here.
from .fields import wirtinger_hessian  # noqa: F401
from .report import VerificationReport, merge_reports

# (command, campaign) -> (run function, default --points, default --domain
# list as space-separated specs, or None). Only a campaign with a list takes
# --domain, and its run function takes the domain specs first.
CAMPAIGNS = {
    ("verify", "kernel"): (campaigns.run_kernel_campaign, 10, "I:2,2 I:2,3 II:2 II:3 III:4"),
    ("verify", "hypergeom"): (campaigns.run_hypergeom_campaign, 50, None),
    ("verify", "dirichlet"): (campaigns.run_dirichlet_campaign, 50, "I:2,2 II:2 III:4"),
    ("verify", "embeddings"): (campaigns.run_embeddings_campaign, 20, None),
    ("demo", "counterexample"): (campaigns.run_counterexample_campaign, 200, None),
}


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


# A campaign's arrays grow by at most 3.5 KB per point: the slope of each
# campaign's peak (tracemalloc) from --points 2,000 to 8,000 at its default
# domains is 3.4 KB on verify dirichlet (its radial extension), 2.7 KB on
# verify hypergeom, 0.7 KB on verify embeddings and 0.5 KB on demo
# counterexample, and verify kernel's interior and Silov stacks take 1.5 KB
# per point on I(5,7), its largest domain under MAX_WORK. So MAX_POINTS
# points hold at most 350 MB, while 10^20 made numpy refuse the first array
# (a traceback, exit 1). The largest value README, CI and the benchmark use
# is 2,000.
MAX_POINTS = 10**5

_POINTS = _checked(
    _checked(int, lambda v: v >= 1, "at least 1"),
    lambda v: v <= MAX_POINTS,
    f"at most {MAX_POINTS:,}",
)
_SEED = _checked(int, lambda v: v >= 0, "at least 0")


# The size of a domain of s entries whose generic norm has F features (the
# minors of I and II, the Pfaffians of III: kernels._generic_norm_table) is
# s^2 F. verify kernel's FD Hessian sums the F-feature expansion at each of
# its 1 + 8 s^2 stencil points, so MAX_WORK bounds its time: a whole run of
# I(5,7) (0.97e6), the slowest domain accepted, took 5.2 s at --points 1
# (about 5 us per unit of s^2 F), and of III(8) (0.52e6), the largest domain
# CI runs, 1.4 s at --points 2 (best of 3 processes, one BLAS thread, a
# shared 2-core x86-64 host; runs spread over 5.2-6.6 s and 1.4-2.0 s).
# Since F >= s past III(6), it also bounds the stencil's 128 s^3 bytes by
# 128 MB. verify dirichlet holds 128 KB per feature (a block's F feature
# vectors and the matrix they are stacked into, both made per block:
# tracemalloc reads 101.7e6 bytes for one 4,096-draw block on I(5,7)) and
# 64 KB per entry for each of two Silov blocks (one summed while the next is
# drawn): 2 F + 2 s units, at most 2 * 791 + 2 * 35 on I(5,7), so 103 MB.
# I(6,6) (1.2e6), II(6) and III(10) (5.1e6) are refused.
MAX_WORK = 10**6


def _feature_count(spec):
    """F by formula: C(m + n, m) - 1 minors on I(m, n) and II(n), 2^(n-1) - 1
    Pfaffians on III(n); IV(n), never sampled, as its 1 x n storage."""
    m, n = spec.shape
    if spec.family == "III":
        return 2 ** (n - 1) - 1
    return math.comb(m + n, m) - 1


def _domain_spec(text):
    try:
        spec = parse_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid domain {text!r}: {exc}") from None
    # F >= 1 wherever s > 1, so an s^2 over the bound refuses the domain
    # before F, which grows like 4^n, is computed
    s2 = spec.size**2
    if s2 > MAX_WORK or s2 * _feature_count(spec) > MAX_WORK:
        raise argparse.ArgumentTypeError(
            f"{text!r} is too large: its {spec.size} entries and their generic-norm "
            f"features F give s^2 F over {MAX_WORK:,}"
        )
    return spec


def build_parser():
    parser = argparse.ArgumentParser(
        prog="huacheck", description="verification campaigns for huacheck"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    groups = {
        command: sub.add_parser(command, help=text).add_subparsers(dest="suite", required=True)
        for command, text in (
            ("verify", "run one verification suite"),
            ("demo", "run a demonstration campaign"),
            ("report", "report utilities"),
        )
    }
    for (command, campaign), (_, points, default_domains) in CAMPAIGNS.items():
        p = groups[command].add_parser(campaign)
        p.add_argument("--points", type=_POINTS, default=points)
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "text"), default="text")
        if default_domains is not None:
            p.add_argument("--domain", type=_domain_spec, action="append", default=None)

    merge = groups["report"].add_parser("merge")
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
        try:
            report = merge_reports(reports)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        # records are named by domain, so a repeated one would write its
        # records twice under the same names
        given = getattr(args, "domain", None) or []
        for i, spec in enumerate(given):
            if spec in given[:i]:
                parser.error(f"argument --domain: {spec.label()} is given more than once")
        try:
            report = _dispatch(args)
        except domains.UnsupportedDomainError as exc:
            parser.error(str(exc))
    return _emit(report, args.out, args.format, parser)


def _dispatch(args):
    run, _, default_domains = CAMPAIGNS[args.command, args.suite]
    if default_domains is None:
        return run(args.points, args.seed)
    specs = args.domain or [parse_spec(s) for s in default_domains.split()]
    return run(specs, args.points, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
