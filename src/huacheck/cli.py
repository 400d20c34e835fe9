"""Command-line driver for reproducible verification campaigns.

Subcommands:
  verify kernel | hypergeom | dirichlet | embeddings
  demo counterexample
  report merge

Each campaign runs a fixed battery of identity checks, assembles a
VerificationReport, and exits 0 iff every record passes. Reports are
byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import dirichlet, domains, embeddings, hypergeom, kernels, operators
from .domains import MatrixPoint, parse_spec, type_iv
from .fields import PolyField, random_poly_field, wirtinger_hessian
from .operators import OperatorId
from .report import VerificationReport, merge_reports, record_from_values

DEFAULT_KERNEL_DOMAINS = ("I:2,2", "I:2,3", "II:2", "II:3", "III:4")
DEFAULT_DIRICHLET_DOMAINS = ("I:2,2", "II:2", "III:4")


def _threads():
    raw = os.environ.get("HUA_LAB_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _interior_boundary_pairs(spec, seed, count):
    zs = domains.sample_interior(spec, seed, count)
    ws = domains.sample_silov(spec, seed + 1, count)
    return [(z, MatrixPoint(spec, w)) for z, w in zip(zs, ws)]


def run_kernel_campaign(specs, points, seed, tol):
    report = VerificationReport(
        campaign="kernel", environment=_stamped_environment()
    )
    for spec in specs:
        pairs = _interior_boundary_pairs(spec, seed, points)
        fd_vals, exact_vals, grad_vals, gram_vals = [], [], [], []
        for zpt, wpt in pairs:
            r_fd, r_exact = kernels.check_theorem22(spec, zpt, wpt)
            fd_vals.append(r_fd)
            exact_vals.append(r_exact)
            c, cb = kernels.log_gradients_closed(spec, zpt.value, wpt.value)
            cf, cbf = kernels.log_gradients_fd(spec, zpt.value, wpt.value)
            scale = max(1.0, float(np.max(np.abs(c))), float(np.max(np.abs(cb))))
            grad_vals.append(
                max(np.max(np.abs(c - cf)), np.max(np.abs(cb - cbf))) / scale
            )
            gram_vals.append(kernels.silov_gram_defect(wpt))
        label = spec.label()
        report.add(
            record_from_values(
                f"boundary-identity-fd-{label}",
                "kernel annihilated by the component operators, FD route",
                fd_vals,
                tol if tol is not None else 1e-6,
            )
        )
        report.add(
            record_from_values(
                f"boundary-identity-exact-{label}",
                "kernel annihilated by the component operators, closed route",
                exact_vals,
                1e-9,
            )
        )
        report.add(
            record_from_values(
                f"log-gradient-dual-route-{label}",
                "closed log-determinant gradients against finite differences",
                grad_vals,
                1e-6,
            )
        )
        report.add(
            record_from_values(
                f"boundary-gram-{label}",
                "distinguished boundary points satisfy w*w = I",
                gram_vals,
                1e-12,
            )
        )
        if spec.family == "III" and spec.n % 2 == 0:
            f_vals = [
                float(
                    np.linalg.norm(
                        kernels.identity_tensors(spec, zpt.value, wpt.value).F
                    )
                )
                for zpt, wpt in pairs
            ]
            report.add(
                record_from_values(
                    f"gram-complement-tensor-{label}",
                    "the I - w*w correction tensor vanishes on the boundary",
                    f_vals,
                    1e-10,
                )
            )
    # negative control: odd antisymmetric boundary points are rank-deficient
    spec3 = domains.type_iii(3)
    z3 = domains.sample_interior(spec3, seed, 1)[0]
    control_vals = []
    for i in range(points):
        wpt = domains.rank_deficient_pseudo_boundary(3, seed + 100 + i)
        control_vals.append(
            float(
                np.linalg.norm(
                    kernels.identity_tensors(spec3, z3.value, wpt.value).F
                )
            )
        )
    report.add(
        record_from_values(
            "gram-complement-control-III(3)",
            "rank-deficient boundary keeps the correction tensor away from 0",
            control_vals,
            1e-3,
            direction="min_above",
        )
    )
    return report


def run_hypergeom_campaign(points, seed, tol):
    report = VerificationReport(
        campaign="hypergeom", environment=_stamped_environment()
    )
    rng = np.random.default_rng(seed)
    ladder_vals = []
    for _ in range(max(points, 50)):
        a = rng.uniform(0.2, 3.0)
        b = rng.uniform(0.2, 3.0)
        c = rng.uniform(a + b + 0.5, a + b + 4.0)
        t = rng.uniform(0.0, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lhs = hypergeom.gauss_2f1_derivative(a, b, c, t)
            rhs = hypergeom.gauss_2f1_derivative_series(a, b, c, t)
        ladder_vals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    report.add(
        record_from_values(
            "derivative-ladder",
            "parameter-shift derivative against the termwise series",
            ladder_vals,
            tol if tol is not None else 1e-10,
        )
    )
    euler_vals = []
    grid = np.linspace(0.0, 0.99, 34)
    for a, b, s in ((1.0, 1.0, 0.5), (1.5, 1.5, 1.0), (2.0, 1.0, 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            euler_vals.extend(
                hypergeom.euler_identity_residual(a, b, s, t) for t in grid
            )
    report.add(
        record_from_values(
            "euler-transformation",
            "power-shifted series identity on [0, 0.99]",
            euler_vals,
            1e-10,
        )
    )
    log_vals = []
    for a, b in ((1.0, 1.0), (1.5, 1.5)):
        _, twopoint = hypergeom.log_limit_estimate(a, b)
        target = hypergeom.log_limit_value(a, b)
        log_vals.append(abs(twopoint - target) / target)
    report.add(
        record_from_values(
            "log-limit",
            "two-point estimate of the logarithmic blow-up rate",
            log_vals,
            0.01,
        )
    )
    ode_vals = []
    for p, q, n in ((1, 1, 2), (1, 1, 3), (2, 1, 3), (2, 2, 5)):
        profile = hypergeom.RadialProfile(p, q, n)
        ode_vals.extend(
            abs(profile.ode_residual(t)) for t in np.linspace(0.1, 0.9, 9)
        )
    report.add(
        record_from_values(
            "radial-ode",
            "normalized profile satisfies its hypergeometric ODE",
            ode_vals,
            1e-8,
        )
    )
    class_ok = []
    fit_vals = []
    coeff_vals = []
    for p, q, n, kind, exponent in (
        (1, 1, 3, "log-type", 2.0),
        (2, 2, 5, "log-type", 3.0),
        (1, 1, 2, "half-power", 1.5),
        (1, 1, 4, "half-power", 2.5),
        (0, 2, 3, "smooth", 0.0),
    ):
        sc = hypergeom.classify_singularity(p, q, n)
        class_ok.append(
            0.0 if (sc.kind == kind and sc.exponent == exponent) else 1.0
        )
        if kind != "smooth":
            fit_vals.append(sc.fit_residual)
            coeff_vals.append(
                abs(sc.coefficient - sc.coefficient_oracle)
                / abs(sc.coefficient_oracle)
            )
    report.add(
        record_from_values(
            "singularity-kind",
            "parity of the boundary singularity type and exponent",
            class_ok,
            0.5,
        )
    )
    report.add(
        record_from_values(
            "singularity-fit",
            "least-squares fit residual of the singular expansion",
            fit_vals,
            0.05,
        )
    )
    report.add(
        record_from_values(
            "singularity-coefficient",
            "fitted singular coefficient against the limit-law value",
            coeff_vals,
            0.05,
        )
    )
    return report


def run_dirichlet_campaign(specs, points, seed, tol, samples=100_000):
    report = VerificationReport(
        campaign="dirichlet", environment=_stamped_environment()
    )
    n = 3
    f = dirichlet.BidegreeHarmonic(
        1, 1, n, PolyField((1, n), {((1, 0, 0), (0, 1, 0)): 1.0})
    )
    u = dirichlet.solve_tilde([f], n)
    spec_ball = domains.ball(n)
    rng = np.random.default_rng(seed)
    tilde_vals = []
    for _ in range(points):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= rng.uniform(0.1, 0.9) / np.linalg.norm(z)
        pt = MatrixPoint(spec_ball, z.reshape(1, n))
        tilde_vals.append(
            abs(operators.apply(OperatorId("tilde"), u.as_field(), pt))
        )
    report.add(
        record_from_values(
            "radial-extension-annihilated",
            "profile-weighted extension killed by the modified Laplacian",
            tilde_vals,
            tol if tol is not None else 1e-6,
        )
    )
    trace_vals = []
    for _ in range(1000):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z /= np.linalg.norm(z)
        trace_vals.append(abs(u(z) - u.boundary_trace(z)))
    report.add(
        record_from_values(
            "boundary-trace",
            "extension agrees with the data on the unit sphere",
            trace_vals,
            1e-8,
        )
    )
    fh = dirichlet.make_bidegree(2, 0, n, seed)
    uh = dirichlet.solve_tilde([fh], n)
    holo_vals = []
    for _ in range(50):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= rng.uniform(0.1, 0.9) / np.linalg.norm(z)
        holo_vals.append(abs(uh(z) - fh.field(z)))
    report.add(
        record_from_values(
            "holomorphic-passthrough",
            "pure-holomorphic data extends to itself",
            holo_vals,
            1e-12,
        )
    )
    for spec in specs:
        if spec.family == "IV" or (spec.family == "III" and spec.n % 2):
            continue
        batch = domains.sample_silov(spec, seed + 7, samples)
        one = PolyField.constant(spec.shape, 1.0)
        size = spec.size
        # Re of an off-diagonal entry: nonzero on every family considered
        e0 = tuple(1 if i == 1 else 0 for i in range(size))
        z0 = tuple([0] * size)
        phi = PolyField(spec.shape, {(e0, z0): 0.5, (z0, e0): 0.5})
        interior = domains.sample_interior(spec, seed + 3, min(points, 10))
        zs = [zp.value for zp in interior]
        solved = dirichlet.poisson_solve(
            spec, (one, phi), zs, seed=seed + 7, batch=batch
        )
        mass_vals, repro_vals = [], []
        for z, ((mass, mass_se), (repro, repro_se)) in zip(zs, solved):
            mass_vals.append(abs(mass - 1.0) / mass_se)
            repro_vals.append(abs(repro - z.reshape(-1)[1].real) / repro_se)
        label = spec.label()
        report.add(
            record_from_values(
                f"poisson-mass-{label}",
                "kernel integrates to one over the distinguished boundary",
                mass_vals,
                3.0,
            )
        )
        report.add(
            record_from_values(
                f"poisson-pluriharmonic-{label}",
                "pluriharmonic data reproduced by the Poisson integral",
                repro_vals,
                3.0,
            )
        )
    return report


def run_embeddings_campaign(points, seed, tol):
    report = VerificationReport(
        campaign="embeddings", environment=_stamped_environment()
    )
    rng = np.random.default_rng(seed)
    res_tol = tol if tol is not None else 1e-9

    def unit(k):
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return v / np.linalg.norm(v)

    def ball_point(k):
        lam = unit(k)
        return lam * rng.uniform(0.1, 0.7)

    gram_vals, chain_vals, pull1, pull2, pull3 = [], [], [], [], []
    m, n = 2, 3
    for _ in range(points):
        e = embeddings.type_i_embedding(unit(m), n)
        gram_vals.append(embeddings.gram_identity_residual(e))
        u = random_poly_field((m, n), rng, degree=4, n_terms=8)
        lam = ball_point(n)
        chain_vals.append(embeddings.chain_rule_residual(e, u, lam))
        pull1.append(abs(embeddings.pullback_residual(e, u, lam)))
    for _ in range(points):
        e = embeddings.type_ii_embedding(domains.haar_unitary(rng, 3))
        u = random_poly_field((3, 3), rng, degree=2, n_terms=6)
        pull2.append(abs(embeddings.pullback_residual(e, u, ball_point(3))))
    e3 = embeddings.type_iii_embedding(4)
    for _ in range(points):
        u = random_poly_field((4, 4), rng, degree=2, n_terms=30)
        pull3.append(abs(embeddings.pullback_residual(e3, u, ball_point(3))))
    report.add(
        record_from_values(
            "rank-one-gram-identity",
            "rank-one embedding reproduces the ball Gram matrix exactly",
            gram_vals,
            1e-12,
        )
    )
    report.add(
        record_from_values(
            "composed-hessian-chain-rule",
            "mixed Hessian of a composition equals the Jacobian sandwich",
            chain_vals,
            1e-12,
        )
    )
    for name, vals in (
        ("pullback-rank-one", pull1),
        ("pullback-symmetric", pull2),
        ("pullback-antisymmetric-corner", pull3),
    ):
        report.add(
            record_from_values(
                name,
                "ball-side operator equals the embedded component sum",
                vals,
                res_tol,
            )
        )
    polar_vals = []
    for _ in range(max(points, 100)):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rec = embeddings.polarization_recover(
            lambda xi: complex(np.asarray(xi) @ M @ np.conj(np.asarray(xi))), 4
        )
        polar_vals.append(float(np.max(np.abs(M - rec))))
    report.add(
        record_from_values(
            "polarization-roundtrip",
            "sesquilinear form recovered from basis and midpoint values",
            polar_vals,
            1e-12,
        )
    )
    transport_vals = []
    shape2 = (1, 2)
    c0 = PolyField.coordinate(shape2, 0)
    c1 = PolyField.coordinate(shape2, 1)
    bidisc_map = [c0 + c1 * 1j, c0 - c1 * 1j]
    shape3 = (1, 3)
    # antisymmetric 3x3 matrix built from three ball coordinates
    ball_coords = [PolyField.coordinate(shape3, a) for a in range(3)]
    zero3 = PolyField(shape3, {})
    anti_map = [
        zero3, ball_coords[0], ball_coords[1],
        ball_coords[0] * -1.0, zero3, ball_coords[2],
        ball_coords[1] * -1.0, ball_coords[2] * -1.0, zero3,
    ]
    for _ in range(20):
        u = random_poly_field(shape2, rng, degree=3, n_terms=6)
        transport_vals.append(
            embeddings.hessian_transport_check(
                bidisc_map, shape2, u, ball_point(2) * 0.5
            )
        )
        u = random_poly_field((3, 3), rng, degree=3, n_terms=6)
        transport_vals.append(
            embeddings.hessian_transport_check(
                anti_map, shape3, u, ball_point(3) * 0.5
            )
        )
    report.add(
        record_from_values(
            "hessian-transport",
            "Hessian chain rule under two explicit holomorphic maps",
            transport_vals,
            res_tol,
        )
    )
    return report


def run_counterexample_campaign(points, seed, tol):
    report = VerificationReport(
        campaign="counterexample", environment=_stamped_environment()
    )
    spec = type_iv(2)
    u = PolyField((1, 2), {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): -1.0})
    rng = np.random.default_rng(seed)
    op_vals, hess_norms, harm_vals, cross_vals = [], [], [], []
    count = max(points, 200)
    drawn = 0
    while drawn < count:
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= rng.uniform(0.05, 0.55) / np.linalg.norm(z)
        if domains.membership_margin(spec, z.reshape(1, 2)) <= 0.05:
            continue
        drawn += 1
        pt = MatrixPoint(spec, z.reshape(1, 2))
        op_vals.append(abs(operators.apply(OperatorId("delta4"), u, pt)))
        H = wirtinger_hessian(u, z)
        hess_norms.append(float(np.linalg.norm(H)))
        harm_vals.append(abs(np.trace(H)))
        cross_vals.append(abs(2.0 * H[0, 1].real))
    report.add(
        record_from_values(
            "quartic-operator-annihilates",
            "|w1|^2 - |w2|^2 is killed by the fourth-family operator",
            op_vals,
            tol if tol is not None else 1e-10,
        )
    )
    report.add(
        record_from_values(
            "not-pluriharmonic",
            "its mixed Hessian stays bounded away from zero",
            hess_norms,
            0.999,
            direction="min_above",
        )
    )
    report.add(
        record_from_values(
            "euclidean-harmonic",
            "its Euclidean Laplacian vanishes",
            harm_vals,
            1e-10,
        )
    )
    report.add(
        record_from_values(
            "mixed-cross-term",
            "the real cross derivative 2 Re u_{w1 wbar2} vanishes",
            cross_vals,
            1e-10,
        )
    )
    # transfer through the bidisc coordinates: v with vanishing diagonal
    # second derivatives pulls back to a Euclidean-harmonic u whose real
    # cross derivative vanishes
    shape2 = (1, 2)
    c0 = PolyField.coordinate(shape2, 0)
    c1 = PolyField.coordinate(shape2, 1)
    # inverse coordinates z1 = (w1 + w2)/2, z2 = (w1 - w2)/(2i)
    inverse_map = [(c0 + c1) * 0.5, (c0 - c1) * (-0.5j)]
    id_vals, harm2, cross2 = [], [], []
    for _ in range(20):
        v = _coordinatewise_harmonic(rng)
        uu = v.compose_holomorphic(inverse_map, shape2)
        z0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z0 *= 0.3 / np.linalg.norm(z0)
        w0 = np.array([z0[0] + 1j * z0[1], z0[0] - 1j * z0[1]])
        Hv = wirtinger_hessian(v, z0)
        Hu = wirtinger_hessian(uu, w0)
        s = Hu[0, 0] + Hu[0, 1] + Hu[1, 0] + Hu[1, 1]
        d = Hu[0, 0] - Hu[0, 1] - Hu[1, 0] + Hu[1, 1]
        id_vals.append(abs(Hv[0, 0] - s))
        id_vals.append(abs(Hv[1, 1] - d))
        harm2.append(abs(np.trace(Hu)))
        cross2.append(abs(Hu[0, 1] + Hu[1, 0]))
    report.add(
        record_from_values(
            "bidisc-second-derivative-identities",
            "diagonal second derivatives transform as the four-term sums",
            id_vals,
            1e-10,
        )
    )
    report.add(
        record_from_values(
            "transferred-harmonicity",
            "pulled-back data is Euclidean harmonic",
            harm2,
            1e-10,
        )
    )
    report.add(
        record_from_values(
            "transferred-cross-term",
            "pulled-back data has vanishing symmetrized cross derivative",
            cross2,
            1e-10,
        )
    )
    return report


def _coordinatewise_harmonic(rng, n_terms=6):
    """Random bidisc polynomial with vanishing diagonal second derivatives.

    Every monomial avoids pairing a coordinate with its own conjugate, so
    d^2/dz_k dzbar_k kills each term for k = 1, 2.
    """
    terms = {}
    for _ in range(n_terms):
        a = int(rng.integers(0, 3))
        b = int(rng.integers(0, 3))
        c = 0 if a else int(rng.integers(0, 3))
        d = 0 if b else int(rng.integers(0, 3))
        coef = complex(rng.standard_normal(), rng.standard_normal())
        key = ((a, b), (c, d))
        terms[key] = terms.get(key, 0.0) + coef
    return PolyField((1, 2), terms)


def _stamped_environment():
    from .report import environment_stamp

    return environment_stamp(_threads())


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
        report = run_kernel_campaign(specs, args.points, args.seed, args.tol)
    elif args.command == "verify" and args.suite == "hypergeom":
        report = run_hypergeom_campaign(args.points, args.seed, args.tol)
    elif args.command == "verify" and args.suite == "dirichlet":
        specs = args.domain or [parse_spec(s) for s in DEFAULT_DIRICHLET_DOMAINS]
        report = run_dirichlet_campaign(specs, args.points, args.seed, args.tol)
    elif args.command == "verify" and args.suite == "embeddings":
        report = run_embeddings_campaign(args.points, args.seed, args.tol)
    elif args.command == "demo" and args.suite == "counterexample":
        report = run_counterexample_campaign(args.points, args.seed, args.tol)
    else:
        raise SystemExit(2)
    return _emit(report, args.out, args.format)


if __name__ == "__main__":
    raise SystemExit(main())
