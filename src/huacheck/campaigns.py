"""Verification campaigns: check functions and the reports built from them.

A check function takes its inputs explicitly (a domain spec, a seed or a
numpy Generator, a count) and returns residual values. Each
``run_*_campaign`` draws its inputs from one seed, calls its check functions
and assembles the records of a VerificationReport in a fixed order, so the
report is byte-identical for identical arguments. The CLI dispatches to the
campaigns; the acceptance battery calls the same functions with its own
seeds, counts and bounds.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from . import dirichlet, domains, embeddings, hypergeom, kernels, operators
from .fields import PolyField, random_poly_field, wirtinger_hessian
from .report import VerificationReport, record_from_values


def _report(campaign, records):
    """A report of (name, anchor, values, tolerance[, direction]) records."""
    return VerificationReport(campaign, [record_from_values(*r) for r in records])


def _radial_draws(rng, count, n, low, high):
    """count points of C^n, (count, n): uniform directions, radii uniform in
    [low, high)."""
    return domains.unit_vectors(rng, count, n) * rng.uniform(low, high, (count, 1))


# -- kernel ------------------------------------------------------------------


def interior_boundary_pairs(spec, seed, count):
    """count interior points (seed) paired with Šilov points (seed + 1)."""
    zs = domains.sample_interior(spec, seed, count)
    ws = domains.sample_silov(spec, seed + 1, count)
    return list(zip(zs, ws))


def theorem22_residuals(spec, pairs):
    """FD-route and closed-route boundary identity residuals of each pair."""
    residuals = [kernels.check_theorem22(spec, z, w) for z, w in pairs]
    return [fd for fd, _ in residuals], [exact for _, exact in residuals]


def log_gradient_residuals(spec, pairs):
    """Closed log-determinant gradients against kernels.log_gradients_generic.

    The gap is relative to the largest closed entry, floored at 1.
    """
    vals = []
    for z, w in pairs:
        c = kernels.log_gradients_closed(spec, z, w)
        cg = kernels.log_gradients_generic(spec, z, w)
        vals.append(np.max(np.abs(c - cg)) / max(1.0, float(np.max(np.abs(c)))))
    return vals


def gram_complement_norms(spec, pairs):
    """Frobenius norm of the I - w*w correction tensor F at each pair."""
    return [float(np.linalg.norm(kernels.identity_tensors(spec, z, w)[5])) for z, w in pairs]


def rank_deficient_pairs(seed, count):
    """An interior point of III(3) from seed paired with count points of the
    rank-deficient Silov boundary of III(3), drawn from seed + 100."""
    z = domains.sample_interior(domains.type_iii(3), seed, 1)[0]
    return [(z, w) for w in domains.odd_iii_silov_points(3, seed + 100, count)]


def run_kernel_campaign(specs, points, seed):
    # reject a domain without a boundary sampler before any record runs
    for spec in specs:
        domains.silov_columns(spec)
    records = []
    for spec in specs:
        pairs = interior_boundary_pairs(spec, seed, points)
        fd_vals, exact_vals = theorem22_residuals(spec, pairs)
        label = spec.label()
        records += [
            (
                f"boundary-identity-fd-{label}",
                "kernel annihilated by the component operators, FD route",
                fd_vals,
                1e-6,
            ),
            (
                f"boundary-identity-exact-{label}",
                "kernel annihilated by the component operators, closed route",
                exact_vals,
                # at most 5.1e-12 (I(2,3)) over seeds 0-199, 195x below the gate
                1e-9,
            ),
            (
                f"log-gradient-dual-route-{label}",
                "closed log-determinant gradients against the generic-norm calculus",
                log_gradient_residuals(spec, pairs),
                # rounding alone: at most 2.65e-15 (II(3)) over seeds 0-199 at
                # 10 points on the five default domains, 38x below the gate
                1e-13,
            ),
            (
                f"boundary-gram-{label}",
                "distinguished boundary points satisfy w w* = I",
                [kernels.silov_gram_defect(w) for _, w in pairs],
                1e-12,
            ),
        ]
        if spec.family == "III":
            records.append(
                (
                    f"gram-complement-tensor-{label}",
                    "the I - w*w correction tensor vanishes on the boundary",
                    gram_complement_norms(spec, pairs),
                    1e-10,
                )
            )
    # negative control: odd antisymmetric boundary points are rank-deficient
    control = rank_deficient_pairs(seed, points)
    records.append(
        (
            "gram-complement-control-III(3)",
            "rank-deficient boundary keeps the correction tensor away from 0",
            gram_complement_norms(domains.type_iii(3), control),
            1e-3,
            "min_above",
        )
    )
    return _report("kernel", records)


# -- hypergeom ---------------------------------------------------------------

# (p, q, n, expected kind, expected exponent) of the singularity classifier
SINGULARITY_CASES = (
    (1, 1, 3, "log-type", 2.0),
    (2, 2, 5, "log-type", 3.0),
    (1, 1, 2, "half-power", 1.5),
    (1, 1, 4, "half-power", 2.5),
    (0, 2, 3, "smooth", 0.0),
)


def derivative_ladder_residuals(rng, count):
    """Parameter-shift 2F1 derivative against the termwise series."""
    a = rng.uniform(0.2, 3.0, count)
    b = rng.uniform(0.2, 3.0, count)
    c = rng.uniform(a + b + 0.5, a + b + 4.0)
    t = rng.uniform(0.0, 0.8, count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ladder = hypergeom.gauss_2f1_derivative(a, b, c, t)
        params = zip(a.tolist(), b.tolist(), c.tolist(), t.tolist())
        series = [hypergeom.gauss_2f1_derivative_series(*p) for p in params]
    return [abs(lhs - rhs) / max(1.0, abs(rhs)) for lhs, rhs in zip(ladder.tolist(), series)]


def euler_residuals():
    """Euler transformation residuals of three 2F1 cases on [0, 0.99]."""
    grid = np.linspace(0.0, 0.99, 34)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [
            residual
            for a, b, s in ((1.0, 1.0, 0.5), (1.5, 1.5, 1.0), (2.0, 1.0, 0.5))
            for residual in hypergeom.euler_identity_residual(a, b, s, grid).tolist()
        ]


def log_limit_errors():
    """Relative error of the Richardson-fitted logarithmic blow-up rate."""
    vals = []
    for a, b in ((1.0, 1.0), (1.5, 1.5)):
        _, lead, _ = hypergeom.blowup(a, b, a + b)
        target = hypergeom.log_limit_value(a, b)
        vals.append(abs(lead - target) / target)
    return vals


def radial_ode_residuals():
    """ODE residuals of four normalized radial profiles on [0.1, 0.9]."""
    vals = []
    for p, q, n in ((1, 1, 2), (1, 1, 3), (2, 1, 3), (2, 2, 5)):
        profile = hypergeom.RadialProfile(p, q, n)
        vals.extend(np.abs(profile.ode_residual(np.linspace(0.1, 0.9, 9))).tolist())
    return vals


def singularity_residuals():
    """Classifier checks over SINGULARITY_CASES.

    Returns the kind mismatch (0.0 or 1.0) of every case, and the hold-out
    error and relative coefficient error of each singular case.
    """
    mismatch, fit_vals, coeff_vals = [], [], []
    for p, q, n, kind, exponent in SINGULARITY_CASES:
        sc = hypergeom.classify_singularity(p, q, n)
        mismatch.append(0.0 if (sc.kind == kind and sc.exponent == exponent) else 1.0)
        if kind != "smooth":
            fit_vals.append(sc.holdout_error)
            coeff_vals.append(
                abs(sc.coefficient - sc.coefficient_oracle) / abs(sc.coefficient_oracle)
            )
    return mismatch, fit_vals, coeff_vals


def run_hypergeom_campaign(points, seed):
    rng = np.random.default_rng(seed)
    ladder_vals = derivative_ladder_residuals(rng, max(points, 50))
    mismatch, fit_vals, coeff_vals = singularity_residuals()
    return _report(
        "hypergeom",
        [
            (
                "derivative-ladder",
                "parameter-shift derivative against the termwise series",
                ladder_vals,
                1e-10,
            ),
            (
                "euler-transformation",
                "power-shifted series identity on [0, 0.99]",
                euler_residuals(),
                1e-10,
            ),
            (
                "log-limit",
                "Richardson fit of the logarithmic blow-up rate",
                log_limit_errors(),
                1e-6,
            ),
            (
                "radial-ode",
                "normalized profile satisfies its hypergeometric ODE",
                radial_ode_residuals(),
                # no draw, 1.55e-15 at every seed: the ODE's terms are at most
                # 0.96, and the series' tail past SERIES_RTOL at most 1e-14 of
                # them (t <= 0.9), so 100x that noise; SERIES_RTOL = 1e-9 reads 1.22e-9
                1e-12,
            ),
            (
                "singularity-kind",
                "boundary singularity type and exponent decided by the hold-out fit",
                mismatch,
                0.5,
            ),
            (
                "singularity-fit",
                "hold-out error of the chosen expansion one grid point out",
                fit_vals,
                1e-3,
            ),
            (
                "singularity-coefficient",
                "fitted blow-up coefficient against the limit-law value",
                coeff_vals,
                1e-4,
            ),
        ],
    )


# -- dirichlet ---------------------------------------------------------------


def radial_extension_residuals(u, rng, count):
    """|modified Laplacian of u| at count ball points of radius in [0.1, 0.9):
    u's exact Hessians (DirichletSolution.hessian_many, one call for the
    stack) contracted with the modified ball operator's tensor."""
    spec = domains.ball(u.n)
    zs = _radial_draws(rng, count, u.n, 0.1, 0.9).reshape(count, 1, u.n)
    return [
        abs(complex(np.sum(operators.modified_ball_coefficients(spec, z) * H)))
        for z, H in zip(zs, u.hessian_many(zs))
    ]


def boundary_trace_residuals(u, rng, count):
    """|u - its boundary trace| at count points of the unit sphere."""
    zs = domains.unit_vectors(rng, count, u.n)
    return np.abs(u.evaluate_many(zs) - u.boundary_trace(zs))


def poisson_z_scores(spec, zs, batch):
    """|estimate - exact| / stderr of two Monte-Carlo Poisson integrals.

    At each interior point of zs: the integral of 1, whose exact value is 1,
    and that of the pluriharmonic Re of one entry, which reproduces its value
    at the point. batch is the domains.SilovSample the integrals average
    over, streamed one block at a time.
    """
    one = PolyField.constant(spec.shape, 1.0)
    size = spec.size
    # flattened entry 1 is off the diagonal and nonzero on every family with
    # more than one entry; a one-entry domain has only entry 0
    entry = min(1, size - 1)
    e0 = tuple(1 if i == entry else 0 for i in range(size))
    z0 = tuple([0] * size)
    phi = PolyField(spec.shape, {(e0, z0): 0.5, (z0, e0): 0.5})
    solved = dirichlet.poisson_solve(spec, (one, phi), zs, batch=batch)
    mass_vals, repro_vals = [], []
    for z, ((mass, mass_se), (repro, repro_se)) in zip(zs, solved):
        mass_vals.append(abs(mass - 1.0) / mass_se)
        repro_vals.append(abs(repro - z.reshape(-1)[entry].real) / repro_se)
    return mass_vals, repro_vals


def run_dirichlet_campaign(specs, points, seed):
    # reject a domain without a boundary sampler before any record runs
    for spec in specs:
        domains.silov_columns(spec)
    n = 3
    f = dirichlet.BidegreeHarmonic(
        1, 1, n, PolyField((1, n), {((1, 0, 0), (0, 1, 0)): 1.0})
    )
    u = dirichlet.solve_tilde([f], n)
    rng = np.random.default_rng(seed)
    records = [
        (
            "radial-extension-annihilated",
            "profile-weighted extension killed by the modified Laplacian",
            radial_extension_residuals(u, rng, points),
            # rounding alone: at most 5.3e-16 over seeds 0-199 at 50 points
            # and 6.0e-16 over 100,000 points, so about 17x below the gate
            1e-14,
        ),
        (
            "boundary-trace",
            "extension agrees with the data on the unit sphere",
            boundary_trace_residuals(u, rng, 1000),
            1e-8,
        ),
    ]
    for spec in specs:
        # the 100k draws are made one SILOV_CHUNK block at a time inside the
        # solve, so no domain's sample is ever held whole
        mass_vals, repro_vals = poisson_z_scores(
            spec,
            domains.sample_interior(spec, seed + 3, min(points, 10)),
            domains.SilovSample(spec, seed + 7, 100_000),
        )
        label = spec.label()
        records += [
            (
                f"poisson-mass-{label}",
                "kernel integrates to one over the distinguished boundary",
                mass_vals,
                3.0,
            ),
            (
                f"poisson-pluriharmonic-{label}",
                "pluriharmonic data reproduced by the Poisson integral",
                repro_vals,
                3.0,
            ),
        ]
    return _report("dirichlet", records)


# -- embeddings --------------------------------------------------------------


def rank_one_residuals(rng, count):
    """Gram, chain-rule and pullback residuals of rank-one B_3 -> I(2,3) maps."""
    gram_vals, chain_vals, pull_vals = [], [], []
    xis = domains.unit_vectors(rng, count, 2)
    lams = _radial_draws(rng, count, 3, 0.1, 0.7)
    for xi, lam in zip(xis, lams):
        e = embeddings.type_i_embedding(xi, 3)
        gram_vals.append(embeddings.gram_identity_residual(e))
        u = random_poly_field((2, 3), rng, degree=4, n_terms=8)
        g = embeddings.compose(e, u)
        chain_vals.append(embeddings.chain_rule_residual(e, u, g, lam))
        pull_vals.append(abs(embeddings.pullback_residual(e, u, g, lam)))
    return gram_vals, chain_vals, pull_vals


def symmetric_pullback_residuals(rng, count):
    """Pullback residuals of Haar-random symmetric-square B_3 -> II(3) maps."""
    unitaries = domains.haar_unitaries(rng, count, 3)
    lams = _radial_draws(rng, count, 3, 0.1, 0.7)
    vals = []
    for U, lam in zip(unitaries, lams):
        e = embeddings.type_ii_embedding(U)
        u = random_poly_field((3, 3), rng, degree=2, n_terms=6)
        g = embeddings.compose(e, u)
        vals.append(abs(embeddings.pullback_residual(e, u, g, lam)))
    return vals


def corner_pullback_residuals(rng, count):
    """Pullback residuals of the corner map B_3 -> III(4)."""
    e = embeddings.type_iii_embedding(4)
    vals = []
    for lam in _radial_draws(rng, count, 3, 0.1, 0.7):
        u = random_poly_field((4, 4), rng, degree=2, n_terms=30)
        g = embeddings.compose(e, u)
        vals.append(abs(embeddings.pullback_residual(e, u, g, lam)))
    return vals


def polarization_errors(rng, count):
    """Entrywise error of random 4 x 4 forms recovered by polarization."""
    g = rng.standard_normal((count, 2, 4, 4))
    vals = []
    for M in g[:, 0] + 1j * g[:, 1]:
        rec = embeddings.polarization_recover(
            lambda xi: complex(np.asarray(xi) @ M @ np.conj(np.asarray(xi))), 4
        )
        vals.append(float(np.max(np.abs(M - rec))))
    return vals


def transport_residuals(rng, count):
    """Hessian chain rule under a linear bidisc map and an antisymmetric map.

    The bidisc map is domains.biholo_iv2_inverse of the two PolyField
    coordinates. Returns 2 * count residuals, alternating between the two
    maps.
    """
    shape2 = (1, 2)
    c0 = PolyField.coordinate(shape2, 0)
    c1 = PolyField.coordinate(shape2, 1)
    bidisc_map = list(domains.biholo_iv2_inverse(c0, c1))
    shape3 = (1, 3)
    # antisymmetric 3x3 matrix whose upper triangle holds the three ball
    # coordinates, row-major
    anti_map = [PolyField(shape3, {})] * 9
    for a, (j, k) in enumerate(itertools.combinations(range(3), 2)):
        anti_map[3 * j + k] = PolyField.coordinate(shape3, a)
        anti_map[3 * k + j] = anti_map[3 * j + k] * -1.0
    vals = []
    lams2 = _radial_draws(rng, count, 2, 0.05, 0.35)
    lams3 = _radial_draws(rng, count, 3, 0.05, 0.35)
    for lam2, lam3 in zip(lams2, lams3):
        u = random_poly_field(shape2, rng, degree=3, n_terms=6)
        vals.append(embeddings.hessian_transport_check(bidisc_map, shape2, u, lam2))
        u = random_poly_field((3, 3), rng, degree=3, n_terms=6)
        vals.append(embeddings.hessian_transport_check(anti_map, shape3, u, lam3))
    return vals


def run_embeddings_campaign(points, seed):
    rng = np.random.default_rng(seed)
    res_tol = 1e-9
    gram_vals, chain_vals, pull1 = rank_one_residuals(rng, points)
    pull2 = symmetric_pullback_residuals(rng, points)
    pull3 = corner_pullback_residuals(rng, points)
    pullback = "ball-side operator equals the embedded component sum"
    return _report(
        "embeddings",
        [
            (
                "rank-one-gram-identity",
                "rank-one embedding reproduces the ball Gram matrix exactly",
                gram_vals,
                1e-12,
            ),
            (
                "composed-hessian-chain-rule",
                "mixed Hessian of a composition equals the Jacobian sandwich",
                chain_vals,
                1e-12,
            ),
            ("pullback-rank-one", pullback, pull1, res_tol),
            ("pullback-symmetric", pullback, pull2, res_tol),
            ("pullback-antisymmetric-corner", pullback, pull3, res_tol),
            (
                "polarization-roundtrip",
                "sesquilinear form recovered from basis and midpoint values",
                polarization_errors(rng, max(points, 100)),
                1e-12,
            ),
            (
                "hessian-transport",
                "Hessian chain rule under two explicit holomorphic maps",
                transport_residuals(rng, 20),
                res_tol,
            ),
        ],
    )


# -- counterexample ----------------------------------------------------------


def type_iv_points(rng, count):
    """count points of IV(2) as a (count, 2) array, radius in [0.05, 0.55).

    Every draw is interior with margin above 0.39: at |z| = r < 0.55 the
    binding constraint is 1 - 2 r^2 + |z z^t|^2 >= 1 - 2 (0.55)^2 = 0.395.
    """
    return _radial_draws(rng, count, 2, 0.05, 0.55)


def euclidean_defects(H):
    """|tr H| and |2 Re H_01| of 2 x 2 mixed Hessians, over any leading axes.

    They are the Euclidean Laplacian and the real cross derivative.
    """
    trace = H[..., 0, 0] + H[..., 1, 1]
    return np.hypot(trace.real, trace.imag), np.abs(2.0 * H[..., 0, 1].real)


def quartic_residuals(points):
    """Checks of u = |w1|^2 - |w2|^2 on IV(2) over the stack of points.

    Returns |delta4 u|, the Frobenius norm of the mixed Hessian, and the
    two euclidean_defects of the Hessian, one array each. Each Hessian is
    computed once, and everything else is stacked, bitwise what
    operators.apply and the per-point norms give: dot products are stacked
    matmuls and moduli are hypot.
    """
    spec = domains.type_iv(2)
    u = PolyField((1, 2), {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): -1.0})
    zs = np.asarray(points)
    C = operators.delta4_coefficients(spec, zs)
    H = np.array([wirtinger_hessian(u, z) for z in zs])
    op = np.sum(C * H, axis=(1, 2))
    hr = H.real.reshape(len(H), 1, 4)
    hi = H.imag.reshape(len(H), 1, 4)
    sq = np.matmul(hr, hr.transpose(0, 2, 1)) + np.matmul(hi, hi.transpose(0, 2, 1))
    return (np.hypot(op.real, op.imag), np.sqrt(sq[:, 0, 0]), *euclidean_defects(H))


def coordinatewise_harmonic(rng):
    """Random bidisc polynomial with vanishing diagonal second derivatives.

    Every monomial avoids pairing a coordinate with its own conjugate, so
    d^2/dz_k dzbar_k kills each term for k = 1, 2.
    """
    terms = {}
    exponents = rng.integers(0, 3, (6, 4)).tolist()
    coefs = rng.standard_normal((6, 2)).tolist()
    for (a, b, c, d), (re, im) in zip(exponents, coefs):
        key = ((a, b), (0 if a else c, 0 if b else d))
        terms[key] = terms.get(key, 0.0) + complex(re, im)
    return PolyField((1, 2), terms)


def bidisc_inverse_map():
    """The bidisc onto IV(2): (w1, w2) -> ((w1 + w2)/2, (w1 - w2)/(2i)).

    PolyFields for compose_holomorphic; domains.biholo_iv2_inverse inverts it.
    The image z lies in IV(2) because 1 + |z z^t|^2 - 2|z|^2 =
    (1 - |w1|^2)(1 - |w2|^2) > 0 and |z z^t| = |w1 w2| < 1.
    """
    c0 = PolyField.coordinate((1, 2), 0)
    c1 = PolyField.coordinate((1, 2), 1)
    return [(c0 + c1) * 0.5, (c0 - c1) * (-0.5j)]


def bidisc_transfer_residuals(rng, count):
    """Transfer of coordinatewise-harmonic data through the bidisc coordinates.

    For count random v, u = v o inverse map: returns the two diagonal
    second-derivative identities per draw, |tr H_u| and the symmetrized
    cross derivative |H_u01 + H_u10|.
    """
    inverse_map = bidisc_inverse_map()
    id_vals, harm_vals, cross_vals = [], [], []
    for z0 in 0.3 * domains.unit_vectors(rng, count, 2):
        v = coordinatewise_harmonic(rng)
        u = v.compose_holomorphic(inverse_map, (1, 2))
        w0 = np.array(domains.biholo_iv2_inverse(z0[0], z0[1]))
        Hv = wirtinger_hessian(v, z0)
        Hu = wirtinger_hessian(u, w0)
        s = Hu[0, 0] + Hu[0, 1] + Hu[1, 0] + Hu[1, 1]
        d = Hu[0, 0] - Hu[0, 1] - Hu[1, 0] + Hu[1, 1]
        id_vals.append(abs(Hv[0, 0] - s))
        id_vals.append(abs(Hv[1, 1] - d))
        harm_vals.append(abs(np.trace(Hu)))
        cross_vals.append(abs(Hu[0, 1] + Hu[1, 0]))
    return id_vals, harm_vals, cross_vals


def run_counterexample_campaign(points, seed):
    rng = np.random.default_rng(seed)
    op_vals, hess_norms, harm_vals, cross_vals = quartic_residuals(
        type_iv_points(rng, max(points, 200))
    )
    # transfer through the bidisc coordinates: v with vanishing diagonal
    # second derivatives pulls back to a Euclidean-harmonic u whose real
    # cross derivative vanishes
    id_vals, harm2, cross2 = bidisc_transfer_residuals(rng, 20)
    return _report(
        "counterexample",
        [
            (
                "quartic-operator-annihilates",
                "|w1|^2 - |w2|^2 is killed by the fourth-family operator",
                op_vals,
                1e-10,
            ),
            (
                "not-pluriharmonic",
                "its mixed Hessian stays bounded away from zero",
                hess_norms,
                0.999,
                "min_above",
            ),
            (
                "euclidean-harmonic",
                "its Euclidean Laplacian vanishes",
                harm_vals,
                1e-10,
            ),
            (
                "mixed-cross-term",
                "the real cross derivative 2 Re u_{w1 wbar2} vanishes",
                cross_vals,
                1e-10,
            ),
            (
                "bidisc-second-derivative-identities",
                "diagonal second derivatives transform as the four-term sums",
                id_vals,
                1e-10,
            ),
            (
                "transferred-harmonicity",
                "pulled-back data is Euclidean harmonic",
                harm2,
                1e-10,
            ),
            (
                "transferred-cross-term",
                "pulled-back data has vanishing symmetrized cross derivative",
                cross2,
                1e-10,
            ),
        ],
    )
