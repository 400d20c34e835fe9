"""Acceptance battery: one test per headline guarantee of the package.

Each criterion prints a single PASS/FAIL line (bypassing pytest capture) so
the verdicts are visible in any log, then asserts. Tolerances are fixed here
on purpose; loosening them is a behavior change, not a test fix.
"""

import sys
import time
import warnings

import numpy as np
import pytest

from huacheck import dirichlet, domains, embeddings, hypergeom, kernels, operators
from huacheck.domains import (
    MatrixPoint,
    parse_spec,
    type_iii,
    type_iv,
)
from huacheck.fields import PolyField, random_poly_field, wirtinger_hessian
from huacheck.operators import OperatorId


def _verdict(capsys, number, ok, detail=""):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, file=sys.stdout, flush=True)


def _interior_boundary_pairs(spec, seed, count):
    zs = domains.sample_interior(spec, seed, count)
    ws = domains.sample_silov(spec, seed + 1, count)
    return [(z, MatrixPoint(spec, w)) for z, w in zip(zs, ws)]


def test_criterion_1_kernel_annihilated_by_component_operators(capsys):
    start = time.monotonic()
    worst_fd = 0.0
    worst_exact = 0.0
    for name in ("I:2,2", "I:2,3", "II:2", "II:3", "III:4"):
        spec = parse_spec(name)
        for zpt, wpt in _interior_boundary_pairs(spec, seed=0, count=50):
            r_fd, r_exact = kernels.check_theorem22(spec, zpt, wpt)
            worst_fd = max(worst_fd, r_fd)
            worst_exact = max(worst_exact, r_exact)
    elapsed = time.monotonic() - start
    ok = worst_fd < 1e-6 and worst_exact < 1e-9 and elapsed < 120.0
    _verdict(capsys, 1, ok, f"fd={worst_fd:.2e} exact={worst_exact:.2e} t={elapsed:.1f}s")
    assert worst_fd < 1e-6
    assert worst_exact < 1e-9
    assert elapsed < 120.0


def test_criterion_2_log_gradient_closed_forms(capsys):
    worst = 0.0
    for name in ("II:2", "II:3", "III:4"):
        spec = parse_spec(name)
        for zpt, wpt in _interior_boundary_pairs(spec, seed=1, count=100):
            c, cb = kernels.log_gradients_closed(spec, zpt.value, wpt.value)
            cf, cbf = kernels.log_gradients_fd(spec, zpt.value, wpt.value)
            scale = max(1.0, float(np.max(np.abs(c))), float(np.max(np.abs(cb))))
            worst = max(
                worst,
                float(max(np.max(np.abs(c - cf)), np.max(np.abs(cb - cbf)))) / scale,
            )
    ok = worst < 1e-6
    _verdict(capsys, 2, ok, f"rel={worst:.2e}")
    assert ok


def test_criterion_3_gram_complement_vanishing_and_control(capsys):
    spec = type_iii(4)
    worst_gram = 0.0
    worst_f = 0.0
    zs = domains.sample_interior(spec, seed=2, count=20)
    ws = domains.sample_silov(spec, seed=3, count=20)
    for zpt, w in zip(zs, ws):
        worst_gram = max(
            worst_gram, float(np.linalg.norm(np.eye(4) - w.conj().T @ w))
        )
        worst_f = max(
            worst_f,
            float(np.linalg.norm(kernels.identity_tensors(spec, zpt.value, w).F)),
        )
    spec3 = type_iii(3)
    z3 = domains.sample_interior(spec3, seed=4, count=1)[0]
    w3 = domains.rank_deficient_pseudo_boundary(3, seed=5)
    control = float(np.linalg.norm(kernels.identity_tensors(spec3, z3.value, w3.value).F))
    ok = worst_gram < 1e-12 and worst_f < 1e-10 and control > 1e-3
    _verdict(capsys, 3, ok, f"gram={worst_gram:.2e} F={worst_f:.2e} control={control:.2e}")
    assert worst_gram < 1e-12
    assert worst_f < 1e-10
    assert control > 1e-3


def test_criterion_4_hypergeometric_suite(capsys):
    rng = np.random.default_rng(6)
    worst_ladder = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.2, 3.0)
            c = rng.uniform(a + b + 0.5, a + b + 4.0)
            t = rng.uniform(0.0, 0.8)
            lhs = hypergeom.gauss_2f1_derivative(a, b, c, t)
            rhs = hypergeom.gauss_2f1_derivative_series(a, b, c, t)
            worst_ladder = max(worst_ladder, abs(lhs - rhs) / max(1.0, abs(rhs)))
        worst_euler = 0.0
        for a, b, s in ((1.0, 1.0, 0.5), (1.5, 1.5, 1.0), (2.0, 1.0, 0.5)):
            for t in np.linspace(0.0, 0.99, 34):
                worst_euler = max(
                    worst_euler, hypergeom.euler_identity_residual(a, b, s, t)
                )
    worst_log = 0.0
    for a, b in ((1.0, 1.0), (1.5, 1.5)):
        _, twopoint = hypergeom.log_limit_estimate(a, b, j=14)
        target = hypergeom.log_limit_value(a, b)
        worst_log = max(worst_log, abs(twopoint - target) / target)
    worst_ode = 0.0
    for p, q, n in ((1, 1, 2), (1, 1, 3), (2, 1, 3), (2, 2, 5)):
        profile = hypergeom.RadialProfile(p, q, n)
        for t in np.linspace(0.1, 0.9, 9):
            worst_ode = max(worst_ode, abs(profile.ode_residual(t)))
    ok = (
        worst_ladder < 1e-10
        and worst_euler < 1e-10
        and worst_log < 0.01
        and worst_ode < 1e-8
    )
    _verdict(
        capsys,
        4,
        ok,
        f"ladder={worst_ladder:.2e} euler={worst_euler:.2e} "
        f"log={worst_log:.2e} ode={worst_ode:.2e}",
    )
    assert worst_ladder < 1e-10
    assert worst_euler < 1e-10
    assert worst_log < 0.01
    assert worst_ode < 1e-8


def test_criterion_5_singularity_dichotomy(capsys):
    ok = True
    detail = []
    for p, q, n, kind, exponent in (
        (1, 1, 3, "log-type", 2.0),
        (2, 2, 5, "log-type", 3.0),
        (1, 1, 2, "half-power", 1.5),
        (1, 1, 4, "half-power", 2.5),
    ):
        sc = hypergeom.classify_singularity(p, q, n)
        case_ok = (
            sc.kind == kind
            and sc.exponent == exponent
            and sc.coefficient != 0.0
            and sc.fit_residual < 0.05
        )
        ok = ok and case_ok
        detail.append(f"({p},{q},{n})={sc.kind}@{sc.fit_residual:.1e}")
    for p, q in ((0, 1), (2, 0), (0, 0)):
        sc = hypergeom.classify_singularity(p, q, 3)
        ok = ok and sc.kind == "smooth"
    _verdict(capsys, 5, ok, " ".join(detail))
    assert ok


def test_criterion_6_radial_extension_dirichlet(capsys):
    n = 3
    f = dirichlet.BidegreeHarmonic(
        1, 1, n, PolyField((1, n), {((1, 0, 0), (0, 1, 0)): 1.0})
    )
    u = dirichlet.solve_tilde([f], n)
    field = u.as_field()
    spec = domains.ball(n)
    rng = np.random.default_rng(7)
    worst_interior = 0.0
    for _ in range(100):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= rng.uniform(0.1, 0.9) / np.linalg.norm(z)
        pt = MatrixPoint(spec, z.reshape(1, n))
        worst_interior = max(
            worst_interior, abs(operators.apply(OperatorId("tilde"), field, pt))
        )
    worst_boundary = 0.0
    for _ in range(1000):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z /= np.linalg.norm(z)
        worst_boundary = max(worst_boundary, abs(u(z) - f.field(z)))
    ok = worst_interior < 1e-6 and worst_boundary < 1e-8
    _verdict(capsys, 6, ok, f"interior={worst_interior:.2e} boundary={worst_boundary:.2e}")
    assert worst_interior < 1e-6
    assert worst_boundary < 1e-8


def test_criterion_7_pullback_polarization_transport(capsys):
    rng = np.random.default_rng(8)

    def unit(k):
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return v / np.linalg.norm(v)

    def ball_point(k):
        return unit(k) * rng.uniform(0.1, 0.7)

    worst_pull = 0.0
    for _ in range(50):
        e = embeddings.type_i_embedding(unit(2), 3)
        u = random_poly_field((2, 3), rng, degree=4, n_terms=8)
        worst_pull = max(
            worst_pull, abs(embeddings.pullback_residual(e, u, ball_point(3)))
        )
    for _ in range(50):
        e = embeddings.type_ii_embedding(domains.haar_unitary(rng, 3))
        u = random_poly_field((3, 3), rng, degree=2, n_terms=6)
        worst_pull = max(
            worst_pull, abs(embeddings.pullback_residual(e, u, ball_point(3)))
        )
    e3 = embeddings.type_iii_embedding(4)
    for _ in range(50):
        u = random_poly_field((4, 4), rng, degree=2, n_terms=30)
        worst_pull = max(
            worst_pull, abs(embeddings.pullback_residual(e3, u, ball_point(3)))
        )
    worst_polar = 0.0
    for _ in range(100):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rec = embeddings.polarization_recover(
            lambda xi: complex(np.asarray(xi) @ M @ np.conj(np.asarray(xi))), 4
        )
        worst_polar = max(worst_polar, float(np.max(np.abs(M - rec))))
    shape2 = (1, 2)
    c0 = PolyField.coordinate(shape2, 0)
    c1 = PolyField.coordinate(shape2, 1)
    bidisc_map = [c0 + c1 * 1j, c0 - c1 * 1j]
    shape3 = (1, 3)
    coords = [PolyField.coordinate(shape3, a) for a in range(3)]
    zero3 = PolyField(shape3, {})
    anti_map = [
        zero3, coords[0], coords[1],
        coords[0] * -1.0, zero3, coords[2],
        coords[1] * -1.0, coords[2] * -1.0, zero3,
    ]
    worst_transport = 0.0
    for _ in range(20):
        u = random_poly_field(shape2, rng, degree=3, n_terms=6)
        worst_transport = max(
            worst_transport,
            embeddings.hessian_transport_check(
                bidisc_map, shape2, u, ball_point(2) * 0.5
            ),
        )
        u = random_poly_field((3, 3), rng, degree=3, n_terms=6)
        worst_transport = max(
            worst_transport,
            embeddings.hessian_transport_check(anti_map, shape3, u, ball_point(3) * 0.5),
        )
    ok = worst_pull < 1e-9 and worst_polar < 1e-12 and worst_transport < 1e-9
    _verdict(
        capsys,
        7,
        ok,
        f"pullback={worst_pull:.2e} polar={worst_polar:.2e} "
        f"transport={worst_transport:.2e}",
    )
    assert worst_pull < 1e-9
    assert worst_polar < 1e-12
    assert worst_transport < 1e-9


def test_criterion_8_vector_domain_counterexample(capsys):
    spec = type_iv(2)
    u = PolyField((1, 2), {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): -1.0})
    rng = np.random.default_rng(9)
    worst_op = 0.0
    min_hess = np.inf
    pts = []
    while len(pts) < 200:
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= rng.uniform(0.05, 0.55) / np.linalg.norm(z)
        if domains.membership_margin(spec, z.reshape(1, 2)) <= 0.05:
            continue
        pts.append(z)
        pt = MatrixPoint(spec, z.reshape(1, 2))
        worst_op = max(worst_op, abs(operators.apply(OperatorId("delta4"), u, pt)))
        min_hess = min(min_hess, float(np.linalg.norm(wirtinger_hessian(u, z))))
    # real data with vanishing coordinate-wise second derivatives on the
    # bidisc, composed with the linear bidisc coordinates of the domain
    shape2 = (1, 2)
    c0 = PolyField.coordinate(shape2, 0)
    c1 = PolyField.coordinate(shape2, 1)
    inverse_map = [(c0 + c1) * 0.5, (c0 - c1) * (-0.5j)]
    worst_harm = 0.0
    worst_cross = 0.0
    for k in range(20):
        terms = {}
        for _ in range(6):
            a = int(rng.integers(0, 3))
            b = int(rng.integers(0, 3))
            c = 0 if a else int(rng.integers(0, 3))
            d = 0 if b else int(rng.integers(0, 3))
            coef = complex(rng.standard_normal(), rng.standard_normal())
            key = ((a, b), (c, d))
            terms[key] = terms.get(key, 0.0) + coef
        v = PolyField(shape2, terms).real_part()
        uu = v.compose_holomorphic(inverse_map, shape2)
        w0 = pts[k]
        H = wirtinger_hessian(uu, w0)
        worst_harm = max(worst_harm, abs(np.trace(H)))
        worst_cross = max(worst_cross, abs(2.0 * H[0, 1].real))
    ok = (
        worst_op < 1e-10
        and min_hess >= 1.0
        and worst_harm < 1e-10
        and worst_cross < 1e-10
    )
    _verdict(
        capsys,
        8,
        ok,
        f"op={worst_op:.2e} hess={min_hess:.2f} harm={worst_harm:.2e} "
        f"cross={worst_cross:.2e}",
    )
    assert worst_op < 1e-10
    assert min_hess >= 1.0
    assert worst_harm < 1e-10
    assert worst_cross < 1e-10


def test_criterion_9_poisson_reproduction(capsys):
    start = time.monotonic()
    ok = True
    details = []
    for name in ("I:2,2", "II:2", "III:4"):
        spec = parse_spec(name)
        batch = domains.sample_silov(spec, seed=10, count=100_000)
        one = PolyField.constant(spec.shape, 1.0)
        size = spec.size
        e0 = tuple(1 if i == 1 else 0 for i in range(size))
        z0 = tuple([0] * size)
        phi = PolyField(spec.shape, {(e0, z0): 0.5, (z0, e0): 0.5})
        worst_sigma = 0.0
        zs = [zp.value for zp in domains.sample_interior(spec, seed=11, count=10)]
        solved = dirichlet.poisson_solve(spec, (one, phi), zs, batch=batch)
        for z, ((mass, mass_se), (repro, repro_se)) in zip(zs, solved):
            worst_sigma = max(worst_sigma, abs(mass - 1.0) / mass_se)
            target = z.reshape(-1)[1].real
            worst_sigma = max(worst_sigma, abs(repro - target) / repro_se)
        ok = ok and worst_sigma < 3.0
        details.append(f"{spec.label()}={worst_sigma:.2f}sig")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _verdict(capsys, 9, ok, " ".join(details) + f" t={elapsed:.0f}s")
    assert ok
