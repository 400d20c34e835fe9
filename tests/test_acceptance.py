"""Acceptance battery: one test per headline guarantee of the package.

Each criterion prints a single PASS/FAIL line (bypassing pytest capture) so
the verdicts are visible in any log, then asserts. Tolerances are fixed here
on purpose; loosening them is a behavior change, not a test fix. The checks
themselves are the functions of huacheck.campaigns: a criterion whose seeds
line up with a campaign runs it and reads its records, the others call its
check functions with their own seeds.
"""

import sys
import time

import numpy as np
import pytest

from huacheck import campaigns, domains, hypergeom
from huacheck.domains import parse_spec, type_iii
from huacheck.fields import wirtinger_hessian


def _verdict(capsys, number, ok, detail=""):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, file=sys.stdout, flush=True)


def _worst(report):
    return {record.name: record.residual_max for record in report.records}


def test_criterion_1_kernel_annihilated_by_component_operators(capsys):
    start = time.monotonic()
    worst_fd = 0.0
    worst_exact = 0.0
    for name in ("I:2,2", "I:2,3", "II:2", "II:3", "III:4"):
        spec = parse_spec(name)
        pairs = campaigns.interior_boundary_pairs(spec, seed=0, count=50)
        fd_vals, exact_vals = campaigns.theorem22_residuals(spec, pairs)
        worst_fd = max(worst_fd, *fd_vals)
        worst_exact = max(worst_exact, *exact_vals)
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
        pairs = campaigns.interior_boundary_pairs(spec, seed=1, count=100)
        worst = max(worst, *campaigns.log_gradient_residuals(spec, pairs))
    ok = worst < 1e-13
    _verdict(capsys, 2, ok, f"rel={worst:.2e}")
    assert ok


def test_criterion_3_gram_complement_vanishing_and_control(capsys):
    spec = type_iii(4)
    pairs = campaigns.interior_boundary_pairs(spec, seed=2, count=20)
    worst_gram = max(
        float(np.linalg.norm(np.eye(4) - w.conj().T @ w))
        for _, w in pairs
    )
    worst_f = max(campaigns.gram_complement_norms(spec, pairs))
    (control,) = campaigns.gram_complement_norms(
        type_iii(3), campaigns.rank_deficient_pairs(seed=4, count=1)
    )
    ok = worst_gram < 1e-12 and worst_f < 1e-10 and control > 1e-3
    _verdict(capsys, 3, ok, f"gram={worst_gram:.2e} F={worst_f:.2e} control={control:.2e}")
    assert worst_gram < 1e-12
    assert worst_f < 1e-10
    assert control > 1e-3


def test_criterion_4_hypergeometric_suite(capsys):
    # the ODE record sums h'', the series F(a+2, b+2, c+2; t) with c - a - b
    # = 0 for n = 3, up to t = 0.9
    with pytest.warns(UserWarning, match="converges slowly"):
        report = campaigns.run_hypergeom_campaign(points=50, seed=6)
    worst = _worst(report)
    worst_ladder = worst["derivative-ladder"]
    worst_euler = worst["euler-transformation"]
    worst_log = worst["log-limit"]
    worst_ode = worst["radial-ode"]
    ok = (
        worst_ladder < 1e-10
        and worst_euler < 1e-10
        and worst_log < 1e-6
        and worst_ode < 1e-12
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
    assert worst_log < 1e-6
    assert worst_ode < 1e-12


def test_criterion_5_singularity_dichotomy(capsys):
    ok = True
    detail = []
    for p, q, n, kind, exponent in campaigns.SINGULARITY_CASES:
        if kind == "smooth":
            continue
        sc = hypergeom.classify_singularity(p, q, n)
        coefficient_error = abs(sc.coefficient / sc.coefficient_oracle - 1.0)
        case_ok = (
            sc.kind == kind
            and sc.exponent == exponent
            and sc.holdout_error < 1e-3
            and coefficient_error < 1e-4
        )
        ok = ok and case_ok
        detail.append(f"({p},{q},{n})={sc.kind}@{sc.holdout_error:.1e}")
    for p, q in ((0, 1), (2, 0), (0, 0)):
        sc = hypergeom.classify_singularity(p, q, 3)
        ok = ok and sc.kind == "smooth"
    _verdict(capsys, 5, ok, " ".join(detail))
    assert ok


def test_criterion_6_radial_extension_dirichlet(capsys):
    # no domains: only the radial Dirichlet checks, none of the Poisson ones
    worst = _worst(
        campaigns.run_dirichlet_campaign((), points=100, seed=7)
    )
    worst_interior = worst["radial-extension-annihilated"]
    worst_boundary = worst["boundary-trace"]
    ok = worst_interior < 1e-14 and worst_boundary < 1e-8
    _verdict(capsys, 6, ok, f"interior={worst_interior:.2e} boundary={worst_boundary:.2e}")
    assert worst_interior < 1e-14
    assert worst_boundary < 1e-8


def test_criterion_7_pullback_polarization_transport(capsys):
    worst = _worst(campaigns.run_embeddings_campaign(points=50, seed=8))
    worst_pull = max(
        worst["pullback-rank-one"],
        worst["pullback-symmetric"],
        worst["pullback-antisymmetric-corner"],
    )
    worst_polar = worst["polarization-roundtrip"]
    worst_transport = worst["hessian-transport"]
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
    rng = np.random.default_rng(9)
    pts = campaigns.type_iv_points(rng, 200)
    op_vals, hess_norms, _, _ = campaigns.quartic_residuals(pts)
    worst_op = max(op_vals)
    min_hess = min(hess_norms)
    # real data with vanishing coordinate-wise second derivatives on the
    # bidisc, composed with the linear bidisc coordinates of the domain
    inverse_map = campaigns.bidisc_inverse_map()
    worst_harm = 0.0
    worst_cross = 0.0
    for k in range(20):
        v = campaigns.coordinatewise_harmonic(rng).real_part()
        uu = v.compose_holomorphic(inverse_map, (1, 2))
        harm, cross = campaigns.euclidean_defects(wirtinger_hessian(uu, pts[k]))
        worst_harm = max(worst_harm, harm)
        worst_cross = max(worst_cross, cross)
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
        zs = domains.sample_interior(spec, seed=11, count=10)
        mass, repro = campaigns.poisson_z_scores(
            spec, zs, domains.SilovSample(spec, seed=10, count=100_000)
        )
        worst_sigma = max(mass + repro)
        ok = ok and worst_sigma < 3.0
        details.append(f"{spec.label()}={worst_sigma:.2f}sig")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _verdict(capsys, 9, ok, " ".join(details) + f" t={elapsed:.0f}s")
    assert ok
