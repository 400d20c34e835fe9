import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from huacheck import campaigns, dirichlet, domains, hypergeom, kernels, operators
from huacheck.domains import type_i, type_ii, type_iii
from huacheck.fields import PolyField, wirtinger_hessian


def test_bidegree_harmonic_rejects_non_harmonic_data():
    bad = PolyField((1, 2), {((1, 0), (1, 0)): 1.0})  # |z_1|^2
    with pytest.raises(ValueError):
        dirichlet.BidegreeHarmonic(1, 1, 2, bad)


@pytest.mark.parametrize(
    "p, q, n, field, match",
    [
        # z_1^2 is harmonic, but of bidegree (2, 0)
        (1, 1, 3, PolyField((1, 3), {((2, 0, 0), (0, 0, 0)): 1.0}), "bidegree"),
        # a bidegree-(1, 1) harmonic on C^2 handed to the ball B_3
        (1, 1, 3, PolyField((1, 2), {((1, 0), (0, 1)): 1.0}), r"over \(1, 3\)"),
        (-1, 0, 3, PolyField.constant((1, 3), 1.0), "non-negative"),
        (0, -1, 3, PolyField.constant((1, 3), 1.0), "non-negative"),
        (0, 0, 3, 1.0, "PolyField"),
    ],
    ids=["bidegree", "shape", "p", "q", "not-a-field"],
)
def test_bidegree_harmonic_rejects_data_it_cannot_carry(p, q, n, field, match):
    with pytest.raises(ValueError, match=match):
        dirichlet.BidegreeHarmonic(p, q, n, field)


def test_harmonic_projection_of_modulus_term():
    # the harmonic part of z_1 zbar_1 on C^n is z_1 zbar_1 - |z|^2 / n
    n = 3
    shape = (1, n)
    f = PolyField(shape, {((1, 0, 0), (1, 0, 0)): 1.0})
    h = dirichlet.harmonic_projection(f, 1, 1, n)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = abs(z[0]) ** 2 - float(np.vdot(z, z).real) / n
    assert_allclose(h(z), expected, atol=1e-12)


def _bihomogeneity_residual(f, rng, trials=5):
    """max |f(lam z) - lam^p lambar^q f(z)| over random scalings."""
    shape = f.field.shape
    worst = 0.0
    for _ in range(trials):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        lhs = f.field(lam * z)
        rhs = lam**f.p * np.conj(lam) ** f.q * f.field(z)
        worst = max(worst, abs(lhs - rhs))
    return worst


def test_make_bidegree_properties():
    rng = np.random.default_rng(1)
    for p, q in ((2, 1), (3, 2)):
        f = dirichlet.make_bidegree(p, q, 3, seed=p * 10 + q)
        assert not f.field.is_zero()
        assert _bihomogeneity_residual(f, rng) < 1e-9


def test_dirichlet_solution_matches_data_on_sphere():
    n = 3
    f = dirichlet.make_bidegree(1, 1, n, seed=2)
    u = dirichlet.solve_tilde([f], n)
    rng = np.random.default_rng(3)
    zs = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    assert np.max(np.abs(u.evaluate_many(zs) - u.boundary_trace(zs))) < 1e-8


def _campaign_extension():
    """The extension of z_1 zbar_2 on B_3 that verify dirichlet checks."""
    n = 3
    f = dirichlet.BidegreeHarmonic(
        1, 1, n, PolyField((1, n), {((1, 0, 0), (0, 1, 0)): 1.0})
    )
    return dirichlet.solve_tilde([f], n)


def test_modified_laplacian_annihilates_the_extension():
    # the FD oracle of the record's exact route
    n = 3
    u = _campaign_extension()
    spec = domains.ball(n)
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= rng.uniform(0.1, 0.9) / np.linalg.norm(z)
        z = z.reshape(1, n)
        assert abs(operators.apply(operators.modified_ball_coefficients(spec, z), u, z)) < 1e-6


def _ball_points(rng, count, n, low, high):
    zs = rng.standard_normal((count, 1, n)) + 1j * rng.standard_normal((count, 1, n))
    zs /= np.linalg.norm(zs, axis=2, keepdims=True)
    return zs * rng.uniform(low, high, (count, 1, 1))


def test_exact_hessian_agrees_with_the_fd_hessian():
    # one harmonic per bidegree kind, pq = 0 included, at radii up to 0.9
    n = 3
    parts = [
        dirichlet.make_bidegree(1, 1, n, seed=2),
        dirichlet.make_bidegree(2, 1, n, seed=3),
        dirichlet.make_bidegree(2, 0, n, seed=4),
    ]
    for u in (_campaign_extension(), dirichlet.solve_tilde(parts, n)):
        zs = _ball_points(np.random.default_rng(40), 8, n, 0.1, 0.9)
        exact = u.hessian_many(zs)
        fd = np.array([wirtinger_hessian(u, z) for z in zs])
        # FD accuracy relative to the largest entry: about 9e-8 here
        assert np.max(np.abs(exact - fd)) < 1e-6 * np.max(np.abs(exact))
        # a single point is a stack of one
        assert np.array_equal(u.hessian_many(zs[:1])[0], exact[0])


def test_solution_rejects_points_outside_the_closed_ball():
    u = _campaign_extension()
    zs = _ball_points(np.random.default_rng(42), 4, 3, 0.2, 0.8)
    zs[2] *= 1.5 / np.linalg.norm(zs[2])
    for method in (u.evaluate_many, u.hessian_many):
        with pytest.raises(ValueError, match="row 2 is outside the closed ball"):
            method(zs)
    with pytest.raises(ValueError, match="outside the closed ball"):
        u(np.full(3, np.nan))


def test_exact_hessian_needs_points_inside_the_ball():
    # h'' is a 2F1 series on [0, 1): the sphere has no Hessian from it
    u = _campaign_extension()
    zs = _ball_points(np.random.default_rng(43), 3, 3, 0.2, 0.8)
    zs[1] /= np.linalg.norm(zs[1])
    with pytest.raises(ValueError, match="inside the ball"):
        u.hessian_many(zs)


@pytest.mark.parametrize("mutant", [None, "h", "h'", "coefficients"])
def test_radial_extension_record_fails_under_each_mutant(monkeypatch, mutant):
    # the exact record reads 1.5e-16 at seed 0; h or h' scaled by 1 + 1e-6
    # reads 2.9e-7, and the operator tensor taken at z (1 + 1e-3) 2.2e-3
    value, derivative = hypergeom.RadialProfile.value, hypergeom.RadialProfile.derivative
    coefficients = operators.modified_ball_coefficients
    if mutant == "h":
        monkeypatch.setattr(
            hypergeom.RadialProfile, "value", lambda self, t: value(self, t) * (1.0 + 1e-6)
        )
    elif mutant == "h'":

        def scaled(self, t, order=1):
            return derivative(self, t, order) * (1.0 + 1e-6 if order == 1 else 1.0)

        monkeypatch.setattr(hypergeom.RadialProfile, "derivative", scaled)
    elif mutant == "coefficients":
        monkeypatch.setattr(
            operators,
            "modified_ball_coefficients",
            lambda spec, z: coefficients(spec, z * (1.0 + 1e-3)),
        )
    report = campaigns.run_dirichlet_campaign((), points=50, seed=0)
    [record] = [r for r in report.records if r.name == "radial-extension-annihilated"]
    assert record.passed == (mutant is None)


def test_holomorphic_data_extends_to_itself():
    n = 3
    f = dirichlet.make_bidegree(2, 0, n, seed=5)
    u = dirichlet.solve_tilde([f], n)
    rng = np.random.default_rng(6)
    z = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    z /= max(1.0, 2.0 * np.linalg.norm(z))
    assert abs(u(z) - f.field(z)) < 1e-12


def test_stack_evaluator_matches_scalar_calls():
    n = 3
    parts = [
        dirichlet.make_bidegree(1, 1, n, seed=2),
        dirichlet.make_bidegree(2, 1, n, seed=3),
        # pq = 0 data keeps the profile 1
        dirichlet.make_bidegree(2, 0, n, seed=4),
        dirichlet.make_bidegree(0, 0, n, seed=5),
    ]
    u = dirichlet.solve_tilde(parts, n)
    rng = np.random.default_rng(8)
    zs = rng.standard_normal((40, 1, n)) + 1j * rng.standard_normal((40, 1, n))
    zs /= np.linalg.norm(zs, axis=2, keepdims=True)
    # 30 interior rows, then 10 rows at |z| = 1, where the profile is clamped
    zs[:30] *= rng.uniform(0.0, 0.99, (30, 1, 1))
    zs[0] = 0.0
    # a single point is a stack of one row, so the two agree bit for bit
    expected = np.array([u(z) for z in zs])
    assert np.array_equal(u.evaluate_many(zs), expected)
    single = dirichlet.solve_tilde(parts[2:], n)
    assert np.array_equal(single.evaluate_many(zs), [single(z) for z in zs])


def test_solve_tilde_checks_dimensions():
    f = dirichlet.make_bidegree(1, 1, 3, seed=7)
    with pytest.raises(ValueError):
        dirichlet.solve_tilde([f], 4)


def test_poisson_solve_mass_and_reproduction():
    spec = type_ii(2)
    batch = domains.SilovSample(spec, seed=8, count=4000)
    z = domains.sample_interior(spec, seed=9, count=1)[0]
    one = PolyField.constant(spec.shape, 1.0)
    [[(mean, se)]] = dirichlet.poisson_solve(spec, [one], [z], batch=batch)
    assert abs(mean - 1.0) < 4.0 * se
    # a pluriharmonic boundary function is reproduced by the integral
    e0 = (0, 1, 0, 0)
    z0 = (0, 0, 0, 0)
    phi = PolyField(spec.shape, {(e0, z0): 0.5, (z0, e0): 0.5})
    [[(mean, se)]] = dirichlet.poisson_solve(spec, [phi], [z], batch=batch)
    assert abs(mean - z.reshape(-1)[1].real) < 4.0 * se


def test_poisson_solve_field_list_matches_single_field_calls():
    spec = type_ii(2)
    batch = domains.SilovSample(spec, seed=8, count=2000)
    z = domains.sample_interior(spec, seed=9, count=1)[0]
    fields = [
        PolyField.constant(spec.shape, 1.0),
        PolyField(spec.shape, {((0, 1, 0, 0), (0, 0, 0, 0)): 1.0}),
        PolyField(spec.shape, {((1, 0, 0, 0), (0, 0, 0, 1)): 1.0}),
    ]
    [together] = dirichlet.poisson_solve(spec, fields, [z], batch=batch)
    separate = [
        dirichlet.poisson_solve(spec, [f], [z], batch=batch)[0][0] for f in fields
    ]
    assert together == separate


def test_poisson_solve_is_mean_and_stderr_of_the_stacked_kernel():
    # three blocks, merged pairwise, against two passes over the whole sample
    spec = type_iii(4)
    count = 2 * domains.SILOV_CHUNK + 37
    z = domains.sample_interior(spec, seed=11, count=1)[0]
    phi = PolyField(spec.shape, {((0, 1) + (0,) * 14, (0,) * 15 + (1,)): 1.0})
    batch = domains.SilovSample(spec, seed=10, count=count)
    [[(mean, se)]] = dirichlet.poisson_solve(spec, [phi], [z], batch=batch)
    ws = domains.sample_silov(spec, seed=10, count=count)
    vals = kernels.poisson_szego(spec, z, ws) * phi.evaluate_many(ws)
    expected_mean = np.mean(vals)
    expected_se = np.sqrt(np.mean(np.abs(vals - expected_mean) ** 2) / count)
    assert_allclose(mean, expected_mean, rtol=1e-13)
    assert_allclose(se, expected_se, rtol=1e-13)


def test_poisson_solve_over_blocks_of_growing_size():
    # the products buffer grows for the 40-draw block and is reused for the
    # 20-draw one
    spec = type_ii(2)
    ws = domains.sample_silov(spec, seed=30, count=65)
    z = domains.sample_interior(spec, seed=31, count=1)[0]
    one = PolyField.constant(spec.shape, 1.0)
    [[(mean, se)]] = dirichlet.poisson_solve(spec, [one], [z], np.split(ws, [5, 45]))
    vals = kernels.poisson_szego(spec, z, ws)
    expected_mean = np.mean(vals)
    expected_se = np.sqrt(np.mean((vals - expected_mean) ** 2) / len(ws))
    assert_allclose(mean, expected_mean, rtol=1e-13)
    assert_allclose(se, expected_se, rtol=1e-13)


def test_poisson_solve_of_one_at_the_origin_has_zero_stderr():
    # P(0, w) = 1 exactly, so every block has variance 0 and so has the merge
    spec = type_ii(3)
    batch = domains.SilovSample(spec, seed=22, count=domains.SILOV_CHUNK + 37)
    one = PolyField.constant(spec.shape, 1.0)
    [[(mean, se)]] = dirichlet.poisson_solve(spec, [one], [np.zeros(spec.shape)], batch)
    assert mean == 1.0
    assert se == 0.0


def test_poisson_solve_streams_the_sample():
    # the 100,000 draws of III(4) alone take 25.6 MB; the solve holds at
    # most two blocks of 4096 (1 MB each: the one summed and the one the
    # worker draws, whose temporaries stay under 1 MB more) beside the
    # kernel's generic-norm buffers for the 10 points and the (point, field,
    # draw) products (1.7 MB together). It peaks at 6.3 MB when those
    # buffers are first made and at 5.1 MB on a later call, against 5.7 and
    # 4.6 MB when each block was dropped before the next was drawn (bytes /
    # 1e6, tracemalloc)
    spec = type_iii(4)
    zs = domains.sample_interior(spec, seed=23, count=10)
    one = PolyField.constant(spec.shape, 1.0)
    batch = domains.SilovSample(spec, seed=24, count=100_000)
    tracemalloc.start()
    try:
        dirichlet.poisson_solve(spec, [one], zs, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


POISSON_WEIGHT_DOMAINS = ["I:2,3", "I:1,3", "I:3,3", "II:3", "III:4", "III:6"]


@pytest.mark.parametrize(
    "domain, margin",
    [pytest.param(d, None, id=d) for d in POISSON_WEIGHT_DOMAINS]
    + [pytest.param(d, 1e-3, id=f"{d}-margin-1e-3") for d in POISSON_WEIGHT_DOMAINS],
)
def test_poisson_solve_weights_match_per_row_kernel(domain, margin):
    spec = domains.parse_spec(domain)
    batch = domains.SilovSample(spec, seed=12, count=300)
    z = domains.sample_interior(spec, seed=13, count=1)[0]
    rtol = 1e-12
    if margin is not None:
        # operator norm sqrt(1 - margin) puts z at that membership margin
        z *= np.sqrt(1.0 - margin) / np.linalg.norm(z, 2)
        assert domains.membership_margin(spec, z) == pytest.approx(margin)
        rtol = 1e-10
    one = PolyField.constant(spec.shape, 1.0)
    [[(mean, se)]] = dirichlet.poisson_solve(spec, [one], [z], batch=batch)
    ws = domains.sample_silov(spec, seed=12, count=300)
    weights = np.array([kernels.poisson_szego(spec, z, w) for w in ws])
    expected_mean = np.mean(weights)
    expected_se = np.sqrt(np.mean((weights - expected_mean) ** 2) / len(weights))
    assert_allclose(mean, expected_mean, rtol=rtol)
    assert_allclose(se, expected_se, rtol=rtol)


@pytest.mark.parametrize("margin", [0.5, 1e-3])
@pytest.mark.parametrize("domain", ["I:2,3", "II:3", "III:4", "I:2,2", "II:2"])
def test_kernel_dets_across_block_boundaries(domain, margin):
    spec = domains.parse_spec(domain)
    ws = domains.sample_silov(spec, seed=18, count=2 * domains.SILOV_CHUNK + 37)
    z = domains.sample_interior(spec, seed=19, count=1)[0]
    z *= np.sqrt(1.0 - margin) / np.linalg.norm(z, 2)
    assert domains.membership_margin(spec, z) == pytest.approx(margin)
    expected = np.linalg.det(np.eye(spec.m) - z @ ws.conj().transpose(0, 2, 1))
    points = kernels.poisson_points(spec, z)
    [dets] = kernels._generic_norm_dets(spec, ws, points.coefficients)
    assert_allclose(np.abs(dets), np.abs(expected), rtol=1e-12)


def test_kernel_dets_working_set_is_one_block():
    spec = type_iii(4)
    ws = domains.sample_silov(spec, seed=20, count=8 * domains.SILOV_CHUNK)
    points = kernels.poisson_points(spec, domains.sample_interior(spec, seed=21, count=1)[0])
    tracemalloc.start()
    try:
        kernels._generic_norm_dets(spec, ws, points.coefficients)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ws.nbytes / 2


def test_poisson_solve_point_stack_equals_one_point_calls():
    spec = type_i(2, 3)
    batch = domains.SilovSample(spec, seed=15, count=2000)
    zs = domains.sample_interior(spec, seed=16, count=3)
    fields = [
        PolyField.constant(spec.shape, 1.0),
        PolyField(spec.shape, {((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)): 1.0}),
    ]
    stacked = dirichlet.poisson_solve(spec, fields, zs, batch=batch)
    single = [dirichlet.poisson_solve(spec, fields, [z], batch=batch)[0] for z in zs]
    assert stacked == single


def test_poisson_solve_rejects_point_outside_the_domain():
    spec = type_ii(2)
    batch = domains.SilovSample(spec, seed=17, count=100)
    one = PolyField.constant(spec.shape, 1.0)
    with pytest.raises(ValueError, match="not interior"):
        dirichlet.poisson_solve(
            spec, [one], [np.zeros(spec.shape), 1.5 * np.eye(2)], batch=batch
        )


def test_poisson_solve_checks_and_prepares_its_points_once(monkeypatch):
    # one membership check and one preparation per solve, one block sum per
    # block: a sample of four blocks
    spec = type_ii(2)
    zs = domains.sample_interior(spec, seed=9, count=3)
    batch = domains.SilovSample(spec, seed=8, count=3 * domains.SILOV_CHUNK + 5)
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def spy(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, spy)

    counted(kernels, "membership_margin")
    counted(dirichlet, "poisson_points")
    counted(dirichlet, "poisson_block")
    one = PolyField.constant(spec.shape, 1.0)
    dirichlet.poisson_solve(spec, [one], zs, batch)
    assert calls.count("membership_margin") == 1
    assert calls.count("poisson_points") == 1
    assert calls.count("poisson_block") == 4


def test_poisson_solve_rejects_a_point_before_drawing_a_block(monkeypatch):
    spec = type_ii(2)
    batch = domains.SilovSample(spec, seed=17, count=100)

    def sample_silov(*args):
        raise AssertionError("a Silov block was drawn")

    monkeypatch.setattr(domains, "sample_silov", sample_silov)
    one = PolyField.constant(spec.shape, 1.0)
    with pytest.raises(ValueError, match="point 1 is not interior"):
        dirichlet.poisson_solve(
            spec, [one], [np.zeros(spec.shape), 1.5 * np.eye(2)], batch=batch
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_poisson_solve_rejects_a_nan_point_before_the_kernel():
    # NaN is not > 0: the point fails the kernel's membership check with its
    # margin, before det V(z) can raise a RuntimeWarning
    spec = type_ii(2)
    batch = domains.SilovSample(spec, seed=17, count=100)
    one = PolyField.constant(spec.shape, 1.0)
    nan_point = np.full(spec.shape, np.nan, dtype=complex)
    message = r"point 0 is not interior to II\(2\) \(membership margin nan\)"
    with pytest.raises(ValueError, match=message):
        dirichlet.poisson_solve(spec, [one], [nan_point], batch=batch)


def test_poisson_solve_rejects_empty_boundary_fields():
    spec = type_ii(2)
    batch = domains.SilovSample(spec, seed=17, count=10)
    with pytest.raises(ValueError, match="boundary_fields is empty"):
        dirichlet.poisson_solve(spec, [], [np.zeros(spec.shape)], batch=batch)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_poisson_solve_rejects_a_sample_without_draws():
    spec = type_ii(2)
    one = PolyField.constant(spec.shape, 1.0)
    z = np.zeros(spec.shape)
    for batch in (domains.SilovSample(spec, seed=0, count=0), []):
        with pytest.raises(ValueError, match="boundary batch has no draws"):
            dirichlet.poisson_solve(spec, [one], [z], batch)


def test_poisson_solve_rejects_an_empty_block():
    spec = type_ii(2)
    one = PolyField.constant(spec.shape, 1.0)
    ws = domains.sample_silov(spec, seed=0, count=10)
    with pytest.raises(ValueError, match="boundary batch holds an empty block"):
        dirichlet.poisson_solve(spec, [one], [np.zeros(spec.shape)], np.split(ws, [5, 5]))


def test_poisson_solve_rejects_a_point_of_the_wrong_size():
    spec = type_ii(2)
    batch = domains.SilovSample(spec, seed=17, count=100)
    one = PolyField.constant(spec.shape, 1.0)
    with pytest.raises(ValueError, match="reshape"):
        dirichlet.poisson_solve(spec, [one], [np.zeros(3)], batch=batch)


def test_poisson_solve_rejects_batch_of_wrong_shape():
    spec = type_i(2, 3)
    # rows of I(2,2), not of I(2,3)
    batch = domains.SilovSample(type_i(2, 2), seed=14, count=10)
    one = PolyField.constant(spec.shape, 1.0)
    with pytest.raises(ValueError, match="boundary batch rows"):
        dirichlet.poisson_solve(spec, [one], [np.zeros(spec.shape)], batch=batch)


def test_poisson_solve_raises_a_sampler_error_from_the_worker(monkeypatch):
    # a NaN in the second block of II(3) breaks the sampler's symmetry gate,
    # which runs on the worker thread; its ValueError reaches the caller
    spec = type_ii(3)
    haar_stack, threads = domains._haar_stack, []

    def nan_in_partial_block(rng, k, n, cols):
        threads.append(threading.current_thread())
        u = haar_stack(rng, k, n, cols)
        if k < domains.SILOV_CHUNK:
            u[-1, 0, 0] = np.nan
        return u

    monkeypatch.setattr(domains, "_haar_stack", nan_in_partial_block)
    batch = domains.SilovSample(spec, seed=6, count=domains.SILOV_CHUNK + 37)
    one = PolyField.constant(spec.shape, 1.0)
    before = threading.active_count()
    with pytest.raises(ValueError, match="breaks the family symmetry"):
        dirichlet.poisson_solve(spec, [one], [np.zeros(spec.shape)], batch)
    assert threading.active_count() == before
    assert len(threads) == 2 and threading.main_thread() not in threads


def test_poisson_solve_stops_drawing_at_a_block_of_the_wrong_shape():
    spec = type_ii(2)
    ws = domains.sample_silov(spec, seed=0, count=30)
    drawn = []

    def batch():
        # the second block has rows of I(2,3); the third is never drawn
        for block in (ws[:10], np.zeros((10, 2, 3), dtype=complex), ws[20:]):
            drawn.append(len(block))
            yield block

    one = PolyField.constant(spec.shape, 1.0)
    before = threading.active_count()
    with pytest.raises(ValueError, match="boundary batch rows"):
        dirichlet.poisson_solve(spec, [one], [np.zeros(spec.shape)], batch())
    assert threading.active_count() == before
    assert drawn == [10, 10]


def test_poisson_solve_waits_for_the_draw_in_flight_when_a_block_fails():
    spec = type_ii(2)
    ws = domains.sample_silov(spec, seed=0, count=20)
    drawing, finished = threading.Event(), []

    def batch():
        yield ws[:10]
        # the worker is still drawing this block when the first one fails
        drawing.set()
        time.sleep(0.2)
        finished.append(True)
        yield ws[10:]

    class FailingField:
        def evaluate_many(self, block):
            assert drawing.wait(timeout=10)
            raise ValueError("the field cannot be evaluated")

    before = threading.active_count()
    with pytest.raises(ValueError, match="cannot be evaluated"):
        dirichlet.poisson_solve(spec, [FailingField()], [np.zeros(spec.shape)], batch())
    assert finished == [True]
    assert threading.active_count() == before


def test_poisson_solve_merges_drawn_blocks_in_order_under_fast_switching():
    # 200 blocks drawn on the worker from one Generator, with the interpreter
    # switching threads every microsecond, give the bits of the same rows
    # drawn at once and handed over as a list of blocks
    spec = type_iii(4)
    zs = domains.sample_interior(spec, seed=8, count=3)
    one = PolyField.constant(spec.shape, 1.0)

    def batch():
        rng = np.random.default_rng(9)
        for _ in range(200):
            yield domains.sample_silov(spec, rng, 5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        streamed = dirichlet.poisson_solve(spec, [one], zs, batch())
    finally:
        sys.setswitchinterval(interval)
    blocks = np.split(domains.sample_silov(spec, seed=9, count=1000), 200)
    assert streamed == dirichlet.poisson_solve(spec, [one], zs, blocks)
