import numpy as np
import pytest
from numpy.testing import assert_allclose

from huacheck import campaigns, domains
from huacheck.domains import type_i, type_ii, type_iii, type_iv
from huacheck.fields import OpaqueField, PolyField, random_poly_field, wirtinger_hessian
from huacheck.operators import (
    apply,
    coefficients,
    component_values,
    component_weights,
    constrained_hessian,
    delta4_coefficients,
    direction_matrix,
)


def test_unknown_operator_kind_is_rejected():
    u = PolyField.constant((1, 2), 1.0)
    with pytest.raises(ValueError, match="unknown operator kind"):
        apply("delta5", u, domains.ball(2), np.zeros((1, 2), dtype=complex))


def test_family_compatibility():
    spec, z = type_ii(2), np.zeros((2, 2), dtype=complex)
    u = PolyField.constant((2, 2), 1.0)
    with pytest.raises(ValueError):
        apply("delta1", u, spec, z)
    with pytest.raises(ValueError):
        apply("ball", u, spec, z)


def test_direction_matrix_symmetric_family():
    D = direction_matrix(type_ii(2))
    # the off-diagonal direction is E_01 + E_10, the diagonal ones are plain
    v = np.zeros(4)
    v[1] = 1.0
    assert_allclose(D[1], [0.0, 1.0, 1.0, 0.0])
    assert_allclose(D[0], [1.0, 0.0, 0.0, 0.0])


def test_direction_matrix_antisymmetric_family():
    D = direction_matrix(type_iii(2))
    assert_allclose(D[1], [0.0, 1.0, -1.0, 0.0])
    assert_allclose(D[0], np.zeros(4))


def _direction_matrix_reference(spec):
    """The double loop over (j, a) that the permuted identity replaced."""
    m, n = spec.shape
    D = np.zeros((m * n, m * n))
    if spec.family == "II":
        for j in range(n):
            for a in range(n):
                D[j * n + a, j * n + a] += 1.0
                if j != a:
                    D[j * n + a, a * n + j] += 1.0
    elif spec.family == "III":
        for j in range(n):
            for a in range(n):
                if j != a:
                    D[j * n + a, j * n + a] += 1.0
                    D[j * n + a, a * n + j] -= 1.0
    else:
        D = np.eye(m * n)
    return D


@pytest.mark.parametrize(
    "spec",
    [type_i(2, 3)] + [type_ii(n) for n in range(1, 5)] + [type_iii(n) for n in range(2, 6)],
    ids=lambda spec: spec.label(),
)
def test_direction_matrix_equals_the_double_loop(spec):
    assert np.array_equal(direction_matrix(spec), _direction_matrix_reference(spec))


def test_delta1_at_origin_is_euclidean_trace():
    # at z = 0 every weight matrix collapses to the identity
    spec = type_i(2, 2)
    z = np.zeros((2, 2), dtype=complex)
    u = PolyField(
        (2, 2),
        {
            ((1, 0, 0, 0), (1, 0, 0, 0)): 1.0,
            ((0, 0, 0, 1), (0, 0, 0, 1)): 2.0,
        },
    )
    val = apply("delta1", u, spec, z)
    assert_allclose(val, 3.0, atol=1e-14)


def test_exact_and_fd_routes_agree():
    rng = np.random.default_rng(0)
    cases = [
        (type_i(2, 2), "delta1"),
        (type_ii(2), "delta2"),
        (type_iii(4), "delta3"),
        (type_iv(2), "delta4"),
    ]
    for spec, kind in cases:
        u = random_poly_field(spec.shape, rng, degree=3)
        if spec.family == "II":
            u = u.compose_holomorphic(_symmetrize_components(spec.n), spec.shape)
        if spec.family == "III":
            u = u.compose_holomorphic(_antisymmetrize_components(spec.n), spec.shape)
        z = domains.sample_interior(spec, seed=1, count=1)[0]
        exact = apply(kind, u, spec, z)
        fd = apply(kind, OpaqueField(spec.shape, u), spec, z)
        assert_allclose(fd, exact, atol=2e-6)


def _symmetrize_components(n):
    shape = (n, n)
    comps = []
    for j in range(n):
        for a in range(n):
            half = PolyField.coordinate(shape, j * n + a) * 0.5
            comps.append(half + PolyField.coordinate(shape, a * n + j) * 0.5)
    return comps


def _antisymmetrize_components(n):
    shape = (n, n)
    comps = []
    for j in range(n):
        for a in range(n):
            half = PolyField.coordinate(shape, j * n + a) * 0.5
            comps.append(half - PolyField.coordinate(shape, a * n + j) * 0.5)
    return comps


def _component_sum_gap(kind, u, spec, z):
    """|full operator - sum_jk c V(z)_jk (component jk)|, c = 1 for delta1
    and 1/4 for delta2/delta3: the component decomposition of the operator."""
    Vz = np.eye(spec.m) - z @ z.conj().T
    prefactor = 1.0 if kind == "delta1" else 0.25
    H = constrained_hessian(spec, wirtinger_hessian(u, z))
    total = prefactor * np.sum(Vz * component_values(spec, z, H))
    return abs(apply(kind, u, spec, z) - total)


def _component_reference(spec, z, H):
    """The (j,k) component values of the per-component coefficient route
    that component_values replaced: the (j,k) block of the weights, sandwiched
    as D^t W D over plain entries and summed against the plain Hessian H."""
    m, n = spec.shape
    weights = component_weights(spec, z)
    D = direction_matrix(spec)
    values = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            W = np.zeros((m, n, m, n), dtype=complex)
            W[j, :, k, :] = weights[j, :, k, :]
            C = D.T @ W.reshape(m * n, m * n) @ D.conj()
            values[j, k] = np.sum(C * H)
    return values


@pytest.mark.parametrize(
    "spec",
    [type_i(2, 3), type_i(1, 3), type_ii(3), type_iii(4)],
    ids=lambda spec: spec.label(),
)
def test_component_values_match_the_per_component_coefficients(spec):
    rng = np.random.default_rng(14)
    for seed in (15, 16):
        u = random_poly_field(spec.shape, rng, degree=3)
        z = domains.sample_interior(spec, seed=seed, count=1)[0]
        H = wirtinger_hessian(u, z)
        got = component_values(spec, z, constrained_hessian(spec, H))
        assert got.shape == (spec.m, spec.m)
        assert_allclose(got, _component_reference(spec, z, H), rtol=1e-12)


def test_component_values_reject_type_iv():
    spec = type_iv(2)
    z = np.zeros(spec.shape, dtype=complex)
    with pytest.raises(ValueError):
        component_values(spec, z, np.zeros((2, 2), dtype=complex))


def test_component_sum_reassembles_full_operator():
    rng = np.random.default_rng(2)
    for spec, kind in (
        (type_i(2, 3), "delta1"),
        (type_ii(3), "delta2"),
        (type_iii(4), "delta3"),
    ):
        u = random_poly_field(spec.shape, rng, degree=3)
        z = domains.sample_interior(spec, seed=3, count=1)[0]
        gap = _component_sum_gap(kind, u, spec, z)
        assert gap < 1e-10


def test_ball_and_tilde_differ_only_in_radial_weight():
    spec = domains.ball(3)
    z = domains.sample_interior(spec, seed=4, count=1)[0]
    rng = np.random.default_rng(5)
    u = random_poly_field(spec.shape, rng, degree=3)
    ball_val = apply("ball", u, spec, z)
    tilde_val = apply("tilde", u, spec, z)
    # both annihilate pluriharmonic fields; on generic fields they differ
    assert abs(ball_val - tilde_val) > 1e-8
    v = (
        PolyField.coordinate(spec.shape, 0) * PolyField.coordinate(spec.shape, 1)
    ).real_part()
    assert abs(apply("ball", v, spec, z)) < 1e-14
    assert abs(apply("tilde", v, spec, z)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_ball_operator_has_the_invariant_ball_coefficients(n):
    # (1 - |z|^2)(I - z z*), the invariant Laplacian of B_n
    spec = domains.ball(n)
    for z in domains.sample_interior(spec, seed=n, count=20):
        zv = z.reshape(-1)
        expected = (1.0 - np.vdot(zv, zv).real) * (np.eye(n) - np.outer(zv, zv.conj()))
        assert_allclose(coefficients("ball", spec, z), expected, rtol=0.0, atol=1e-15)


def test_delta4_annihilates_counterexample_function():
    spec = type_iv(2)
    u = PolyField((1, 2), {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): -1.0})
    for z in domains.sample_interior(spec, seed=6, count=10):
        assert abs(apply("delta4", u, spec, z)) < 1e-12


def test_delta4_does_not_annihilate_generic_quadratic():
    spec = type_iv(2)
    u = PolyField((1, 2), {((1, 0), (1, 0)): 1.0})  # |z_1|^2 alone
    z = domains.sample_interior(spec, seed=7, count=1)[0]
    assert abs(apply("delta4", u, spec, z)) > 1e-3


def test_coefficients_shape_and_hermitian_symmetry():
    spec = type_ii(3)
    z = domains.sample_interior(spec, seed=8, count=1)[0]
    C = coefficients("delta2", spec, z)
    assert C.shape == (9, 9)
    # operator is real on real-valued fields: coefficient tensor is Hermitian
    assert_allclose(C, C.conj().T, atol=1e-12)


def _bits(a):
    """The IEEE bit patterns of a complex or float array, sign bits included."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint64)


# IV(2) points with signed zeros in their parts, next to the drawn ones
_SIGNED_ZERO_POINTS = np.array(
    [
        [complex(-0.0, 0.3), complex(0.2, -0.0)],
        [complex(-0.0, -0.0), complex(0.1, 0.0)],
        [complex(0.25, -0.0), complex(-0.0, 0.0)],
        [complex(0.0, -0.0), complex(-0.0, -0.0)],
        [complex(-0.0, -0.4), complex(-0.0, 0.1)],
        [complex(-0.3, 0.0), complex(0.0, -0.2)],
    ]
)


def _iv2_points():
    rng = np.random.default_rng(12)
    drawn = campaigns.type_iv_points(rng, 600)
    return np.concatenate([drawn, _SIGNED_ZERO_POINTS])


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_delta4_coefficients_equal_the_per_point_ones(n):
    spec = type_iv(n)
    if n == 2:
        zs = _iv2_points()
    else:
        zs = domains.sample_interior(spec, 13, 50).reshape(50, n)
    C = delta4_coefficients(spec, zs)
    assert C.shape == (len(zs), n, n)
    per_point = np.array([coefficients("delta4", spec, z.reshape(1, n)) for z in zs])
    assert np.array_equal(_bits(C), _bits(per_point))


def _scalar_delta4(zv):
    """The per-point delta4 formula the stacked one replaced; kept as the
    bit-for-bit reference."""
    n = zv.size
    s = zv @ zv
    r = 1.0 - 2.0 * float(np.vdot(zv, zv).real) + abs(s) ** 2
    zc = zv.conj()
    left = zc - np.conj(s) * zv
    right = zv - s * zc
    return r * (np.eye(n) - 2.0 * np.outer(zv, zc)) + 2.0 * np.outer(left, right)


# points where |s|^2 by libm pow and by squaring differ in the last bit
_POW_POINTS = np.array(
    [
        [-0.37462466710032466 + 0.22725721689752107j, -0.09416984159005433 + 0.2818249536017289j],
        [0.10084960963913384 - 0.09356395732999921j, 0.5716659577167262 - 0.018062657385195805j],
        [0.5063430555431866 + 0.2763740603820665j, -0.10209507249902962 + 0.24839545556996984j],
        [-0.30657432935785467 - 0.025204306601117825j, 0.1307575496673057 + 0.15928489541219243j],
    ]
)


def test_stacked_delta4_coefficients_keep_the_scalar_formula_bits():
    zs = np.concatenate([_iv2_points(), _POW_POINTS])
    C = delta4_coefficients(type_iv(2), zs)
    assert np.array_equal(_bits(C), _bits(np.array([_scalar_delta4(z) for z in zs])))


def test_stacked_delta4_coefficients_reject_other_families():
    with pytest.raises(ValueError):
        delta4_coefficients(type_ii(2), np.zeros((3, 2, 2)))


def test_quartic_residuals_equal_the_per_point_loop():
    zs = _iv2_points()
    spec = type_iv(2)
    u = PolyField((1, 2), {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): -1.0})
    ref = [[], [], [], []]
    for z in zs:
        # the per-point loop the stacked residuals replaced
        H = wirtinger_hessian(u, z)
        ref[0].append(abs(apply("delta4", u, spec, z.reshape(1, 2))))
        ref[1].append(float(np.linalg.norm(H)))
        ref[2].append(abs(np.trace(H)))
        ref[3].append(abs(2.0 * H[0, 1].real))
    got = campaigns.quartic_residuals(zs)
    for values, expected in zip(got, ref):
        assert np.array_equal(_bits(values), _bits(np.array(expected, dtype=float)))
