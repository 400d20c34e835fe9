import numpy as np
import pytest
from numpy.testing import assert_allclose

from huacheck import domains
from huacheck.domains import MatrixPoint, type_i, type_ii, type_iii, type_iv
from huacheck.fields import OpaqueField, PolyField, random_poly_field, wirtinger_hessian
from huacheck.operators import OperatorId, apply, coefficients, direction_matrix


def test_operator_id_validation():
    with pytest.raises(ValueError):
        OperatorId("delta5")
    with pytest.raises(ValueError):
        OperatorId("delta4", (0, 0))
    with pytest.raises(ValueError):
        OperatorId("ball", (0, 0))


def test_family_compatibility():
    pt = MatrixPoint(type_ii(2), np.zeros((2, 2)))
    u = PolyField.constant((2, 2), 1.0)
    with pytest.raises(ValueError):
        apply(OperatorId("delta1"), u, pt)
    with pytest.raises(ValueError):
        apply(OperatorId("ball"), u, pt)


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


def test_delta1_at_origin_is_euclidean_trace():
    # at z = 0 every weight matrix collapses to the identity
    spec = type_i(2, 2)
    pt = MatrixPoint(spec, np.zeros((2, 2)))
    u = PolyField(
        (2, 2),
        {
            ((1, 0, 0, 0), (1, 0, 0, 0)): 1.0,
            ((0, 0, 0, 1), (0, 0, 0, 1)): 2.0,
        },
    )
    val = apply(OperatorId("delta1"), u, pt)
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
        pt = domains.sample_interior(spec, seed=1, count=1)[0]
        exact = apply(OperatorId(kind), u, pt)
        fd = apply(OperatorId(kind), OpaqueField(spec.shape, u), pt)
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


def _component_sum_gap(kind, u, point):
    """|full operator - sum_jk c V(z)_jk (component jk)|, c = 1 for delta1
    and 1/4 for delta2/delta3: the component decomposition of the operator."""
    z = point.value
    m = point.spec.m
    Vz = np.eye(m) - z @ z.conj().T
    prefactor = 1.0 if kind == "delta1" else 0.25
    H = wirtinger_hessian(u, z)
    total = 0.0 + 0.0j
    for j in range(m):
        for k in range(m):
            C = coefficients(OperatorId(kind, (j, k)), point)
            total += prefactor * Vz[j, k] * complex(np.sum(C * H))
    return abs(apply(OperatorId(kind), u, point) - total)


def test_component_sum_reassembles_full_operator():
    rng = np.random.default_rng(2)
    for spec, kind in (
        (type_i(2, 3), "delta1"),
        (type_ii(3), "delta2"),
        (type_iii(4), "delta3"),
    ):
        u = random_poly_field(spec.shape, rng, degree=3)
        pt = domains.sample_interior(spec, seed=3, count=1)[0]
        gap = _component_sum_gap(kind, u, pt)
        assert gap < 1e-10


def test_ball_and_tilde_differ_only_in_radial_weight():
    spec = domains.ball(3)
    pt = domains.sample_interior(spec, seed=4, count=1)[0]
    rng = np.random.default_rng(5)
    u = random_poly_field(spec.shape, rng, degree=3)
    ball_val = apply(OperatorId("ball"), u, pt)
    tilde_val = apply(OperatorId("tilde"), u, pt)
    # both annihilate pluriharmonic fields; on generic fields they differ
    assert abs(ball_val - tilde_val) > 1e-8
    v = (
        PolyField.coordinate(spec.shape, 0) * PolyField.coordinate(spec.shape, 1)
    ).real_part()
    assert abs(apply(OperatorId("ball"), v, pt)) < 1e-14
    assert abs(apply(OperatorId("tilde"), v, pt)) < 1e-14


def test_delta4_annihilates_counterexample_function():
    spec = type_iv(2)
    u = PolyField((1, 2), {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): -1.0})
    for pt in domains.sample_interior(spec, seed=6, count=10):
        assert abs(apply(OperatorId("delta4"), u, pt)) < 1e-12


def test_delta4_does_not_annihilate_generic_quadratic():
    spec = type_iv(2)
    u = PolyField((1, 2), {((1, 0), (1, 0)): 1.0})  # |z_1|^2 alone
    pt = domains.sample_interior(spec, seed=7, count=1)[0]
    assert abs(apply(OperatorId("delta4"), u, pt)) > 1e-3


def test_coefficients_shape_and_hermitian_symmetry():
    spec = type_ii(3)
    pt = domains.sample_interior(spec, seed=8, count=1)[0]
    C = coefficients(OperatorId("delta2"), pt)
    assert C.shape == (9, 9)
    # operator is real on real-valued fields: coefficient tensor is Hermitian
    assert_allclose(C, C.conj().T, atol=1e-12)
