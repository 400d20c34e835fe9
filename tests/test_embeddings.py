import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from huacheck import domains, embeddings
from huacheck.fields import (
    PolyField,
    random_poly_field,
    wirtinger_gradient,
    wirtinger_hessian,
)


def unit(rng, k):
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return v / np.linalg.norm(v)


def ball_point(rng, k, radius=0.6):
    return unit(rng, k) * rng.uniform(0.1, radius)


def test_type_i_embedding_requires_unit_vector():
    with pytest.raises(ValueError):
        embeddings.type_i_embedding(np.array([1.0, 1.0]), 3)


def test_type_ii_embedding_requires_unitary():
    with pytest.raises(ValueError):
        embeddings.type_ii_embedding(np.ones((2, 2)))


def test_type_i_embedding_rejects_nan():
    with pytest.raises(ValueError, match="unit vector"):
        embeddings.type_i_embedding(np.full(2, np.nan), 3)


def test_type_ii_embedding_rejects_nan():
    with pytest.raises(ValueError, match="unitary"):
        embeddings.type_ii_embedding(np.full((2, 2), np.nan))


def test_type_ii_embedding_rejects_a_non_square_matrix():
    # orthonormal rows, so U U* = I: only the shape gives it away
    with pytest.raises(ValueError, match="square"):
        embeddings.type_ii_embedding(np.eye(2, 3))


def test_embed_lands_in_the_target_domain():
    rng = np.random.default_rng(0)
    cases = [
        embeddings.type_i_embedding(unit(rng, 2), 3),
        embeddings.type_ii_embedding(domains.haar_unitaries(rng, 1, 3)[0]),
        embeddings.type_iii_embedding(4),
    ]
    for e in cases:
        lam = ball_point(rng, e.ball_dim)
        z = embeddings.embed(e, lam)
        assert domains.membership_margin(e.spec, z) > 0.0
    with pytest.raises(ValueError):
        embeddings.embed(cases[0], np.array([1.0, 0.0, 0.0]))
    # the ball test fails closed: nan >= 1 is False, nan < 1 too
    for e in cases:
        with pytest.raises(ValueError, match="open unit ball"):
            embeddings.embed(e, np.full(e.ball_dim, np.nan))


def test_rank_one_gram_identity_is_exact():
    rng = np.random.default_rng(1)
    e = embeddings.type_i_embedding(unit(rng, 2), 3)
    assert embeddings.gram_identity_residual(e) < 1e-14
    with pytest.raises(ValueError):
        embeddings.gram_identity_residual(embeddings.type_iii_embedding(4))


def test_compose_matches_pointwise_evaluation():
    rng = np.random.default_rng(2)
    e = embeddings.type_ii_embedding(domains.haar_unitaries(rng, 1, 2)[0])
    u = random_poly_field((2, 2), rng, degree=2)
    g = embeddings.compose(e, u)
    lam = ball_point(rng, 2)
    z = np.array([c(lam) for c in e.components]).reshape(2, 2)
    assert_allclose(g(lam), u(z), atol=1e-12)


def test_chain_rule_residual_is_machine_zero_for_polynomials():
    rng = np.random.default_rng(3)
    e = embeddings.type_i_embedding(unit(rng, 2), 3)
    u = random_poly_field((2, 3), rng, degree=3)
    g = embeddings.compose(e, u)
    assert embeddings.chain_rule_residual(e, u, g, ball_point(rng, 3)) < 1e-12


def test_pullback_residual_all_three_kinds():
    rng = np.random.default_rng(4)
    e1 = embeddings.type_i_embedding(unit(rng, 2), 3)
    u1 = random_poly_field((2, 3), rng, degree=4, n_terms=8)
    g1 = embeddings.compose(e1, u1)
    assert abs(embeddings.pullback_residual(e1, u1, g1, ball_point(rng, 3))) < 1e-9
    e2 = embeddings.type_ii_embedding(domains.haar_unitaries(rng, 1, 3)[0])
    u2 = random_poly_field((3, 3), rng, degree=2, n_terms=6)
    g2 = embeddings.compose(e2, u2)
    assert abs(embeddings.pullback_residual(e2, u2, g2, ball_point(rng, 3))) < 1e-9
    e3 = embeddings.type_iii_embedding(4)
    u3 = random_poly_field((4, 4), rng, degree=2, n_terms=30)
    g3 = embeddings.compose(e3, u3)
    assert abs(embeddings.pullback_residual(e3, u3, g3, ball_point(rng, 3))) < 1e-9


def test_polarization_recovers_arbitrary_matrices():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rec = embeddings.polarization_recover(
        lambda xi: complex(np.asarray(xi) @ M @ np.conj(np.asarray(xi))), 3
    )
    assert_allclose(rec, M, atol=1e-12)


def test_polarization_rejects_non_quadratic_forms():
    with pytest.raises(ValueError):
        embeddings.polarization_recover(lambda xi: abs(xi[0]) ** 4, 2)


def test_hessian_transport_under_a_linear_map():
    rng = np.random.default_rng(6)
    shape = (1, 2)
    c0 = PolyField.coordinate(shape, 0)
    c1 = PolyField.coordinate(shape, 1)
    comps = [c0 + c1 * 1j, c0 - c1 * 1j]
    u = random_poly_field(shape, rng, degree=3)
    z0 = ball_point(rng, 2, radius=0.4)
    assert embeddings.hessian_transport_check(comps, shape, u, z0) < 1e-12


def _map_cases():
    """(components, ball shape, u, lam) for the rank-one, symmetric and
    corner embeddings and the two transport maps of the embeddings
    campaign."""
    rng = np.random.default_rng(9)
    e1 = embeddings.type_i_embedding(unit(rng, 2), 3)
    e2 = embeddings.type_ii_embedding(domains.haar_unitaries(rng, 1, 3)[0])
    e3 = embeddings.type_iii_embedding(4)
    c0, c1 = (PolyField.coordinate((1, 2), a) for a in range(2))
    bidisc = list(domains.biholo_iv2_inverse(c0, c1))
    # an antisymmetric 3 x 3 matrix of the three ball coordinates, with
    # empty fields on the diagonal
    anti = [PolyField((1, 3), {})] * 9
    for a, (j, k) in enumerate(itertools.combinations(range(3), 2)):
        anti[3 * j + k] = PolyField.coordinate((1, 3), a)
        anti[3 * k + j] = anti[3 * j + k] * -1.0
    return [
        (e1.components, (1, 3), random_poly_field((2, 3), rng, 4, 8), ball_point(rng, 3)),
        (e2.components, (1, 3), random_poly_field((3, 3), rng, 2, 6), ball_point(rng, 3)),
        (e3.components, (1, 3), random_poly_field((4, 4), rng, 2, 30), ball_point(rng, 3)),
        (bidisc, (1, 2), random_poly_field((1, 2), rng, 3, 6), ball_point(rng, 2, 0.35)),
        (anti, (1, 3), random_poly_field((3, 3), rng, 3, 6), ball_point(rng, 3, 0.35)),
    ]


def test_sandwich_jacobian_equals_the_derivative_field_loop():
    for components, shape, u, lam in _map_cases():
        g = u.compose_holomorphic(list(components), shape)
        # the per-(component, entry) derivative fields J was built from
        J = np.array([[c.dz(a)(lam) for c in components] for a in range(lam.size)])
        grads = np.stack([wirtinger_gradient(c, lam) for c in components], axis=1)
        assert np.array_equal(grads.view(np.uint64), J.view(np.uint64))
        z = np.array([c(lam) for c in components]).reshape(u.shape)
        gap = wirtinger_hessian(g, lam) - J @ wirtinger_hessian(u, z) @ J.conj().T
        got = embeddings._sandwich_gap(components, u, g, lam)
        assert np.array_equal(got.view(np.uint64), gap.view(np.uint64))
        assert np.max(np.abs(gap)) < 1e-12
