import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import huacheck
from huacheck import campaigns, domains, embeddings
from huacheck.domains import (
    UnsupportedDomainError,
    kappa,
    parse_spec,
    type_i,
    type_ii,
    type_iii,
    type_iv,
)


def test_parse_spec_round_trips():
    assert parse_spec("I:2,3") == type_i(2, 3)
    assert parse_spec("II:2") == type_ii(2)
    assert parse_spec("III:4") == type_iii(4)
    assert parse_spec("IV:2") == type_iv(2)


def test_parse_spec_rejects_malformed():
    for bad in ("I:2", "II:2,3", "V:1", "I", "II:"):
        with pytest.raises(ValueError):
            parse_spec(bad)


def test_kappa_values():
    assert kappa(type_i(2, 3)) == 3
    assert kappa(type_ii(2)) == 1.5
    assert kappa(type_ii(3)) == 2
    assert kappa(type_iii(4)) == 1.5
    assert kappa(type_iii(3)) == 1.5
    with pytest.raises(UnsupportedDomainError):
        kappa(type_iv(2))


def test_public_names_resolve():
    for name in huacheck.__all__:
        assert getattr(huacheck, name) is not None, name


@pytest.mark.parametrize("broken", ["nan", "wrong-symmetry"])
@pytest.mark.parametrize("spec", [type_ii(3), type_iii(3)], ids=lambda spec: spec.label())
def test_family_symmetry_check_fails_closed(spec, broken):
    # v^t = sign v on the family; entry (0, 1) is broken by a NaN or by the
    # other family's sign
    sign = 1.0 if spec.family == "II" else -1.0
    g = 0.1 * np.random.default_rng(40).standard_normal((3, 3)) * (1.0 + 1.0j)
    v = g + sign * g.T
    v[0, 1] = np.nan if broken == "nan" else -sign * v[1, 0]
    with pytest.raises(ValueError, match="breaks the family symmetry"):
        domains.require_family_symmetry(spec, v)
    v[0, 1] = sign * v[1, 0]
    domains.require_family_symmetry(spec, v)


@pytest.mark.parametrize("broken", ["nan", "wrong-symmetry"])
def test_pseudo_boundary_checks_the_family_symmetry(monkeypatch, broken):
    if broken == "nan":
        haar_unitary = domains.haar_unitary

        def nan_unitary(rng, n):
            u = haar_unitary(rng, n)
            u[0, 0] = np.nan
            return u

        monkeypatch.setattr(domains, "haar_unitary", nan_unitary)
    else:
        monkeypatch.setattr(domains, "_antisym_block_j", lambda n: np.eye(n))
    with pytest.raises(ValueError, match="breaks the family symmetry"):
        domains.rank_deficient_pseudo_boundary(3, seed=5)


@pytest.mark.parametrize("broken", ["nan", "wrong-symmetry"])
@pytest.mark.parametrize("family", ["II", "III"])
def test_embed_checks_the_family_symmetry(family, broken):
    if family == "II":
        e = embeddings.type_ii_embedding(domains.haar_unitary(np.random.default_rng(41), 3))
    else:
        e = embeddings.type_iii_embedding(3)
    lam = np.full(e.ball_dim, 0.3 + 0.1j)
    assert embeddings.embed(e, lam).shape == e.spec.shape
    # entry (0, 1) of the image becomes NaN, or twice its symmetric value
    comps = e.components
    factor = np.nan if broken == "nan" else 2.0
    e = dataclasses.replace(e, components=(comps[0], comps[1] * factor) + comps[2:])
    with pytest.raises(ValueError, match="breaks the family symmetry"):
        embeddings.embed(e, lam)


def test_membership_margin_signs():
    spec = type_i(2, 2)
    assert domains.membership_margin(spec, np.zeros((2, 2))) == pytest.approx(1.0)
    assert domains.membership_margin(spec, 2.0 * np.eye(2)) < 0.0


def test_type_iv_membership():
    spec = type_iv(2)
    assert domains.membership_margin(spec, np.array([[0.3, 0.1j]])) > 0.0
    assert domains.membership_margin(spec, np.array([[0.9, 0.9]])) <= 0.0


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 3), (4, 4)])
def test_stacked_w_and_v_equal_the_per_row_matrices(shape):
    rng = np.random.default_rng(40)
    zs = rng.standard_normal((50,) + shape) + 1j * rng.standard_normal((50,) + shape)
    ws = rng.standard_normal((50,) + shape) + 1j * rng.standard_normal((50,) + shape)
    W = domains.w_matrix(zs, ws)
    V = domains.v_matrix(zs)
    assert W.shape == V.shape == (50, shape[0], shape[0])
    for z, w, Wi, Vi in zip(zs, ws, W, V):
        assert np.array_equal(Wi, domains.w_matrix(z, w))
        assert np.array_equal(Vi, domains.v_matrix(z))
    # one matrix against a stack broadcasts, on either side
    for i in (0, 17, 49):
        assert np.array_equal(domains.w_matrix(zs[i], ws)[i], W[i])
        assert np.array_equal(domains.w_matrix(zs, ws[i])[i], W[i])


def test_sample_interior_respects_family_and_margin():
    for spec in (type_i(2, 3), type_ii(3), type_iii(4), type_iv(2)):
        pts = domains.sample_interior(spec, seed=1, count=5)
        for p in pts:
            assert domains.membership_margin(spec, p) >= 0.05
            if spec.family == "II":
                assert_allclose(p, p.T, atol=1e-12)
            if spec.family == "III":
                assert_allclose(p, -p.T, atol=1e-12)


def test_sample_interior_rejects_the_one_point_domain():
    with pytest.raises(ValueError, match=r"III\(1\)"):
        domains.sample_interior(type_iii(1), seed=0, count=2)


def test_sample_interior_is_deterministic():
    a = domains.sample_interior(type_ii(2), seed=7, count=3)
    b = domains.sample_interior(type_ii(2), seed=7, count=3)
    for p, q in zip(a, b):
        assert_allclose(p, q)


def _interior_reference(spec, seed, count):
    """The per-draw sampler that the stacked one replaced, kept as the bit for
    bit reference; also returns how many draws the 0.9 shrink loop touched."""
    rng = np.random.default_rng(seed)
    points, shrunk = [], 0
    for _ in range(count):
        v = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        if spec.family == "II":
            v = (v + v.T) / 2.0
        elif spec.family == "III":
            v = (v - v.T) / 2.0
        if spec.family == "IV":
            v = v * (0.7 / np.linalg.norm(v))
        else:
            v = v * (0.7 / np.linalg.norm(v, 2))
        shrunk += domains.membership_margin(spec, v) < 0.05
        while domains.membership_margin(spec, v) < 0.05:
            v = 0.9 * v
        points.append(v)
    return np.array(points), shrunk


@pytest.mark.parametrize(
    "spec",
    [type_i(2, 3), type_ii(3), type_iii(4), type_iv(2), type_iv(3)],
    ids=lambda spec: spec.label(),
)
def test_interior_stack_equals_per_draw_reference(spec):
    for seed in range(6):
        zs = domains.sample_interior(spec, seed, 50)
        assert isinstance(zs, np.ndarray)
        assert zs.shape == (50,) + spec.shape and zs.dtype == np.complex128
        ref, shrunk = _interior_reference(spec, seed, 50)
        assert np.array_equal(zs, ref)
        if spec == type_iv(2):
            # 1 to 6 of the 50 draws shrink at each of these seeds, so the
            # shrink loop is compared too
            assert shrunk >= 1


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(3)
    u = domains.haar_unitary(rng, 4)
    assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_silov_samples_satisfy_gram_identity():
    for spec in (type_i(2, 3), type_ii(3), type_iii(4)):
        for w in domains.sample_silov(spec, seed=2, count=4):
            assert_allclose(w @ w.conj().T, np.eye(spec.m), atol=1e-12)
            if spec.family == "II":
                assert_allclose(w, w.T, atol=1e-12)
            if spec.family == "III":
                assert_allclose(w, -w.T, atol=1e-12)


def _lapack_haar(rng, n, cols):
    """One phase-corrected LAPACK QR of an (n, cols) complex Gaussian draw."""
    g = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _silov_reference(spec, seed, count):
    """The boundary sample from one phase-corrected LAPACK QR per draw, a
    route independent of the sampler's blockwise Gram-Schmidt."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if spec.family == "I":
            out.append(_lapack_haar(rng, spec.n, spec.m).T)
        elif spec.family == "II":
            u = _lapack_haar(rng, spec.n, spec.n)
            out.append(u @ u.T)
        else:
            u = _lapack_haar(rng, spec.n, spec.n)
            j = np.kron(np.eye(spec.n // 2), [[0.0, 1.0], [-1.0, 0.0]])
            out.append(u @ j @ u.T)
    return np.array(out)


def test_silov_stack_equals_per_draw_reference():
    # Gram-Schmidt and Householder QR round differently, so the draws agree
    # to roundoff, not bit for bit
    count = domains.SILOV_CHUNK + 37
    for spec in (type_i(2, 3), type_ii(3), type_iii(4)):
        ws = domains.sample_silov(spec, seed=5, count=count)
        assert ws.shape == (count,) + spec.shape
        assert ws.dtype == np.complex128
        assert np.abs(ws - _silov_reference(spec, 5, count)).max() <= 1e-13


def _entry_major(stack):
    """A (k, n, cols) stack of matrices as an entry-major (n, cols, k) block."""
    return np.ascontiguousarray(stack.transpose(1, 2, 0))


def test_orthonormality_gate_rejects_a_perturbed_column():
    q = domains._haar_stack(np.random.default_rng(8), 16, 3, 3)
    domains._require_orthonormal(q)
    q[:, 1, 5] += 1e-9
    with pytest.raises(ValueError, match="not orthonormal"):
        domains._require_orthonormal(q)


def test_orthonormality_gate_fails_closed_on_nan():
    q = domains._haar_stack(np.random.default_rng(9), 16, 4, 2)
    q[2, 0, 7] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        domains._require_orthonormal(q)


def test_gram_schmidt_stays_orthonormal_at_condition_1e8():
    # CGS2 keeps Q*Q - I at roundoff while cond(A) * eps < 1
    rng = np.random.default_rng(10)
    k, n = 64, 3
    u = np.array([_lapack_haar(rng, n, n) for _ in range(k)])
    v = np.array([_lapack_haar(rng, n, n) for _ in range(k)])
    a = u @ (np.array([1.0, 1e-4, 1e-8])[:, None] * v)
    assert np.allclose(np.linalg.cond(a), 1e8, rtol=1e-3)
    q = domains._gram_schmidt(_entry_major(a)).transpose(2, 0, 1)
    gram = q.conj().transpose(0, 2, 1) @ q
    assert np.abs(gram - np.eye(n)).max() <= domains.SYMMETRY_TOL
    domains._require_orthonormal(_entry_major(q))
    # Q*A is R: upper triangular, with a positive real diagonal
    r = q.conj().transpose(0, 2, 1) @ a
    assert np.abs(np.tril(r, -1)).max() <= 1e-15
    d = np.diagonal(r, axis1=1, axis2=2)
    assert np.all(d.real > 0.0) and np.abs(d.imag).max() <= 1e-15


def test_silov_shorter_sample_is_a_prefix():
    spec = type_ii(2)
    full = domains.sample_silov(spec, seed=4, count=2 * domains.SILOV_CHUNK + 3)
    for k in (1, domains.SILOV_CHUNK - 1, domains.SILOV_CHUNK + 1):
        assert np.array_equal(full[:k], domains.sample_silov(spec, seed=4, count=k))


def test_silov_sample_blocks_equal_one_sample():
    count = 2 * domains.SILOV_CHUNK + 37
    for spec in (type_i(2, 2), type_i(2, 3), type_ii(2), type_ii(3), type_iii(4)):
        sample = domains.SilovSample(spec, seed=3, count=count)
        assert len(sample) == count
        blocks = list(sample)
        assert [len(b) for b in blocks] == [domains.SILOV_CHUNK] * 2 + [37]
        full = domains.sample_silov(spec, seed=3, count=count)
        assert np.array_equal(np.concatenate(blocks), full)
        # each iteration starts the stream again
        assert np.array_equal(next(iter(sample)), blocks[0])


def test_silov_calls_on_one_generator_continue_one_stream():
    spec = type_ii(2)
    for sizes in ((5, 5, 5), (domains.SILOV_CHUNK, 37)):
        rng = np.random.default_rng(4)
        parts = [domains.sample_silov(spec, rng, k) for k in sizes]
        full = domains.sample_silov(spec, seed=4, count=sum(sizes))
        assert np.array_equal(np.concatenate(parts), full)


def test_silov_symmetry_check_fails_closed_on_nan_in_last_block(monkeypatch):
    haar_stack = domains._haar_stack

    def nan_in_partial_block(rng, k, *args):
        u = haar_stack(rng, k, *args)
        if k < domains.SILOV_CHUNK:
            u[-1, 0, 0] = np.nan
        return u

    monkeypatch.setattr(domains, "_haar_stack", nan_in_partial_block)
    for spec in (type_ii(3), type_iii(4)):
        with pytest.raises(ValueError, match="breaks the family symmetry"):
            domains.sample_silov(spec, seed=6, count=domains.SILOV_CHUNK + 37)


def test_silov_working_set_is_one_block():
    # tracemalloc sees numpy's buffers; 8 blocks make one block's temporaries
    # a small share of the output
    tracemalloc.start()
    try:
        out = domains.sample_silov(type_iii(4), seed=7, count=8 * domains.SILOV_CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < out.nbytes / 2


def test_silov_unsupported_families():
    with pytest.raises(UnsupportedDomainError):
        domains.sample_silov(type_iii(3), seed=0, count=1)
    with pytest.raises(UnsupportedDomainError):
        domains.sample_silov(type_iv(2), seed=0, count=1)
    with pytest.raises(UnsupportedDomainError):
        domains.SilovSample(type_iii(3), seed=0, count=1)


def test_pseudo_boundary_is_rank_deficient():
    w = domains.rank_deficient_pseudo_boundary(3, seed=5)
    assert_allclose(w, -w.T, atol=1e-12)
    gram = np.eye(3) - w.conj().T @ w
    assert np.linalg.norm(gram) > 0.5


def test_biholo_iv2_round_trip_and_membership():
    rng = np.random.default_rng(6)
    spec = type_iv(2)
    bidisc_map = campaigns.bidisc_inverse_map()
    for _ in range(1000):
        z1 = rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        z2 = rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        w = np.array([c(np.array([z1, z2])) for c in bidisc_map])
        assert domains.membership_margin(spec, w.reshape(1, 2)) > 0.0
        # the membership identity of the map's docstring
        lhs = 1.0 + abs(w @ w) ** 2 - 2.0 * float(np.vdot(w, w).real)
        assert abs(lhs - (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2)) < 1e-12
        b1, b2 = domains.biholo_iv2_inverse(w[0], w[1])
        assert abs(b1 - z1) < 1e-12 and abs(b2 - z2) < 1e-12
    # a point off the closed bidisc maps outside IV(2)
    w = np.array([c(np.array([1.2, 0.0])) for c in bidisc_map])
    assert domains.membership_margin(spec, w.reshape(1, 2)) < 0.0

