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


def test_odd_iii_silov_points_check_the_family_symmetry(monkeypatch):
    haar_stack = domains._haar_stack

    def nan_isometry(rng, k, n, cols):
        # after the orthonormality gate, so only the symmetry gate can catch it
        u = haar_stack(rng, k, n, cols)
        u[0, 0, -1] = np.nan
        return u

    monkeypatch.setattr(domains, "_haar_stack", nan_isometry)
    with pytest.raises(ValueError, match="breaks the family symmetry"):
        domains.odd_iii_silov_points(3, seed=5, count=4)


@pytest.mark.parametrize("broken", ["nan", "wrong-symmetry"])
@pytest.mark.parametrize("family", ["II", "III"])
def test_embed_checks_the_family_symmetry(family, broken):
    if family == "II":
        u = domains.haar_unitaries(np.random.default_rng(41), 1, 3)[0]
        e = embeddings.type_ii_embedding(u)
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


def _margin_reference(spec, v):
    """One point's margin: the least eigenvalue of I - v v*, or on IV the
    smaller of 1 - 2|z|^2 + |z z^t|^2 and 1 - |z z^t|^2."""
    if spec.family != "IV":
        return np.linalg.eigvalsh(np.eye(spec.m) - v @ v.conj().T)[0]
    z = v.ravel()
    s2 = abs(z @ z) ** 2
    return min(1.0 - 2.0 * np.vdot(z, z).real + s2, 1.0 - s2)


@pytest.mark.parametrize(
    "spec",
    [type_i(2, 3), type_ii(3), type_iii(4), type_iv(2), type_iv(3)],
    ids=lambda spec: spec.label(),
)
def test_stacked_membership_margin_equals_the_per_point_reference(spec):
    rng = np.random.default_rng(41)
    g = rng.standard_normal((2, 200) + spec.shape)
    v = g[0] + 1j * g[1]
    if spec.family == "II":
        v = v + v.swapaxes(1, 2)
    elif spec.family == "III":
        v = v - v.swapaxes(1, 2)
    # Frobenius norms from 0.1 to 2.5: interior and exterior points alike
    v *= (rng.uniform(0.1, 2.5, 200) / np.linalg.norm(v, axis=(1, 2)))[:, None, None]
    margins = domains.membership_margin(spec, v)
    assert margins.shape == (200,)
    reference = [_margin_reference(spec, p) for p in v]
    assert_allclose(margins, reference, rtol=1e-14, atol=1e-14)
    assert (margins < 0.0).sum() >= 10 and (margins > 0.0).sum() >= 10
    # one point gives a float, with the bits of its row of the stack
    for p, margin in zip(v[:20], margins):
        one = domains.membership_margin(spec, p)
        assert type(one) is float and one == margin


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
    u = domains.haar_unitaries(rng, 1, 4)[0]
    assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_silov_samples_satisfy_gram_identity():
    for spec in (type_i(2, 3), type_ii(3), type_iii(4)):
        for w in domains.sample_silov(spec, seed=2, count=4):
            assert_allclose(w @ w.conj().T, np.eye(spec.m), atol=1e-12)
            if spec.family == "II":
                assert_allclose(w, w.T, atol=1e-12)
            if spec.family == "III":
                assert_allclose(w, -w.T, atol=1e-12)


def test_iii4_silov_samples_are_exactly_antisymmetric():
    # _fill_silov_block checks III(4) blocks for w w* = I only: the
    # antisymmetry is exact, over a full block and a partial one
    w = domains.sample_silov(type_iii(4), seed=3, count=domains.SILOV_CHUNK + 37)
    assert np.array_equal(w, -w.swapaxes(1, 2))


def _lapack_haar(rng, n, cols):
    """One phase-corrected LAPACK QR of an (n, cols) complex Gaussian draw."""
    g = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _silov_reference(spec, seed, count):
    """The boundary sample from one phase-corrected LAPACK QR per draw, a
    route independent of the sampler's blockwise Gram-Schmidt; on III(4),
    e^{i theta} x in C^6 per draw from eight normals, mapped to III(4) entry
    by entry."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if spec == type_iii(4):
            g = rng.standard_normal(8)
            phase = complex(g[6], g[7])
            xi = phase / abs(phase) * g[:6] / np.linalg.norm(g[:6])
            w = np.zeros((4, 4), dtype=complex)
            w[0, 1], w[2, 3] = xi[0] + 1j * xi[1], xi[0] - 1j * xi[1]
            w[0, 2], w[1, 3] = xi[2] + 1j * xi[3], -xi[2] + 1j * xi[3]
            w[0, 3], w[1, 2] = xi[4] + 1j * xi[5], xi[4] - 1j * xi[5]
            out.append(w - w.T)
        elif spec.family == "I":
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
    # Gram-Schmidt and Householder QR round differently, and so do a stacked
    # and a one-vector norm, so the draws agree to roundoff, not bit for bit;
    # III(6) is drawn as U J U^t, III(4) through IV(6)
    count = domains.SILOV_CHUNK + 37
    for spec in (type_i(2, 3), type_ii(3), type_iii(4), type_iii(6)):
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


def test_silov_sample_rejects_a_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        domains.SilovSample(type_ii(2), seed=0, count=-5)


def test_silov_calls_on_one_generator_continue_one_stream():
    spec = type_ii(2)
    for sizes in ((5, 5, 5), (domains.SILOV_CHUNK, 37)):
        rng = np.random.default_rng(4)
        parts = [domains.sample_silov(spec, rng, k) for k in sizes]
        full = domains.sample_silov(spec, seed=4, count=sum(sizes))
        assert np.array_equal(np.concatenate(parts), full)


def _nan_in_partial_block(draw):
    """draw, with a NaN put into its entry-major (..., k) result when k is
    shorter than SILOV_CHUNK."""

    def drawn(*args):
        u = draw(*args)
        if u.shape[-1] < domains.SILOV_CHUNK:
            u[-1, 0, 0] = np.nan
        return u

    return drawn


def test_silov_symmetry_check_fails_closed_on_nan_in_last_block(monkeypatch):
    cases = [
        (type_ii(3), "_haar_stack", "breaks the family symmetry"),
        (type_iii(6), "_haar_stack", "breaks the family symmetry"),
        # III(4) blocks have no symmetry check: a NaN before the w w* = I
        # gate, which must catch it
        (type_iii(4), "_iv6_to_iii4", "not orthonormal"),
    ]
    for spec, draw, match in cases:
        with monkeypatch.context() as patch:
            patch.setattr(domains, draw, _nan_in_partial_block(getattr(domains, draw)))
            with pytest.raises(ValueError, match=match):
                domains.sample_silov(spec, seed=6, count=domains.SILOV_CHUNK + 37)


def test_silov_working_set_is_one_block():
    # tracemalloc sees numpy's buffers; 8 blocks make one block's temporaries
    # a small share of the output
    for spec in (type_iii(4), type_iii(6)):
        tracemalloc.start()
        try:
            out = domains.sample_silov(spec, seed=7, count=8 * domains.SILOV_CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < out.nbytes / 2


def test_iii4_frames_intertwine_u4():
    # the frames E_l = L(e_l) of IV(6) -> III(4), exactly: antisymmetric,
    # Frobenius-orthogonal, each of norm^2 4
    frames = domains._iv6_to_iii4(np.eye(6, dtype=complex)).transpose(2, 0, 1)
    assert np.array_equal(frames, -frames.swapaxes(1, 2))
    gram = np.einsum("kab,lab->kl", frames.conj(), frames)
    assert np.array_equal(gram, 4.0 * np.eye(6))
    # L(e^{i theta} x) is unitary for real unit x
    rng = np.random.default_rng(43)
    x = rng.standard_normal((200, 6))
    x /= np.linalg.norm(x, axis=1)[:, None]
    xi = np.exp(2j * np.pi * rng.uniform(size=200))[:, None] * x
    w = domains._iv6_to_iii4(xi.T).transpose(2, 0, 1)
    assert np.abs(w @ w.conj().transpose(0, 2, 1) - np.eye(4)).max() <= 1e-14
    # V E_l V^t = sqrt(det V) sum_k R_kl E_k with R real orthogonal: U(4)
    # acts on C^6 through S^1 x SO(6), so the push-forward of the uniform law
    # on S^1 x S^5 is the U(4)-invariant law of U J U^t, J = E_1
    assert np.array_equal(frames[0], np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))
    for v in domains.haar_unitaries(rng, 50, 4):
        moved = v @ frames @ v.T
        r = np.einsum("kab,lab->kl", frames.conj(), moved) / 4.0 / np.sqrt(np.linalg.det(v))
        assert np.abs(r.imag).max() <= 1e-13
        assert np.abs(r.real.T @ r.real - np.eye(6)).max() <= 1e-13


def test_silov_unsupported_families():
    with pytest.raises(UnsupportedDomainError):
        domains.sample_silov(type_iii(3), seed=0, count=1)
    with pytest.raises(UnsupportedDomainError):
        domains.sample_silov(type_iv(2), seed=0, count=1)
    with pytest.raises(UnsupportedDomainError):
        domains.SilovSample(type_iii(3), seed=0, count=1)


@pytest.mark.parametrize("n", [3, 5])
def test_odd_iii_silov_points_are_rank_deficient(n):
    ws = domains.odd_iii_silov_points(n, seed=5, count=200)
    assert ws.shape == (200, n, n)
    assert_allclose(ws, -ws.transpose(0, 2, 1), atol=1e-12)
    assert (np.linalg.matrix_rank(ws) == n - 1).all()
    # w w* is the projection onto the n - 1 columns of U'
    eig = np.linalg.eigvalsh(ws @ ws.conj().transpose(0, 2, 1))
    assert np.abs(eig - np.array([0.0] + [1.0] * (n - 1))).max() <= 1e-12
    gram = np.eye(n) - ws.conj().transpose(0, 2, 1) @ ws
    assert np.linalg.norm(gram, axis=(1, 2)).min() > 0.5


@pytest.mark.parametrize("n", [1, 2, 4])
def test_odd_iii_silov_points_need_odd_n_of_at_least_3(n):
    with pytest.raises(ValueError, match="odd n >= 3"):
        domains.odd_iii_silov_points(n, seed=0, count=1)


def test_type_iv_points_never_come_near_the_boundary():
    # below radius 0.55 the IV(2) margin is at least 1 - 2 (0.55)^2 = 0.395
    rng = np.random.default_rng(42)
    draws = campaigns.type_iv_points(rng, 10_000)
    margins = domains.membership_margin(type_iv(2), draws.reshape(-1, 1, 2))
    assert margins.min() > 0.39


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

