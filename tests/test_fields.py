import numpy as np
import pytest
from numpy.testing import assert_allclose

from huacheck import domains, embeddings, fields, kernels
from huacheck.domains import type_i, type_ii, type_iii
from huacheck.fields import (
    COEFF_DROP,
    EXP_LIMIT,
    OpaqueField,
    PolyField,
    random_poly_field,
    wirtinger_gradient,
    wirtinger_gradient_bar,
    wirtinger_hessian,
)

SHAPE = (2, 2)


def coord(a, conjugated=False):
    return PolyField.coordinate(SHAPE, a, conjugated=conjugated)


def test_constant_and_coordinate_evaluation():
    z = np.array([[1.0 + 2.0j, 0.5], [0.0, -1.0j]])
    assert PolyField.constant(SHAPE, 3.0 - 1.0j)(z) == 3.0 - 1.0j
    assert coord(0)(z) == 1.0 + 2.0j
    assert coord(3, conjugated=True)(z) == 1.0j


def test_algebra_matches_pointwise_arithmetic():
    rng = np.random.default_rng(0)
    f = random_poly_field(SHAPE, rng)
    g = random_poly_field(SHAPE, rng)
    z = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
    assert_allclose((f + g)(z), f(z) + g(z), atol=1e-13)
    assert_allclose((f - g)(z), f(z) - g(z), atol=1e-13)
    assert_allclose((f * g)(z), f(z) * g(z), atol=1e-12)
    assert_allclose((f * 2.5j)(z), 2.5j * f(z), atol=1e-13)


def test_conjugate_and_real_part():
    rng = np.random.default_rng(1)
    f = random_poly_field(SHAPE, rng)
    z = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
    assert_allclose(f.conjugate()(z), np.conj(f(z)), atol=1e-13)
    assert abs(f.real_part()(z).imag) < 1e-13


def test_evaluate_many_agrees_with_single_calls():
    rng = np.random.default_rng(2)
    f = random_poly_field(SHAPE, rng)
    pts = rng.standard_normal((5,) + SHAPE) + 1j * rng.standard_normal((5,) + SHAPE)
    batch = f.evaluate_many(pts)
    singles = np.array([f(p) for p in pts])
    assert_allclose(batch, singles, atol=1e-13)


def test_evaluate_many_of_an_empty_stack_is_empty():
    f = random_poly_field(SHAPE, np.random.default_rng(2))
    values = f.evaluate_many(np.empty((0,) + SHAPE, dtype=complex))
    assert values.shape == (0,) and values.dtype == complex


def test_exact_derivatives_on_monomial():
    # f = z_0^2 zbar_1
    f = coord(0) * coord(0) * coord(1, conjugated=True)
    z = np.array([[1.0 + 1.0j, 2.0 - 1.0j], [0.3, 0.7j]])
    zf = z.reshape(-1)
    assert_allclose(f.dz(0)(z), 2.0 * zf[0] * np.conj(zf[1]), atol=1e-14)
    assert_allclose(f.dzbar(1)(z), zf[0] ** 2, atol=1e-14)
    assert f.dz(2).is_zero()


def test_hessian_exact_vs_finite_difference():
    # at FD_STEP the FD Hessian reads at most 3.6e-9 off the exact one over
    # seeds 0-199 (median 8.4e-10), so the atol holds with a margin of 28
    for seed in range(50):
        rng = np.random.default_rng(seed)
        f = random_poly_field(SHAPE, rng, degree=3)
        z = 0.3 * (rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE))
        H_exact = wirtinger_hessian(f, z)
        H_fd = wirtinger_hessian(OpaqueField(SHAPE, f), z)
        assert_allclose(H_fd, H_exact, atol=1e-7, err_msg=f"seed {seed}")


def _fd_gradient(u, z, sign):
    """Central-difference oracle of the Wirtinger gradient, entry a being
    1/2 (d_x + sign i d_y): sign -1 gives d/dz_a, sign +1 d/dzbar_a. Step
    1e-6 and one Richardson step, four one-point calls per entry and
    level."""
    zf = np.asarray(z, dtype=complex).reshape(-1)
    size = zf.size

    def diff(h):
        g = np.empty(size, dtype=complex)
        for a in range(size):
            ex = np.zeros(size, dtype=complex)
            ex[a] = h
            dfx = (u(zf + ex) - u(zf - ex)) / (2.0 * h)
            dfy = (u(zf + 1j * ex) - u(zf - 1j * ex)) / (2.0 * h)
            g[a] = 0.5 * (dfx + sign * (1j * dfy))
        return g

    g = diff(1e-6)
    return (4.0 * diff(0.5e-6) - g) / 3.0


def test_gradients_exact_vs_finite_difference():
    rng = np.random.default_rng(4)
    f = random_poly_field(SHAPE, rng, degree=3)
    z = 0.3 * (rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE))
    assert_allclose(_fd_gradient(f, z, -1.0), wirtinger_gradient(f, z), atol=1e-9)
    assert_allclose(_fd_gradient(f, z, 1.0), wirtinger_gradient_bar(f, z), atol=1e-9)


@pytest.mark.parametrize("gradient", [wirtinger_gradient, wirtinger_gradient_bar])
def test_gradients_are_exact_only(gradient):
    # an opaque field has no gradient: the FD route is the Hessian's alone
    u = OpaqueField(SHAPE, lambda z: complex(np.sum(z)))
    with pytest.raises(TypeError, match="PolyField"):
        gradient(u, np.zeros(SHAPE))


def test_hessian_of_modulus_squared_is_identity_block():
    # u = sum |z_a|^2 has mixed Hessian equal to the identity
    u = PolyField(SHAPE, {})
    for a in range(4):
        u = u + coord(a) * coord(a, conjugated=True)
    z = np.array([[0.2, -0.1j], [0.4 + 0.2j, 0.0]])
    assert_allclose(wirtinger_hessian(u, z), np.eye(4), atol=1e-14)


def test_pluriharmonic_has_zero_mixed_hessian():
    # Re(z_0 z_3) is pluriharmonic
    u = (coord(0) * coord(3)).real_part()
    z = np.array([[0.5, 0.1], [0.2j, 0.3 - 0.2j]])
    assert_allclose(wirtinger_hessian(u, z), np.zeros((4, 4)), atol=1e-14)


def test_compose_holomorphic_matches_pointwise():
    rng = np.random.default_rng(5)
    f = random_poly_field(SHAPE, rng, degree=3)
    out_shape = (1, 2)
    lam0 = PolyField.coordinate(out_shape, 0)
    lam1 = PolyField.coordinate(out_shape, 1)
    comps = [lam0, lam0 * lam1, lam1 * lam1, lam0 + lam1 * 2.0]
    g = f.compose_holomorphic(comps, out_shape)
    lam = np.array([0.3 - 0.1j, 0.2 + 0.4j])
    z = np.array([c(lam) for c in comps]).reshape(SHAPE)
    assert_allclose(g(lam), f(z), atol=1e-12)


def test_compose_rejects_antiholomorphic_components():
    f = coord(0)
    out_shape = (1, 2)
    bad = PolyField.coordinate(out_shape, 0, conjugated=True)
    good = PolyField.coordinate(out_shape, 1)
    with pytest.raises(ValueError):
        f.compose_holomorphic([bad, good, good, good], out_shape)


def _reference_real_hessian(fn, x0, h):
    """The per-pair stencil loop over a real vector that the blocked
    complex stencil replaced; kept as the bit-for-bit reference."""
    d = len(x0)
    f0 = fn(x0)
    H = np.zeros((d, d), dtype=complex)
    shifts = {}
    for i in range(d):
        for s in (h, -h):
            x = x0.copy()
            x[i] += s
            shifts[(i, s)] = fn(x)
    for i in range(d):
        H[i, i] = (shifts[(i, h)] - 2.0 * f0 + shifts[(i, -h)]) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            xpp = x0.copy()
            xpp[[i, j]] += h
            xmm = x0.copy()
            xmm[[i, j]] -= h
            xpm = x0.copy()
            xpm[i] += h
            xpm[j] -= h
            xmp = x0.copy()
            xmp[i] -= h
            xmp[j] += h
            val = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * h**2)
            H[i, j] = val
            H[j, i] = val
    return H


def _wirtinger_combination(R):
    """The mixed Wirtinger Hessian from the real Hessian over (Re z, Im z)."""
    size = len(R) // 2
    Hxx = R[:size, :size]
    Hyy = R[size:, size:]
    Hxy = R[:size, size:]
    Hyx = R[size:, :size]
    return 0.25 * (Hxx + Hyy) + 0.25j * (Hxy - Hyx)


def _reference_wirtinger_hessian(u, z, step, richardson):
    zf = np.asarray(z, dtype=complex).reshape(-1)
    size = zf.size
    x0 = np.concatenate([zf.real, zf.imag])

    def fn(x):
        return complex(u(x[:size] + 1j * x[size:]))

    R = _reference_real_hessian(fn, x0, step)
    if richardson:
        R2 = _reference_real_hessian(fn, x0, step / 2.0)
        R = (4.0 * R2 - R) / 3.0
    return _wirtinger_combination(R)


def _kernel_case(spec):
    z = domains.sample_interior(spec, 0, 1)[0]
    w = domains.sample_silov(spec, 1, 1)[0]
    return kernels.kernel_field(spec, w), z


def _poly_case():
    rng = np.random.default_rng(6)
    f = random_poly_field(SHAPE, rng, degree=4)
    assert any(any(we) for (_, we) in f.terms)  # not holomorphic
    z = 0.3 * (rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE))
    return OpaqueField(SHAPE, f), z


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize(
    "case",
    [
        lambda: _kernel_case(type_i(2, 3)),
        lambda: _kernel_case(type_ii(3)),
        lambda: _kernel_case(type_iii(4)),
        _poly_case,
    ],
    ids=["kernel-I(2,3)", "kernel-II(3)", "kernel-III(4)", "poly"],
)
def test_blocked_stencil_equals_per_pair_reference(case, richardson):
    u, z = case()
    if richardson:
        H = wirtinger_hessian(u, z)
    else:
        # the one-level stencil that wirtinger_hessian extrapolates from
        R = fields._real_hessian(u, z.reshape(-1), fields.FD_STEP)
        H = _wirtinger_combination(R)
    H_ref = _reference_wirtinger_hessian(u, z, fields.FD_STEP, richardson)
    assert np.array_equal(H, H_ref)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3)])
def test_fd_hessian_evaluates_once_per_stencil_point(shape):
    calls = []

    def fn(z):
        calls.append(z.shape)
        return complex(np.sum(z * z.conj()))

    z = np.full(shape, 0.1 + 0.2j)
    d = 2 * z.size
    wirtinger_hessian(OpaqueField(shape, fn), z)
    assert len(calls) == 2 + 4 * d * d
    assert set(calls) == {shape}


def _inline_stencil_rows(zf, h):
    """The stencil rows as _stencil_values built them before the layout was
    cached: every index and sign array made afresh at each level."""
    d = 2 * zf.size
    col = np.concatenate([np.arange(0, d, 2), np.arange(1, d, 2)])
    iu, ju = np.triu_indices(d, 1)
    rows = np.tile(zf, (1 + 2 * d + 4 * len(iu), 1))
    X = rows.view(np.float64)
    X[1 + np.arange(2 * d), np.repeat(col, 2)] += np.tile([h, -h], d)
    quad = np.arange(1 + 2 * d, len(rows))
    X[quad, np.repeat(col[iu], 4)] += np.tile([h, h, -h, -h], len(iu))
    X[quad, np.repeat(col[ju], 4)] += np.tile([h, -h, h, -h], len(iu))
    return rows


@pytest.mark.parametrize("size", [1, 4, 6, 9, 16])
def test_stencil_rows_from_the_cached_layout_equal_the_inline_rows(size):
    rng = np.random.default_rng(size)
    zf = 0.3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    seen = []

    def fn(z):
        seen.append(z.reshape(-1).copy())
        return np.sum(z * z.conj()) + z[0, 0]

    u = OpaqueField((1, size), fn)
    for h in (1e-3, 5e-4):
        seen.clear()
        values = fields._stencil_values(u, zf, h)
        rows = _inline_stencil_rows(zf, h)
        assert np.array(seen).tobytes() == rows.tobytes()
        v = np.array([complex(fn(row.reshape(1, size))) for row in rows])
        assert values.tobytes() == np.stack((v.real, v.imag), axis=-1).tobytes()
    layout = fields._stencil_layout(size)
    assert layout is fields._stencil_layout(size)
    for array in layout[1:]:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_opaque_field_passes_shaped_complex_rows_through():
    # a row of evaluate_many reaches fn as it is; other input is converted
    # and reshaped, and the value is a complex either way
    seen = []
    u = OpaqueField((2, 2), lambda z: seen.append(z) or 1)
    row = np.full((2, 2), 0.5 + 0.1j)
    assert type(u(row)) is complex
    assert seen[-1] is row
    assert u([0.5, 1, 2, 3]) == 1
    assert seen[-1].shape == (2, 2) and seen[-1].dtype == complex
    assert type(u(np.ones((1, 4)))) is complex
    assert seen[-1].shape == (2, 2) and seen[-1].dtype == complex


def test_constructor_rejects_exponents_of_wrong_length():
    with pytest.raises(ValueError, match="exponent length"):
        PolyField(SHAPE, {((1, 0, 0), (0, 0, 0, 0)): 1.0})
    with pytest.raises(ValueError, match="exponent length"):
        PolyField(SHAPE, {((1, 0, 0, 0), (0, 0, 0, 0, 0)): 1.0})


def test_exact_hessian_rejects_point_of_wrong_size():
    with pytest.raises(ValueError, match="point size"):
        wirtinger_hessian(coord(0), np.zeros((1, 5)))


@pytest.mark.parametrize("point_shape", [(1, 3), (1, 1)], ids=["more", "fewer"])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda u, z: u(z),
        lambda u, z: u.evaluate_many(z[np.newaxis]),
        wirtinger_gradient,
        wirtinger_gradient_bar,
    ],
    ids=["call", "evaluate_many", "gradient", "gradient_bar"],
)
def test_poly_evaluators_reject_point_of_wrong_size(evaluate, point_shape):
    # z_0 zbar_1 over (1, 2): neither the leading entries of a longer point
    # nor a shorter point give a value
    u = PolyField((1, 2), {((1, 0), (0, 1)): 1.0})
    z = np.full(point_shape, 0.1 + 0.2j)
    with pytest.raises(ValueError, match="point size does not match field shape"):
        evaluate(u, z)


def _bits(a):
    """The IEEE bit patterns of a complex array, sign bits included."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def _reference_poly_hessian(u, z):
    """The derivative-field loop the direct exact Hessian replaced; kept as
    the bit-for-bit reference."""
    z = np.asarray(z, dtype=complex)
    size = z.size
    H = np.empty((size, size), dtype=complex)
    for a in range(size):
        dua = u.dz(a)
        for b in range(size):
            H[a, b] = dua.dzbar(b)(z)
    return H


def _raw_field(shape, terms):
    """A field storing tuple-key terms as given: no merge and no drop."""
    packed = [fields._pack(key, shape[0] * shape[1]) for key in terms]
    return PolyField._of(
        shape, {k: c for (k, _), c in zip(packed, terms.values())}, max(e for _, e in packed)
    )


def _near_drop_field():
    """z_0^2 zbar_0^2 zbar_1 and z_1^2 zbar_1^2 with coefficients 6e-16 and
    4e-16, next to an O(1) term: the first derivative keeps 1.2e-15 and
    drops 8e-16. The constructor would drop both small terms, so the terms
    are stored directly."""
    return _raw_field(
        (1, 2),
        {
            ((2, 0), (2, 1)): 6e-16 + 0j,
            ((0, 2), (0, 2)): 4e-16 + 0j,
            ((1, 1), (1, 0)): -0.5 + 0.25j,
        },
    )


def _inf_field():
    """(1 + inf i) z_0 zbar_0 + 2 z_1 zbar_1: d/dz_0 keeps (nan + inf i),
    whose magnitude is inf, and d/dzbar_0 of that drops (nan + nan i)."""
    return PolyField(
        (1, 2), {((1, 0), (1, 0)): complex(1.0, np.inf), ((0, 1), (0, 1)): 2.0}
    )


def _reference_call(u, z):
    """The scalar loop of __call__ before the plans, over the tuple-key
    terms; kept as the bit-for-bit reference."""
    zs = np.asarray(z, dtype=complex).reshape(-1).tolist()
    total = 0.0 + 0.0j
    for (ze, we), c in u.terms.items():
        v = c
        for a, e in enumerate(ze):
            if e:
                v *= zs[a] ** e
        for a, e in enumerate(we):
            if e:
                v *= zs[a].conjugate() ** e
        total += v
    return total


def _exact_cases():
    """(field, point) pairs: random fields, real parts, points with signed
    zeros, and the near-drop and infinite-coefficient fields."""
    rng = np.random.default_rng(19)
    cases = []
    for shape in [(1, 2), (2, 3), (3, 3)]:
        for real_valued in (False, True):
            for _ in range(3):
                u = random_poly_field(shape, rng, degree=5, n_terms=12)
                if real_valued:
                    u = u.real_part()
                z = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                cases.append((u, z))
        # zero entries keep their sign bits: -0.0 parts of z
        z = np.full(shape, -0.0 - 0.0j)
        z.reshape(-1)[0] = 0.3 - 0.0j
        z.reshape(-1)[1] = complex(-0.0, 0.4)
        cases.append((random_poly_field(shape, rng, degree=3, n_terms=6), z))
    z = np.array([[0.7 - 0.2j, -0.4 + 0.9j]])
    cases += [(_near_drop_field(), z), (_inf_field(), z)]
    return cases


def test_call_equals_the_scalar_loop():
    for u, z in _exact_cases():
        for f in (u, u.conjugate(), u.dz(0), u.dzbar(1)):
            assert np.array_equal(_bits(f(z)), _bits(_reference_call(f, z)))


def _reference_many(u, pts):
    """The array loop of evaluate_many before it ran the value plan; kept
    as the bit-for-bit reference."""
    zf = np.asarray(pts, dtype=complex).reshape(len(pts), u.size)
    out = np.zeros(len(pts), dtype=complex)
    for c, ze, we in u.monomials():
        v = np.full(len(pts), c, dtype=complex)
        for a, e in ze:
            v = v * zf[:, a] ** e
        for a, e in we:
            v = v * zf[:, a].conj() ** e
        out += v
    return out


def _assert_stack_bits(fields_, z, rng):
    """evaluate_many equals _reference_many bit for bit on stacks of 0, 1
    and 7 rows, the point z and its sign flips and conjugates first, and a
    row of the 7-row stack equals that row as a stack of one."""
    re, im = rng.standard_normal((2, 3) + z.shape)
    stack = np.concatenate([np.stack([z, -z, z.conj(), -z.conj()]), 0.5 * (re + 1j * im)])
    for f in fields_:
        for rows in (stack[:0], stack[:1], stack):
            values = f.evaluate_many(rows)
            assert values.shape == (len(rows),) and values.dtype == complex
            assert np.array_equal(_bits(values), _bits(_reference_many(f, rows)))
        for i, row in enumerate(stack):
            assert np.array_equal(_bits(values[i]), _bits(f.evaluate_many(row[np.newaxis])))


def test_evaluate_many_equals_the_array_loop():
    rng = np.random.default_rng(23)
    for u, z in _exact_cases():
        fields_ = (u, u.conjugate(), u.dz(0), u.dzbar(1))
        if any(np.isinf(c) for c, _, _ in u.monomials()):
            # inf times an entry gives inf - inf in numpy's array multiply,
            # which warns; the Python complex product of a point does not
            with pytest.warns(RuntimeWarning, match="invalid value encountered in multiply"):
                _assert_stack_bits(fields_, z, rng)
        else:
            _assert_stack_bits(fields_, z, rng)
    shape = (2, 3)
    z = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    _assert_stack_bits((PolyField.constant(shape, 0.3 - 0.7j), PolyField(shape)), z, rng)


def test_exact_gradients_equal_the_derivative_fields():
    for u, z in _exact_cases():
        size = u.size
        dz = np.array([u.dz(a)(z) for a in range(size)], dtype=complex)
        dzbar = np.array([u.dzbar(a)(z) for a in range(size)], dtype=complex)
        assert np.array_equal(_bits(wirtinger_gradient(u, z)), _bits(dz))
        assert np.array_equal(_bits(wirtinger_gradient_bar(u, z)), _bits(dzbar))


def test_terms_are_read_only():
    u = PolyField((1, 2), {((1, 0), (0, 1)): 2.0})
    with pytest.raises(AttributeError):
        u.terms = {((0, 1), (0, 0)): 1.0}
    assert u.terms == {((1, 0), (0, 1)): 2.0}


@pytest.mark.parametrize("shape", [(1, 2), (1, 3), (2, 3), (3, 3), (4, 4)])
def test_exact_hessian_equals_derivative_field_loop(shape):
    rng = np.random.default_rng(sum(shape))
    for real_valued in (False, True):
        for _ in range(4):
            u = random_poly_field(shape, rng, degree=5, n_terms=12)
            if real_valued:
                u = u.real_part()
            z = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            H = wirtinger_hessian(u, z)
            assert np.array_equal(_bits(H), _bits(_reference_poly_hessian(u, z)))
    # zero entries keep their sign bits: 0j sums and -0.0 parts of z
    u = random_poly_field(shape, rng, degree=3, n_terms=6)
    z = np.full(shape, -0.0 - 0.0j)
    z.reshape(-1)[0] = 0.3 - 0.0j
    H = wirtinger_hessian(u, z)
    assert np.array_equal(_bits(H), _bits(_reference_poly_hessian(u, z)))


def test_exact_hessian_plan_serves_many_points():
    rng = np.random.default_rng(16)
    shape = (2, 3)
    u = random_poly_field(shape, rng, degree=5, n_terms=12)
    pts = 0.5 * (rng.standard_normal((200,) + shape) + 1j * rng.standard_normal((200,) + shape))
    # signed zeros in either part, and whole zero entries
    pts[::5, 0, 0] = complex(-0.0, 0.3)
    pts[1::5, 0, 1] = complex(0.2, -0.0)
    pts[2::5, 1, 2] = complex(-0.0, -0.0)
    for z in pts:
        H = wirtinger_hessian(u, z)
        assert np.array_equal(_bits(H), _bits(_reference_poly_hessian(u, z)))


def test_exact_hessian_plan_is_built_once_per_field(monkeypatch):
    built = []
    reference = fields._build_plan

    def build(monomials, size, by_z, by_zbar):
        built.append((by_z, by_zbar))
        return reference(monomials, size, by_z, by_zbar)

    monkeypatch.setattr(fields, "_build_plan", build)
    rng = np.random.default_rng(18)
    u = random_poly_field(SHAPE, rng, degree=4, n_terms=10)
    zs = 0.5 * (rng.standard_normal((3,) + SHAPE) + 1j * rng.standard_normal((3,) + SHAPE))
    # value, d/dz, d/dzbar and the mixed Hessian: one plan each, at the
    # first point
    kinds = [
        ((False, False), u),
        ((True, False), lambda z: wirtinger_gradient(u, z)),
        ((False, True), lambda z: wirtinger_gradient_bar(u, z)),
        ((True, True), lambda z: wirtinger_hessian(u, z)),
    ]
    for i, (kind, evaluate) in enumerate(kinds):
        for z in zs:
            evaluate(z)
        assert built == [k for k, _ in kinds[: i + 1]]


def test_exact_hessian_drops_what_the_derivative_fields_drop():
    z = np.array([[0.7 - 0.2j, -0.4 + 0.9j]])
    u = _near_drop_field()
    H = wirtinger_hessian(u, z)
    assert np.array_equal(_bits(H), _bits(_reference_poly_hessian(u, z)))
    assert H[0, 0] != 0 and H[1, 1] == 0
    u = _inf_field()
    H = wirtinger_hessian(u, z)
    assert np.array_equal(_bits(H), _bits(_reference_poly_hessian(u, z)))
    assert H[0, 0] == 0 and H[1, 1] == 2.0


def _reference_compose(f, components, out_shape):
    """The repeated result + term composition the one-dict sum replaced;
    kept as the bit-for-bit reference."""
    one = PolyField.constant(out_shape, 1.0)

    def power(base, e):
        acc = one
        for _ in range(e):
            acc = acc * base
        return acc

    result = PolyField(out_shape, {})
    for (ze, we), c in f.terms.items():
        term = one * c
        for a, e in enumerate(ze):
            if e:
                term = term * power(components[a], e)
        for a, e in enumerate(we):
            if e:
                term = term * power(components[a].conjugate(), e)
        result = result + term
    return result


def _term_bits(f):
    """Keys in order with the bit patterns of their coefficients."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in f.terms.items()]


def _embedding_cases():
    rng = np.random.default_rng(8)
    xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    e1 = embeddings.type_i_embedding(xi / np.linalg.norm(xi), 3)
    e2 = embeddings.type_ii_embedding(domains.haar_unitaries(rng, 1, 3)[0])
    e3 = embeddings.type_iii_embedding(4)
    # entry 5 is a zero component of the corner map: its conjugate ends a
    # monomial first, after a nonzero factor, or alone
    z = [PolyField.coordinate((4, 4), a) for a in range(16)]
    zb = [PolyField.coordinate((4, 4), a, conjugated=True) for a in range(16)]
    conj_zero = (
        zb[5] * zb[2] + z[1] * zb[5] + zb[5] * 2.0 + z[3] * zb[1] + zb[2] * zb[4] * 0.5j
    )
    return [
        (e1, random_poly_field((2, 3), rng, degree=4, n_terms=8)),
        (e2, random_poly_field((3, 3), rng, degree=2, n_terms=6)),
        (e3, random_poly_field((4, 4), rng, degree=2, n_terms=30)),
        (e3, conj_zero),
    ]


def test_compose_equals_repeated_addition_on_the_embeddings():
    for e, u in _embedding_cases():
        components = list(e.components)
        g = u.compose_holomorphic(components, e.ball_shape())
        ref = _reference_compose(u, components, e.ball_shape())
        assert len(g.terms) > 1
        assert _term_bits(g) == _term_bits(ref)


def test_compose_rejects_components_over_another_shape():
    out_shape = (1, 2)
    components = [PolyField.coordinate(out_shape, 0), PolyField.coordinate((1, 3), 2)]
    # z_1 reads the mis-shaped component, z_0 never does
    for a in (1, 0):
        u = PolyField.coordinate((1, 2), a)
        with pytest.raises(ValueError, match="fields over out_shape"):
            u.compose_holomorphic(components, out_shape)


def test_compose_cancelled_key_reenters_at_the_end():
    # z_0 and -z_1 both map to lam_0 and cancel; z_2 adds lam_1; z_3 brings
    # lam_0 back, after lam_1
    f = PolyField((1, 4), {
        ((1, 0, 0, 0), (0,) * 4): 1.0,
        ((0, 1, 0, 0), (0,) * 4): -1.0,
        ((0, 0, 1, 0), (0,) * 4): 2.0,
        ((0, 0, 0, 1), (0,) * 4): 0.5 + 1e-16j,
    })
    out_shape = (1, 2)
    lam0 = PolyField.coordinate(out_shape, 0)
    lam1 = PolyField.coordinate(out_shape, 1)
    components = [lam0, lam0, lam1, lam0]
    g = f.compose_holomorphic(components, out_shape)
    assert _term_bits(g) == _term_bits(_reference_compose(f, components, out_shape))
    assert list(g.terms) == [((0, 1), (0, 0)), ((1, 0), (0, 0))]


def _canonical_bits(terms):
    """_term_bits of tuple-key terms stored as 0.0 + c and kept above
    COEFF_DROP."""
    out = []
    for k, c in terms.items():
        c = 0.0 + c
        if abs(c) > COEFF_DROP:
            out.append((k, c.real.hex(), c.imag.hex()))
    return out


def _tuple_lowered(exps, a):
    return exps[:a] + (exps[a] - 1,) + exps[a + 1 :]


@pytest.mark.parametrize("exponent", [EXP_LIMIT, EXP_LIMIT + 5, -1])
def test_exponent_outside_the_packed_range_raises(exponent):
    key = ((exponent, 0), (0, 0))
    with pytest.raises(ValueError, match="exponent"):
        PolyField((1, 2), {key: 1.0})


def test_product_whose_exponent_would_overflow_raises():
    half = EXP_LIMIT // 2
    f = PolyField((1, 2), {((half, 0), (0, 1)): 1.0})
    with pytest.raises(ValueError, match="product exponent"):
        f * f
    with pytest.raises(ValueError, match="product exponent"):
        f.conjugate() * PolyField((1, 2), {((0, 0), (half, 0)): 1.0})
    # the largest exponent that fits stays exact
    g = f * PolyField((1, 2), {((half - 1, 0), (0, 0)): 1.0})
    assert list(g.terms) == [((EXP_LIMIT - 1, 0), (0, 1))]
    # large exponents in different entries do not add up
    h = f * PolyField((1, 2), {((0, half), (0, 0)): 1.0})
    assert list(h.terms) == [((half, half), (0, 1))]
    assert list((h * h.conjugate()).terms) == [((half, half + 1), (half, half + 1))]


def test_terms_read_back_as_set():
    rng = np.random.default_rng(14)
    terms = {}
    for _ in range(20):
        key = tuple(tuple(int(e) for e in rng.integers(0, 4, 6)) for _ in range(2))
        terms[key] = complex(rng.standard_normal(), rng.standard_normal())
    terms[((0,) * 6, (0,) * 6)] = complex(-0.0, 5e-17)  # kept as set, not dropped
    back = _raw_field((2, 3), terms).terms
    assert list(back) == list(terms)
    assert [(c.real.hex(), c.imag.hex()) for c in back.values()] == [
        (c.real.hex(), c.imag.hex()) for c in terms.values()
    ]


def test_conjugate_and_derivatives_match_tuple_key_reference():
    rng = np.random.default_rng(15)
    shape = (2, 3)
    for real_valued in (False, True):
        u = random_poly_field(shape, rng, degree=5, n_terms=15)
        if real_valued:
            u = u.real_part()
        terms = u.terms
        conj = {(we, ze): c.conjugate() for (ze, we), c in terms.items()}
        assert _term_bits(u.conjugate()) == _canonical_bits(conj)
        for a in range(6):
            dz = {
                (_tuple_lowered(ze, a), we): c * ze[a]
                for (ze, we), c in terms.items()
                if ze[a]
            }
            dzbar = {
                (ze, _tuple_lowered(we, a)): c * we[a]
                for (ze, we), c in terms.items()
                if we[a]
            }
            assert _term_bits(u.dz(a)) == _canonical_bits(dz)
            assert _term_bits(u.dzbar(a)) == _canonical_bits(dzbar)
