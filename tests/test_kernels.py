import gc
import operator
import pickle
import re
import sys
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from huacheck import campaigns, domains, kernels, operators
from huacheck.domains import type_i, type_ii, type_iii, type_iv
from huacheck.fields import FD_STEP, OpaqueField, PolyField, wirtinger_gradient, wirtinger_hessian


def pair(spec, seed=0):
    z = domains.sample_interior(spec, seed, 1)[0]
    w = domains.sample_silov(spec, seed + 1, 1)[0]
    return z, w


def test_kernel_is_one_at_the_origin():
    for spec in (type_i(2, 3), type_ii(2), type_iii(4)):
        w = domains.sample_silov(spec, 0, 1)[0]
        z0 = np.zeros(spec.shape)
        assert_allclose(kernels.poisson_szego(spec, z0, w), 1.0, atol=1e-14)


def test_kernel_positive_on_interior():
    spec = type_ii(3)
    z, w = pair(spec)
    assert kernels.poisson_szego(spec, z, w) > 0.0


def _two_det_kernel(spec, z, w):
    """The kernel from two separate determinants, as before the stacked det."""
    k = float(domains.kappa(spec))
    detv = np.linalg.det(kernels.v_matrix(z)).real
    detw = abs(np.linalg.det(kernels.w_matrix(z, w)))
    return float(np.exp(k * np.log(detv)) / detw ** (2.0 * k))


def _kernel_pairs(spec, margin, count=5):
    """count (z, w) pairs, z at operator norm 1 - margin."""
    ws = domains.sample_silov(spec, 13, count)
    for seed, w in enumerate(ws):
        z = domains.sample_interior(spec, seed, 1)[0]
        yield z * ((1.0 - margin) / np.linalg.norm(z, 2)), w


@pytest.mark.parametrize(
    "spec",
    [
        type_i(2, 2),
        type_i(2, 3),
        type_i(1, 3),
        type_ii(2),
        type_ii(3),
        type_iii(4),
        type_i(1, 1),
        type_ii(1),
        type_iii(2),
        type_iii(6),
        type_i(3, 4),
        type_i(2, 6),
        type_iii(8),
    ],
)
def test_stacked_kernel_equals_two_det_formula(spec):
    # the one-point generic-norm expansion rounds differently from LAPACK
    for margin, rtol in ((0.5, 1e-13), (1e-3, 1e-10)):
        for z, w in _kernel_pairs(spec, margin):
            p = kernels.poisson_szego(spec, z, w)
            assert type(p) is float
            assert_allclose(p, _two_det_kernel(spec, z, w), rtol=rtol)


@pytest.mark.parametrize("domain", ["I:2,3", "II:3", "III:4", "III:6"])
def test_one_point_kernel_on_the_fd_stencil(domain):
    # the stencil rows of a II point are not symmetric; by Cauchy-Binet the
    # expansion is det(I - z w*) there too. On III the Pfaffians read only the
    # upper triangle, so a row's value is the kernel at its antisymmetrized
    # triangle, and a field's one evaluator stores it once per triangle: its
    # rows have the bits of bare calls, each of which builds a fresh evaluator
    spec = domains.parse_spec(domain)
    z, w = pair(spec, seed=16)
    rows = []
    field = OpaqueField(spec.shape, lambda x: rows.append(x.copy()) or 0.0)
    wirtinger_hessian(field, z)
    # two Richardson levels of 1 + 2 d^2 rows, d = 2 m n real coordinates
    assert len(rows) == 2 + 4 * (2 * spec.size) ** 2
    got = [kernels.poisson_szego(spec, x, w) for x in rows]
    references = rows
    if spec.family == "II":
        assert max(np.abs(x - x.T).max() for x in rows) >= FD_STEP
    if spec.family == "III":
        upper = [np.triu(x, 1) for x in rows]
        triangles = len({tuple(u[np.triu_indices(spec.n, 1)]) for u in upper})
        assert triangles == {4: 577, 6: 3601}[spec.n]
        references = [u - u.T for u in upper]
        field = kernels.kernel_field(spec, w)
        assert [field(x).real for x in rows] == got
    assert_allclose(got, [_two_det_kernel(spec, x, w) for x in references], rtol=1e-13)


@pytest.mark.parametrize("domain", ["I:2,3", "II:3", "III:4", "III:6"])
def test_kernel_field_rows_equal_bare_calls(domain, monkeypatch):
    # the field builds w's evaluator once and hands it to each row's
    # poisson_szego; a bare call builds a fresh evaluator for its one row
    spec = domains.parse_spec(domain)
    z, w = pair(spec, seed=16)
    bare = kernels.poisson_szego
    rows, values = [], []

    def recorded(spec_, x, w_, **kwargs):
        rows.append(x.copy())
        values.append(bare(spec_, x, w_, **kwargs))
        return values[-1]

    monkeypatch.setattr(kernels, "poisson_szego", recorded)
    wirtinger_hessian(kernels.kernel_field(spec, w), z)
    monkeypatch.undo()
    assert len(rows) == 2 + 4 * (2 * spec.size) ** 2
    assert [bare(spec, x, w) for x in rows] == values


def test_kernel_field_keeps_the_w_it_was_made_from():
    spec = type_iii(4)
    z, w = pair(spec, seed=34)
    original = w.copy()
    field = kernels.kernel_field(spec, w)
    value = field(z)
    w[...] = domains.sample_silov(spec, 36, 1)[0]
    assert field(z) == value == kernels.poisson_szego(spec, z, original)
    assert kernels.poisson_szego(spec, z, w) != value


def test_kernel_field_checks_w_when_made():
    with pytest.raises(ValueError, match="no determinant kernel for TypeIV"):
        kernels.kernel_field(type_iv(3), np.zeros((1, 3)))
    spec = type_i(2, 2)
    _, w = pair(spec, seed=18)
    for bad in (w[:, :-1], np.stack([w, w, w])):
        with pytest.raises(ValueError, match=re.escape(f"of shape {spec.shape}")):
            kernels.kernel_field(spec, bad)


def _counted_evaluations(monkeypatch):
    """A list that grows by one at each call of a compiled expansion made
    from here on: w's features or one point evaluation of z."""
    evaluations = []
    expansion = kernels._expansion

    def counted(spec):
        features, point = expansion(spec)
        return (
            lambda x: evaluations.append(1) or features(x),
            lambda x, coefficients: evaluations.append(1) or point(x, coefficients),
        )

    monkeypatch.setattr(kernels, "_expansion", counted)
    return evaluations


def test_point_store_lives_with_its_field(monkeypatch):
    # a III(4) Hessian evaluates each of its 577 triangles once, a second
    # field at the same w evaluates afresh, and a field's evaluator, with its
    # store, goes when the field does
    spec = type_iii(4)
    z, w = pair(spec, seed=21)
    evaluators = []
    point_kernel = kernels._point_kernel

    def recorded(spec_, w_):
        evaluator = point_kernel(spec_, w_)
        evaluators.append(weakref.ref(evaluator))
        return evaluator

    monkeypatch.setattr(kernels, "_point_kernel", recorded)
    evaluations = _counted_evaluations(monkeypatch)
    field = kernels.kernel_field(spec, w)
    wirtinger_hessian(field, z)
    # w's coefficients, then one evaluation per triangle
    assert len(evaluations) == 1 + 577
    value = field(z)
    assert len(evaluations) == 1 + 577
    del evaluations[:]
    second = kernels.kernel_field(spec, w)
    assert second(z) == value
    assert len(evaluations) == 2
    assert all(ref() is not None for ref in evaluators)
    del field
    gc.collect()
    assert evaluators[0]() is None and evaluators[1]() is not None


def test_iii_rows_off_the_upper_triangle_share_one_evaluation(monkeypatch):
    # the III store is keyed by the upper triangle alone: moving entries on
    # or below the diagonal finds the stored value, moving one above it
    # evaluates again
    spec = type_iii(4)
    z, w = pair(spec, seed=29)
    evaluations = _counted_evaluations(monkeypatch)
    field = kernels.kernel_field(spec, w)
    value = field(z)
    assert len(evaluations) == 2
    for i, j in ((0, 0), (2, 2), (1, 0), (3, 1), (3, 2)):
        moved = z.copy()
        moved[i, j] += 0.01 - 0.02j
        assert field(moved) == value
    assert len(evaluations) == 2
    moved = z.copy()
    moved[1, 3] += 0.01 - 0.02j
    assert field(moved) != value
    assert len(evaluations) == 3


@pytest.mark.parametrize("n", [2, 4])
def test_real_and_complex_z_give_one_iii_value(n, monkeypatch):
    # a real z keys the III store as z + 0j: fresh evaluators give one value
    # for both, and one evaluator stores it once for both
    spec = type_iii(n)
    z, w = pair(spec, seed=31)
    real = np.ascontiguousarray(z.real)
    fresh_real = kernels.poisson_szego(spec, real, w)
    fresh_complex = kernels.poisson_szego(spec, real.astype(complex), w)
    evaluations = _counted_evaluations(monkeypatch)
    point = kernels._point_kernel(spec, w)
    stored = [point(real), point(real.astype(complex)), point(real)]
    assert len(evaluations) == 2
    assert fresh_real == fresh_complex == stored[0] == stored[1] == stored[2]
    assert_allclose(fresh_real, _two_det_kernel(spec, real, w), rtol=1e-13)


# the ids keep the suite's names for these cases: True marks the tables of
# at most 32 terms
@pytest.mark.parametrize(
    "domain",
    ["I:2,2", "I:2,3", "II:2", "II:3", "III:4", "I:3,3", "III:6", "I:3,4", "III:8"],
    ids=lambda d: f"{d}-{d not in ('III:6', 'I:3,4', 'III:8')}",
)
def test_one_point_route_follows_the_table_size(domain, monkeypatch):
    # every table sums the generic-norm expansion: no one-point call makes a
    # LAPACK det
    spec = domains.parse_spec(domain)
    z, w = pair(spec, seed=17)
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
    assert kernels.poisson_szego(spec, z, w) > 0.0
    assert calls == []


@pytest.mark.parametrize("domain", ["I:2,2", "III:6"])
def test_one_point_kernel_rejects_other_shapes(domain):
    # without the check the expansion read any z of the right length
    spec = domains.parse_spec(domain)
    z, w = pair(spec, seed=18)
    bad = [(np.stack([z, z, z]), w), (z.reshape(-1)[None, :], w), (z, w[:, :-1])]
    for zz, ww in bad:
        with pytest.raises(ValueError, match=re.escape(f"of shape {spec.shape}")):
            kernels.poisson_szego(spec, zz, ww)


@pytest.mark.parametrize(
    "domain, stacked",
    [("I:2,2", False), ("I:3,4", False), ("I:2,2", True)],
    ids=["expansion", "expansion-60-terms", "stack"],
)
def test_kernel_raises_where_det_v_is_not_positive(domain, stacked):
    # a stack and a bare call check membership first; a field's row, which
    # is not checked, still meets det V(z) <= 0 in its evaluator
    spec = domains.parse_spec(domain)
    z, w = pair(spec, seed=19)
    z *= 1.3 / np.linalg.norm(z, 2)
    assert np.linalg.det(domains.v_matrix(z)).real < 0.0
    if stacked:
        ws = domains.sample_silov(spec, seed=20, count=3)
        with pytest.raises(ValueError, match="point 0 is not interior"):
            kernels.poisson_szego(spec, z, ws)
        return
    with pytest.raises(ValueError, match="point 0 is not interior"):
        kernels.poisson_szego(spec, z, w)
    with pytest.raises(ValueError, match=re.escape("det V(z) <= 0")):
        kernels.kernel_field(spec, w)(z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stacked", [False, True], ids=["one-point", "stack"])
def test_kernel_rejects_points_outside_the_domain(stacked):
    # det V(1.5 w) = (1 - 2.25)^2 > 0 on II(2), where both routes returned
    # 25^kappa = 125; a NaN margin is not > 0 either
    spec = type_ii(2)
    w = domains.sample_silov(spec, seed=22, count=1)[0]
    z = 1.5 * w
    assert np.linalg.det(domains.v_matrix(z)).real > 0.0
    assert domains.membership_margin(spec, z) == pytest.approx(-1.25)
    nan = np.full(spec.shape, np.nan, dtype=complex)
    if stacked:
        ws = domains.sample_silov(spec, seed=23, count=3)
        cases = [(z, ws, 0, "-1.25"), (np.stack([0.5 * w, z]), ws, 1, "-1.25")]
        cases.append((np.stack([0.5 * w, nan]), ws, 1, "nan"))
    else:
        cases = [(z, w, 0, "-1.25"), (nan, w, 0, "nan")]
    for zz, ww, i, margin in cases:
        message = rf"point {i} is not interior to II\(2\) \(membership margin {margin}\)"
        with pytest.raises(ValueError, match=message):
            kernels.poisson_szego(spec, zz, ww)


STACK_DOMAINS = ["I:2,3", "I:1,3", "I:3,3", "II:3", "III:4", "III:6"]


@pytest.mark.parametrize("margin", [None, 1e-3], ids=["interior", "margin-1e-3"])
@pytest.mark.parametrize("domain", STACK_DOMAINS)
def test_stacked_kernel_matches_per_row_kernel(domain, margin):
    spec = domains.parse_spec(domain)
    batch = domains.sample_silov(spec, seed=12, count=300)
    z = domains.sample_interior(spec, seed=13, count=1)[0]
    rtol = 1e-12
    if margin is not None:
        # operator norm sqrt(1 - margin) puts z at that membership margin
        z *= np.sqrt(1.0 - margin) / np.linalg.norm(z, 2)
        assert domains.membership_margin(spec, z) == pytest.approx(margin)
        rtol = 1e-10
    rows = [kernels.poisson_szego(spec, z, w) for w in batch]
    assert all(type(p) is float for p in rows)
    stacked = kernels.poisson_szego(spec, z, batch)
    assert stacked.shape == (len(batch),)
    assert_allclose(stacked, rows, rtol=rtol)


@pytest.mark.parametrize("domain", STACK_DOMAINS)
def test_point_stack_kernel_equals_one_point_stacks(domain):
    # a (Z, N) stack over two blocks; each point's row is bit for bit its own
    spec = domains.parse_spec(domain)
    ws = domains.sample_silov(spec, seed=25, count=domains.SILOV_CHUNK + 37)
    zs = domains.sample_interior(spec, seed=26, count=3)
    stacked = kernels.poisson_szego(spec, zs, ws)
    assert stacked.shape == (3, len(ws))
    for z, row in zip(zs, stacked):
        assert np.array_equal(row, kernels.poisson_szego(spec, z, ws))


GENERIC_NORM_DOMAINS = [
    "I:1,1", "I:1,3", "I:2,2", "I:2,3", "I:3,3",
    "II:1", "II:2", "II:3",
    "III:2", "III:4", "III:6",
]


def _family_matrices(spec, rng, count):
    """Gaussian matrices of the family's shape and symmetry, off the boundary."""
    shape = (count,) + spec.shape
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if spec.family == "II":
        return g + g.transpose(0, 2, 1)
    if spec.family == "III":
        return g - g.transpose(0, 2, 1)
    return g


@pytest.mark.parametrize("domain", GENERIC_NORM_DOMAINS)
def test_generic_norm_equals_det(domain):
    # the expansion is an algebraic identity, so it holds for Silov draws and
    # for arbitrary family matrices alike; on III the value is h^2 itself
    spec = domains.parse_spec(domain)
    z = domains.sample_interior(spec, seed=27, count=1)[0]
    # operator norm sqrt(1 - margin) puts z at that membership margin
    z = z / np.linalg.norm(z, 2)
    zs = np.array([z * np.sqrt(1.0 - margin) for margin in (0.5, 1e-3)])
    for ws in (
        domains.sample_silov(spec, seed=28, count=500),
        _family_matrices(spec, np.random.default_rng(29), 500),
    ):
        dets = kernels._generic_norm_dets(spec, ws, kernels.poisson_points(spec, zs).coefficients)
        assert dets.shape == (2, len(ws))
        for point, row in zip(zs, dets):
            # det(I - w z*) is the conjugate of det(I - z w*)
            wh = ws.conj().transpose(0, 2, 1)
            expected = np.linalg.det(np.eye(spec.m) - point @ wh)
            assert_allclose(row, expected.conj(), rtol=1e-12)


def _reference_features(table, flat):
    """The interpreted feature loop the compiled expansion replaced: the
    cells, then each expansion from its first product, adding or
    subtracting the others in table order."""
    expansions = table[1]
    features = list(flat)
    for terms in expansions:
        (_, c, sub), rest = terms[0], terms[1:]
        total = flat[c] * features[sub]
        for sign, c, sub in rest:
            if sign > 0:
                total += flat[c] * features[sub]
            else:
                total -= flat[c] * features[sub]
        features.append(total)
    return features


def _running_sum(items):
    """1.0 plus the items, added one at a time in order."""
    total = 1.0
    for item in items:
        total += item
    return total


def _reference_point(table, flat, coefficients):
    """(h(z, z), |h(z, w)|) as the interpreted one-point evaluator summed
    them, with map and sum from 1.0. sum adds one at a time on CPython 3.10
    and 3.11, the versions CI runs, and compensates float sums from 3.12."""
    signs = table[2].tolist()
    features = _reference_features(table, flat)
    sizes = list(map(abs, features))
    squares = list(map(operator.mul, signs, map(operator.mul, sizes, sizes)))
    products = list(map(operator.mul, coefficients, features))
    if sys.version_info < (3, 12):
        assert repr(sum(squares, 1.0)) == repr(_running_sum(squares))
        assert repr(sum(products, 1.0)) == repr(_running_sum(products))
    return _running_sum(squares), abs(_running_sum(products))


@pytest.mark.parametrize("domain", GENERIC_NORM_DOMAINS + ["I:3,4", "III:8", "I:5,7"])
def test_compiled_expansion_is_the_interpreted_one_bit_for_bit(domain):
    # repr tells Python floats apart bit for bit, -0.0 from 0.0 included, and
    # tobytes does the same for arrays
    spec = domains.parse_spec(domain)
    cells, _, signs, _ = table = kernels._generic_norm_table(spec)
    features, point = kernels._expansion(spec)

    def read(x):
        flat = np.asarray(x).reshape(-1).tolist()
        return [flat[c] for c in cells]

    w = domains.sample_silov(spec, seed=30, count=1)[0]
    w_features = features(read(w))
    assert repr(w_features) == repr(_reference_features(table, read(w)))
    coefficients = [s * f.conjugate() for s, f in zip(signs.tolist(), w_features)]
    # Python-scalar points: interior points near the origin and near the
    # boundary, and family matrices off the domain
    z = domains.sample_interior(spec, seed=31, count=1)[0]
    z = z / np.linalg.norm(z, 2)
    points = [z * np.sqrt(1.0 - margin) for margin in (0.5, 1e-3)]
    points += list(_family_matrices(spec, np.random.default_rng(32), 3))
    # the stencil rows of one FD Hessian: all of them, but an evenly spaced
    # 400 of the 39,204 of I(5,7) and the 131,076 of III(8)
    stencils = []
    field = OpaqueField(spec.shape, lambda x: stencils.append(x.copy()) or 0.0)
    wirtinger_hessian(field, points[0])
    rows = np.array(stencils)
    points += list(rows[:: len(rows) // 400 if len(signs) > 100 else 1])
    for x in points:
        got = point(read(x), coefficients)
        assert repr(got) == repr(_reference_point(table, read(x), coefficients))
    # a (cells, k) block, a strided view as in the stack route
    k = min(57, len(rows))
    block = np.empty((len(cells), 64), dtype=complex)
    block[:, :k] = rows[:k].reshape(k, -1)[:, cells].T
    compiled = features(block[:, :k])
    reference = _reference_features(table, block[:, :k])
    assert len(compiled) == len(reference) == len(signs)
    for a, b in zip(compiled, reference):
        assert a.tobytes() == b.tobytes()


def test_kernel_field_rows_hash_no_domain_spec(monkeypatch):
    # a row runs the evaluator its field built, so a full FD Hessian hashes no
    # DomainSpec (whose hash is a Python call); an equal spec built apart or
    # unpickled gives the same values
    spec = type_iii(4)
    same = (domains.DomainSpec("III", 4, 4), pickle.loads(pickle.dumps(spec)))
    assert all(other is not spec and other == spec for other in same)
    z, w = pair(spec, seed=33)
    fields = [kernels.kernel_field(s, w) for s in (spec, *same)]
    hashes = []
    spec_hash = domains.DomainSpec.__hash__
    monkeypatch.setattr(
        domains.DomainSpec, "__hash__", lambda self: hashes.append(1) or spec_hash(self)
    )
    hessians = [wirtinger_hessian(field, z) for field in fields]
    assert hashes == []
    monkeypatch.undo()
    assert all(np.array_equal(h, hessians[0]) for h in hessians[1:])
    for other in same:
        assert kernels.poisson_szego(other, 0.5 * z, w) == kernels.poisson_szego(spec, 0.5 * z, w)
    assert kernels._expansion(same[0]) is kernels._expansion(same[1]) is kernels._expansion(spec)


def test_kernel_rejects_type_iv():
    # IV's generic norm 1 - 2 z.w* + (z.z)(w.w)* has no minor table; the
    # table used to return I(1,3)'s for IV(3). Every generic-norm route reads
    # the table before kappa and the membership check, so a z off the domain
    # gets the TypeIV message too
    spec = type_iv(3)
    w = np.array([[1.0, 0.0, 0.0]], dtype=complex)
    routes = [
        lambda z: kernels._generic_norm_table(spec),
        lambda z: kernels.kernel_field(spec, w),
        lambda z: kernels.poisson_szego(spec, z, w),
        lambda z: kernels.poisson_szego(spec, z, np.stack([w, w, w])),
        lambda z: kernels.poisson_points(spec, z),
        lambda z: kernels.log_gradients_generic(spec, z, w),
    ]
    for z in (np.full((1, 3), 0.1 + 0j), np.full((1, 3), 2.0 + 0j)):
        for route in routes:
            with pytest.raises(ValueError, match=kernels.NO_TYPE_IV_KERNEL):
                route(z)


def _fd_log_gradient(spec, z, logdet, sign):
    """Central-difference oracle of a log-gradient in constrained
    coordinates: 1/2 (d_x + sign i d_y) of logdet along each row of the
    direction matrix, step 1e-6; sign -1 differentiates in z, +1 in zbar."""
    g = []
    for row in operators.direction_matrix(spec):
        e = 1e-6 * row.reshape(spec.shape)
        dx = (logdet(z + e) - logdet(z - e)) / 2e-6
        dy = (logdet(z + 1j * e) - logdet(z - 1j * e)) / 2e-6
        g.append(0.5 * (dx + sign * 1j * dy))
    return np.array(g)


@pytest.mark.parametrize("spec", [type_i(2, 3), type_ii(2), type_ii(3), type_iii(4)])
def test_log_gradients_closed_match_finite_differences(spec):
    # both routes against differences of LAPACK's log det W(z, w), and
    # their conjugates against those of log det W(w, z)
    z, w = pair(spec, seed=2)

    def logdet(W):
        return np.log(np.linalg.det(W))

    cf = _fd_log_gradient(spec, z, lambda x: logdet(domains.w_matrix(x, w)), -1.0)
    cbf = _fd_log_gradient(spec, z, lambda x: logdet(domains.w_matrix(w, x)), 1.0)
    for route in (kernels.log_gradients_closed, kernels.log_gradients_generic):
        c = route(spec, z, w)
        assert_allclose(c, cf, atol=1e-7)
        assert_allclose(c.conj(), cbf, atol=1e-7)


@pytest.mark.parametrize("domain", GENERIC_NORM_DOMAINS + ["I:3,4", "III:8"])
def test_log_gradients_generic_equal_the_closed_route_to_rounding(domain):
    # the record's gate is 1e-13; on the small and large tables too the two
    # exact routes part by rounding alone
    spec = domains.parse_spec(domain)
    pairs = campaigns.interior_boundary_pairs(spec, seed=40, count=3)
    assert max(campaigns.log_gradient_residuals(spec, pairs)) < 1e-14


def _polyfield_log_gradient(spec, z, w):
    """Reference c of log_gradients_generic by PolyField calculus: the
    compiled features run on PolyField.coordinates of the table's cells,
    each differentiated exactly by wirtinger_gradient at z."""
    cells, _, signs, power = kernels._generic_norm_table(spec)
    features, _ = kernels._expansion(spec)
    fields = features([PolyField.coordinate(spec.shape, c) for c in cells])
    coefficients = signs * np.conj(features(w.ravel()[cells].tolist()))
    h = 1.0 + coefficients @ features(z.ravel()[cells].tolist())
    J = np.array([wirtinger_gradient(f, z) for f in fields])
    return operators.direction_matrix(spec) @ (power * (coefficients @ J) / h)


@pytest.mark.parametrize("domain", GENERIC_NORM_DOMAINS + ["I:3,4", "III:8"])
def test_log_gradients_generic_equal_the_polyfield_calculus(domain):
    # the Jacobian read from feature values at x_k = 1 and x_k = 0 is the
    # exact one to rounding
    spec = domains.parse_spec(domain)
    for z, w in campaigns.interior_boundary_pairs(spec, seed=42, count=3):
        c = kernels.log_gradients_generic(spec, z, w)
        reference = _polyfield_log_gradient(spec, z, w)
        assert np.max(np.abs(c - reference)) < 4e-15 * max(1.0, np.max(np.abs(reference)))


@pytest.mark.parametrize("domain", GENERIC_NORM_DOMAINS + ["I:3,4", "III:8"])
def test_generic_norm_features_are_affine_in_each_cell(domain):
    # log_gradients_generic reads J[:, k] as f(x_k = 1) - f(x_k = 0), which
    # holds while every feature is affine in each cell, as a minor or a
    # Pfaffian is; a feature quadratic in a cell, as IV's z.z, fails here
    spec = domains.parse_spec(domain)
    cells = kernels._generic_norm_table(spec)[0]
    features, _ = kernels._expansion(spec)
    x = domains.sample_interior(spec, seed=43, count=1)[0].ravel()[cells]
    t, k = 0.37, np.arange(len(cells))
    # column 3k + j sets cell k to t, 0 and 1 for j = 0, 1, 2
    block = np.repeat(x[:, None, None], 3, axis=2).repeat(len(cells), axis=1)
    block[k, k] = t, 0.0, 1.0
    f = np.array(features(block.reshape(len(cells), -1))).reshape(-1, len(cells), 3)
    assert_allclose(f[..., 0], (1 - t) * f[..., 1] + t * f[..., 2], rtol=0, atol=1e-14)


def _log_gradient_record(spec, monkeypatch):
    """The log-gradient-dual-route record of verify kernel on spec at two
    points, with the FD and closed boundary-identity routes stubbed out."""
    monkeypatch.setattr(kernels, "check_theorem22", lambda spec, z, w: (0.0, 0.0))
    report = campaigns.run_kernel_campaign([spec], points=2, seed=0)
    (record,) = [r for r in report.records if r.name.startswith("log-gradient-dual-route-")]
    return record


DEFAULT_KERNEL_SPECS = [type_i(2, 2), type_i(2, 3), type_ii(2), type_ii(3), type_iii(4)]


@pytest.mark.parametrize("spec", DEFAULT_KERNEL_SPECS, ids=lambda spec: spec.label())
def test_log_gradient_record_catches_a_closed_route_off_by_1e_9(monkeypatch, spec):
    closed = kernels.log_gradients_closed

    def scaled(spec, z, w):
        return closed(spec, z, w) * (1.0 + 1e-9)

    monkeypatch.setattr(kernels, "log_gradients_closed", scaled)
    record = _log_gradient_record(spec, monkeypatch)
    assert record.passed is False
    # the finite-difference route's gate of 1e-6 let it through
    assert record.residual_max < 1e-6


@pytest.mark.parametrize("spec", DEFAULT_KERNEL_SPECS, ids=lambda spec: spec.label())
def test_log_gradient_record_catches_a_sign_flipped_in_the_generic_norm(monkeypatch, spec):
    table = kernels._generic_norm_table
    # compiled before the patch, so the cached expansion keeps the true signs
    kernels._expansion(spec)

    def flipped(spec):
        cells, expansions, signs, power = table(spec)
        signs = signs.copy()
        signs[-1] = -signs[-1]
        return cells, expansions, signs, power

    monkeypatch.setattr(kernels, "_generic_norm_table", flipped)
    assert _log_gradient_record(spec, monkeypatch).passed is False


def _huacheck_calls(route, spec, z, w):
    """The (module, name) of every huacheck function that route(spec, z, w)
    runs, as sys.setprofile sees them; a cached call that hits runs none."""
    calls = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.split(".")[0] == "huacheck":
            calls.add((module, frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route(spec, z, w)
    finally:
        sys.setprofile(previous)
    return calls


def _audit_log_gradient_routes():
    """Assert, on one pair per default domain, that the generic route runs
    no huacheck.fields function and no huacheck function of the closed
    route."""
    for spec in DEFAULT_KERNEL_SPECS:
        ((z, w),) = campaigns.interior_boundary_pairs(spec, seed=0, count=1)
        closed = _huacheck_calls(kernels.log_gradients_closed, spec, z, w)
        generic = _huacheck_calls(kernels.log_gradients_generic, spec, z, w)
        assert not [call for call in generic if call[0] == "huacheck.fields"], generic
        assert not closed & generic, closed & generic


def test_log_gradient_routes_share_no_function():
    _audit_log_gradient_routes()


def test_route_audit_catches_a_generic_route_that_calls_the_closed_one(monkeypatch):
    generic = kernels.log_gradients_generic

    def mutant(spec, z, w):
        kernels.log_gradients_closed(spec, z, w)
        return generic(spec, z, w)

    monkeypatch.setattr(kernels, "log_gradients_generic", mutant)
    with pytest.raises(AssertionError, match="log_gradients_closed"):
        _audit_log_gradient_routes()


@pytest.mark.parametrize(
    "spec, power", [(type_i(2, 3), 1), (type_ii(3), 1), (type_iii(4), 2)],
    ids=lambda x: x.label() if isinstance(x, domains.DomainSpec) else str(x),
)
def test_generic_norm_table_gives_the_power_of_det_w(spec, power):
    # det W(z, w) = h(z, w)^power: h on I and II, h^2 on III
    cells, _, signs, table_power = kernels._generic_norm_table(spec)
    assert table_power == power
    z, w = pair(spec, seed=40)
    features, _ = kernels._expansion(spec)
    c = signs * np.conj(features(w.ravel()[cells].tolist()))
    h = 1.0 + c @ features(z.ravel()[cells].tolist())
    assert_allclose(h**power, np.linalg.det(kernels.w_matrix(z, w)), rtol=1e-12)


def test_log_gradients_reject_type_iv():
    z = np.zeros((1, 6))
    for route in (kernels.log_gradients_closed, kernels.log_gradients_generic):
        with pytest.raises(ValueError, match="TypeIV"):
            route(type_iv(6), z, z)


@pytest.mark.parametrize("spec", DEFAULT_KERNEL_SPECS, ids=lambda spec: spec.label())
def test_closed_routes_invert_no_conjugate_transpose(monkeypatch, spec):
    # W(w, z) = W(z, w)* and W(w*, z*) = W(z*, w*)*, so neither is inverted
    # again, nor is V(z*) = conj V(z) on II/III: one inverse per
    # log-gradient, W(z*, w*) and V(z) of identity_tensors, and the two V
    # and two log-gradients of the assembly
    inverse, calls = kernels.inverse, []
    monkeypatch.setattr(kernels, "inverse", lambda M: calls.append(1) or inverse(M))
    z, w = pair(spec, seed=3)
    c = kernels.log_gradients_closed(spec, z, w)
    assert len(calls) == 1
    assert c.shape == (len(operators.direction_matrix(spec)),)
    if spec.family != "I":
        kernels.identity_tensors(spec, z, w)
        assert len(calls) == 1 + 2
    calls.clear()
    kernels.component_kernel_exact(spec, z, w)
    assert len(calls) == 4


def test_d2_logdetv_against_numerical_hessian():
    spec = type_i(2, 2)
    z, _ = pair(spec, seed=4)
    field = OpaqueField(
        spec.shape,
        lambda z: float(np.log(np.linalg.det(kernels.v_matrix(z)).real)),
    )
    H_fd = wirtinger_hessian(field, z)
    H = kernels.d2_logdetv(spec, z)
    assert_allclose(H, H_fd, atol=1e-8)


def _direct_tensors(spec, z, w):
    """A to E by direct summation: the component weights contracted with
    d^2 log det V / kappa and with the pairs of log-gradients b, c."""
    n = spec.n
    k = float(domains.kappa(spec))
    weights = operators.component_weights(spec, z)
    b = kernels.log_gradients_closed(spec, z, z).reshape(n, n)
    c = kernels.log_gradients_closed(spec, z, w).reshape(n, n)
    bbar, cbar = b.conj(), c.conj()
    H = kernels.d2_logdetv(spec, z).reshape(n, n, n, n)

    def contract(x, y):
        return np.einsum("jakb,ja,kb->jk", weights, x, y)

    A = (1.0 / k) * np.einsum("jakb,jakb->jk", weights, H)
    return A, contract(b, bbar), contract(c, cbar), contract(b, cbar), contract(c, bbar)


def interior_pair(spec):
    """An interior z (seed 5) and an interior w (seed 7), which is no Šilov
    point: w*w != I."""
    z = domains.sample_interior(spec, 5, 1)[0]
    w = domains.sample_interior(spec, 7, 1)[0]
    return z, w


# the Šilov cases are spec0 to spec2, so their test ids stay stable
TENSOR_SPECS = [type_ii(2), type_ii(3), type_iii(4)]


@pytest.mark.parametrize(
    "spec, where",
    [pytest.param(s, "silov", id=f"spec{i}") for i, s in enumerate(TENSOR_SPECS)]
    + [pytest.param(s, "interior", id=f"spec{i}-interior") for i, s in enumerate(TENSOR_SPECS)],
)
def test_identity_tensors_residual_and_dual_paths(spec, where):
    z, w = pair(spec, seed=5) if where == "silov" else interior_pair(spec)
    A, B, C, D, E, F = kernels.identity_tensors(spec, z, w)
    closed = A, B, C, D, E
    # the sum is -4F at any w, and F vanishes only on the Šilov boundary
    assert float(np.max(np.abs(A + B + C - D - E + 4.0 * F))) < 1e-10
    assert (float(np.max(np.abs(F))) < 1e-10) == (where == "silov")
    scale = max(float(np.max(np.abs(t))) for t in (A, B, C))
    direct = _direct_tensors(spec, z, w)
    for x, y in zip(closed, direct):
        assert float(np.max(np.abs(x - y))) < 1e-10 * max(1.0, scale)


@pytest.mark.parametrize("spec", [type_ii(2), type_ii(3)], ids=lambda spec: spec.label())
def test_closed_route_fails_off_the_silov_boundary(spec):
    # the closed sum reads -4F, so an interior w fails the 1e-9 gate of
    # boundary-identity-exact-II(n)
    z, w = interior_pair(spec)
    _, r_exact = kernels.check_theorem22(spec, z, w)
    assert r_exact > 1e-9


def test_identity_tensors_reject_type_i():
    spec = type_i(2, 2)
    z, w = pair(spec)
    with pytest.raises(ValueError):
        kernels.identity_tensors(spec, z, w)


def test_gram_complement_tensor_vanishes_only_on_true_boundary():
    spec = type_iii(4)
    z, w = pair(spec, seed=6)
    assert float(np.linalg.norm(kernels.identity_tensors(spec, z, w)[5])) < 1e-10
    spec3 = type_iii(3)
    z3 = domains.sample_interior(spec3, 7, 1)[0]
    (w3,) = domains.odd_iii_silov_points(3, seed=8, count=1)
    assert float(np.linalg.norm(kernels.identity_tensors(spec3, z3, w3)[5])) > 1e-3


@pytest.mark.parametrize(
    "spec",
    [type_i(2, 3), type_ii(2), type_ii(3), type_iii(4)],
    ids=lambda spec: spec.label(),
)
def test_component_kernel_exact_vanishes(spec):
    for seed in (9, 10, 11):
        z, w = pair(spec, seed=seed)
        vals = kernels.component_kernel_exact(spec, z, w)
        assert float(np.max(np.abs(vals))) < 1e-10


@pytest.mark.parametrize("spec", [type_i(2, 2), type_ii(2), type_iii(4)])
def test_check_theorem22_both_routes(spec):
    z, w = pair(spec, seed=10)
    r_fd, r_exact = kernels.check_theorem22(spec, z, w)
    assert r_fd < 1e-6
    assert r_exact < 1e-9


def test_check_theorem22_rejects_a_stencil_leaving_the_domain():
    spec = type_ii(2)
    w = domains.sample_silov(spec, 14, 1)[0]
    step = FD_STEP
    z = domains.sample_interior(spec, 15, 1)[0]
    z = z / np.linalg.norm(z, 2)
    for value in (1.5 * np.eye(2), (1.0 - step) * z):
        with pytest.raises(ValueError, match="stencil"):
            kernels.check_theorem22(spec, value, w)
    r_fd, r_exact = kernels.check_theorem22(spec, (1.0 - 2.0 * step) * z, w)
    assert np.isfinite(r_fd) and np.isfinite(r_exact)


def test_silov_gram_defect():
    spec = type_i(2, 3)
    w = domains.sample_silov(spec, 11, 1)[0]
    assert kernels.silov_gram_defect(w) < 1e-12
    z = domains.sample_interior(spec, 12, 1)[0]
    assert kernels.silov_gram_defect(z) > 0.1


def test_inverse_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(kernels.inverse(m) @ m, np.eye(3), atol=1e-12)


def test_singular_matrix_raises():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(kernels.SingularMatrixError):
        kernels.inverse(m)


def test_small_well_conditioned_matrix_inverts():
    # det = 1e-16, but every singular value is 0.01
    m = 0.01 * np.eye(8)
    assert_allclose(kernels.inverse(m), 100.0 * np.eye(8), rtol=1e-15)


def test_rank_deficient_matrix_raises():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    with pytest.raises(kernels.SingularMatrixError):
        kernels.inverse(a @ b)
    with pytest.raises(kernels.SingularMatrixError):
        kernels.inverse(np.zeros((3, 3)))
