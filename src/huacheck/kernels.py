"""Poisson kernels of the matrix domains and the tensor identities they
satisfy on the distinguished boundary.

The central object is the determinant-power kernel

    P(z, w) = det(V(z))^kappa / |det W(z, w)|^(2 kappa),
    W(z, w) = I - z w*,   V(z) = W(z, z)

(W and V live in huacheck.domains). poisson_szego evaluates it at one
boundary point for the FD stencil, or over a stacked boundary sample as
poisson_points, made once per stack of interior points, and poisson_block;
the Monte-Carlo Poisson solve of huacheck.dirichlet calls those two itself,
poisson_block once per block of its sample, which makes its feature matrix
for the block and keeps no buffer between calls. Both routes sum det W from
the generic norm of the Jordan triple, whose table is their one family
switch, compiled once into straight-line Python: on arrays for a stack, on
Python scalars in the one evaluator of z per boundary point w.
kernel_field builds that evaluator once, and each of its FD stencil rows
calls it; a bare one-point call builds a throwaway one. On III the
evaluator stores its values, one per upper triangle of z (the only cells
its Pfaffians read), for as long as it lives. The boundary identity is
checked along two routes: direct numerical differentiation of P, and closed
forms built from the log-gradient formulas (the boundary tensors for II/III,
the exact component assembly for TypeI). Both log-gradient routes return
c = d log det W(z, w) alone, as W(w, z) = W(z, w)* makes its partner
conj(c); the closed c is checked against the generic norm's features and
Jacobian from one call of its compiled expansion (log_gradients_generic).
Every matrix inverse goes through ``inverse``, which raises SingularMatrixError
near singularity instead of returning an inaccurate result.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .domains import SILOV_CHUNK, DomainSpec, kappa, membership_margin, v_matrix, w_matrix
from .fields import FD_REACH, OpaqueField, wirtinger_hessian
from .operators import component_values, constrained_hessian, direction_matrix


SINGULARITY_FLOOR = 1e-12

DET_V_NOT_POSITIVE = "det V(z) <= 0: z is not interior"
NO_TYPE_IV_KERNEL = "no determinant kernel for TypeIV"


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix is too close to singular to invert reliably.

    For the kernel tensors this signals a point too close to the domain
    boundary, where V(z) or W(z,w) degenerates.
    """


def inverse(M):
    """Inverse of M.

    Raises SingularMatrixError when the smallest singular value is at most
    SINGULARITY_FLOOR times the largest, i.e. the condition number is 1e12
    or more. Unlike |det|, this does not depend on the scale of M.
    """
    M = np.asarray(M, dtype=complex)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= SINGULARITY_FLOOR * sv[0]:
        raise SingularMatrixError("matrix is singular to working precision")
    return np.linalg.inv(M)


@functools.lru_cache(maxsize=None)
def _generic_norm_table(spec):
    """The signed minor table of spec's generic norm, once per spec; TypeIV
    raises ValueError. The one family switch of the generic-norm routes.

    The features f_F of a matrix x are its minors det x[S, T] over row sets
    S and column sets T of one size (I and II), or its Pfaffians Pf x[S]
    over even sets S (III), ordered by size, without the empty set, whose
    feature is 1. Returns (cells, expansions, signs, power). The first
    features are the 1 x 1 minors, or the Pfaffians of pairs: the entries
    of x at the flattened indices cells. Every later feature has a tuple of
    (sign, cell, earlier feature) terms, its expansion along its first row.
    signs holds each feature's sign in the generic norm h; det W = h^power.
    """
    if spec.family == "IV":
        raise ValueError(NO_TYPE_IV_KERNEL)
    m, n = spec.shape
    keys = []
    if spec.family == "III":
        cells = list(itertools.combinations(range(n), 2))
        # Pf x[S] = sum_a (-1)^a x[s, t_a] Pf x[S - {s, t_a}] for S = (s,) + R
        # over the t_a of R; its sign in h is (-1)^(|S| / 2)
        for r in range(2, n + 1, 2):
            for S in itertools.combinations(range(n), r):
                R = S[1:]
                subs = [R[:a] + R[a + 1 :] for a in range(r - 1)]
                keys.append((S, S[0], R, subs, r // 2))
    else:
        cells = list(itertools.product(range(m), range(n)))
        # det x[S, T] = sum_a (-1)^a x[s, t_a] det x[R, T - t_a] for
        # S = (s,) + R over the t_a of T; its sign in h is (-1)^|S|
        for r in range(1, min(m, n) + 1):
            for S in itertools.combinations(range(m), r):
                for T in itertools.combinations(range(n), r):
                    subs = [(S[1:], T[:a] + T[a + 1 :]) for a in range(r)]
                    keys.append(((S, T), S[0], T, subs, r))
    # the one-term keys come first, in the order of cells, so feature i of
    # the first len(cells) is the cells' row i
    cell_index = {cell: i for i, cell in enumerate(cells)}
    index, expansions, signs = {}, [], []
    for key, s, cols, subs, degree in keys:
        if len(cols) > 1:
            expansions.append(tuple(
                ((-1.0) ** a, cell_index[s, t], index[sub])
                for a, (t, sub) in enumerate(zip(cols, subs))
            ))
        index[key] = len(index)
        signs.append((-1.0) ** degree)
    power = 2 if spec.family == "III" else 1
    return [s * n + t for s, t in cells], tuple(expansions), np.array(signs), power


@functools.lru_cache(maxsize=None)
def _expansion(spec):
    """spec's generic-norm expansion compiled into straight-line Python,
    once per spec: (features, point).

    features(x) maps the table cells of one matrix (Python scalars) or of
    k matrices (a (cells, k) array) to the features in table order: the
    cells, then each expansion from its first product, whose sign is +1,
    adding or subtracting the others in table order. point(x, c) returns
    (h(z, z), |h(z, w)|) for c_F = sign_F conj(f_F(w)), each sum adding its
    terms to 1.0 in table order. One statement per operation: no expression
    nests deeper as the table grows, and only table indices enter the source.
    """
    cells, expansions, signs, _ = _generic_norm_table(spec)
    features = [f"f{i}" for i in range(len(signs))]
    body = [f"    {', '.join(features[: len(cells)])}, = x"]
    for i, terms in enumerate(expansions, len(cells)):
        for j, (sign, c, sub) in enumerate(terms):
            op = "=" if j == 0 else "+=" if sign > 0 else "-="
            body.append(f"    f{i} {op} f{c} * f{sub}")
    coefficients = ", ".join(f"c{i}" for i in range(len(signs)))
    sums = [f"    {coefficients}, = coefficients", "    v = w = 1.0"]
    for i, sign in enumerate(signs):
        op = "+=" if sign > 0 else "-="
        sums += [f"    a = abs(f{i})", f"    v {op} a * a", f"    w += c{i} * f{i}"]
    source = ["def features(x):", *body, f"    return [{', '.join(features)}]"]
    source += ["def point(x, coefficients):", *body, *sums, "    return v, abs(w)"]
    namespace = {}
    exec("\n".join(source), namespace)
    return namespace["features"], namespace["point"]


def _point_kernel(spec, w):
    """P(., w) as a function of one interior z, for one boundary point w
    of an I-III domain. kernel_field builds it once per field and hands it
    to each of its rows; a bare one-point call of poisson_szego builds a
    throwaway one.

    Each z is one call of the compiled point (_expansion). Where the table
    reads fewer cells than z has (III), the values are stored, one per
    upper triangle of z, in a functools.cache that lives and dies with the
    evaluator. It is keyed by the bytes of the cells read, taken as complex
    (a real z keys as z + 0j), and a miss decodes the key into the Python
    complex entries the sum reads. The sum reads nothing else of z, so a
    stored value has the bits of a fresh one.
    """
    cells, _, signs, power = _generic_norm_table(spec)
    k = float(kappa(spec))
    features, point = _expansion(spec)
    x = w.astype(complex, copy=False).ravel().tolist()
    w_features = features([x[c] for c in cells])
    coefficients = [s * f.conjugate() for s, f in zip(signs.tolist(), w_features)]
    squared = power == 2

    def expanded(flat):
        detv, detw = point(flat, coefficients)
        if squared:
            detv, detw = detv * detv, detw * detw
        if not detv > 0.0:
            raise ValueError(DET_V_NOT_POSITIVE)
        if detw < 1e-300:
            raise SingularMatrixError("det W(z, w) vanished")
        return math.exp(k * math.log(detv)) / detw ** (2.0 * k)

    if len(cells) == spec.size:
        # I and II read every entry, in row-major order
        return lambda z: expanded(z.ravel().tolist())

    @functools.cache
    def stored(key):
        return expanded(np.frombuffer(key, dtype=complex).tolist())

    read = np.array(cells)
    # the cells as complex: a real z keys, and decodes, as the same z + 0j
    return lambda z: stored(z.ravel()[read].astype(complex, copy=False).tobytes())


def _generic_norm_dets(spec, ws, coefficients):
    """det(I - w z*) for every row w of the boundary batch ws.

    coefficients holds one column per interior point z (poisson_points),
    which gives a (Z, N) array. det(I - w z*) is the conjugate of
    det(I - z w*), so it has the same modulus (also for m < n). It comes
    from the generic norm of the Jordan triple (Faraut & Koranyi, "Function
    spaces and reproducing kernels on bounded symmetric domains", J. Funct.
    Anal. 88, 1990), which by Cauchy-Binet is

        I, II:  h(z, w) = sum_{S,T} (-1)^|S| det z[S, T] conj(det w[S, T]),
        III:    h(z, w) = sum_S (-1)^(|S|/2) Pf z[S] conj(Pf w[S]),

    over row and column sets of equal size, or even sets, with det W = h on
    I and II and det W = h^2 on III. So det(I - w z*) = h(w, z) is a short
    sum of (draw feature) x (point coefficient) products: the features of
    _generic_norm_table, 6 for I(2,2) and II(2), 8 for III(4), 20 for
    I(3,3) and 32 for III(6), counting the constant 1. The points'
    coefficients sign_F conj(f_F(z)) come from poisson_points. The draws'
    features come once per SILOV_CHUNK block, from one view per entry of
    ws (a contiguous vector over the block's draws on an entry-major block,
    as domains.sample_silov stores it, and a strided one on a point-major
    stack; neither layout is copied first), stacked into an (F, k) matrix
    made for the block and freed with it, one row per feature but the
    constant. Each point's row of h is then one vector-matrix product of
    its F coefficients with that matrix, plus 1: one product per point, not
    one matrix product for the stack, so a point's values do not depend on
    the other points. The coefficients are made contiguous first, one row
    per point: a strided column would send a stack of points down another
    numpy/BLAS path than one point, and round differently.

    The rounding error of the sum is a small multiple of eps sum_F
    |f_F(z)| |f_F(w)|, whatever the order of its terms. By Cauchy-Schwarz
    that is at most eps times sqrt(h(z, -z) h(w, -w)) = prod_j
    sqrt((1 + s_j(z)^2)(1 + s_j(w)^2)), over the r = rank singular values
    s_j (one per pair on III), so at most 2^r eps on the distinguished
    boundary, where every s_j(w) = 1. Against it, |h(z, w)| >= prod_j
    (1 - s_j(z)) for ||w|| <= 1.
    """
    cells, _, _, power = _generic_norm_table(spec)
    features, _ = _expansion(spec)
    rows = np.ascontiguousarray(coefficients.T)
    samples = len(ws)
    dets = np.empty((len(rows), samples), dtype=complex)
    for start in range(0, samples, SILOV_CHUNK):
        block = ws[start : start + SILOV_CHUNK]
        k = len(block)
        entries = block.reshape(k, -1).T
        matrix = np.stack(features([entries[c] for c in cells]))
        h = dets[:, start : start + k]
        for c, out in zip(rows, h):
            np.matmul(c, matrix, out=out)
        h += 1.0
        if power == 2:
            h *= h
    return dets


class PoissonPoints(NamedTuple):
    """The points' side of the stacked kernel, made by poisson_points."""

    spec: DomainSpec
    kappa: float
    # det V(z)^kappa, one row per point: (Z, 1)
    numerators: np.ndarray
    # sign_F conj(f_F(z)), one column per point: (features, Z)
    coefficients: np.ndarray


def poisson_points(spec, z):
    """Prepare interior points z, one (m, n) or a stack (Z, m, n), for
    poisson_block: check that each is interior, and make det V(z)^kappa
    and the generic-norm coefficients sign_F conj(f_F(z)) once, for every
    block of boundary points the kernel is then summed over.

    A TypeIV spec, and a z that is not interior (membership margin <= 0 or
    NaN), raise ValueError.
    """
    cells, _, signs, _ = _generic_norm_table(spec)
    _check_interior(spec, z)
    k = float(kappa(spec))
    features, _ = _expansion(spec)
    zs = np.reshape(z, (-1, spec.size))
    coefficients = signs[:, None] * np.conj(features(zs[:, cells].T))
    detv = np.linalg.det(v_matrix(z)).real.reshape(-1, 1)
    # exp/log handles half-integer k
    return PoissonPoints(spec, k, np.exp(k * np.log(detv)), coefficients)


def poisson_block(points, ws):
    """P(z, w) for the prepared points (poisson_points) and every row w of a
    stack ws of boundary points: a (Z, N) array, summed by
    _generic_norm_dets, which keeps nothing from call to call.
    |det W|^(2 kappa) is one real power, of |det W|^2 = re^2 + im^2."""
    dets = _generic_norm_dets(points.spec, ws, points.coefficients)
    weights = np.square(dets.real)
    weights += np.square(dets.imag)
    np.power(weights, points.kappa, out=weights)
    return np.divide(points.numerators, weights, out=weights)


def poisson_szego(spec, z, w, *, _point=None):
    """P(z, w) for z interior and w on the distinguished boundary.

    w is one boundary point of shape (m, n), which gives a float, or a stack
    (N, m, n), which gives an array of N values. With a stack of boundary
    points, z may be a stack (Z, m, n) of interior points too, which gives a
    (Z, N) array. A stack is poisson_points, then poisson_block: a caller
    that sums over many blocks of boundary points, as the Monte-Carlo
    Poisson solve does, calls the two itself and prepares its points once.

    One boundary point w is one call of its evaluator (_point_kernel), which
    runs the same compiled expansion on Python scalars, on every table.
    A stencil row of kernel_field passes the evaluator its field built once
    from w as _point; a bare call builds a throwaway one.

    On I and II the expansion is det(I - z w*) at every z, by Cauchy-Binet,
    so also at the stencil rows off the symmetric slice of II. On III its
    Pfaffians read only z's upper triangle: off the antisymmetric slice it
    is another extension of P, and the FD Hessian is exact all the same, as
    constrained_hessian reads only its derivatives along the slice. The
    stencil moves all 2 n^2 real coordinates and the Pfaffians read n (n - 1)
    of them, so the 4,098 rows of a III(4) Hessian hold only 577 distinct
    triangles, the 20,738 of III(6) 3,601 and the 131,076 of III(8) 12,545;
    a field's evaluator evaluates each triangle once.

    A one-point z or w of another shape than spec.shape, and a TypeIV spec,
    raise ValueError. So does a z that is not interior (membership margin
    <= 0 or NaN), checked once per call of a stack (by poisson_points) or
    a bare one-point call:
    det V > 0 holds off the domain too, as at z = 1.5 w on II(2). The rows
    of kernel_field are not checked (see there); they raise ValueError only
    where det V(z) <= 0.
    """
    if w.ndim == 2:
        if _point is None:
            _check_one_point(spec, z, w)
            _check_interior(spec, z)
            _point = _point_kernel(spec, w)
        elif z.shape != w.shape:
            # kernel_field checked the family and w when it built _point
            _check_one_point(spec, z, w)
        return _point(z)
    weights = poisson_block(poisson_points(spec, z), w)
    return weights if z.ndim == 3 else weights[0]


def _check_one_point(spec, z, w):
    """Raise ValueError on TypeIV (by the table), or unless z and w are one
    point each, of shape spec.shape."""
    _generic_norm_table(spec)
    if z.shape != w.shape or w.shape != spec.shape:
        raise ValueError(
            f"one boundary point takes z and w of shape {spec.shape}, "
            f"not {z.shape} and {w.shape}"
        )


def _check_interior(spec, z):
    """Raise ValueError at the first point of z, one point or a stack,
    whose membership margin is not > 0 (NaN included)."""
    margins = np.atleast_1d(membership_margin(spec, z))
    outside = np.flatnonzero(~(margins > 0.0))
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"point {i} is not interior to {spec.label()} "
            f"(membership margin {margins[i]:.3g})"
        )


def kernel_field(spec, w):
    """P(., w) as an opaque field over the ambient matrix shape, for w as
    it is when the field is made.

    w is checked and its evaluator (_point_kernel) built here, once, so the
    III values the evaluator stores live as long as the field. Each call
    of the field is one poisson_szego call that checks z's shape and runs
    that evaluator; it does not check that z is interior, since its caller
    check_theorem22 keeps the whole FD stencil inside the domain
    (||z||_2 + FD_REACH < 1).
    """
    _check_one_point(spec, w, w)
    point = _point_kernel(spec, w)
    return OpaqueField(spec.shape, lambda z: poisson_szego(spec, z, w, _point=point))


# -- log gradients ---------------------------------------------------------


def log_gradients_closed(spec, z, w):
    """Closed form of c = d log det W(z,w) / dz, flattened row-major over
    the constrained-coordinate index.

    For the symmetric family c_ja = -(2 - delta_ja) [w* W^-1(z,w)]_ja and
    for the antisymmetric family c_ja = 2 [w* W^-1(z,w)]_ja; TypeI uses the
    plain entrywise derivative. As W(w, z) = W(z, w)*, the z-bar gradient
    of log det W(w, z) is conj(c).
    """
    G = w.conj().T @ inverse(w_matrix(z, w))  # n x m
    if spec.family == "II":
        return (-(2.0 - np.eye(spec.n)) * G).reshape(-1)
    if spec.family == "III":
        return (2.0 * G).reshape(-1)
    if spec.family == "I":
        return -G.T.reshape(-1)
    raise ValueError("no kernel log-gradients for TypeIV")


def log_gradients_generic(spec, z, w):
    """c of log_gradients_closed by the exact calculus of the generic norm:
    det W(z, w) = h^k' (k', the table's power) with h = 1 + sum_F c_F f_F(z)
    and c_F = sign_F conj(f_F(w)) (_generic_norm_dets), so the plain
    gradient is k' c^T J / h for the features' Jacobian J. Each feature, a
    minor or a Pfaffian, is affine in each cell, so one call of the
    compiled features on z's cells (column 0) and on them with cell k set
    to 1 and to 0 (columns 2k + 1, 2k + 2) gives J[:, k] as the difference.
    On III the direction matrix differentiates only along the antisymmetric
    slice, where det W = h^2. Reads no inverse, W or determinant, so it
    shares nothing with the closed route; TypeIV raises ValueError.
    """
    cells, _, signs, power = _generic_norm_table(spec)
    features, _ = _expansion(spec)
    coefficients = signs * np.conj(features(w.ravel()[cells].tolist()))
    k = np.arange(len(cells))
    block = np.repeat(z.ravel()[cells, None], 2 * len(k) + 1, axis=1)
    block[k, 2 * k + 1], block[k, 2 * k + 2] = 1.0, 0.0
    f = np.array(features(block))
    h = 1.0 + coefficients @ f[:, 0]
    # the plain gradient on the cells, the only entries the features read
    g = power * (coefficients @ (f[:, 1::2] - f[:, 2::2])) / h
    return direction_matrix(spec)[:, cells] @ g


def d2_logdetv(spec, z):
    """Mixed second derivatives of log det V in constrained coordinates.

    The plain-entry tensor is -V^{kj} [V(z*)^{-1}]_{ab}; constrained
    coordinates sandwich it between the direction matrices.
    """
    Vi = inverse(v_matrix(z))
    Vsi = inverse(v_matrix(z.conj().T))
    return constrained_hessian(spec, -np.kron(Vi.T, Vsi))


def identity_tensors(spec, z, w):
    """Closed-form boundary tensors (A, B, C, D, E, F) for II/III, at any
    interior z and any w.

    A to E are the component-weight contractions of (1/kappa) d^2 log det V
    and of b conj(b), c conj(c), b conj(c) and c conj(b), the log-gradients
    of component_kernel_exact; A = -4 V(z)^-t takes kappa = (n + 1)/2 on II
    and (n - 1)/2 on III with even n (odd III reads only F). So
    A + B + C - D - E = -4F entrywise, where F is the I - w*w correction
    tensor, zero on the distinguished boundary.
    """
    if spec.family not in ("II", "III"):
        raise ValueError("identity tensors exist for the square families only")
    eye = np.eye(spec.n)
    zs, ws = z.conj().T, w.conj().T
    Vi = inverse(v_matrix(z))
    # z* = +-conj z on II/III, so V(z*) = conj V(z) and its inverse conj Vi
    Vsi = Vi.conj()
    Wi_zs_ws = inverse(w_matrix(zs, ws))
    # W(w*, z*) = W(z*, w*)*, so its inverse is the conjugate transpose
    Wi_ws_zs = Wi_zs_ws.conj().T
    A = -4.0 * Vi.T
    F = Wi_ws_zs @ v_matrix(ws) @ Wi_zs_ws
    C = 4.0 * (Wi_zs_ws + Wi_ws_zs - eye - F)
    B = 4.0 * (Vsi - eye)
    D = 4.0 * (Wi_zs_ws - eye)
    E = 4.0 * (Wi_ws_zs - eye)
    return A, B, C, D, E, F


def component_kernel_exact(spec, z, w):
    """Exact values of the component operators applied to P(., w) at z.

    Assembles (1/(kappa^2 P)) d^2 P = (1/kappa) d^2 log det V + d conj(d)^T,
    d = b - c, in constrained coordinates and contracts with the component
    weights; returns the (j,k) matrix of operator values.
    """
    k = float(kappa(spec))
    P = poisson_szego(spec, z, w)
    H = d2_logdetv(spec, z)
    # b = d log det V / dz is c at w = z
    d = log_gradients_closed(spec, z, z) - log_gradients_closed(spec, z, w)
    T = H / k + np.outer(d, d.conj())
    return component_values(spec, z, (k * k * P) * T)


def check_theorem22(spec, z, w):
    """Residuals of the boundary differential identity at one (z, w) pair.

    Returns (r_fd, r_exact): the largest component-operator value of the
    kernel computed by finite differences, and the largest exact-path
    residual (closed tensor sum for II/III, exact assembly for TypeI).
    Raises ValueError when the FD stencil around z can leave the domain.
    """
    # a stencil point lies within FD_REACH of z in operator norm
    if np.linalg.norm(z, 2) + FD_REACH >= 1.0:
        raise ValueError(
            "the FD stencil around z can leave the domain: "
            "||z||_2 + sqrt(2) * FD_STEP >= 1"
        )
    # one Hessian evaluation serves every component
    H = wirtinger_hessian(kernel_field(spec, w), z)
    values = component_values(spec, z, constrained_hessian(spec, H))
    r_fd = float(np.max(np.abs(values)))
    if spec.family == "I":
        r_exact = float(np.max(np.abs(component_kernel_exact(spec, z, w))))
    else:
        A, B, C, D, E, _ = identity_tensors(spec, z, w)
        r_exact = float(np.max(np.abs(A + B + C - D - E)))
    return r_fd, r_exact


def silov_gram_defect(w):
    """Norm of I_m - w w*; zero exactly on the distinguished boundary.

    For the square families this agrees with the defect of I - w*w.
    """
    return float(np.linalg.norm(v_matrix(w)))
