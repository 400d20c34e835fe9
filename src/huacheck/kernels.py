"""Poisson kernels of the matrix domains and the tensor identities they
satisfy on the distinguished boundary.

The central object is the determinant-power kernel

    P(z, w) = det(V(z))^kappa / |det W(z, w)|^(2 kappa),
    W(z, w) = I - z w*,   V(z) = W(z, z)

(W and V live in huacheck.domains). poisson_szego is its one evaluator, at
one boundary point for the FD stencil or over a stacked boundary sample for
the Monte-Carlo Poisson solve of huacheck.dirichlet. A stack sums det W
from the generic norm of the Jordan triple in arrays. One boundary point w
gets one cached evaluator of z, which sums the same expansion in Python
scalars or takes a LAPACK det, on either side of ONE_POINT_TERMS; on III it
stores its values by the upper triangle of z, the only cells its Pfaffians
read. The boundary identity is checked along two
routes: direct numerical differentiation of P, and closed forms built from
the log-gradient formulas (the boundary tensors for II/III, the exact
component assembly for TypeI). Every matrix inverse goes through
``inverse``, which raises SingularMatrixError near singularity instead of
returning an inaccurate result.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .domains import SILOV_CHUNK, kappa, v_matrix, w_matrix
from .fields import OpaqueField, wirtinger_gradient, wirtinger_gradient_bar
from .fields import wirtinger_hessian
from .operators import component_values, constrained_hessian, direction_matrix


SINGULARITY_FLOOR = 1e-12

# Step of the FD Hessian in check_theorem22: it balances roundoff in the
# second difference against Richardson truncation.
FD_STEP = 1e-3

# A one-point kernel sums the generic-norm expansion in Python scalars when
# its table's cells and expansion terms number at most this, and takes the
# LAPACK det above it: the expansion's cost grows with the count, LAPACK's
# barely moves. Per call on a shared 2-core x86-64 host (us, expansion /
# LAPACK): III(4), 9 terms, 4.1 / 13.0; II(3), 30 terms, 10.7 / 10.9;
# I(2,6), 42 terms, 15.4 / 12.2; I(3,4), 60 terms, 21.0 / 11.0.
ONE_POINT_TERMS = 32

# Values the one-point evaluator of a III boundary point stores, one per
# upper triangle of z; a full store drops its least recently used value.
# One III(4) FD Hessian needs 577 (poisson_szego): the bound holds one with
# room to spare and caps what a caller that sends one w many points can
# pile up.
POINT_STORE = 1024

DET_V_NOT_POSITIVE = "det V(z) <= 0: z is not interior"


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
def _float_kappa(spec):
    """kappa as a float, once per spec."""
    return float(kappa(spec))


@functools.lru_cache(maxsize=None)
def _generic_norm_table(spec):
    """The signed minor table of spec's generic norm, once per spec.

    The features f_F of a matrix x are its minors det x[S, T] over row sets
    S and column sets T of one size (I and II), or its Pfaffians Pf x[S]
    over even sets S (III), ordered by size, without the empty set, whose
    feature is 1. Returns (cells, expansions, signs). The first features
    are the 1 x 1 minors, or the Pfaffians of pairs: the entries of x at
    the flattened indices cells. Every later feature has a tuple of (sign,
    cell, earlier feature) terms, its expansion along its first row. signs
    holds each feature's sign in the generic norm.
    """
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
    return [s * n + t for s, t in cells], tuple(expansions), np.array(signs)


def _features(table, flat):
    """The features of one matrix, from the list flat of its table cells as
    Python scalars, or of k matrices, from the (cells, k) array flat.

    Returns a list in the table's order: the cells, then each expansion,
    which starts from its first product, whose sign is +1, and adds or
    subtracts the others in table order, so a scalar and an array row take
    the same operations.
    """
    _, expansions, _ = table
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


@functools.lru_cache(maxsize=1)
def _point_kernel(spec, w_bytes):
    """P(., w) as a function of one interior z, for the boundary point w
    given by its complex bytes. Cached for the last (spec, w), so the FD
    stencil around z, whose rows all share one w, builds w's side once.

    Above ONE_POINT_TERMS it takes V = W(z, z) and W(z, w) from one stacked
    product and one LAPACK det. At or below it, it sums the generic norm in
    Python scalars: h(z, z) = 1 + sum_F sign_F |f_F(z)|^2 and h(z, w) =
    1 + sum_F coefficient_F f_F(z), with coefficient_F = sign_F conj(f_F(w))
    made once. Where the table reads fewer cells than z has (III), the
    values are stored by the tuple of cells read, in an LRU cache of
    POINT_STORE values that drops the least recently used one: the sum
    reads nothing else of z, so a stored value has the bits of a fresh one.
    """
    k = _float_kappa(spec)
    w = np.frombuffer(w_bytes, dtype=complex).reshape(spec.shape)
    cells, expansions, signs = table = _generic_norm_table(spec)
    if len(cells) + sum(map(len, expansions)) > ONE_POINT_TERMS:

        def lapack(z):
            dets = np.linalg.det(w_matrix(z, np.array((z, w))))
            detv = dets[0].real
            detw = abs(dets[1])
            if not detv > 0.0:
                raise ValueError(DET_V_NOT_POSITIVE)
            if detw < 1e-300:
                raise SingularMatrixError("det W(z, w) vanished")
            # exp/log handles half-integer k
            return float(np.exp(k * np.log(detv)) / detw ** (2.0 * k))

        return lapack
    signs = signs.tolist()
    x = w.ravel().tolist()
    w_features = _features(table, [x[c] for c in cells])
    coefficients = [s * f.conjugate() for s, f in zip(signs, w_features)]
    squared = spec.family == "III"

    def expanded(flat):
        features = _features(table, flat)
        sizes = list(map(abs, features))
        detv = sum(map(operator.mul, signs, map(operator.mul, sizes, sizes)), 1.0)
        detw = abs(sum(map(operator.mul, coefficients, features), 1.0))
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
    stored = functools.lru_cache(maxsize=POINT_STORE)(expanded)
    # itemgetter of one cell (III(2)) gives the bare entry, not a 1-tuple
    read = operator.itemgetter(*cells) if len(cells) > 1 else lambda x: (x[cells[0]],)
    return lambda z: stored(read(z.ravel().tolist()))


@functools.lru_cache(maxsize=1)
def _workspace(spec, points):
    """The buffers of _generic_norm_dets for one SILOV_CHUNK block: the
    entry-major copy of the block's cells and the (points, block) products.
    Cached for the last (spec, points), so a Poisson solve that calls
    poisson_szego once per block allocates them once; two threads must not
    evaluate the same (spec, points) at a time."""
    cells, _, _ = _generic_norm_table(spec)
    return (
        np.empty((len(cells), SILOV_CHUNK), dtype=complex),
        np.empty((points, SILOV_CHUNK), dtype=complex),
    )


def _generic_norm_dets(spec, ws, z):
    """det(I - w z*) for every row w of the boundary batch ws.

    z is one interior point (m, n), which gives N values, or a stack
    (Z, m, n), which gives a (Z, N) array. det(I - w z*) is the conjugate of
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
    coefficients sign_F conj(f_F(z)) are made once per call; the draws'
    features once per SILOV_CHUNK block, on an entry-major copy of the
    block. The sum runs feature by feature in elementwise multiply-adds,
    not one matrix product, so a point's values do not depend on the other
    points of the stack.

    The rounding error of the sum is a small multiple of eps sum_F
    |f_F(z)| |f_F(w)|. By Cauchy-Schwarz that is at most eps times
    sqrt(h(z, -z) h(w, -w)) = prod_j sqrt((1 + s_j(z)^2)(1 + s_j(w)^2)),
    over the r = rank singular values s_j (one per pair on III), so at
    most 2^r eps on the distinguished boundary, where every s_j(w) = 1.
    Against it, |h(z, w)| >= prod_j (1 - s_j(z)) for ||w|| <= 1.
    """
    cells, _, signs = table = _generic_norm_table(spec)
    zs = np.reshape(z, (-1, spec.size))
    points = len(zs)
    z_features = _features(table, zs[:, cells].T)
    coefficients = signs[:, None] * np.conj(z_features)
    flat, product = _workspace(spec, points)
    samples = len(ws)
    dets = np.empty((points, samples), dtype=complex)
    for start in range(0, samples, SILOV_CHUNK):
        block = ws[start : start + SILOV_CHUNK]
        k = len(block)
        # mode="clip" lets take write into the strided view without a copy
        np.take(block.reshape(k, -1).T, cells, axis=0, out=flat[:, :k], mode="clip")
        features = _features(table, flat[:, :k])
        h = dets[:, start : start + k]
        h[...] = 1.0
        for c, f in zip(coefficients, features):
            h += np.multiply(c[:, None], f, out=product[:, :k])
        if spec.family == "III":
            h *= h
    return dets if z.ndim == 3 else dets[0]


def poisson_szego(spec, z, w):
    """P(z, w) for z interior and w on the distinguished boundary.

    w is one boundary point of shape (m, n), which gives a float, or a stack
    (N, m, n), which gives an array of N values. With a stack of boundary
    points, z may be a stack (Z, m, n) of interior points too, which gives a
    (Z, N) array. A stack sums the generic-norm expansion of
    _generic_norm_dets, whose buffers are reused from call to call.

    One boundary point w is one lookup of its cached evaluator
    (_point_kernel) and one call of it, so the FD stencil around z builds
    w's side once. Its tables of at most ONE_POINT_TERMS cells and
    expansion terms (I(2,2), I(2,3), I(3,3), II(2), II(3), III(4)) sum the
    same expansion in Python scalars; larger ones (I(3,4), III(6), III(8))
    take one stacked product and one LAPACK det.

    On I and II the expansion is det(I - z w*) at every z, by Cauchy-Binet,
    so also at the stencil rows off the symmetric slice of II. On III its
    Pfaffians read only z's upper triangle: off the antisymmetric slice it
    is another extension of P, and the FD Hessian is exact all the same, as
    constrained_hessian reads only its derivatives along the slice. The
    stencil moves all 2 n^2 real coordinates and the Pfaffians read n (n - 1)
    of them, so the 4,098 rows of a III(4) Hessian hold only 577 distinct
    triangles; the evaluator stores one value per triangle and drops the
    least recently used one beyond POINT_STORE.

    Membership is the caller's to check, as poisson_solve and
    check_theorem22 do. Every route raises ValueError where det V(z) <= 0,
    but det V > 0 holds off the domain too: at z = 1.5 w on II(2) it
    returns 25^kappa = 125. A one-point z or w of another shape than spec.shape
    raises ValueError.
    """
    if spec.family == "IV":
        raise ValueError("no determinant kernel for TypeIV")
    if w.ndim == 2:
        if z.shape != w.shape or w.shape != spec.shape:
            raise ValueError(
                f"one boundary point takes z and w of shape {spec.shape}, "
                f"not {z.shape} and {w.shape}"
            )
        return _point_kernel(spec, w.astype(complex, copy=False).tobytes())(z)
    k = _float_kappa(spec)
    # one det V per point, broadcast along that point's row of weights
    detv = np.linalg.det(v_matrix(z)).real[..., None]
    if not np.all(detv > 0.0):
        raise ValueError(DET_V_NOT_POSITIVE)
    detw = np.abs(_generic_norm_dets(spec, w, z))
    # exp/log handles half-integer k
    return np.exp(k * np.log(detv)) / detw ** (2.0 * k)


def kernel_field(spec, w):
    """P(., w) as an opaque field over the ambient matrix shape."""
    return OpaqueField(spec.shape, lambda z: poisson_szego(spec, z, w))


# -- log gradients ---------------------------------------------------------


def log_gradients_closed(spec, z, w):
    """Closed forms of c = d log det W(z,w) / dz and its conjugate partner.

    Returned flattened row-major over the constrained-coordinate index.
    For the symmetric family c_ja = -(2 - delta_ja) [w* W^-1(z,w)]_ja and
    for the antisymmetric family c_ja = 2 [w* W^-1(z,w)]_ja; TypeI uses the
    plain entrywise derivative. cbar is the matching z-bar gradient of
    log det W(w, z).
    """
    Wi_zw = inverse(w_matrix(z, w))
    Wi_wz = inverse(w_matrix(w, z))
    G = w.conj().T @ Wi_zw  # n x m
    Gbar = Wi_wz @ w  # m x n
    n = spec.n
    if spec.family == "II":
        two = 2.0 - np.eye(n)
        c = -two * G
        cbar = -two * Gbar
    elif spec.family == "III":
        c = 2.0 * G
        cbar = -2.0 * Gbar
    elif spec.family == "I":
        c = -G.T
        cbar = -Gbar
    else:
        raise ValueError("no kernel log-gradients for TypeIV")
    return c.reshape(-1), cbar.reshape(-1)


def log_gradients_fd(spec, z, w):
    """Finite-difference oracle for log_gradients_closed.

    Differentiates log det W entrywise on the unconstrained matrix, with step
    1e-6 and Richardson extrapolation, then maps the plain gradient to
    constrained coordinates with the direction matrix. Each log det W
    takes a point or a stack, so an FD level is one stacked det.
    """
    shape = spec.shape

    def logdetw_zw(zz):
        return np.log(np.linalg.det(w_matrix(zz, w)))

    def logdetw_wz(zz):
        return np.log(np.linalg.det(w_matrix(w, zz)))

    g_plain = wirtinger_gradient(OpaqueField(shape, logdetw_zw, logdetw_zw), z)
    gbar_plain = wirtinger_gradient_bar(OpaqueField(shape, logdetw_wz, logdetw_wz), z)
    D = direction_matrix(spec)
    return D @ g_plain, D.conj() @ gbar_plain


def b_gradients(spec, z):
    """b = d log det V / dz in constrained coordinates (c at w = z)."""
    return log_gradients_closed(spec, z, z)


def d2_logdetv(spec, z):
    """Mixed second derivatives of log det V in constrained coordinates.

    The plain-entry tensor is -V^{kj} [V(z*)^{-1}]_{ab}; constrained
    coordinates sandwich it between the direction matrices.
    """
    Vi = inverse(v_matrix(z))
    Vsi = inverse(v_matrix(z.conj().T))
    return constrained_hessian(spec, -np.kron(Vi.T, Vsi))


def identity_tensors(spec, z, w):
    """Closed-form boundary tensors (A, B, C, D, E, F) for II/III.

    The boundary identity is A + B + C - D - E = 0 entrywise on the
    distinguished boundary; F is the I - w*w correction tensor, zero there.
    """
    if spec.family not in ("II", "III"):
        raise ValueError("identity tensors exist for the square families only")
    n = spec.n
    k = _float_kappa(spec)
    zs, ws = z.conj().T, w.conj().T
    Vi = inverse(v_matrix(z))
    Vsi = inverse(v_matrix(zs))
    Wi_zs_ws = inverse(w_matrix(zs, ws))
    Wi_ws_zs = inverse(w_matrix(ws, zs))
    eye = np.eye(n)

    if spec.family == "II":
        A = -4.0 * Vi.T
        F = np.zeros((n, n), dtype=complex)
        C = 4.0 * (Wi_zs_ws + Wi_ws_zs - eye)
    else:
        A = -(2.0 / k) * (n - 1.0) * Vi.T
        F = Wi_ws_zs @ v_matrix(ws) @ Wi_zs_ws
        C = 4.0 * (Wi_zs_ws + Wi_ws_zs - eye - F)
    B = 4.0 * (Vsi - eye)
    D = 4.0 * (Wi_zs_ws - eye)
    E = 4.0 * (Wi_ws_zs - eye)
    return A, B, C, D, E, F


def component_kernel_exact(spec, z, w):
    """Exact values of the component operators applied to P(., w) at z.

    Assembles (1/(kappa^2 P)) d^2 P = (1/kappa) d^2 log det V +
    (b - c)(bbar - cbar) in constrained coordinates and contracts with the
    component weights; returns the (j,k) matrix of operator values.
    """
    k = _float_kappa(spec)
    P = poisson_szego(spec, z, w)
    H = d2_logdetv(spec, z)
    b, bbar = b_gradients(spec, z)
    c, cbar = log_gradients_closed(spec, z, w)
    T = H / k + np.outer(b - c, bbar - cbar)
    return component_values(spec, z, (k * k * P) * T)


def check_theorem22(spec, z, w):
    """Residuals of the boundary differential identity at one (z, w) pair.

    Returns (r_fd, r_exact): the largest component-operator value of the
    kernel computed by finite differences, and the largest exact-path
    residual (closed tensor sum for II/III, exact assembly for TypeI).
    Raises ValueError when the FD stencil around z can leave the domain.
    """
    # a stencil point moves at most two real coordinates by FD_STEP, so its
    # operator norm is at most ||z||_2 + sqrt(2) FD_STEP
    if np.linalg.norm(z, 2) + np.sqrt(2.0) * FD_STEP >= 1.0:
        raise ValueError(
            "the FD stencil around z can leave the domain: "
            "||z||_2 + sqrt(2) * FD_STEP >= 1"
        )
    # one Hessian evaluation serves every component
    H = wirtinger_hessian(kernel_field(spec, w), z, step=FD_STEP)
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
