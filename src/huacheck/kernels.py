"""Poisson kernels of the matrix domains and the tensor identities they
satisfy on the distinguished boundary.

The central object is the determinant-power kernel

    P(z, w) = det(V(z))^kappa / |det W(z, w)|^(2 kappa),
    W(z, w) = I - z w*,   V(z) = W(z, z)

(W and V live in huacheck.domains). poisson_szego is its one evaluator, at
one boundary point for the FD stencil or over a stacked boundary sample for
the Monte-Carlo Poisson solve of huacheck.dirichlet. The boundary identity
is checked along two routes: direct numerical differentiation of P, and
closed forms built from the log-gradient formulas (the boundary tensors for II/III, the exact
component assembly for TypeI). Every matrix inverse goes through
``inverse``, which raises SingularMatrixError near singularity instead of
returning an inaccurate result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .domains import SILOV_CHUNK, kappa, v_matrix, w_matrix
from .fields import OpaqueField, wirtinger_gradient, wirtinger_gradient_bar
from .fields import wirtinger_hessian
from .operators import component_values, constrained_hessian, direction_matrix


SINGULARITY_FLOOR = 1e-12

# Step of the FD Hessian in check_theorem22: it balances roundoff in the
# second difference against Richardson truncation.
FD_STEP = 1e-3


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
def _kernel_constants(spec):
    """kappa as a float and the identity of the row size, once per spec."""
    return float(kappa(spec)), np.eye(spec.m)


def _kernel_dets(ws, z):
    """det(I - w z*) for every row w of the boundary batch ws.

    z is one interior point (m, n), which gives N values, or a stack
    (Z, m, n), which gives a (Z, N) array. det(I - w z*) is the conjugate of
    det(I - z w*), so it has the same modulus (also for m < n). The batch is
    worked in blocks of SILOV_CHUNK rows, and each block is eliminated for
    all points at once, column by column. Column j of I - w z* is one
    stacked matmul of -z's row j against the block's transposed rows, with
    1 added on the diagonal in place: a[i] is entry (i, j) of every (point,
    draw) pair, one contiguous array. The matmul makes a separate (1, n) by
    (n, k) BLAS product per (point, row), because a (Z, n) by (n, k) product
    rounds a point's entries differently as Z changes; so on blocks of more
    than one draw a point's entries do not depend on the other points of
    the stack. The determinants come from Gaussian elimination without
    pivoting in its left-looking order: the multipliers of the earlier
    columns update the new column, whose entries below the diagonal become
    the next multipliers. That makes the same operations, in the same order
    per entry, as eliminating the whole matrix, but holds m (m + 1) / 2
    entries per pair in place of m^2. The column, the multipliers and one
    product share a single buffer that every block reuses.

    Pivoting is not needed: for ||w|| = 1 and ||z|| < 1 the Hermitian part
    of A = I - w z* is at least (1 - ||z||) I, because Re x*(w z*)x <=
    ||w* x|| ||z* x|| <= ||z|| for a unit vector x. Every Schur complement of
    such a matrix keeps that bound, so each pivot has modulus at least
    1 - ||z|| and elimination without pivoting is backward stable (Golub &
    Van Loan, "Unsymmetric positive definite linear systems", Linear Algebra
    Appl. 28, 1979).
    """
    samples, m, _ = ws.shape
    minus_zc = -np.reshape(z, (-1,) + z.shape[-2:]).conj()
    points = len(minus_zc)
    work = np.empty(
        (m * (m + 1) // 2 + 1, points, min(samples, SILOV_CHUNK)), dtype=complex
    )
    dets = np.empty((points, samples), dtype=complex)
    for start in range(0, samples, SILOV_CHUNK):
        block = ws[start : start + SILOV_CHUNK].transpose(1, 2, 0)
        size = block.shape[-1]
        a, product = work[:m, :, :size], work[-1, :, :size]
        a_by_point = a.transpose(1, 0, 2)[:, :, None]
        free_slots = iter(work[m:-1, :, :size])
        lower = {}
        d = dets[:, start : start + size]
        for j in range(m):
            # a[i, p, s] = -sum_k w_s[i, k] conj(z_p[j, k])
            np.matmul(minus_zc[:, None, j : j + 1], block, out=a_by_point)
            a[j] += 1.0
            for k in range(j):
                for i in range(k + 1, m):
                    a[i] -= np.multiply(lower[i, k], a[k], out=product)
            if j:
                d *= a[j]
            else:
                d[:] = a[0]
            for i in range(j + 1, m):
                lower[i, j] = np.divide(a[i], a[j], out=next(free_slots))
    return dets if z.ndim == 3 else dets[0]


def poisson_szego(spec, z, w):
    """P(z, w) for z interior and w on the distinguished boundary.

    w is one boundary point of shape (m, n), which gives a float, or a stack
    (N, m, n), which gives an array of N values. With a stack of boundary
    points, z may be a stack (Z, m, n) of interior points too, which gives a
    (Z, N) array. Each path is the faster one at its size: LAPACK det for
    one point, _kernel_dets' elimination for a stack.
    """
    if spec.family == "IV":
        raise ValueError("no determinant kernel for TypeIV")
    k, eye = _kernel_constants(spec)
    if w.ndim == 2:
        # V = W(z, z) and W(z, w) from one stacked product and one stacked det
        dets = np.linalg.det(eye - z @ np.array((z, w)).conj().transpose(0, 2, 1))
        detv = dets[0].real
        detw = abs(dets[1])
        if detw < 1e-300:
            raise SingularMatrixError("det W(z, w) vanished")
    else:
        # one det V per point, broadcast along that point's row of weights
        detv = np.linalg.det(eye - z @ z.conj().swapaxes(-1, -2)).real[..., None]
        detw = np.abs(_kernel_dets(w, z))
    # det V is real positive on the interior; exp/log handles half-integer k
    p = np.exp(k * np.log(detv)) / detw ** (2.0 * k)
    return float(p) if w.ndim == 2 else p


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
    constrained coordinates with the direction matrix.
    """
    shape = spec.shape

    def logdetw_zw(zz):
        return np.log(np.linalg.det(w_matrix(zz.reshape(shape), w)))

    def logdetw_wz(zz):
        return np.log(np.linalg.det(w_matrix(w, zz.reshape(shape))))

    g_plain = wirtinger_gradient(OpaqueField(shape, logdetw_zw), z)
    gbar_plain = wirtinger_gradient_bar(OpaqueField(shape, logdetw_wz), z)
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


@dataclass(frozen=True)
class IdentityTensors:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray

    def residual(self):
        """Entrywise boundary identity A + B + C - D - E (zero on-shell)."""
        return self.A + self.B + self.C - self.D - self.E


def identity_tensors(spec, z, w):
    """Closed-form boundary tensors for II/III."""
    if spec.family not in ("II", "III"):
        raise ValueError("identity tensors exist for the square families only")
    n = spec.n
    k = float(kappa(spec))
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
    return IdentityTensors(A, B, C, D, E, F)


def component_kernel_exact(spec, z, w):
    """Exact values of the component operators applied to P(., w) at z.

    Assembles (1/(kappa^2 P)) d^2 P = (1/kappa) d^2 log det V +
    (b - c)(bbar - cbar) in constrained coordinates and contracts with the
    component weights; returns the (j,k) matrix of operator values.
    """
    k = float(kappa(spec))
    P = poisson_szego(spec, z, w)
    H = d2_logdetv(spec, z)
    b, bbar = b_gradients(spec, z)
    c, cbar = log_gradients_closed(spec, z, w)
    T = H / k + np.outer(b - c, bbar - cbar)
    return component_values(spec, z, (k * k * P) * T)


def check_theorem22(spec, zpt, wpt):
    """Residuals of the boundary differential identity at one (z, w) pair.

    Returns (r_fd, r_exact): the largest component-operator value of the
    kernel computed by finite differences, and the largest exact-path
    residual (closed tensor sum for II/III, exact assembly for TypeI).
    Raises ValueError when the FD stencil around z can leave the domain.
    """
    z = zpt.value
    w = wpt.value
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
        r_exact = float(np.max(np.abs(identity_tensors(spec, z, w).residual())))
    return r_fd, r_exact


def silov_gram_defect(wpt):
    """Norm of I_m - w w*; zero exactly on the distinguished boundary.

    For the square families this agrees with the defect of I - w*w.
    """
    return float(np.linalg.norm(v_matrix(wpt.value)))
