"""Poisson kernels of the matrix domains and the tensor identities they
satisfy on the distinguished boundary.

The central object is the determinant-power kernel

    P(z, w) = det(V(z))^kappa / |det W(z, w)|^(2 kappa),
    W(z, w) = I - z w*,   V(z) = W(z, z).

Everything here is checked along two routes: closed-form tensors assembled
from the log-gradient formulas, and direct numerical differentiation of P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .domains import MatrixPoint, kappa
from .fields import OpaqueField, wirtinger_gradient, wirtinger_gradient_bar
from .fields import wirtinger_hessian
from .operators import OperatorId, component_weights, direction_matrix
from .operators import coefficients as op_coefficients


def w_matrix(z, w):
    m = z.shape[0]
    return np.eye(m) - z @ w.conj().T


def v_matrix(z):
    return w_matrix(z, z)


def poisson_szego(spec, z, w):
    """Kernel value; z interior, w on the distinguished boundary."""
    if spec.family == "IV":
        raise ValueError("no determinant kernel for TypeIV")
    k = float(kappa(spec))
    detv = np.linalg.det(v_matrix(z)).real
    detw = abs(np.linalg.det(w_matrix(z, w)))
    if detw < 1e-300:
        raise linalg.SingularMatrixError("det W(z, w) vanished")
    # det V is real positive on the interior; exp/log handles half-integer k
    return float(np.exp(k * np.log(detv)) / detw ** (2.0 * k))


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
    Wi_zw = linalg.inverse(w_matrix(z, w))
    Wi_wz = linalg.inverse(w_matrix(w, z))
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


def log_gradients_fd(spec, z, w, step=1e-6):
    """Finite-difference oracle for log_gradients_closed.

    Differentiates log det W entrywise on the unconstrained matrix, then maps
    the plain gradient to constrained coordinates with the direction matrix.
    """
    shape = spec.shape

    def logdetw_zw(zz):
        return np.log(np.linalg.det(w_matrix(zz.reshape(shape), w)))

    def logdetw_wz(zz):
        return np.log(np.linalg.det(w_matrix(w, zz.reshape(shape))))

    g_plain = wirtinger_gradient(
        OpaqueField(shape, logdetw_zw), z, step=step, richardson=True
    )
    gbar_plain = wirtinger_gradient_bar(
        OpaqueField(shape, logdetw_wz), z, step=step, richardson=True
    )
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
    m, n = spec.shape
    Vi = linalg.inverse(v_matrix(z))
    Vsi = linalg.inverse(np.eye(n) - z.conj().T @ z)
    H = np.zeros((m * n, m * n), dtype=complex)
    for j in range(m):
        for k in range(m):
            H[j * n : (j + 1) * n, k * n : (k + 1) * n] = -Vi[k, j] * Vsi
    if spec.family in ("II", "III"):
        D = direction_matrix(spec)
        H = D @ H @ D.conj().T
    return H


@dataclass(frozen=True)
class IdentityTensors:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    A_direct: np.ndarray
    B_direct: np.ndarray
    C_direct: np.ndarray
    D_direct: np.ndarray
    E_direct: np.ndarray

    def residual(self):
        """Entrywise boundary identity A + B + C - D - E (zero on-shell)."""
        return self.A + self.B + self.C - self.D - self.E

    def max_dual_path_gap(self):
        return max(
            float(np.max(np.abs(x - y)))
            for x, y in (
                (self.A, self.A_direct),
                (self.B, self.B_direct),
                (self.C, self.C_direct),
                (self.D, self.D_direct),
                (self.E, self.E_direct),
            )
        )


def identity_tensors(spec, z, w):
    """Closed-form and direct-summation boundary tensors for II/III."""
    if spec.family not in ("II", "III"):
        raise ValueError("identity tensors exist for the square families only")
    n = spec.n
    k = float(kappa(spec))
    Vi = linalg.inverse(v_matrix(z))
    Vsi = linalg.inverse(np.eye(n) - z.conj().T @ z)
    Wi_zs_ws = linalg.inverse(np.eye(n) - z.conj().T @ w)
    Wi_ws_zs = linalg.inverse(np.eye(n) - w.conj().T @ z)
    eye = np.eye(n)

    if spec.family == "II":
        A = -4.0 * Vi.T
        F = np.zeros((n, n), dtype=complex)
        C = 4.0 * (Wi_zs_ws + Wi_ws_zs - eye)
    else:
        A = -(2.0 / k) * (n - 1.0) * Vi.T
        F = Wi_ws_zs @ (eye - w.conj().T @ w) @ Wi_zs_ws
        C = 4.0 * (Wi_zs_ws + Wi_ws_zs - eye - F)
    B = 4.0 * (Vsi - eye)
    D = 4.0 * (Wi_zs_ws - eye)
    E = 4.0 * (Wi_ws_zs - eye)

    weights = component_weights(spec, z)
    b, bbar = b_gradients(spec, z)
    c, cbar = log_gradients_closed(spec, z, w)
    b = b.reshape(n, n)
    bbar = bbar.reshape(n, n)
    c = c.reshape(n, n)
    cbar = cbar.reshape(n, n)
    H = d2_logdetv(spec, z).reshape(n, n, n, n)
    A_direct = (1.0 / k) * np.einsum("jakb,jakb->jk", weights, H)
    B_direct = np.einsum("jakb,ja,kb->jk", weights, b, bbar)
    C_direct = np.einsum("jakb,ja,kb->jk", weights, c, cbar)
    D_direct = np.einsum("jakb,ja,kb->jk", weights, b, cbar)
    E_direct = np.einsum("jakb,ja,kb->jk", weights, c, bbar)
    return IdentityTensors(
        A, B, C, D, E, F, A_direct, B_direct, C_direct, D_direct, E_direct
    )


def component_kernel_exact(spec, z, w):
    """Exact values of the component operators applied to P(., w) at z.

    Assembles (1/(kappa^2 P)) d^2 P = (1/kappa) d^2 log det V +
    (b - c)(bbar - cbar) in constrained coordinates and contracts with the
    component weights; returns the (j,k) matrix of operator values.
    """
    m, n = spec.shape
    k = float(kappa(spec))
    P = poisson_szego(spec, z, w)
    H = d2_logdetv(spec, z)
    b, bbar = b_gradients(spec, z)
    c, cbar = log_gradients_closed(spec, z, w)
    T = H / k + np.outer(b - c, bbar - cbar)
    T = (k * k * P) * T.reshape(m, n, m, n)
    if spec.family == "I":
        inner = np.eye(n) - z.T @ z.conj()
        return np.einsum("ab,jakb->jk", inner, T)
    weights = component_weights(spec, z)
    return np.einsum("jakb,jakb->jk", weights, T)


def check_theorem22(spec, zpt, wpt, fd_step=1e-3):
    """Residuals of the boundary differential identity at one (z, w) pair.

    Returns (r_fd, r_exact): the largest component-operator value of the
    kernel computed by finite differences, and the largest exact-path
    residual (closed tensor sum for II/III, exact assembly for TypeI).
    """
    z = zpt.value
    w = wpt.value
    kind = {"I": "delta1", "II": "delta2", "III": "delta3"}[spec.family]
    P_field = kernel_field(spec, w)
    # one Hessian evaluation serves every component; the step balances
    # roundoff in the second difference against Richardson truncation
    H = wirtinger_hessian(P_field, z, step=fd_step)
    r_fd = 0.0
    for j in range(spec.m):
        for k in range(spec.m):
            C = op_coefficients(OperatorId(kind, (j, k)), zpt)
            r_fd = max(r_fd, abs(complex(np.sum(C * H))))
    if spec.family == "I":
        r_exact = float(np.max(np.abs(component_kernel_exact(spec, z, w))))
    else:
        r_exact = float(np.max(np.abs(identity_tensors(spec, z, w).residual())))
    return r_fd, r_exact


def silov_gram_defect(wpt):
    """Norm of I_m - w w*; zero exactly on the distinguished boundary.

    For the square families this agrees with the defect of I - w*w.
    """
    w = wpt.value
    return float(np.linalg.norm(np.eye(w.shape[0]) - w @ w.conj().T))
