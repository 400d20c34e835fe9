"""The invariant Laplacians of the four classical domains, their (j,k)
components, the invariant ball Laplacian, and the modified ball operator.

Index conventions. A field u lives on the full m x n matrix of entries.
For the symmetric (II) and antisymmetric (III) families the displayed
operator coefficients refer to derivatives in the constrained coordinates;
these are directional derivatives along

    II : T_ja = E_ja + E_aj (j != a), E_jj on the diagonal,
    III: T_ja = E_ja - E_aj,

applied to the unconstrained extension of u. We realize them by sandwiching
the plain mixed Hessian between the direction matrices (constrained_hessian),
so every full operator reduces to a contraction of one point-dependent
coefficient tensor with the plain Hessian, and all (j,k) components at once
to one contraction of the component weights with the constrained Hessian
(component_values).
"""

from __future__ import annotations

import numpy as np

from .domains import v_matrix
from .fields import wirtinger_hessian

_KINDS = ("delta1", "delta2", "delta3", "delta4", "ball", "tilde")
_FAMILY_OF = {"delta1": "I", "delta2": "II", "delta3": "III", "delta4": "IV"}


def _check_compat(kind, spec):
    if kind not in _KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    fam = _FAMILY_OF.get(kind)
    if fam is not None and spec.family != fam:
        raise ValueError(f"{kind} is not defined on {spec.label()}")
    if kind in ("ball", "tilde") and not (spec.family == "I" and spec.m == 1):
        raise ValueError(f"{kind} lives on the unit ball I(1,n)")


def direction_matrix(spec):
    """Rows give each constrained-coordinate direction over plain entries."""
    m, n = spec.shape
    size = m * n
    D = np.zeros((size, size))
    if spec.family == "II":
        for j in range(n):
            for a in range(n):
                D[j * n + a, j * n + a] += 1.0
                if j != a:
                    D[j * n + a, a * n + j] += 1.0
    elif spec.family == "III":
        for j in range(n):
            for a in range(n):
                if j != a:
                    D[j * n + a, j * n + a] += 1.0
                    D[j * n + a, a * n + j] -= 1.0
    else:
        D = np.eye(size)
    return D


def constrained_hessian(spec, H):
    """The plain mixed Hessian H in constrained coordinates: D H D^t for the
    square families (the direction matrix D is real), H itself for TypeI."""
    if spec.family in ("II", "III"):
        D = direction_matrix(spec)
        return D @ H @ D.T
    return H


def component_weights(spec, z):
    """Weights w[j, a, k, b] of the (j,k) components of delta1, delta2 and
    delta3.

    For TypeI, component (j,k) weighs the entry pair ((j,a),(k,b)) by
    V(z^t)_ab. For the square families it weighs the constrained coordinate
    pair by V(z)_ab f_ja f_kb, where f is 2 on the diagonal and 1 off it for
    the symmetric family, and 0 on the diagonal and 1 off it for the
    antisymmetric one.
    """
    m, n = spec.shape
    if spec.family == "I":
        return np.broadcast_to(v_matrix(z.T)[None, :, None, :], (m, n, m, n))
    eye = np.eye(n)
    if spec.family == "II":
        f = 1.0 / (1.0 - 0.5 * eye)
    elif spec.family == "III":
        f = 1.0 - eye
    else:
        raise ValueError("weights are defined for the matrix families only")
    return v_matrix(z)[None, :, None, :] * f[:, :, None, None] * f[None, None, :, :]


def component_values(spec, z, H):
    """Every (j,k) component of delta1, delta2 or delta3 at z, from the mixed
    Hessian H in constrained coordinates: an (m, m) array for TypeI and an
    (n, n) one for the square families."""
    m, n = spec.shape
    weights = component_weights(spec, z)
    return np.einsum("jakb,jakb->jk", weights, H.reshape(m, n, m, n))


def _delta4_weights(zs):
    """The delta4 coefficient tensors of a stack zs of IV(n) points, (N, n).

    Each tensor is r (I - 2 z z*) + 2 (zbar - sbar z)(z - s zbar)^t with
    s = z^t z and r = 1 - 2|z|^2 + |s|^2. Its bits do not depend on the
    stack: dot products are stacked matmuls, which take one BLAS dot per
    point, |s| is hypot, |s|^2 is libm pow (squaring differs in the last
    bit), and the outer products multiply length-n rows.
    """
    n = zs.shape[1]
    zc = zs.conj()
    s = np.matmul(zs[:, None, :], zs[:, :, None])[:, 0]
    norm2 = np.matmul(zc[:, None, :], zs[:, :, None])[:, 0, 0].real
    r = 1.0 - 2.0 * norm2 + np.float_power(np.hypot(s.real, s.imag)[:, 0], 2.0)
    left = zc - s.conj() * zs
    right = zs - s * zc
    return r[:, None, None] * (np.eye(n) - 2.0 * (zs[:, :, None] * zc[:, None, :])) + 2.0 * (
        left[:, :, None] * right[:, None, :]
    )


def delta4_coefficients(spec, values):
    """coefficients("delta4", spec, z) at each point z of a stack of IV(n)
    values, shape (N, n, n), bit for bit."""
    _check_compat("delta4", spec)
    values = np.asarray(values, dtype=complex)
    return _delta4_weights(values.reshape(len(values), spec.n))


def _weight_tensor(kind, spec, z):
    """Coefficient over constrained-coordinate index pairs ((j,a),(k,b))."""
    m, n = spec.shape
    if kind == "delta4":
        return _delta4_weights(z.reshape(1, n))[0]
    if kind == "tilde":
        zv = z.reshape(-1)
        return np.eye(n) - float(np.vdot(zv, zv).real) * np.outer(zv, zv.conj())
    # "ball" is delta1 on I(1, n): (1 - |z|^2)(I - z^t zbar)
    scale = 0.25 if kind in ("delta2", "delta3") else 1.0
    W = (v_matrix(z) * scale)[:, None, :, None] * component_weights(spec, z)
    return W.reshape(m * n, m * n)


def coefficients(kind, spec, z):
    """Effective coefficient tensor over plain flattened entry pairs.

    apply(kind, u, spec, z) == sum_{a,b} coefficients(kind, spec, z)[a, b] *
    H_plain[a, b]. kind is one of delta1-delta4, "ball" and "tilde".
    """
    _check_compat(kind, spec)
    W = _weight_tensor(kind, spec, z)
    if spec.family in ("II", "III"):
        D = direction_matrix(spec)
        return D.T @ W @ D.conj()
    return W


def apply(kind, u, spec, z):
    """Evaluate the operator named kind on a field u at the point z of spec."""
    C = coefficients(kind, spec, z)
    H = wirtinger_hessian(u, z)
    return complex(np.sum(C * H))
