"""The invariant Laplacian of each classical domain, delta1 to delta4 on I to
IV (delta1 on I(1, n) is the invariant ball Laplacian), its (j,k) components,
and the modified ball operator.

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


def direction_matrix(spec):
    """Rows give each constrained-coordinate direction over plain entries:
    row j n + a is E_ja + E_aj (II; E_jj on the diagonal), E_ja - E_aj (III,
    zero on the diagonal), or E_ja itself (I, IV)."""
    eye = np.eye(spec.size)
    if spec.family not in ("II", "III"):
        return eye
    # row j n + a of the permuted identity is E_aj
    transposed = eye[np.arange(spec.size).reshape(spec.shape).T.ravel()]
    return np.maximum(eye, transposed) if spec.family == "II" else eye - transposed


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


def delta4_coefficients(spec, values):
    """The delta4 coefficient tensors of IV(n) at a stack of points, (N, n, n).

    Each tensor is r (I - 2 z z*) + 2 (zbar - sbar z)(z - s zbar)^t with
    s = z^t z and r = 1 - 2|z|^2 + |s|^2. Its bits do not depend on the
    stack, so coefficients(spec, z) is a stack of one: dot products are
    stacked matmuls, which take one BLAS dot per point, |s| is hypot, |s|^2
    is libm pow (squaring differs in the last bit), and the outer products
    multiply length-n rows.
    """
    if spec.family != "IV":
        raise ValueError(f"delta4 is not defined on {spec.label()}")
    n = spec.n
    zs = np.asarray(values, dtype=complex).reshape(len(values), n)
    zc = zs.conj()
    s = np.matmul(zs[:, None, :], zs[:, :, None])[:, 0]
    norm2 = np.matmul(zc[:, None, :], zs[:, :, None])[:, 0, 0].real
    r = 1.0 - 2.0 * norm2 + np.float_power(np.hypot(s.real, s.imag)[:, 0], 2.0)
    left = zc - s.conj() * zs
    right = zs - s * zc
    return r[:, None, None] * (np.eye(n) - 2.0 * (zs[:, :, None] * zc[:, None, :])) + 2.0 * (
        left[:, :, None] * right[:, None, :]
    )


def coefficients(spec, z):
    """The tensor of spec's invariant Laplacian at z over plain flattened
    entry pairs, so that apply(coefficients(spec, z), u, z) is delta1 to delta4
    of u on I to IV; on I(1, n) it is (1 - |z|^2)(I - z^t zbar)."""
    m, n = spec.shape
    if spec.family == "IV":
        return delta4_coefficients(spec, z.reshape(1, n))[0]
    if spec.family == "I":
        return (v_matrix(z)[:, None, :, None] * component_weights(spec, z)).reshape(m * n, m * n)
    W = (0.25 * v_matrix(z))[:, None, :, None] * component_weights(spec, z)
    D = direction_matrix(spec)
    return D.T @ W.reshape(m * n, m * n) @ D.conj()


def modified_ball_coefficients(spec, z):
    """I - |z|^2 z^t zbar, the modified ball operator's tensor at z in I(1, n)."""
    if not (spec.family == "I" and spec.m == 1):
        raise ValueError(f"the modified ball operator lives on I(1,n), not {spec.label()}")
    # V of the column |z| z^t
    return v_matrix(np.linalg.norm(z) * z.reshape(-1, 1))


def apply(C, u, z):
    """The operator of coefficient tensor C on the field u at the point z.

    No campaign calls it: radial_extension_residuals contracts the exact
    Hessians of the Dirichlet extension itself. tests/test_operators.py
    applies the invariant operators with it, and tests/test_dirichlet.py
    its FD oracle of the modified Laplacian of the extension.
    """
    return complex(np.sum(C * wirtinger_hessian(u, z)))
