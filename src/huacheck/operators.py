"""The invariant Laplacians of the four classical domains, their (j,k)
components, the invariant ball Laplacian, and the modified ball operator.

Index conventions. A field u lives on the full m x n matrix of entries.
For the symmetric (II) and antisymmetric (III) families the displayed
operator coefficients refer to derivatives in the constrained coordinates;
these are directional derivatives along

    II : T_ja = E_ja + E_aj (j != a), E_jj on the diagonal,
    III: T_ja = E_ja - E_aj,

applied to the unconstrained extension of u. We realize them by sandwiching
the plain mixed Hessian between the direction matrices, so every operator
reduces to a contraction of one point-dependent coefficient tensor with the
plain Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec, MatrixPoint
from .fields import wirtinger_hessian

_KINDS = ("delta1", "delta2", "delta3", "delta4", "ball", "tilde")
_FAMILY_OF = {"delta1": "I", "delta2": "II", "delta3": "III", "delta4": "IV"}


@dataclass(frozen=True)
class OperatorId:
    kind: str
    component: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.component is not None and self.kind not in (
            "delta1",
            "delta2",
            "delta3",
        ):
            raise ValueError(f"{self.kind} has no component form")


def _check_compat(op, spec):
    fam = _FAMILY_OF.get(op.kind)
    if fam is not None and spec.family != fam:
        raise ValueError(f"{op.kind} is not defined on {spec.label()}")
    if op.kind in ("ball", "tilde") and not (spec.family == "I" and spec.m == 1):
        raise ValueError(f"{op.kind} lives on the unit ball I(1,n)")
    if op.component is not None:
        j, k = op.component
        bound = spec.m if op.kind == "delta1" else spec.n
        if not (0 <= j < bound and 0 <= k < bound):
            raise ValueError("component index out of range")


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


def component_weights(spec, z):
    """Weights w[j, a, k, b] of the (j,k) components of delta2 and delta3.

    Component (j,k) weighs the constrained coordinate pair ((j,a),(k,b)) by
    V(z)_ab f_ja f_kb, where f is 2 on the diagonal and 1 off it for the
    symmetric family, and 0 on the diagonal and 1 off it for the
    antisymmetric one.
    """
    n = spec.n
    eye = np.eye(n)
    if spec.family == "II":
        f = 1.0 / (1.0 - 0.5 * eye)
    elif spec.family == "III":
        f = 1.0 - eye
    else:
        raise ValueError("weights are defined for the square families only")
    Vz = eye - z @ z.conj().T
    return Vz[None, :, None, :] * f[:, :, None, None] * f[None, None, :, :]


def _weight_tensor(op, spec, z):
    """Coefficient over constrained-coordinate index pairs ((j,a),(k,b))."""
    m, n = spec.shape
    if op.kind == "delta4":
        zv = z.reshape(-1)
        s = zv @ zv
        r = 1.0 - 2.0 * float(np.vdot(zv, zv).real) + abs(s) ** 2
        zc = zv.conj()
        left = zc - np.conj(s) * zv
        right = zv - s * zc
        return r * (np.eye(n) - 2.0 * np.outer(zv, zc)) + 2.0 * np.outer(left, right)
    if op.kind == "ball":
        zv = z.reshape(-1)
        return (1.0 - float(np.vdot(zv, zv).real)) * (
            np.eye(n) - np.outer(zv, zv.conj())
        )
    if op.kind == "tilde":
        zv = z.reshape(-1)
        return np.eye(n) - float(np.vdot(zv, zv).real) * np.outer(zv, zv.conj())

    if op.kind == "delta1":
        inner = np.eye(n) - z.T @ z.conj()
        weights = np.broadcast_to(inner[None, :, None, :], (m, n, m, n))
        scale = 1.0
    else:
        weights = component_weights(spec, z)
        scale = 0.25
    if op.component is None:
        Vz = np.eye(m) - z @ z.conj().T
        W = (Vz * scale)[:, None, :, None] * weights
    else:
        j, k = op.component
        W = np.zeros((m, n, m, n), dtype=complex)
        W[j, :, k, :] = weights[j, :, k, :]
    return W.reshape(m * n, m * n)


def coefficients(op, point):
    """Effective coefficient tensor over plain flattened entry pairs.

    apply(op, u, z) == sum_{a,b} coefficients(op, z)[a, b] * H_plain[a, b].
    """
    _check_compat(op, point.spec)
    W = _weight_tensor(op, point.spec, point.value)
    if point.spec.family in ("II", "III"):
        D = direction_matrix(point.spec)
        return D.T @ W @ D.conj()
    return W


def apply(op, u, point, step=None, richardson=True):
    """Evaluate the operator on a field at a point."""
    C = coefficients(op, point)
    H = wirtinger_hessian(u, point.value, step=step, richardson=richardson)
    return complex(np.sum(C * H))


def component_sum_check(op, u, point, step=None):
    """Residual between the full operator and its component decomposition.

    The full operator is assembled as one tensor; the right side sums the
    component operators against V_jk (with the 1/4 prefactor for the
    symmetric and antisymmetric families).
    """
    if op.kind not in ("delta1", "delta2", "delta3") or op.component is not None:
        raise ValueError("component decomposition applies to full delta1/2/3")
    spec = point.spec
    z = point.value
    m = spec.m
    Vz = np.eye(m) - z @ z.conj().T
    full = apply(op, u, point, step=step)
    prefactor = 1.0 if op.kind == "delta1" else 0.25
    total = 0.0 + 0.0j
    H = wirtinger_hessian(u, z, step=step)
    for j in range(m):
        for k in range(m):
            comp = OperatorId(op.kind, (j, k))
            C = coefficients(comp, point)
            total += prefactor * Vz[j, k] * complex(np.sum(C * H))
    return abs(full - total)
