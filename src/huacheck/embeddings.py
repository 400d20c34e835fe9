"""Ball-to-domain embeddings and the identities that transfer harmonicity.

Each embedding is stored as an exact holomorphic polynomial map from a ball
into one of the matrix domains, so composed fields stay on the exact
differentiation track. The pullback residuals compare the ball-side operator
of the composed field against the domain-side component operators; the
polarization routine recovers a sesquilinear form from boundary evaluations;
the transport check validates the chain rule for mixed complex Hessians under
holomorphic maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .domains import DomainSpec, membership_margin, require_family_symmetry
from .domains import type_i, type_ii, type_iii, v_matrix
from .fields import PolyField, wirtinger_gradient, wirtinger_hessian
from .operators import component_values, constrained_hessian


@dataclass(frozen=True)
class BallEmbedding:
    """Holomorphic polynomial map from a ball into a matrix domain.

    By spec.family:
    I:   z(lam) = xi^t lam, an m x n rank-one matrix (xi a unit vector),
    II:  z(lam) = (lam U)^t (lam U), symmetric, U unitary,
    III: the corner map z_{0a} = lam_{a-1}, z_{a0} = -lam_{a-1} with a
    zero lower-right block.
    """

    spec: DomainSpec
    ball_dim: int
    components: tuple[PolyField, ...]
    parameter: np.ndarray | None = None

    def ball_shape(self):
        return (1, self.ball_dim)


def type_i_embedding(xi, n):
    """Rank-one embedding of B_n into I(m, n) from a unit vector xi in C^m."""
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    m = xi.size
    # fails closed: NaN <= tol is False
    if not abs(np.linalg.norm(xi) - 1.0) <= 1e-12:
        raise ValueError("xi must be a unit vector")
    lshape = (1, n)
    comps = []
    for j in range(m):
        for a in range(n):
            comps.append(PolyField.coordinate(lshape, a) * xi[j])
    return BallEmbedding(type_i(m, n), n, tuple(comps), xi)


def type_ii_embedding(u_mat):
    """Embedding of B_n into II(n): lam -> (lam U)^t (lam U), U n x n unitary."""
    u_mat = np.asarray(u_mat, dtype=complex)
    n = u_mat.shape[0]
    if u_mat.shape != (n, n) or not np.abs(u_mat @ u_mat.conj().T - np.eye(n)).max() <= 1e-12:
        raise ValueError(f"U must be square and unitary, got shape {u_mat.shape}")
    lshape = (1, n)
    mu = [
        sum(
            (PolyField.coordinate(lshape, p) * u_mat[p, i] for p in range(n)),
            PolyField(lshape, {}),
        )
        for i in range(n)
    ]
    comps = []
    for i in range(n):
        for k in range(n):
            comps.append(mu[i] * mu[k])
    return BallEmbedding(type_ii(n), n, tuple(comps), u_mat)


def type_iii_embedding(n):
    """Corner embedding of B_{n-1} into III(n) filling only row/column one."""
    if n < 2:
        raise ValueError("needs n >= 2")
    lshape = (1, n - 1)
    comps = []
    for j in range(n):
        for a in range(n):
            if j == 0 and a >= 1:
                comps.append(PolyField.coordinate(lshape, a - 1))
            elif a == 0 and j >= 1:
                comps.append(PolyField.coordinate(lshape, j - 1) * -1.0)
            else:
                comps.append(PolyField(lshape, {}))
    return BallEmbedding(type_iii(n), n - 1, tuple(comps), None)


def embed(e, lam):
    """The image of a ball point, an array of e.spec.shape.

    Checks both memberships and the family symmetry of the image, failing
    closed: a NaN point or image raises.
    """
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    if lam.size != e.ball_dim:
        raise ValueError("ball point has the wrong dimension")
    if not np.linalg.norm(lam) < 1.0:
        raise ValueError("point must lie in the open unit ball")
    z = np.array([comp(lam) for comp in e.components], dtype=complex).reshape(e.spec.shape)
    require_family_symmetry(e.spec, z)
    if not membership_margin(e.spec, z) > 0.0:
        raise ValueError("image left the target domain")
    return z


def gram_identity_residual(e):
    """Coefficient-level residual of sum_p z_pi zbar_pj = lam_i lambar_j.

    Exact polynomial identity for rank-one embeddings: both sides are
    expanded as PolyFields over the ball and compared term by term.
    """
    if e.spec.family != "I":
        raise ValueError("the rank-one identity applies to type I only")
    m, n = e.spec.shape
    lshape = e.ball_shape()
    comps = e.components
    conj_comps = [comp.conjugate() for comp in comps]
    lam = [PolyField.coordinate(lshape, i) for i in range(n)]
    lam_bar = [coord.conjugate() for coord in lam]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            # the first product stands for empty + product: its terms are
            # already stored as 0.0 + c and kept
            lhs = comps[i] * conj_comps[j]
            for p in range(1, m):
                lhs = lhs + comps[p * n + i] * conj_comps[p * n + j]
            diff = lhs - lam[i] * lam_bar[j]
            if not diff.is_zero():
                worst = max(worst, max(abs(c) for c, _, _ in diff.monomials()))
    return worst


def _sandwich_gap(components, u, g, lam):
    """H_g(lam) - J H_u(phi(lam)) J* for g = u o phi, phi = components.

    J is the holomorphic Jacobian of phi arranged rows-by-input: column c
    is the gradient of component c.
    """
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    Hg = wirtinger_hessian(g, lam)
    z = np.array([c(lam) for c in components])
    Hu = wirtinger_hessian(u, z.reshape(u.shape))
    J = np.stack([wirtinger_gradient(comp, lam) for comp in components], axis=1)
    return Hg - J @ Hu @ J.conj().T


def compose(e, u):
    """u composed with the embedding, as an exact polynomial field."""
    return u.compose_holomorphic(list(e.components), e.ball_shape())


def chain_rule_residual(e, u, g, lam):
    """Entrywise residual of the composed-Hessian chain rule at lam, for
    g = compose(e, u).

    d^2 (u o z) / dlam_i dlambar_j must equal the embedding-Jacobian
    sandwich of the mixed Hessian of u at z(lam).
    """
    return float(np.max(np.abs(_sandwich_gap(e.components, u, g, lam))))


def pullback_residual(e, u, g, lam):
    """Ball-side operator of g = compose(e, u) minus the domain-side
    component sum.

    Type I compares against sum_kl xi_k xibar_l Delta1^kl u; type II against
    the double sum of weighted Delta2 components conjugated by U; type III
    against the single corner component of Delta3. A vanishing residual for
    all u is the reduction step that transfers harmonicity through the
    embedding.
    """
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    Hg = wirtinger_hessian(g, lam)
    z = embed(e, lam)
    Hu = constrained_hessian(e.spec, wirtinger_hessian(u, z))
    comps = component_values(e.spec, z, Hu)

    # ball-side weight I - r^2 lam lam* = V(r lam) of the column r lam, with
    # r = |lam| for type II, else 1
    r = np.linalg.norm(lam) if e.spec.family == "II" else 1.0
    weight = v_matrix((r * lam)[:, None])
    lhs = complex(np.einsum("ab,ab->", weight, Hg))
    if e.spec.family == "I":
        xi = e.parameter
        rhs = complex(xi @ comps @ xi.conj())
    elif e.spec.family == "II":
        U = e.parameter
        rhs = complex(
            np.einsum("p,q,pi,qk,ik->", lam, lam.conj(), U, U.conj(), comps)
        )
    else:
        rhs = complex(comps[0, 0])
    return lhs - rhs


@cache
def _probes(n):
    """Three random unit vectors of C^n drawn from seed 0, a read-only (3, n)
    array made once per n."""
    g = np.random.default_rng(0).standard_normal((3, 2, n))
    xi = g[:, 0] + 1j * g[:, 1]
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    xi.flags.writeable = False
    return xi


def polarization_recover(form, n):
    """Recover M from a sesquilinear-quadratic form xi -> sum M_jk xi_j xibar_k.

    Diagonal entries come from the basis vectors; off-diagonal pairs from the
    two rotated midpoints (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2. The
    recovered matrix is validated against the form at three random unit
    probe vectors drawn from seed 0: a gap above 1e-9 max(1, ||M||) raises
    ValueError.
    """
    M = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for k in range(n):
        M[k, k] = form(eye[k])
    root = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            base = M[j, j] + M[k, k]
            s = 2.0 * form(root * (eye[j] + eye[k])) - base
            t = 2.0 * form(root * (eye[j] + 1j * eye[k])) - base
            M[j, k] = (s + 1j * t) / 2.0
            M[k, j] = (s - 1j * t) / 2.0
    for xi in _probes(n):
        predicted = complex(xi @ M @ xi.conj())
        if abs(predicted - complex(form(xi))) > 1e-9 * max(1.0, np.linalg.norm(M)):
            raise ValueError("form is not sesquilinear-quadratic")
    return M


def hessian_transport_check(components, in_shape, u, z0):
    """Residual norm of the Hessian chain rule for a holomorphic map.

    components give the map entrywise as holomorphic PolyFields over
    in_shape; u is a PolyField over the image coordinates. Returns the
    Frobenius norm of H_{u o phi}(z0) - J H_u(phi(z0)) J* with J the
    Jacobian of phi arranged rows-by-input.
    """
    g = u.compose_holomorphic(list(components), in_shape)
    return float(np.linalg.norm(_sandwich_gap(components, u, g, z0)))
