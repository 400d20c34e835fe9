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

import numpy as np

from .domains import DomainSpec, MatrixPoint, membership_margin, type_i, type_ii, type_iii
from .fields import OpaqueField, PolyField, wirtinger_hessian
from .operators import OperatorId, coefficients as op_coefficients


def _coordinate(shape, a):
    return PolyField.coordinate(shape, a)


def _zero(shape):
    return PolyField(shape, {})


@dataclass(frozen=True)
class BallEmbedding:
    """Holomorphic polynomial map from a ball into a matrix domain.

    kind "I":  z(lam) = xi^t lam, an m x n rank-one matrix (xi a unit vector),
    kind "II": z(lam) = (lam U)^t (lam U), symmetric, U unitary,
    kind "III": the corner map z_{0a} = lam_{a-1}, z_{a0} = -lam_{a-1} with a
    zero lower-right block.
    """

    kind: str
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
    if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
        raise ValueError("xi must be a unit vector")
    lshape = (1, n)
    comps = []
    for j in range(m):
        for a in range(n):
            comps.append(_coordinate(lshape, a) * xi[j])
    return BallEmbedding("I", type_i(m, n), n, tuple(comps), xi)


def type_ii_embedding(u_mat):
    """Embedding of B_n into II(n): lam -> (lam U)^t (lam U)."""
    u_mat = np.asarray(u_mat, dtype=complex)
    n = u_mat.shape[0]
    if np.max(np.abs(u_mat @ u_mat.conj().T - np.eye(n))) > 1e-12:
        raise ValueError("U must be unitary")
    lshape = (1, n)
    mu = [
        sum(
            (_coordinate(lshape, p) * u_mat[p, i] for p in range(n)),
            _zero(lshape),
        )
        for i in range(n)
    ]
    comps = []
    for i in range(n):
        for k in range(n):
            comps.append(mu[i] * mu[k])
    return BallEmbedding("II", type_ii(n), n, tuple(comps), u_mat)


def type_iii_embedding(n):
    """Corner embedding of B_{n-1} into III(n) filling only row/column one."""
    if n < 2:
        raise ValueError("needs n >= 2")
    lshape = (1, n - 1)
    comps = []
    for j in range(n):
        for a in range(n):
            if j == 0 and a >= 1:
                comps.append(_coordinate(lshape, a - 1))
            elif a == 0 and j >= 1:
                comps.append(_coordinate(lshape, j - 1) * -1.0)
            else:
                comps.append(_zero(lshape))
    return BallEmbedding("III", type_iii(n), n - 1, tuple(comps), None)


def embed(e, lam):
    """Evaluate the embedding at a ball point; checks both memberships."""
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    if lam.size != e.ball_dim:
        raise ValueError("ball point has the wrong dimension")
    if np.linalg.norm(lam) >= 1.0:
        raise ValueError("point must lie in the open unit ball")
    z = np.array([comp(lam) for comp in e.components]).reshape(e.spec.shape)
    pt = MatrixPoint(e.spec, z)
    if membership_margin(e.spec, z) <= 0.0:
        raise ValueError("image left the target domain")
    return pt


def gram_identity_residual(e):
    """Coefficient-level residual of sum_p z_pi zbar_pj = lam_i lambar_j.

    Exact polynomial identity for rank-one embeddings: both sides are
    expanded as PolyFields over the ball and compared term by term.
    """
    if e.kind != "I":
        raise ValueError("the rank-one identity applies to kind I only")
    m, n = e.spec.shape
    lshape = e.ball_shape()
    worst = 0.0
    for i in range(n):
        for j in range(n):
            lhs = _zero(lshape)
            for p in range(m):
                lhs = lhs + e.components[p * n + i] * e.components[
                    p * n + j
                ].conjugate()
            rhs = _coordinate(lshape, i) * _coordinate(lshape, j).conjugate()
            diff = lhs - rhs
            if diff.terms:
                worst = max(worst, max(abs(c) for c in diff.terms.values()))
    return worst


def _compose_map(components, in_shape, out_shape, u):
    """u composed with a holomorphic polynomial map given entrywise."""
    if isinstance(u, PolyField):
        return u.compose_holomorphic(list(components), in_shape)

    def fn(lam):
        lam = np.asarray(lam, dtype=complex).reshape(-1)
        return u(np.array([c(lam) for c in components]).reshape(out_shape))

    return OpaqueField(in_shape, fn)


def _sandwich_gap(components, in_shape, out_shape, u, lam):
    """H_{u o phi}(lam) - J H_u(phi(lam)) J* for the map phi = components.

    J is the holomorphic Jacobian of phi arranged rows-by-input.
    """
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    Hg = wirtinger_hessian(_compose_map(components, in_shape, out_shape, u), lam)
    z = np.array([c(lam) for c in components])
    Hu = wirtinger_hessian(u, z.reshape(out_shape))
    J = np.array([[comp.dz(a)(lam) for comp in components] for a in range(lam.size)])
    return Hg - J @ Hu @ J.conj().T


def compose(e, u):
    """u composed with the embedding, staying exact for polynomials."""
    return _compose_map(e.components, e.ball_shape(), e.spec.shape, u)


def chain_rule_residual(e, u, lam):
    """Entrywise residual of the composed-Hessian chain rule at lam.

    d^2 (u o z) / dlam_i dlambar_j must equal the embedding-Jacobian
    sandwich of the mixed Hessian of u at z(lam).
    """
    gap = _sandwich_gap(e.components, e.ball_shape(), e.spec.shape, u, lam)
    return float(np.max(np.abs(gap)))


def pullback_residual(e, u, lam):
    """Ball-side operator of u o z minus the domain-side component sum.

    Kind I compares against sum_kl xi_k xibar_l Delta1^kl u; kind II against
    the double sum of weighted Delta2 components conjugated by U; kind III
    against the single corner component of Delta3. A vanishing residual for
    all u is the reduction step that transfers harmonicity through the
    embedding.
    """
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    g = compose(e, u)
    Hg = wirtinger_hessian(g, lam)
    d = lam.size
    zpt = embed(e, lam)
    Hu = wirtinger_hessian(u, zpt.value)

    def component(kind, jk):
        C = op_coefficients(OperatorId(kind, jk), zpt)
        return complex(np.sum(C * Hu))

    if e.kind == "I":
        lhs = complex(
            np.einsum("ab,ab->", np.eye(d) - np.outer(lam, lam.conj()), Hg)
        )
        xi = e.parameter
        m = xi.size
        rhs = sum(
            xi[k] * np.conj(xi[l]) * component("delta1", (k, l))
            for k in range(m)
            for l in range(m)
        )
    elif e.kind == "II":
        nsq = float(np.vdot(lam, lam).real)
        lhs = complex(
            np.einsum("ab,ab->", np.eye(d) - nsq * np.outer(lam, lam.conj()), Hg)
        )
        U = e.parameter
        n = U.shape[0]
        comps = np.array(
            [[component("delta2", (i, k)) for k in range(n)] for i in range(n)]
        )
        rhs = complex(
            np.einsum("p,q,pi,qk,ik->", lam, lam.conj(), U, U.conj(), comps)
        )
    else:
        lhs = complex(
            np.einsum("ab,ab->", np.eye(d) - np.outer(lam, lam.conj()), Hg)
        )
        rhs = component("delta3", (0, 0))
    return lhs - rhs


def polarization_recover(form, n, check_probes=3, seed=0, tol=1e-9):
    """Recover M from a sesquilinear-quadratic form xi -> sum M_jk xi_j xibar_k.

    Diagonal entries come from the basis vectors; off-diagonal pairs from the
    two rotated midpoints (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2. The
    recovered matrix is validated against the form at random probe vectors.
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
    rng = np.random.default_rng(seed)
    for _ in range(check_probes):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi /= np.linalg.norm(xi)
        predicted = complex(xi @ M @ xi.conj())
        if abs(predicted - complex(form(xi))) > tol * max(1.0, np.linalg.norm(M)):
            raise ValueError("form is not sesquilinear-quadratic")
    return M


def hessian_transport_check(components, in_shape, u, z0):
    """Residual norm of the Hessian chain rule for a holomorphic map.

    components give the map entrywise as holomorphic PolyFields over
    in_shape; u is a field over the image coordinates. Returns the Frobenius
    norm of H_{u o phi}(z0) - J H_u(phi(z0)) J* with J the Jacobian of phi
    arranged rows-by-input.
    """
    return float(np.linalg.norm(_sandwich_gap(components, in_shape, u.shape, u, z0)))
