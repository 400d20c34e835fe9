"""The four classical bounded symmetric domains: specs, the matrices
W(z, w) = I - z w* and V(z) = W(z, z), membership, sampling of interior and
distinguished-boundary points, and the inverse bidisc map of IV(2) used by
the counterexample demo.

Families:
  I(m,n)  : m x n complex matrices z with I - zz* > 0, m <= n
  II(n)   : symmetric n x n matrices in I(n,n)
  III(n)  : antisymmetric n x n matrices in I(n,n)
  IV(n)   : vectors z in C^n with 2|z|^2 - |zz^t|^2 - 1 < 0 and |zz^t|^2 < 1
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SYMMETRY_TOL = 1e-12


class UnsupportedDomainError(ValueError):
    """Requested quantity is not defined for this domain family."""


@dataclass(frozen=True)
class DomainSpec:
    family: str  # "I", "II", "III" or "IV"
    m: int
    n: int

    def __post_init__(self):
        if self.family not in ("I", "II", "III", "IV"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "I":
            if not (1 <= self.m <= self.n):
                raise ValueError("TypeI requires 1 <= m <= n")
        else:
            if self.m != self.n:
                raise ValueError("square families must have m == n")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def shape(self):
        """Ambient matrix shape; TypeIV vectors are stored as 1 x n."""
        if self.family == "IV":
            return (1, self.n)
        return (self.m, self.n)

    @property
    def size(self):
        return self.shape[0] * self.shape[1]

    def label(self):
        if self.family == "I":
            return f"I({self.m},{self.n})"
        return f"{self.family}({self.n})"


def type_i(m, n):
    return DomainSpec("I", m, n)


def type_ii(n):
    return DomainSpec("II", n, n)


def type_iii(n):
    return DomainSpec("III", n, n)


def type_iv(n):
    return DomainSpec("IV", n, n)


def ball(n):
    """The unit ball B_n, realized as the rank-one domain I(1,n)."""
    return DomainSpec("I", 1, n)


def parse_spec(text):
    """Parse CLI-style domain strings like "I:2,3", "II:2", "IV:2"."""
    family, _, dims = text.partition(":")
    family = family.strip()
    if not dims:
        raise ValueError(f"missing dimensions in domain spec {text!r}")
    parts = [int(p) for p in dims.split(",")]
    if family == "I":
        if len(parts) != 2:
            raise ValueError("TypeI needs two dimensions, e.g. I:2,3")
        return type_i(*parts)
    if len(parts) != 1:
        raise ValueError(f"family {family} takes one dimension")
    if family == "II":
        return type_ii(parts[0])
    if family == "III":
        return type_iii(parts[0])
    if family == "IV":
        return type_iv(parts[0])
    raise ValueError(f"unknown family {family!r}")


def kappa(spec):
    """The determinant-power exponent of the Poisson kernel, as a rational."""
    if spec.family == "I":
        return Fraction(spec.n)
    if spec.family == "II":
        return Fraction(spec.n + 1, 2)
    if spec.family == "III":
        if spec.n % 2 == 0:
            return Fraction(spec.n - 1, 2)
        return Fraction(spec.n, 2)
    raise UnsupportedDomainError(
        "TypeIV has no determinant-kernel exponent; handle IV(2) through the "
        "bidisc coordinates"
    )


@dataclass(frozen=True)
class MatrixPoint:
    spec: DomainSpec
    value: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.value, dtype=complex).reshape(self.spec.shape)
        object.__setattr__(self, "value", v)
        if self.spec.family == "II":
            if np.max(np.abs(v - v.T)) > SYMMETRY_TOL:
                raise ValueError("TypeII point must be symmetric")
        elif self.spec.family == "III":
            if np.max(np.abs(v + v.T)) > SYMMETRY_TOL:
                raise ValueError("TypeIII point must be antisymmetric")


def w_matrix(z, w):
    """W(z, w) = I - z w*."""
    m = z.shape[0]
    return np.eye(m) - z @ w.conj().T


def v_matrix(z):
    """V(z) = I - z z*, positive definite on the interior."""
    return w_matrix(z, z)


def membership_margin(spec, value):
    """Distance to the binding domain constraint; positive iff interior."""
    v = np.asarray(value, dtype=complex).reshape(spec.shape)
    if spec.family == "IV":
        z = v.reshape(-1)
        s2 = abs(z @ z) ** 2
        g1 = 1.0 - 2.0 * float(np.vdot(z, z).real) + s2
        g2 = 1.0 - s2
        return min(g1, g2)
    return float(np.min(np.linalg.eigvalsh(v_matrix(v))))


def _shape_draw(spec, rng):
    v = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    if spec.family == "II":
        v = (v + v.T) / 2.0
    elif spec.family == "III":
        v = (v - v.T) / 2.0
    return v


def sample_interior(spec, seed, count, target_norm=0.7, margin_floor=0.05):
    """Interior points built from norm-rescaled Gaussian draws.

    Each draw is symmetrized/antisymmetrized as the family requires, rescaled
    to the target operator norm (Euclidean norm for TypeIV), then shrunk until
    the membership margin clears the floor.
    """
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        v = _shape_draw(spec, rng)
        if spec.family == "IV":
            v = v * (target_norm / np.linalg.norm(v))
        else:
            v = v * (target_norm / np.linalg.norm(v, 2))
        while membership_margin(spec, v) < margin_floor:
            v = 0.9 * v
        points.append(MatrixPoint(spec, v))
    return points


# Draws per stacked QR in sample_silov, and rows per elimination block in
# dirichlet._kernel_dets: large enough to amortize the Python overhead, small
# enough that the temporaries of one block stay a fraction of the
# (count, m, n) sample.
SILOV_CHUNK = 4096


def _haar_stack(rng, k, n, cols, buf=None):
    """k Haar-distributed n x cols isometries via phase-corrected QR.

    Draws a (k, 2, n, cols) Gaussian block, so draw i consumes the stream
    exactly as one (n, cols) real draw followed by one imaginary draw would.
    The complex block is assembled in ``buf`` when given (any contiguous
    array of k * n * cols complex entries, free to overwrite), so the QR
    temporaries are the only ones. Dividing each column of Q by the phase of
    the matching diagonal entry of R makes the factorization unique and the
    result Haar (Mezzadri 2007).
    """
    g = rng.standard_normal((k, 2, n, cols))
    if buf is None:
        buf = np.empty((k, n, cols), dtype=complex)
    a = buf.reshape(k, n, cols)
    a.real = g[:, 0]
    a.imag = g[:, 1]
    del g
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[:, None, :]
    return q


def haar_unitary(rng, n):
    """Haar-distributed n x n unitary via phase-corrected QR."""
    return _haar_stack(rng, 1, n, n)[0]


def _antisym_block_j(n):
    """Block-diagonal antisymmetric unitary of 2x2 blocks [[0,1],[-1,0]]."""
    if n % 2 != 0:
        raise ValueError("needs even n")
    J = np.zeros((n, n))
    for i in range(0, n, 2):
        J[i, i + 1] = 1.0
        J[i + 1, i] = -1.0
    return J


def _times_block_j(u):
    """u @ _antisym_block_j(n) for a stack u, as a signed swap of column pairs."""
    uj = np.empty_like(u)
    uj[..., 0::2] = -u[..., 1::2]
    uj[..., 1::2] = u[..., 0::2]
    return uj


def sample_silov(spec, seed, count):
    """Points of the distinguished (minimal) boundary: w with ww* = I_m.

    Returns a (count, m, n) complex array. TypeI uses Haar-orthonormal rows,
    TypeII symmetric unitaries U U^t, and TypeIII with even n antisymmetric
    unitaries U J U^t. TypeIII with odd n and TypeIV have no such
    parametrization here. Draws are made in blocks of SILOV_CHUNK rows, and
    each block is checked for the family symmetry as it is drawn; row i
    depends only on the seed and i, so a shorter sample is a prefix.
    """
    if spec.family == "I":
        cols = spec.m
    elif spec.family == "II" or (spec.family == "III" and spec.n % 2 == 0):
        cols = spec.n
    else:
        raise UnsupportedDomainError(
            f"no distinguished-boundary sampler for {spec.label()}"
        )
    rng = np.random.default_rng(seed)
    out = np.empty((count,) + spec.shape, dtype=complex)
    for start in range(0, count, SILOV_CHUNK):
        _fill_silov_block(spec, rng, out[start : start + SILOV_CHUNK], cols)
    return out


def _fill_silov_block(spec, rng, rows, cols):
    """Draw len(rows) boundary points into rows and check the family symmetry.

    The Gaussian draw is assembled in rows, and the product is written back
    into them, so a block holds no more than its QR temporaries and one
    unitary stack at a time.
    """
    u = _haar_stack(rng, len(rows), spec.n, cols, rows)
    ut = u.transpose(0, 2, 1)
    if spec.family == "I":
        rows[...] = ut
        return
    if spec.family == "II":
        np.matmul(u, ut, out=rows)
        defect = rows - rows.transpose(0, 2, 1)
    else:
        np.matmul(_times_block_j(u), ut, out=rows)
        defect = rows + rows.transpose(0, 2, 1)
    # fail closed: a NaN defect must raise, and nan <= tol is False
    if not np.abs(defect).max() <= SYMMETRY_TOL:
        raise ValueError(f"{spec.label()} boundary draw breaks the family symmetry")


def rank_deficient_pseudo_boundary(n, seed):
    """An antisymmetric boundary point of III(n), n odd, with w*w != I.

    Built as U diag(J_{n-1}, 0) U^t; serves as the negative control where the
    residual kernel tensor does not vanish.
    """
    if n % 2 == 0:
        raise ValueError("pseudo-boundary construction targets odd n")
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng, n)
    block = np.zeros((n, n))
    block[: n - 1, : n - 1] = _antisym_block_j(n - 1)
    w = u @ block @ u.T
    return MatrixPoint(type_iii(n), w)


# -- the bidisc coordinates of IV(2) ----------------------------------------


def biholo_iv2_inverse(w1, w2):
    """Bidisc coordinates of a point of IV(2): z1 = w1 + i w2, z2 = w1 - i w2.

    It inverts campaigns.bidisc_inverse_map, which maps the bidisc onto IV(2).
    """
    return (w1 + 1j * w2, w1 - 1j * w2)


# -- JSON fixtures -------------------------------------------------------


def matrix_to_json(value):
    v = np.atleast_2d(np.asarray(value, dtype=complex))
    return [[[float(e.real), float(e.imag)] for e in row] for row in v]


def matrix_from_json(data):
    return np.array([[complex(re, im) for re, im in row] for row in data])
