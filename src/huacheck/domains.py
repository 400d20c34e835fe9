"""The four classical bounded symmetric domains: specs, the matrices
W(z, w) = I - z w* and V(z) = W(z, z), membership, sampling of interior and
distinguished-boundary points, and the inverse bidisc map of IV(2) used by
the counterexample demo.

A point is an (m, n) complex array of spec.shape (1 x n for TypeIV), and a
set of points is an (N, m, n) stack; both samplers return stacks. Where a
TypeII or TypeIII point is made from a product that is (anti)symmetric only
up to rounding, require_family_symmetry checks it, failing closed on NaN.
III(4) is the image of IV(6) under a complex-linear isometry (so(6,2) =
so*(8)), and its distinguished-boundary points are drawn through it:
antisymmetric by construction, they are checked for w w* = I only.

Families:
  I(m,n)  : m x n complex matrices z with I - zz* > 0, m <= n
  II(n)   : symmetric n x n matrices in I(n,n)
  III(n)  : antisymmetric n x n matrices in I(n,n)
  IV(n)   : vectors z in C^n with 2|z|^2 - |zz^t|^2 - 1 < 0 and |zz^t|^2 < 1
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def shape(self):
        """Ambient matrix shape, computed once per spec; TypeIV vectors are
        stored as 1 x n."""
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


@functools.lru_cache(maxsize=None)
def _identity(m):
    """The m x m identity, made once per size and read-only."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def w_matrix(z, w):
    """W(z, w) = I - z w* of matrices or of stacks (..., m, n) of them, whose
    leading axes broadcast; each W is bitwise that of its own pair."""
    return _identity(z.shape[-2]) - z @ w.conj().swapaxes(-1, -2)


def v_matrix(z):
    """V(z) = I - z z*, positive definite on the interior; one per matrix."""
    return w_matrix(z, z)


def require_family_symmetry(spec, w):
    """Raise ValueError unless the TypeII (TypeIII) point w, or entry-major
    (n, n, k) block of points, is symmetric (antisymmetric) in its first two
    axes to SYMMETRY_TOL. It fails closed: nan <= tol is False, so NaN raises.
    """
    if spec.family in ("II", "III"):
        wt = w.swapaxes(0, 1)
        defect = np.abs(w - wt if spec.family == "II" else w + wt).max()
        if not defect <= SYMMETRY_TOL:
            raise ValueError(f"{spec.label()} point breaks the family symmetry ({defect:.3g})")


def membership_margin(spec, value):
    """Distance to the binding domain constraint, positive iff interior: a
    float for one point, an array of N for a stack (N, m, n)."""
    v = np.asarray(value, dtype=complex)
    stacked = v.ndim == 3
    v = v.reshape((len(v) if stacked else 1,) + spec.shape)
    if spec.family == "IV":
        z = v[:, 0]
        s = np.sum(z * z, axis=-1)  # z z^t
        s2 = s.real**2 + s.imag**2
        r2 = np.sum(z.real**2 + z.imag**2, axis=-1)  # |z|^2
        margins = np.minimum(1.0 - 2.0 * r2 + s2, 1.0 - s2)
    else:
        margins = np.linalg.eigvalsh(v_matrix(v)).min(-1)
    return margins if stacked else float(margins[0])


def sample_interior(spec, seed, count):
    """count interior points built from norm-rescaled Gaussian draws, as a
    (count, m, n) complex array.

    Each draw is symmetrized/antisymmetrized as the family requires, rescaled
    to operator norm 0.7 (Euclidean norm for TypeIV), then shrunk by factors
    of 0.9 until its membership margin is at least 0.05. The draws come from
    one (count, 2, m, n) Gaussian block, so draw i consumes the stream
    exactly as one real (m, n) draw followed by one imaginary draw would.
    """
    if spec.family == "III" and spec.n == 1:
        # every antisymmetric 1 x 1 draw is 0, which has no norm to rescale
        raise ValueError(f"{spec.label()} has no interior point but 0")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, 2) + spec.shape)
    v = g[:, 0] + 1j * g[:, 1]
    if spec.family == "II":
        v = (v + v.swapaxes(1, 2)) / 2.0
    elif spec.family == "III":
        v = (v - v.swapaxes(1, 2)) / 2.0
    if spec.family != "IV":
        # at operator norm 0.7 the margin is 1 - 0.49 = 0.51: only IV rows shrink
        v *= (0.7 / np.linalg.norm(v, 2, axis=(1, 2)))[:, None, None]
        return v
    # row by row: the stacked Euclidean norm rounds differently from one row's
    for row in v:
        row *= 0.7 / np.linalg.norm(row)
    while (short := membership_margin(spec, v) < 0.05).any():
        v[short] *= 0.9
    return v


def unit_vectors(rng, count, k):
    """count points of the unit sphere of C^k, (count, k): normalized Gaussians.

    One (count, 2, k) draw from the Generator rng: point i takes its real,
    then its imaginary part.
    """
    g = rng.standard_normal((count, 2, k))
    v = g[:, 0] + 1j * g[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Draws per Gram-Schmidt block in sample_silov, per block of a SilovSample
# and per generic-norm block in kernels._generic_norm_dets: large enough to
# amortize the Python overhead over the block's arrays, small enough that a
# Poisson solve streaming a SilovSample holds one block's draws and their
# kernel weights at a time, never an array of the sample's length.
SILOV_CHUNK = 4096


def _gram_schmidt(a):
    """Orthonormalize the columns of each draw of an entry-major block, in place.

    a has shape (n, cols, k): a[i, j] is entry (i, j) of all k draws, one
    contiguous vector. Classical Gram-Schmidt with one reorthogonalization
    pass (CGS2) keeps the columns orthonormal to working precision whenever
    the draw is numerically nonsingular (Giraud, Langou & Rozloznik, Numer.
    Math. 101, 2005). The implied R has a positive real diagonal, the norms
    that divide each column. Returns a.
    """
    for j in range(a.shape[1]):
        v = a[:, j]
        if j:
            q = a[:, :j]
            qc = q.conj()
            for _ in range(2):
                # r_i = q_i* v for every i < j from the same v, then
                # v -= sum_i q_i r_i
                v -= (q * (qc * v[:, None]).sum(0)).sum(1)
        v /= np.sqrt((v.real**2 + v.imag**2).sum(0))
    return a


def _require_orthonormal(q):
    """Raise ValueError unless every draw of the entry-major block q has
    orthonormal columns, Q*Q = I to SYMMETRY_TOL entrywise. For q = w^t, a
    swapped-axes view, that is w w* = I: (Q*Q)_ij is the conjugate of (ww*)_ij."""
    defects = []
    # Q*Q is Hermitian, so its upper triangle (row i from column i on) will do
    for i in range(q.shape[1]):
        gram = (q[:, i, None].conj() * q[:, i:]).sum(0)
        gram[0] -= 1.0
        defects.append(np.abs(gram).max(initial=0.0))
    worst = np.max(defects)
    # fail closed: nan <= tol is False, so a NaN entry raises too
    if not worst <= SYMMETRY_TOL:
        raise ValueError(f"draw is not orthonormal (Q*Q - I reaches {worst:.3g})")


def _haar_stack(rng, k, n, cols):
    """k Haar-distributed n x cols isometries, entry-major: shape (n, cols, k).

    Draws a (k, 2, n, cols) Gaussian block, so draw i consumes the stream
    exactly as one (n, cols) real draw followed by one imaginary draw would.
    The QR factorization with a positive real diagonal in R is unique, and
    Gram-Schmidt produces exactly that factor, so Q is the phase-corrected
    QR factor that makes the result Haar (Mezzadri, Notices AMS 54, 2007).
    Every block is checked for orthonormality before it is returned.
    """
    g = rng.standard_normal((k, 2, n, cols))
    a = np.empty((n, cols, k), dtype=complex)
    a.real = g[:, 0].transpose(1, 2, 0)
    a.imag = g[:, 1].transpose(1, 2, 0)
    del g
    _require_orthonormal(_gram_schmidt(a))
    return a


def haar_unitaries(rng, count, n):
    """count Haar-distributed n x n unitaries, point-major: shape
    (count, n, n), one draw of _haar_stack."""
    return np.moveaxis(_haar_stack(rng, count, n, n), -1, 0)


def silov_columns(spec):
    """Columns of the Haar isometry U that sample_silov draws for spec.

    Raises UnsupportedDomainError for the families without a sampler:
    TypeIII with odd n and TypeIV.
    """
    if spec.family == "I":
        return spec.m
    if spec.family == "II" or (spec.family == "III" and spec.n % 2 == 0):
        return spec.n
    raise UnsupportedDomainError(
        f"no distinguished-boundary sampler for {spec.label()}"
    )


def sample_silov(spec, seed, count):
    """Points of the distinguished (minimal) boundary: w with ww* = I_m.

    Returns a (count, m, n) complex array. TypeI uses Haar-orthonormal rows,
    TypeII symmetric unitaries U U^t, and TypeIII with even n antisymmetric
    unitaries U J U^t. TypeIII with odd n and TypeIV have no such
    parametrization here. Draws are made in blocks of SILOV_CHUNK rows; U is
    the Gram-Schmidt (CGS2) Q factor of a complex Gaussian draw, which is the
    unique QR factor with a positive diagonal in R and therefore Haar. Each
    block is checked for orthonormality and for the family symmetry as it is
    drawn; row i depends only on the seed and i, so a shorter sample is a
    prefix.

    III(4) is drawn through the isometry L: IV(6) -> III(4) instead, as
    L(e^{i theta} x) for theta uniform and x uniform on the real unit sphere
    S^5, eight normals per draw. L intertwines U(4): V L(z) V^t =
    L(sqrt(det V) R z) with R in SO(6), so U(4) acts on C^6 through
    S^1 x SO(6), which keeps the uniform law on S^1 x S^5. Its image under L
    is therefore the U(4)-invariant law on the distinguished boundary, the law
    of U J U^t with J = L(e_1). Each block is checked for w w* = I; L writes
    w_ba = -w_ab entry by entry, so the points are exactly antisymmetric.

    seed may also be a numpy Generator, which is used as it stands. Each
    draw takes the next values of the stream, so successive calls on one
    Generator give the rows of one call with its seed and their summed
    count; SilovSample draws its blocks that way.
    """
    return _draw_silov(spec, seed, count, silov_columns(spec))


def _draw_silov(spec, seed, count, cols):
    """count boundary points from n x cols Haar isometries, in blocks of
    SILOV_CHUNK rows drawn from one Generator."""
    rng = np.random.default_rng(seed)
    out = np.empty((count,) + spec.shape, dtype=complex)
    for start in range(0, count, SILOV_CHUNK):
        _fill_silov_block(spec, rng, out[start : start + SILOV_CHUNK], cols)
    return out


@dataclass(frozen=True)
class SilovSample:
    """count draws of sample_silov(spec, seed, count), drawn lazily.

    len() is count. Each iteration starts the stream again from seed and
    yields sample_silov blocks of at most SILOV_CHUNK rows from one
    Generator, so the concatenated blocks equal sample_silov(spec, seed,
    count) bit for bit while only one block is held at a time. A family
    without a sampler raises UnsupportedDomainError here, before any draw,
    and a negative count raises ValueError.
    """

    spec: DomainSpec
    seed: int
    count: int

    def __post_init__(self):
        silov_columns(self.spec)
        if self.count < 0:
            raise ValueError(f"SilovSample count must be non-negative, got {self.count}")

    def __len__(self):
        return self.count

    def __iter__(self):
        rng = np.random.default_rng(self.seed)
        for start in range(0, self.count, SILOV_CHUNK):
            yield sample_silov(self.spec, rng, min(SILOV_CHUNK, self.count - start))


def _fill_silov_block(spec, rng, rows, cols):
    """Draw len(rows) boundary points into rows and check the family symmetry.

    The products are formed entry-major, one vector over the block's draws
    per matrix entry, and transposed into rows once at the end. III(4)
    points are antisymmetric by construction (_iv6_to_iii4), so their
    blocks skip the symmetry check, as TypeI blocks do.
    """
    if spec == type_iii(4):
        rows[...] = _iii4_silov_stack(rng, len(rows)).transpose(2, 0, 1)
        return
    u = _haar_stack(rng, len(rows), spec.n, cols)
    if spec.family == "I":
        rows[...] = u.transpose(2, 1, 0)
        return
    w = np.zeros((spec.n, spec.n, len(rows)), dtype=complex)
    if spec.family == "II":
        # (U U^t)_ab = sum_c U_ac U_bc
        for c in range(cols):
            w += u[:, None, c] * u[None, :, c]
    else:
        # (U J U^t)_ab = sum_i U_a,2i U_b,2i+1 - U_a,2i+1 U_b,2i
        for c in range(0, cols, 2):
            w += u[:, None, c] * u[None, :, c + 1]
            w -= u[:, None, c + 1] * u[None, :, c]
    del u
    require_family_symmetry(spec, w)
    rows[...] = w.transpose(2, 0, 1)


def _iv6_to_iii4(z):
    """The isometry L: IV(6) -> III(4), z -> sum_k z_k E_k, of an axis-first
    stack: z has shape (6, k) and L(z) shape (4, 4, k).

    With A_ab = e_ab - e_ba (0-based), E_1 = A_01 + A_23, E_2 = i(A_01 - A_23),
    E_3 = A_02 - A_13, E_4 = i(A_02 + A_13), E_5 = A_03 + A_12 and
    E_6 = i(A_03 - A_12): antisymmetric, Frobenius-orthogonal, each of norm^2
    4, and Pf L(z) = z.z (Helgason, Differential Geometry, Lie Groups, and
    Symmetric Spaces, 1978, ch. X section 6). Entries are written one by one,
    with no BLAS call, so the bits do not depend on the BLAS build.
    """
    z1, z2, z3, z4, z5, z6 = z
    w = np.zeros((4, 4) + z.shape[1:], dtype=complex)
    w[0, 1] = z1 + 1j * z2
    w[2, 3] = z1 - 1j * z2
    w[0, 2] = z3 + 1j * z4
    w[1, 3] = -z3 + 1j * z4
    w[0, 3] = z5 + 1j * z6
    w[1, 2] = z5 - 1j * z6
    for a, b in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)):
        w[b, a] = -w[a, b]
    return w


def _iii4_silov_stack(rng, k):
    """k Silov points L(e^{i theta} x) of III(4), entry-major: shape (4, 4, k).

    Draws a (k, 8) Gaussian block, so draw i takes the stream's next eight
    normals: x is the first six over their length, uniform on S^5, and
    e^{i theta} = (g_6 + i g_7)/|g_6 + i g_7| is uniform on S^1. Every block
    is checked for w w* = I before it is returned.
    """
    g = rng.standard_normal((k, 8)).T
    x = g[:6] / np.sqrt((g[:6] ** 2).sum(0))
    phase = g[6] + 1j * g[7]
    phase /= np.abs(phase)
    w = _iv6_to_iii4(phase * x)
    _require_orthonormal(w.swapaxes(0, 1))
    return w


def odd_iii_silov_points(n, seed, count):
    """count Silov boundary points U' J U'^t of III(n), n odd and >= 3, for
    n x (n - 1) Haar isometries U', drawn as sample_silov draws: rank n - 1,
    so w*w != I, the negative control of the I - w*w correction tensor."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"odd_iii_silov_points needs odd n >= 3, got {n}")
    return _draw_silov(type_iii(n), seed, count, n - 1)


# -- the bidisc coordinates of IV(2) ----------------------------------------


def biholo_iv2_inverse(w1, w2):
    """Bidisc coordinates of a point of IV(2): z1 = w1 + i w2, z2 = w1 - i w2.

    It inverts campaigns.bidisc_inverse_map, which maps the bidisc onto IV(2).
    w1 and w2 may be numbers, or PolyFields for compose_holomorphic (as in
    campaigns.transport_residuals).
    """
    return (w1 + 1j * w2, w1 - 1j * w2)

