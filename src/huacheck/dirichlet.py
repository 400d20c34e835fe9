"""Dirichlet solvers on the unit ball and on the matrix domains.

Two constructions live here. For the modified ball Laplacian, boundary data
given as a finite sum of bidegree-(p,q) harmonics extends to the interior by
attaching the normalized radial hypergeometric profile h_{p,q}(|z|^4) to each
term; the extension evaluates a stack of points, one point being a stack of
one row. For the matrix domains the Poisson integral against the
determinant kernel (kernels.poisson_points once per solve, then
kernels.poisson_block once per block of a stacked boundary sample) is
approximated by Monte-Carlo averaging over the distinguished boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# The benchmark's tracer test checks that tracing patches this module's
# bindings of sample_silov and wirtinger_hessian, so they stay bound here.
from .domains import sample_silov  # noqa: F401
from .fields import PolyField
from .fields import wirtinger_hessian  # noqa: F401
from .hypergeom import RadialProfile
from .kernels import poisson_block, poisson_points


def _mixed_laplacian(f):
    """Sum of d^2 f / dz_a dzbar_a over all entries, as a PolyField."""
    size = f.shape[0] * f.shape[1]
    out = PolyField(f.shape, {})
    for a in range(size):
        out = out + f.dz(a).dzbar(a)
    return out


def _norm_squared_field(shape):
    size = shape[0] * shape[1]
    out = PolyField(shape, {})
    for a in range(size):
        out = out + PolyField.coordinate(shape, a) * PolyField.coordinate(
            shape, a, conjugated=True
        )
    return out


def _random_bihomogeneous(shape, p, q, rng):
    """A bidegree-(p,q) polynomial of four random monomials."""
    size = shape[0] * shape[1]
    terms = {}
    for _ in range(4):
        ze = [0] * size
        we = [0] * size
        for _ in range(p):
            ze[int(rng.integers(0, size))] += 1
        for _ in range(q):
            we[int(rng.integers(0, size))] += 1
        c = complex(rng.standard_normal(), rng.standard_normal())
        key = (tuple(ze), tuple(we))
        terms[key] = terms.get(key, 0.0) + c
    return PolyField(shape, terms)


@dataclass(frozen=True)
class BidegreeHarmonic:
    """A bidegree-(p,q) polynomial on C^n with vanishing mixed Laplacian;
    any other field raises ValueError, so solve_tilde pairs it with its own
    profile."""

    p: int
    q: int
    n: int
    field: PolyField

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("bidegrees must be non-negative")
        if not isinstance(self.field, PolyField) or self.field.shape != (1, self.n):
            raise ValueError(f"the field must be a PolyField over (1, {self.n})")
        for _, ze, we in self.field.monomials():
            if (sum(e for _, e in ze), sum(e for _, e in we)) != (self.p, self.q):
                raise ValueError(f"a term of the field is not of bidegree ({self.p}, {self.q})")
        if not _mixed_laplacian(self.field).is_zero():
            raise ValueError("field is not harmonic")


def harmonic_projection(f, p, q, n):
    """Top harmonic part of a bidegree-(p,q) bihomogeneous polynomial.

    Uses the expansion sum_i b_i |z|^(2i) L^i f with b_0 = 1 and
    b_i = -b_{i-1} / (i (n + p + q - i - 1)); the mixed Laplacian of the
    result telescopes to zero because L(|z|^(2i) g) =
    i (n + i - 1 + deg g) |z|^(2i-2) g + |z|^(2i) L g on bihomogeneous g.
    """
    shape = f.shape
    nsq = _norm_squared_field(shape)
    out = PolyField(shape, {})
    b = 1.0
    power = PolyField.constant(shape, 1.0)
    lf = f
    for i in range(min(p, q) + 1):
        if i > 0:
            b = -b / (i * (n + p + q - i - 1))
            power = power * nsq
            lf = _mixed_laplacian(lf)
        if lf.is_zero():
            break
        out = out + power * lf * b
    return out


def make_bidegree(p, q, n, seed):
    """A nonzero random harmonic bidegree-(p,q) polynomial on C^n, n >= 2.

    No campaign calls it: it draws the boundary data of the ball Dirichlet
    tests (tests/test_dirichlet.py), whose solutions solve_tilde builds.
    """
    if n < 2:
        raise ValueError("ball dimension must be at least 2")
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be non-negative")
    shape = (1, n)
    if p == 0 and q == 0:
        return BidegreeHarmonic(0, 0, n, PolyField.constant(shape, 1.0))
    rng = np.random.default_rng(seed)
    for _ in range(32):
        raw = _random_bihomogeneous(shape, p, q, rng)
        h = harmonic_projection(raw, p, q, n)
        if not h.is_zero():
            return BidegreeHarmonic(p, q, n, h)
    raise RuntimeError("failed to draw a nonzero harmonic polynomial")


@dataclass(frozen=True)
class DirichletSolution:
    """u(z) = sum_k h_{p_k, q_k}(|z|^4) f_k(z); boundary trace sum_k f_k.

    evaluate_many is the one evaluator, and hessian_many the exact mixed
    Hessian; a single point is a stack of one.
    """

    n: int
    parts: tuple[tuple[BidegreeHarmonic, RadialProfile], ...]

    @property
    def shape(self):
        return (1, self.n)

    def __call__(self, z):
        return self.evaluate_many(np.reshape(z, (1, self.n)))[0]

    def _stack(self, zs):
        """zs as an (N, n) stack, with s = |z|^2 and t = |z|^4 per row.

        Raises ValueError for a row outside the closed ball, |z|^4 > 1 +
        1e-12 (NaN included): the data extend inwards only.
        """
        zs = np.asarray(zs, dtype=complex).reshape(len(zs), self.n)
        s = (zs.real**2 + zs.imag**2).sum(axis=1)
        t = s**2
        outside = np.flatnonzero(~(t <= 1.0 + 1e-12))
        if outside.size:
            i = outside[0]
            raise ValueError(f"row {i} is outside the closed ball (|z|^4 = {t[i]:.6g})")
        return zs, s, t

    def evaluate_many(self, zs):
        """u at each row of a stack zs of shape (N, 1, n) or (N, n).

        The profile, normalized to 1 at the boundary, is clamped to 1 where
        |z|^4 >= 1 - 1e-12, which takes in the sphere's rounding; on the
        other rows it comes from one stacked 2F1 series. The data come from
        PolyField.evaluate_many. A row outside the closed ball raises
        ValueError.
        """
        zs, _, t = self._stack(zs)
        inside = t < 1.0 - 1e-12
        total = np.zeros(len(zs), dtype=complex)
        for f, h in self.parts:
            ht = np.ones(len(zs))
            ht[inside] = h.value(t[inside])
            total += ht * f.field.evaluate_many(zs)
        return total

    def hessian_many(self, zs):
        """The mixed Hessian d^2 u / dz_a dzbar_b at each row of a stack zs
        of shape (N, 1, n) or (N, n), as an (N, n, n) array, exact by the
        chain rule through t = |z|^4 = s^2:

            h'' f t_a t_b~ + h' (f t_ab~ + t_a f_b~ + f_a t_b~) + h f_ab~

        summed over the parts, with t_a = 2 s zbar_a, t_b~ = 2 s z_b and
        t_ab~ = 2 (zbar_a z_b + s delta_ab). h, h' and h'' come from the
        profile's stacked series and its parameter-shift ladder, and f and
        its derivatives from its PolyField. The series need t < 1, so a row
        with |z|^4 >= 1 - 1e-12 raises ValueError, and so does a row outside
        the closed ball.
        """
        zs, s, t = self._stack(zs)
        if not np.all(t < 1.0 - 1e-12):
            raise ValueError("the Hessian needs every row inside the ball, |z|^4 < 1 - 1e-12")
        n = self.n
        # t_a as columns and t_b~ as rows of each point's (n, n) block
        ta = (2.0 * s[:, None] * zs.conj())[:, :, None]
        tb = (2.0 * s[:, None] * zs)[:, None, :]
        tab = 2.0 * (zs.conj()[:, :, None] * zs[:, None, :] + s[:, None, None] * np.eye(n))
        hessians = np.zeros((len(zs), n, n), dtype=complex)
        for f, h in self.parts:
            dz = [f.field.dz(a) for a in range(n)]
            value = f.field.evaluate_many(zs)[:, None, None]
            fa = np.stack([g.evaluate_many(zs) for g in dz], axis=1)[:, :, None]
            fb = np.stack([f.field.dzbar(b).evaluate_many(zs) for b in range(n)], axis=1)[:, None, :]
            fab = np.array([[g.dzbar(b).evaluate_many(zs) for b in range(n)] for g in dz])
            with warnings.catch_warnings():
                # h'' sums F(a+2, b+2, c+2), whose c - a - b = (n - 3)/2 is
                # at most 0 on B_2 and B_3, so the series warns that it
                # converges slowly past t = 0.5; it converges all the same
                warnings.filterwarnings("ignore", "2F1 series converges slowly")
                h2 = h.derivative(t, 2)[:, None, None]
            h1 = h.derivative(t, 1)[:, None, None]
            h0 = h.value(t)[:, None, None]
            hessians += (
                h2 * value * ta * tb
                + h1 * (value * tab + ta * fb + fa * tb)
                + h0 * fab.transpose(2, 0, 1)
            )
        return hessians

    def boundary_trace(self, zs):
        """The data sum_k f_k at each row of a stack zs."""
        return sum(f.field.evaluate_many(zs) for f, _ in self.parts)


def solve_tilde(fs, n):
    """Pair each bidegree harmonic with its radial profile on B_n."""
    parts = []
    for f in fs:
        if f.n != n:
            raise ValueError("boundary term lives on a different ball")
        parts.append((f, RadialProfile(f.p, f.q, n)))
    return DirichletSolution(n, tuple(parts))


def _block_moments(points, boundary_fields, block, v):
    """Mean and sum of |v - mean|^2 of v = P(z, w) phi(w) over the draws w
    of one boundary block, per (point, field), in two passes. points are
    the prepared points (kernels.poisson_points), and v is a (points,
    fields, k) buffer for the products, reused across blocks."""
    phis = np.array([field.evaluate_many(block) for field in boundary_fields])
    np.multiply(poisson_block(points, block)[:, None], phis, out=v)
    mean = v.mean(axis=-1)
    v -= mean[..., None]
    return mean, (v.real**2 + v.imag**2).sum(axis=-1)


def poisson_solve(spec, boundary_fields, zs, batch):
    """Monte-Carlo Poisson integrals over the distinguished boundary.

    Averages P(z, w) phi(w) over the draws w of ``batch``, for each interior
    point z in zs and each phi in boundary_fields; returns, for each point,
    one (mean, standard error) per field. batch is a domains.SilovSample, or
    any iterable of (k, m, n) boundary blocks whose len is the number of
    draws; the caller makes it, so one sample can serve several calls.

    The points are checked and prepared once (kernels.poisson_points:
    membership, det V^kappa and the generic-norm coefficients), before the
    first block is drawn. The sample is streamed one block at a time, so
    no array of its length is held, and each block is dropped before the
    next one is drawn. On each block every phi is evaluated once (a
    PolyField over the block), the kernel weights of all points come from
    one kernels.poisson_block call, their products with the phis go to one
    (point, field, draw) buffer that the blocks share, and the block's mean
    and sum of |v - mean|^2 per (point, field) are taken in two passes.
    Blocks are merged by the pairwise update of Chan, Golub & LeVeque
    ("Algorithms for computing the sample variance", Am. Stat. 37, 1983),
    which, unlike sum |v|^2 - k |mean|^2, cannot cancel to a negative
    variance. A point that is not interior (membership margin <= 0 or NaN)
    raises ValueError before any block is drawn, and so do an empty
    boundary_fields and a point of the wrong shape; a block of the wrong
    shape, an empty block and a batch with no draws raise it too.
    """
    if not boundary_fields:
        raise ValueError("boundary_fields is empty: give at least one field")
    zs = np.reshape(np.asarray(zs, dtype=complex), (len(zs),) + spec.shape)
    points = poisson_points(spec, zs)
    count = 0
    mean = np.zeros((len(zs), len(boundary_fields)), dtype=complex)
    m2 = np.zeros(mean.shape)
    products = np.empty(mean.shape + (0,), dtype=complex)
    for block in batch:
        if block.shape[1:] != spec.shape:
            raise ValueError(
                f"boundary batch rows have shape {block.shape[1:]}, expected {spec.shape}"
            )
        k = len(block)
        if not k:
            raise ValueError("boundary batch holds an empty block")
        if products.shape[-1] < k:
            products = np.empty(mean.shape + (k,), dtype=complex)
        block_mean, block_m2 = _block_moments(
            points, boundary_fields, block, products[..., :k]
        )
        del block  # before the sample draws the next one
        delta = block_mean - mean
        total = count + k
        mean += delta * (k / total)
        m2 += block_m2 + (delta.real**2 + delta.imag**2) * (count * k / total)
        count = total
    if not count:
        raise ValueError("boundary batch has no draws to average")
    stderr = np.sqrt(m2 / count / count)
    return [
        [(complex(mu), float(se)) for mu, se in zip(means, errors)]
        for means, errors in zip(mean, stderr)
    ]
