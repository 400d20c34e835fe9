"""Exact polynomial fields in complex matrix entries and finite-difference
Wirtinger calculus for opaque evaluators.

A field is a twice-differentiable complex-valued function of an m x n complex
matrix.  Two representations are supported:

* ``PolyField`` -- a finite sum of monomials  c * prod z_a^e_a * prod zbar_a^f_a
  over the flattened (row-major) entries.  Differentiation is exact and closed.
* ``OpaqueField`` -- an arbitrary evaluator, differentiated by central finite
  differences in the underlying real coordinates.
"""

from __future__ import annotations

import warnings

import numpy as np

# Monomial coefficients below this magnitude are dropped during
# canonicalization so derivative chains stay bounded.
COEFF_DROP = 1e-15

Key = tuple[tuple[int, ...], tuple[int, ...]]


class PolyField:
    """Polynomial in the entries z_a and conjugates zbar_a of a fixed shape."""

    __slots__ = ("shape", "terms", "_dz_cache", "_dzbar_cache")

    def __init__(self, shape, terms=None):
        self.shape = tuple(shape)
        size = self.shape[0] * self.shape[1]
        merged: dict[Key, complex] = {}
        for (ze, we), c in (terms or {}).items():
            if len(ze) != size or len(we) != size:
                raise ValueError("exponent length does not match field shape")
            key = (tuple(ze), tuple(we))
            merged[key] = merged.get(key, 0.0) + complex(c)
        self.terms = {k: c for k, c in merged.items() if abs(c) > COEFF_DROP}
        self._dz_cache: dict[int, PolyField] = {}
        self._dzbar_cache: dict[int, PolyField] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, shape, c):
        size = shape[0] * shape[1]
        zero = (0,) * size
        return cls(shape, {(zero, zero): complex(c)})

    @classmethod
    def coordinate(cls, shape, a, conjugated=False):
        """The field z_a (or zbar_a) for flattened entry index a."""
        size = shape[0] * shape[1]
        zero = (0,) * size
        e = tuple(1 if i == a else 0 for i in range(size))
        key = (zero, e) if conjugated else (e, zero)
        return cls(shape, {key: 1.0})

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        zf = np.asarray(z, dtype=complex).reshape(-1)
        zc = zf.conj()
        total = 0.0 + 0.0j
        for (ze, we), c in self.terms.items():
            v = c
            for a, e in enumerate(ze):
                if e:
                    v *= zf[a] ** e
            for a, e in enumerate(we):
                if e:
                    v *= zc[a] ** e
            total += v
        return total

    def evaluate_many(self, pts):
        """Evaluate at an array of points with shape (npts,) + self.shape."""
        zf = np.asarray(pts, dtype=complex).reshape(len(pts), -1)
        out = np.zeros(len(pts), dtype=complex)
        for (ze, we), c in self.terms.items():
            v = np.full(len(pts), c, dtype=complex)
            for a, e in enumerate(ze):
                if e:
                    v *= zf[:, a] ** e
            for a, e in enumerate(we):
                if e:
                    v *= zf[:, a].conj() ** e
            out += v
        return out

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyField):
            other = PolyField.constant(self.shape, other)
        if other.shape != self.shape:
            raise ValueError("shape mismatch")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return PolyField(self.shape, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, PolyField) else -other)

    def __mul__(self, other):
        if isinstance(other, PolyField):
            if other.shape != self.shape:
                raise ValueError("shape mismatch")
            terms: dict[Key, complex] = {}
            for (ze1, we1), c1 in self.terms.items():
                for (ze2, we2), c2 in other.terms.items():
                    k = (
                        tuple(a + b for a, b in zip(ze1, ze2)),
                        tuple(a + b for a, b in zip(we1, we2)),
                    )
                    terms[k] = terms.get(k, 0.0) + c1 * c2
            return PolyField(self.shape, terms)
        terms = {k: c * complex(other) for k, c in self.terms.items()}
        return PolyField(self.shape, terms)

    __rmul__ = __mul__

    def conjugate(self):
        return PolyField(
            self.shape, {(we, ze): np.conj(c) for (ze, we), c in self.terms.items()}
        )

    def real_part(self):
        return (self + self.conjugate()) * 0.5

    def is_zero(self):
        return not self.terms

    # -- differentiation ----------------------------------------------------

    def dz(self, a):
        if a not in self._dz_cache:
            terms: dict[Key, complex] = {}
            for (ze, we), c in self.terms.items():
                if ze[a]:
                    k = (
                        tuple(e - 1 if i == a else e for i, e in enumerate(ze)),
                        we,
                    )
                    terms[k] = terms.get(k, 0.0) + c * ze[a]
            self._dz_cache[a] = PolyField(self.shape, terms)
        return self._dz_cache[a]

    def dzbar(self, a):
        if a not in self._dzbar_cache:
            terms: dict[Key, complex] = {}
            for (ze, we), c in self.terms.items():
                if we[a]:
                    k = (
                        ze,
                        tuple(e - 1 if i == a else e for i, e in enumerate(we)),
                    )
                    terms[k] = terms.get(k, 0.0) + c * we[a]
            self._dzbar_cache[a] = PolyField(self.shape, terms)
        return self._dzbar_cache[a]

    # -- composition --------------------------------------------------------

    def compose_holomorphic(self, components, out_shape):
        """Substitute z_a -> components[a](lam), a holomorphic polynomial map.

        Each component must be a holomorphic PolyField (no conjugated
        exponents) over ``out_shape``; conjugated entries of self become
        conjugates of the components.
        """
        size = self.shape[0] * self.shape[1]
        if len(components) != size:
            raise ValueError("need one map component per matrix entry")
        for comp in components:
            if any(any(we) for (_, we) in comp.terms):
                raise ValueError("map components must be holomorphic")
        conj_components = [comp.conjugate() for comp in components]
        one = PolyField.constant(out_shape, 1.0)
        pow_cache: dict[tuple[int, int, bool], PolyField] = {}

        def power(a, e, conjugated):
            key = (a, e, conjugated)
            if key not in pow_cache:
                base = conj_components[a] if conjugated else components[a]
                acc = one
                for _ in range(e):
                    acc = acc * base
                pow_cache[key] = acc
            return pow_cache[key]

        result = PolyField(out_shape, {})
        for (ze, we), c in self.terms.items():
            term = one * c
            for a, e in enumerate(ze):
                if e:
                    term = term * power(a, e, False)
            for a, e in enumerate(we):
                if e:
                    term = term * power(a, e, True)
            result = result + term
        return result


class OpaqueField:
    """Field backed by an arbitrary evaluator; differentiated numerically."""

    __slots__ = ("shape", "fn")

    def __init__(self, shape, fn):
        self.shape = tuple(shape)
        self.fn = fn

    def __call__(self, z):
        return complex(self.fn(np.asarray(z, dtype=complex).reshape(self.shape)))


def random_poly_field(shape, rng, degree=4, n_terms=8, real_valued=False):
    """A random polynomial field of total degree <= degree."""
    size = shape[0] * shape[1]
    terms: dict[Key, complex] = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        ze = [0] * size
        we = [0] * size
        for _ in range(d):
            a = int(rng.integers(0, size))
            if rng.random() < 0.5:
                ze[a] += 1
            else:
                we[a] += 1
        c = complex(rng.standard_normal(), rng.standard_normal())
        key = (tuple(ze), tuple(we))
        terms[key] = terms.get(key, 0.0) + c
    field = PolyField(shape, terms)
    if real_valued:
        field = field.real_part()
    return field


def default_step(z):
    return 1e-4 * max(1.0, float(np.linalg.norm(np.asarray(z).reshape(-1))))


def _real_hessian(fn, x0, h):
    """Full real Hessian of a complex-valued fn of a real vector, central
    differences."""
    d = len(x0)
    f0 = fn(x0)
    H = np.zeros((d, d), dtype=complex)
    shifts = {}
    for i in range(d):
        for s in (h, -h):
            x = x0.copy()
            x[i] += s
            shifts[(i, s)] = fn(x)
    for i in range(d):
        H[i, i] = (shifts[(i, h)] - 2.0 * f0 + shifts[(i, -h)]) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            xpp = x0.copy()
            xpp[[i, j]] += h
            xmm = x0.copy()
            xmm[[i, j]] -= h
            xpm = x0.copy()
            xpm[i] += h
            xpm[j] -= h
            xmp = x0.copy()
            xmp[i] -= h
            xmp[j] += h
            val = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * h**2)
            H[i, j] = val
            H[j, i] = val
    return H


def wirtinger_hessian(u, z, step=None, richardson=True):
    """Mixed Wirtinger Hessian H[a, b] = d^2 u / dz_a dzbar_b, flattened
    row-major, as an (m*n) x (m*n) complex array.

    Exact for PolyField; central finite differences (optionally one level of
    Richardson extrapolation) for opaque fields, via
    d^2/dz dzbar = 1/4 (d_xx + d_yy) + i/4 (d_xy - d_yx).
    """
    z = np.asarray(z, dtype=complex)
    size = z.size
    if isinstance(u, PolyField):
        H = np.empty((size, size), dtype=complex)
        for a in range(size):
            dua = u.dz(a)
            for b in range(size):
                H[a, b] = dua.dzbar(b)(z)
        return H

    h = step if step is not None else default_step(z)
    if h < 1e-7:
        warnings.warn("finite-difference step below 1e-7; expect cancellation")
    zf = z.reshape(-1)
    x0 = np.concatenate([zf.real, zf.imag])

    def fn(x):
        return complex(u(x[:size] + 1j * x[size:]))

    R = _real_hessian(fn, x0, h)
    if richardson:
        R2 = _real_hessian(fn, x0, h / 2.0)
        R = (4.0 * R2 - R) / 3.0
    Hxx = R[:size, :size]
    Hyy = R[size:, size:]
    Hxy = R[:size, size:]
    Hyx = R[size:, :size]
    return 0.25 * (Hxx + Hyy) + 0.25j * (Hxy - Hyx)


def _fd_gradient(u, z, step, richardson, sign):
    """Central-difference Wirtinger gradient of an opaque field.

    Each entry is 1/2 (d_x + sign i d_y): sign -1 gives d/dz_a, sign +1
    gives d/dzbar_a.
    """
    z = np.asarray(z, dtype=complex)
    size = z.size
    h = step if step is not None else default_step(z)
    zf = z.reshape(-1)

    def diff(h_):
        g = np.empty(size, dtype=complex)
        for a in range(size):
            ex = np.zeros(size, dtype=complex)
            ex[a] = h_
            dfx = (u(zf + ex) - u(zf - ex)) / (2.0 * h_)
            dfy = (u(zf + 1j * ex) - u(zf - 1j * ex)) / (2.0 * h_)
            g[a] = 0.5 * (dfx + sign * (1j * dfy))
        return g

    g = diff(h)
    if richardson:
        g = (4.0 * diff(h / 2.0) - g) / 3.0
    return g


def wirtinger_gradient(u, z, step=None, richardson=True):
    """Holomorphic Wirtinger gradient d u / dz_a as a flat complex array."""
    if isinstance(u, PolyField):
        z = np.asarray(z, dtype=complex)
        return np.array([u.dz(a)(z) for a in range(z.size)], dtype=complex)
    return _fd_gradient(u, z, step, richardson, -1.0)


def wirtinger_gradient_bar(u, z, step=None, richardson=True):
    """Antiholomorphic Wirtinger gradient d u / dzbar_a as a flat array."""
    if isinstance(u, PolyField):
        z = np.asarray(z, dtype=complex)
        return np.array([u.dzbar(a)(z) for a in range(z.size)], dtype=complex)
    return _fd_gradient(u, z, step, richardson, 1.0)
