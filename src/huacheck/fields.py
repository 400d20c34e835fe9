"""Exact polynomial fields in complex matrix entries and the finite-difference
Wirtinger Hessian of opaque evaluators.

A field is a twice-differentiable complex-valued function of an m x n complex
matrix.  Two representations are supported:

* ``PolyField`` -- a finite sum of monomials  c * prod z_a^e_a * prod zbar_a^f_a
  over the flattened (row-major) entries.  Differentiation is exact and closed.
  Each monomial is keyed by one integer with EXP_BITS = 16 bits per
  exponent, the z entries first and then their conjugates, so an exponent
  must stay below 2^16: a product of monomials is an integer sum,
  ``conjugate`` swaps the two halves, and ``dz``/``dzbar`` subtract one unit.
  A field is immutable: ``terms`` is a read-only view keyed by
  (z exponents, zbar exponents) tuples.  Each field decodes its sparse
  exponent lists once; its plans and composition read them.  One product
  loop over packed term dicts serves ``*`` and composition; a composition
  multiplies term dicts, not fields, stops a monomial at its first empty
  product, and sums its terms into one dict, bitwise what repeated ``*``
  and ``+`` give.  One plan evaluator for a point and a stack serves the
  value, both Wirtinger gradients and the mixed Hessian: a field builds one
  plan per kind, the coefficients and lowered exponents of its derivative
  terms, so a point takes only powers and products of Python complex
  numbers, bitwise what the derivative fields ``dz``/``dzbar`` give, and a
  stack the same products of its columns.
* ``OpaqueField`` -- an arbitrary evaluator of one point, whose mixed
  Hessian is a central finite difference in the real coordinates: one call
  per row of a stencil layout built once per size, at FD_STEP and FD_STEP / 2,
  and one Richardson step.
  The Wirtinger gradients take a PolyField only; another field raises TypeError.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

# Monomial coefficients below this magnitude are dropped during
# canonicalization so derivative chains stay bounded.
COEFF_DROP = 1e-15

# Bits per exponent in a packed monomial key.
EXP_BITS = 16
EXP_LIMIT = 1 << EXP_BITS
_EXP_MASK = EXP_LIMIT - 1

# The one FD step, balancing roundoff against Richardson truncation; a stencil
# row moves at most two real coordinates by it, so FD_REACH in operator norm.
FD_STEP = 1e-3
FD_REACH = math.sqrt(2.0) * FD_STEP

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _pack(key, size):
    """The packed integer of a (z exponents, zbar exponents) key, and its
    largest exponent."""
    ze, we = key
    if len(ze) != size or len(we) != size:
        raise ValueError("exponent length does not match field shape")
    exps = [operator.index(e) for e in (*ze, *we)]
    packed = 0
    for e in reversed(exps):
        if not 0 <= e < EXP_LIMIT:
            raise ValueError(f"exponent {e} is outside [0, 2^{EXP_BITS})")
        packed = packed << EXP_BITS | e
    return packed, max(exps, default=0)


def _exponents(packed, size):
    """The 2 * size exponents of a packed key, z entries first."""
    return [packed >> (EXP_BITS * i) & _EXP_MASK for i in range(2 * size)]


def _sparse(packed):
    """((a, e), ...) for the nonzero exponents of a packed key, in entry
    order."""
    out = []
    a = 0
    while packed:
        e = packed & _EXP_MASK
        if e:
            out.append((a, e))
        packed >>= EXP_BITS
        a += 1
    return tuple(out)


class PolyField:
    """Polynomial in the entries z_a and conjugates zbar_a of a fixed shape.

    _terms maps packed keys to coefficients. _top bounds every exponent from
    above, so a product checks for overflow only when the bounds add up to
    EXP_LIMIT.
    """

    __slots__ = ("shape", "_terms", "_top", "_monomials", "_plans")

    def __init__(self, shape, terms=None):
        size = shape[0] * shape[1]
        merged: dict[int, complex] = {}
        top = 0
        for key, c in (terms or {}).items():
            k, e = _pack(key, size)
            top = max(top, e)
            merged[k] = merged.get(k, 0.0) + complex(c)
        kept = {k: c for k, c in merged.items() if abs(c) > COEFF_DROP}
        self._store(tuple(shape), kept, top)

    def _store(self, shape, terms, top):
        self.shape = shape
        self._terms = terms
        self._top = top
        self._monomials = None
        self._plans: dict[tuple[bool, bool], list] = {}

    @classmethod
    def _of(cls, shape, terms, top):
        """A field storing packed terms as they are; top bounds the
        exponents."""
        field = cls.__new__(cls)
        field._store(shape, terms, top)
        return field

    @classmethod
    def _canonical(cls, shape, terms, top):
        """A field from distinct packed keys, without the merge and the
        checks of __init__; top bounds the exponents.

        Each coefficient is stored as 0.0 + c and dropped unless above
        COEFF_DROP, bitwise what __init__ stores for a key seen once.
        """
        return cls._of(shape, _kept(terms), top)

    @property
    def size(self):
        return self.shape[0] * self.shape[1]

    @property
    def terms(self):
        """The terms keyed by (z exponents, zbar exponents), in order."""
        size = self.size
        out: dict[Key, complex] = {}
        for k, c in self._terms.items():
            exps = _exponents(k, size)
            out[tuple(exps[:size]), tuple(exps[size:])] = c
        return out

    def monomials(self):
        """(c, z exponents, zbar exponents) per term, each exponent list
        sparse ((a, e), ...) in entry order; decoded once per field."""
        if self._monomials is None:
            half = EXP_BITS * self.size
            low = (1 << half) - 1
            self._monomials = [
                (c, _sparse(k & low), _sparse(k >> half)) for k, c in self._terms.items()
            ]
        return self._monomials

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, shape, c):
        return cls._canonical(tuple(shape), {0: complex(c)}, 0)

    @classmethod
    def coordinate(cls, shape, a, conjugated=False):
        """The field z_a (or zbar_a) for flattened entry index a."""
        size = shape[0] * shape[1]
        a = _entry(a, size)
        key = 1 << EXP_BITS * (a + size if conjugated else a)
        return cls._canonical(tuple(shape), {key: 1.0 + 0j}, 1)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        return self._sums(False, False, _point_values(self, z), 1)[0]

    def _sums(self, by_z, by_zbar, entries, n):
        """The n sums of the field's plan of one kind (see _build_plan),
        built once, over the entries of a point or a stack (see _evaluate)."""
        plan = self._plans.get((by_z, by_zbar))
        if plan is None:
            plan = _build_plan(self.monomials(), self.size, by_z, by_zbar)
            self._plans[by_z, by_zbar] = plan
        return _evaluate(plan, entries, n)

    def evaluate_many(self, pts):
        """Evaluate at an array of points with shape (npts,) + self.shape:
        the value plan on the stack's columns."""
        zf = np.asarray(pts, dtype=complex)
        if zf.size != len(zf) * self.size:
            raise ValueError("point size does not match field shape")
        zf = zf.reshape(len(zf), self.size)
        value = self._sums(False, False, list(zf.T), 1)[0]
        # a sum whose terms keep no entry is one Python complex
        return value if isinstance(value, np.ndarray) else np.full(len(zf), value, complex)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyField):
            other = PolyField.constant(self.shape, other)
        if other.shape != self.shape:
            raise ValueError("shape mismatch")
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return PolyField._canonical(self.shape, terms, max(self._top, other._top))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, PolyField) else -other)

    def __mul__(self, other):
        if isinstance(other, PolyField):
            if other.shape != self.shape:
                raise ValueError("shape mismatch")
            top = self._top + other._top
            return PolyField._of(
                self.shape, *_product(self._terms, other._terms, top, self.size)
            )
        other = complex(other)
        terms = {k: c * other for k, c in self._terms.items()}
        return PolyField._canonical(self.shape, terms, self._top)

    __rmul__ = __mul__

    def conjugate(self):
        half = EXP_BITS * self.size
        low = (1 << half) - 1
        return PolyField._canonical(
            self.shape,
            {k >> half | (k & low) << half: c.conjugate() for k, c in self._terms.items()},
            self._top,
        )

    def real_part(self):
        """(f + conj f) / 2. No campaign calls it: the tests use it to make
        real pluriharmonic and coordinatewise harmonic data (test_fields,
        test_operators and the acceptance test of criterion 8)."""
        return (self + self.conjugate()) * 0.5

    def is_zero(self):
        return not self._terms

    # -- differentiation ----------------------------------------------------

    # Lowering one exponent maps distinct keys to distinct keys, so the
    # derivative terms need no merge.

    def _lower(self, slot):
        """The derivative in the z (slot < size) or zbar exponent of slot."""
        shift = EXP_BITS * slot
        unit = 1 << shift
        terms = {}
        for k, c in self._terms.items():
            e = k >> shift & _EXP_MASK
            if e:
                terms[k - unit] = c * e
        return PolyField._canonical(self.shape, terms, self._top)

    def dz(self, a):
        return self._lower(_entry(a, self.size))

    def dzbar(self, a):
        return self._lower(self.size + _entry(a, self.size))

    # -- composition --------------------------------------------------------

    def compose_holomorphic(self, components, out_shape):
        """Substitute z_a -> components[a](lam), a holomorphic polynomial map.

        Each component must be a holomorphic PolyField (no conjugated
        exponents) over ``out_shape``; conjugated entries of self become
        conjugates of the components.

        Bitwise the fields one * c * power * ... of each monomial summed by
        repeated ``+``: the products run through _product in that order, a
        power is the previous power times its base, and a component is
        conjugated only once a monomial reads its conjugate.  A monomial
        stops at its first empty product.
        """
        out_shape = tuple(out_shape)
        if len(components) != self.size:
            raise ValueError("need one map component per matrix entry")
        size = out_shape[0] * out_shape[1]
        for comp in components:
            if comp.shape != out_shape:
                raise ValueError("map components must be fields over out_shape")
            # a conjugated exponent sets a bit of the upper half of its key
            if max(comp._terms, default=0) >> EXP_BITS * size:
                raise ValueError("map components must be holomorphic")
        # the terms of PolyField.constant(out_shape, 1.0)
        one = {0: 1 + 0j}
        conj_components: dict[int, PolyField] = {}
        pow_cache: dict[tuple[int, int, bool], tuple[dict[int, complex], int]] = {}

        def power(a, e, conjugated):
            key = (a, e, conjugated)
            if key not in pow_cache:
                base = components[a]
                if conjugated:
                    if a not in conj_components:
                        conj_components[a] = base.conjugate()
                    base = conj_components[a]
                # each power is the previous one times the base, from one;
                # a loop, not a recursion, so that no reference cycle keeps
                # the cache alive after the call
                terms, top = one, 0
                for i in range(1, e + 1):
                    if (a, i, conjugated) not in pow_cache:
                        pow_cache[a, i, conjugated] = _product(
                            terms, base._terms, top + base._top, size
                        )
                    terms, top = pow_cache[a, i, conjugated]
            return pow_cache[key]

        def monomial(c, ze, we):
            # the terms of one * c, then times each power in turn up to the
            # first empty product
            term, top = _kept({0: one[0] * c}), 0
            for exps, conjugated in ((ze, False), (we, True)):
                for a, e in exps:
                    if not term:
                        return term, top
                    factor, factor_top = power(a, e, conjugated)
                    if not factor:
                        return {}, top
                    term, top = _product(term, factor, top + factor_top, size)
            return term, top

        # Summing into one dict gives bitwise what repeated ``result + term``
        # gives: the same per-key update, and a key that cancels below
        # COEFF_DROP leaves and re-enters at the end.
        acc: dict[int, complex] = {}
        top = 0
        for c, ze, we in self.monomials():
            term, term_top = monomial(c, ze, we)
            top = max(top, term_top)
            for k, v in term.items():
                v = 0.0 + (acc.get(k, 0.0) + v)
                if abs(v) > COEFF_DROP:
                    acc[k] = v
                else:
                    acc.pop(k, None)
        return PolyField._of(out_shape, acc, top)


def _kept(terms):
    """The terms stored as 0.0 + c and kept above COEFF_DROP."""
    return {k: c for k, v in terms.items() if abs(c := 0.0 + v) > COEFF_DROP}


def _product(terms1, terms2, top, size):
    """The packed terms of the product of two term dicts over size entries,
    kept by _kept, and a bound on their exponents.

    top is the sum of the factors' bounds. Only when it reaches EXP_LIMIT
    are the exact largest exponents of each entry added up, and a product
    exponent that reaches EXP_LIMIT raises.
    """
    if top >= EXP_LIMIT:
        # the largest exponent of an entry in the product is the sum of its
        # largest in each factor
        top = max(map(operator.add, _entry_tops(terms1, size), _entry_tops(terms2, size)))
        if top >= EXP_LIMIT:
            raise ValueError(f"a product exponent reaches 2^{EXP_BITS}")
    terms: dict[int, complex] = {}
    get = terms.get
    for k1, c1 in terms1.items():
        for k2, c2 in terms2.items():
            k = k1 + k2
            terms[k] = get(k, 0.0) + c1 * c2
    return _kept(terms), top


def _lowered(exps):
    """(entry, exponent, lowered sparse exponents) per entry of exps."""
    out = []
    for j, (a, e) in enumerate(exps):
        out.append((a, e, exps[:j] + (((a, e - 1),) if e > 1 else ()) + exps[j + 1 :]))
    return out


def _build_plan(monomials, size, by_z, by_zbar):
    """(output index, terms) per sum with terms, of the value (neither flag),
    d/dz or d/dzbar (one flag) or the mixed Hessian (both): d/dz_a and
    d/dzbar_b sum into index a and b, H[a, b] into a * size + b, and the
    value, whose terms are the monomials, into 0. Each term is (coefficient,
    z exponents, zbar exponents), in term order.

    Each coefficient is c e_a, then that times f_b, so a plan's sums are
    bitwise the values of u.dz(a), u.dzbar(b) and u.dz(a).dzbar(b).
    """
    if not (by_z or by_zbar):
        return [(0, monomials)]
    sums: dict[int, list] = {}
    for c, ze, we in monomials:
        if by_zbar and not we:
            # no d/dzbar part, so its z side needs no lowering
            continue
        if by_z:
            # each coefficient formed and dropped as dz does
            zs = [(a, v, fa) for a, e, fa in _lowered(ze) if abs(v := 0.0 + c * e) > COEFF_DROP]
        else:
            zs = ((0, c, ze),)
        if not by_zbar:
            for a, v, fa in zs:
                sums.setdefault(a, []).append((v, fa, we))
        elif zs:
            sides = _lowered(we)
            for a, ca, fa in zs:
                for b, f, fb in sides:
                    if abs(v := 0.0 + ca * f) > COEFF_DROP:
                        sums.setdefault(a * size + b, []).append((v, fa, fb))
    return list(sums.items())


def _evaluate(plan, entries, n):
    """The n sums of a plan over entries, one per field entry: the Python
    complex entries of a point, or the (N,) columns of a stack, whose rows'
    bits do not depend on N because the products are formed out of place.
    Each term is multiplied up from its coefficient by its z powers in entry
    order and then its conjugate powers; each sum runs from 0j in term order."""
    out = [0j] * n
    for i, terms in plan:
        total = 0j
        for v, ze, we in terms:
            for a, e in ze:
                v = v * entries[a] ** e
            for a, e in we:
                v = v * entries[a].conjugate() ** e
            total = total + v
        out[i] = total
    return out


def _point_values(field, z):
    """The entries of the point z as a list of Python complex numbers, one
    per entry of field."""
    zs = np.asarray(z, dtype=complex).reshape(-1).tolist()
    if len(zs) != field.size:
        raise ValueError("point size does not match field shape")
    return zs


def _entry(a, size):
    """a as an int flat entry index below size."""
    a = operator.index(a)
    if not 0 <= a < size:
        raise ValueError("entry index out of range")
    return a


def _entry_tops(terms, size):
    """The largest exponent of each z and zbar entry over packed terms."""
    tops = [0] * (2 * size)
    for k in terms:
        tops = list(map(max, tops, _exponents(k, size)))
    return tops


class OpaqueField:
    """Field backed by an arbitrary evaluator; differentiated numerically.

    fn maps one point of the field's shape to a number.
    """

    __slots__ = ("shape", "fn")

    def __init__(self, shape, fn):
        self.shape = tuple(shape)
        self.fn = fn

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return complex(self.fn(z if z.shape == self.shape else z.reshape(self.shape)))

    def evaluate_many(self, pts):
        """Evaluate at an array of points with shape (npts,) + self.shape:
        one call of self per point."""
        pts = np.asarray(pts, dtype=complex).reshape((len(pts),) + self.shape)
        return np.fromiter(map(self, pts), dtype=complex, count=len(pts))


def random_poly_field(shape, rng, degree=4, n_terms=8):
    """A random polynomial field of total degree <= degree."""
    if degree >= EXP_LIMIT:
        raise ValueError(f"degree must stay below 2^{EXP_BITS}")
    size = shape[0] * shape[1]
    terms: dict[int, complex] = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        key = 0
        for _ in range(d):
            a = int(rng.integers(0, size))
            key += 1 << EXP_BITS * (a if rng.random() < 0.5 else size + a)
        c = complex(rng.standard_normal(), rng.standard_normal())
        terms[key] = terms.get(key, 0.0) + c
    return PolyField._canonical(tuple(shape), terms, degree)


@functools.lru_cache(maxsize=None)
def _stencil_layout(size):
    """Where the stencil of _stencil_values moves a flat point of size
    complex entries, built once per size as read-only arrays:
    (rows, index, sign, iu, ju).

    Real coordinate i of d = 2 size is Re z_i for i < size, else
    Im z_(i - size), float column col[i] of a row's interleaved view. The
    centre comes first; the 2d axis rows move coordinate i by +h, then -h;
    the four rows ++, +-, -+, -- of each pair i < j follow, the pairs
    (iu, ju) in np.triu_indices order. index holds the flat float positions
    the rows move, each once, and sign the +-1.0 that multiplies h there.
    """
    d = 2 * size
    col = np.concatenate([np.arange(0, d, 2), np.arange(1, d, 2)])
    iu, ju = np.triu_indices(d, 1)
    rows = 1 + 2 * d + 4 * len(iu)
    quad = np.arange(1 + 2 * d, rows)
    index = np.concatenate([
        (1 + np.arange(2 * d)) * d + np.repeat(col, 2),
        quad * d + np.repeat(col[iu], 4),
        quad * d + np.repeat(col[ju], 4),
    ])
    sign = np.concatenate([
        np.tile([1.0, -1.0], d),
        np.tile([1.0, 1.0, -1.0, -1.0], len(iu)),
        np.tile([1.0, -1.0, 1.0, -1.0], len(iu)),
    ])
    for a in (index, sign, iu, ju):
        a.flags.writeable = False
    return rows, index, sign, iu, ju


def _stencil_values(u, zf, h):
    """(re, im) float pairs of u at the central-difference stencil of step h
    around the flat complex point zf, from one evaluate_many call.

    The rows are zf tiled, plus sign * h, which is exactly +-h, at the
    positions of the cached _stencil_layout(zf.size); only the tile and that
    one scatter are made per call.
    """
    rows, index, sign, _, _ = _stencil_layout(zf.size)
    points = np.tile(zf, (rows, 1))
    points.view(np.float64).reshape(-1)[index] += sign * h
    v = u.evaluate_many(points)
    return np.stack((v.real, v.imag), axis=-1)


def _real_hessian(u, zf, h):
    """Full real Hessian of a complex-valued field of a complex vector,
    central differences in the real coordinates (Re zf, Im zf) on the
    1 + 2 d^2 rows of _stencil_values; differencing the (re, im) float
    pairs gives bitwise the complex arithmetic of the per-pair loop.
    """
    d = 2 * zf.size
    _, _, _, iu, ju = _stencil_layout(zf.size)
    f = _stencil_values(u, zf, h)
    fa = f[1 : 1 + 2 * d].reshape(d, 2, 2)
    fq = f[1 + 2 * d :].reshape(len(iu), 4, 2)
    R = np.empty((d, d, 2))
    R[np.diag_indices(d)] = (fa[:, 0] - 2.0 * f[0] + fa[:, 1]) / h**2
    R[iu, ju] = (fq[:, 0] - fq[:, 1] - fq[:, 2] + fq[:, 3]) / (4.0 * h**2)
    R[ju, iu] = R[iu, ju]
    return R.view(complex)[..., 0]


def wirtinger_hessian(u, z):
    """Mixed Wirtinger Hessian H[a, b] = d^2 u / dz_a dzbar_b, flattened
    row-major, as an (m*n) x (m*n) complex array.

    Exact for PolyField; central finite differences with one level of
    Richardson extrapolation for opaque fields, via
    d^2/dz dzbar = 1/4 (d_xx + d_yy) + i/4 (d_xy - d_yx). An opaque u is
    evaluated with evaluate_many, once per Richardson level, FD_STEP and
    FD_STEP / 2, on the whole 1 + 2 d^2 point stencil (d = 2 m n real
    coordinates).
    """
    zf = np.asarray(z, dtype=complex).reshape(-1)
    size = zf.size
    if isinstance(u, PolyField):
        H = u._sums(True, True, _point_values(u, zf), size * size)
        return np.array(H, dtype=complex).reshape(size, size)

    # one Richardson step, O(h^2) error
    coarse = _real_hessian(u, zf, FD_STEP)
    R = (4.0 * _real_hessian(u, zf, FD_STEP / 2.0) - coarse) / 3.0
    x, y = slice(None, size), slice(size, None)
    return 0.25 * (R[x, x] + R[y, y]) + 0.25j * (R[x, y] - R[y, x])


def _gradient(u, z, by_z):
    """Exact Wirtinger gradient of a PolyField: d/dz_a with by_z, else
    d/dzbar_a."""
    if not isinstance(u, PolyField):
        raise TypeError(f"Wirtinger gradients take a PolyField, not {type(u).__name__}")
    return np.array(u._sums(by_z, not by_z, _point_values(u, z), u.size), dtype=complex)


def wirtinger_gradient(u, z):
    """Exact holomorphic Wirtinger gradient d u / dz_a as a flat array."""
    return _gradient(u, z, True)


def wirtinger_gradient_bar(u, z):
    """Exact antiholomorphic Wirtinger gradient d u / dzbar_a as a flat array."""
    return _gradient(u, z, False)
