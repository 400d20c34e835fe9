"""Gauss hypergeometric machinery for the radial boundary profiles.

Implements the 2F1 series on [0, 1), the value at 1 by Gauss summation, the
parameter-shift derivative ladder, the classical limit laws near t = 1 and
one Richardson fit of the series towards them, the normalized radial profile
h(t) with its defining ODE, and the profile's boundary singularity type.

All 2F1 sums go through `gauss_2f1_stack`, which broadcasts a, b, c and t
and sums one series per element in sequential NumPy blocks, bit for bit the
plain scalar term loop; a scalar t gives a 0-d array.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

SERIES_RTOL = 1e-15
SERIES_TERM_CAP = 1_000_000
# the first block of terms; later blocks double up to _BLOCK_MAX
_BLOCK_MIN = 64
_BLOCK_MAX = 4096


def lgamma(x):
    """log Gamma(x) for x > 0.

    math.lgamma returns log|Gamma(x)| for x <= 0, which drops the sign, so
    that range raises, and so does NaN.
    """
    if not x > 0.0:
        raise ValueError("lgamma requires x > 0")
    return math.lgamma(x)


class SeriesConvergenceError(RuntimeError):
    pass


def _check_series(a, b, c, t):
    """Raise ValueError unless every t lies in [0, 1), no a, b or c is NaN
    and no c is a non-positive integer, for scalars or broadcast arrays.

    Returns the mask of the series that need summing (a and b nonzero; the
    others sum to 1). Warns once, naming the innermost caller outside this
    module, when one of them converges slowly.
    """
    # NaN fails both comparisons
    if not np.all((0.0 <= t) & (t < 1.0)):
        raise ValueError("series evaluation needs t in [0, 1)")
    # a series with a NaN parameter would never stop
    if np.isnan(a).any() or np.isnan(b).any() or np.isnan(c).any():
        raise ValueError("2F1 parameters must not be NaN")
    if np.any((c <= 0.0) & (c == np.floor(c))):
        raise ValueError("c must not be a non-positive integer")
    live = (a != 0.0) & (b != 0.0)
    if np.any(live & (t > 0.5) & (c - a - b <= 0.0)):
        frame, level = sys._getframe(), 1
        while frame is not None and frame.f_globals is globals():
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "2F1 series converges slowly for t > 0.5 with c - a - b <= 0",
            stacklevel=level,
        )
    return live


def gauss_2f1_stack(a, b, c, t):
    """The 2F1 series sum_k (a)_k (b)_k / ((c)_k k!) t^k, 0 <= t < 1, for
    each element of the broadcast of a, b, c and t; an array of that shape.

    Each series stops at its first term with |term| < SERIES_RTOL |total|
    and may take SERIES_TERM_CAP terms from k = 0. The live series are the
    rows of a block of _BLOCK_MIN terms, doubling up to _BLOCK_MAX: the
    block forms the term ratios, takes the running terms with
    `np.multiply.accumulate` along each row seeded with the row's last term,
    and the running totals with `np.add.accumulate` seeded with its last
    total. A ufunc `accumulate` is a sequential loop, without the pairwise
    summation of `np.sum`, so every partial product and partial sum is the
    same IEEE operation, in the same order, as in the scalar term loop, and
    each sum is bit for bit that loop's. A row leaves the blocks when it
    stops.
    """
    a, b, c, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c, t)))
    out = np.ones(t.shape)
    live = _check_series(a, b, c, t)
    rows = np.flatnonzero(live)
    a, b, c, t = (x[live][:, None] for x in (a, b, c, t))
    term = total = np.ones((len(rows), 1))
    start, size, cap = 0, _BLOCK_MIN, SERIES_TERM_CAP
    # the scalar term loop overflows to inf silently; keep the blocks as quiet
    with np.errstate(all="ignore"):
        while len(rows):
            if start >= cap:
                raise SeriesConvergenceError(
                    f"2F1 series did not converge within {cap} terms"
                )
            k = np.arange(start, min(start + size, cap), dtype=float)
            ratios = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * t
            terms = np.multiply.accumulate(np.concatenate((term, ratios), 1), 1)[:, 1:]
            totals = np.add.accumulate(np.concatenate((total, terms), 1), 1)[:, 1:]
            done = np.abs(terms) < SERIES_RTOL * np.abs(totals)
            hit = done.any(1)
            out.flat[rows[hit]] = totals[hit, done[hit].argmax(1)]
            keep = ~hit
            rows, a, b, c, t = rows[keep], a[keep], b[keep], c[keep], t[keep]
            term, total = terms[keep, -1:], totals[keep, -1:]
            start += len(k)
            size = min(2 * size, _BLOCK_MAX)
    return out


def gauss_2f1_at_1(a, b, c):
    """F(a,b,c;1) by Gauss summation; requires c - a - b > 0. a, b and c
    are checked as a series' are, before the a = 0 or b = 0 exit."""
    _check_series(a, b, c, 0.0)
    if a == 0.0 or b == 0.0:
        return 1.0
    if not c - a - b > 0.0:
        raise ValueError("Gauss summation needs c - a - b > 0")
    return math.exp(lgamma(c) + lgamma(c - a - b) - lgamma(c - a) - lgamma(c - b))


def gauss_2f1_derivative(a, b, c, t, order=1):
    """d^order/dt^order of F via the parameter-shift ladder; broadcasts like
    gauss_2f1_stack."""
    coef = 1.0
    for i in range(order):
        coef *= (a + i) * (b + i) / (c + i)
    return coef * gauss_2f1_stack(a + order, b + order, c + order, t)


def gauss_2f1_derivative_series(a, b, c, t):
    """dF/dt by differentiating the series term by term; ladder oracle.
    The arguments are checked as a series' are, before any term."""
    _check_series(a, b, c, t)
    total = 0.0
    term = a * b / c  # k = 1 term of F contributes its derivative
    for k in range(1, SERIES_TERM_CAP):
        total += term * k * t ** (k - 1)
        if k > 1 and abs(term * k * t ** (k - 1)) < SERIES_RTOL * max(
            abs(total), 1.0
        ):
            return total
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0))
    raise SeriesConvergenceError("termwise derivative series did not converge")


# -- limit laws near t = 1 ---------------------------------------------------


def euler_identity_residual(a, b, s, t):
    """|F(a,b,a+b-s;t) (1-t)^s - F(b-s,a-s,a+b-s;t)|; broadcasts like
    gauss_2f1_stack."""
    lhs = gauss_2f1_stack(a, b, a + b - s, t) * (1.0 - t) ** s
    rhs = gauss_2f1_stack(b - s, a - s, a + b - s, t)
    return abs(lhs - rhs)


def power_limit_value(a, b, s):
    """lim (1-t)^s F(a,b,a+b-s;t) = Gamma(a+b-s) Gamma(s) / (Gamma(a) Gamma(b))."""
    return math.exp(lgamma(a + b - s) + lgamma(s) - lgamma(a) - lgamma(b))


def log_limit_value(a, b):
    """lim F(a,b,a+b;t) / log(1/(1-t)) = Gamma(a+b) / (Gamma(a) Gamma(b))."""
    return math.exp(lgamma(a + b) - lgamma(a) - lgamma(b))


# the t -> 1 grid t = 1 - 2^-j: fitted on FIT_JS, checked at HOLDOUT_J
FIT_JS = tuple(range(8, 14))
HOLDOUT_J = 7
# (p, q) of the terms x^p log(1/x)^q of F(a, b, a+b; t), x = 1 - t, A&S 15.3.10
LOG_MODEL = tuple((i, q) for i in range(3) for q in (1, 0))


def _model_basis(js, model):
    x = 2.0 ** -np.asarray(js, dtype=float)
    return np.stack([x**p * np.log(1.0 / x) ** q for p, q in model], axis=-1)


def richardson_limit(values, js, model):
    """Coefficients c_i of sum_i c_i x^p_i log(1/x)^q_i, model = ((p_i, q_i),
    ...), through the values at x = 2^-j for j in js (one per term)."""
    return np.linalg.solve(_model_basis(js, model), values)


def blowup(a, b, c):
    """(kind, lead coefficient, hold-out error) of F(a, b, c; t) as t -> 1,
    for s = a + b - c >= 0.

    Fits the plain series on FIT_JS to the log model LOG_MODEL and to the
    power model x^(i/2 - s), i < 6 (A&S 15.3.6 for half-integer s), and
    returns the one whose fit predicts the series at HOLDOUT_J with the
    smaller relative error. The lead coefficient is that of log(1/x) for
    "log-type" and of x^-s for "half-power".
    """
    s = a + b - c
    if s < 0.0:
        raise ValueError("blowup needs a + b - c >= 0")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        js = np.array((HOLDOUT_J, *FIT_JS))
        held, *fitted = gauss_2f1_stack(a, b, c, 1.0 - 2.0**-js)
    power_model = tuple((i / 2.0 - s, 0) for i in range(6))
    fits = []
    for kind, model in (("log-type", LOG_MODEL), ("half-power", power_model)):
        coeffs = richardson_limit(fitted, FIT_JS, model)
        error = abs(_model_basis(HOLDOUT_J, model) @ coeffs - held) / abs(held)
        fits.append((float(error), kind, float(coeffs[0])))
    error, kind, lead = min(fits)
    return kind, lead, error


# -- radial profile ----------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """h(t) = F(p/2, q/2, (p+q+n+1)/2; t) / F(...; 1), so h(1) = 1."""

    p: int
    q: int
    n: int

    @property
    def a(self):
        return self.p / 2.0

    @property
    def b(self):
        return self.q / 2.0

    @property
    def c(self):
        return (self.p + self.q + self.n + 1) / 2.0

    @functools.cached_property
    def normalization(self):
        # c - a - b = (n + 1)/2 > 0, so the value at 1 is finite
        return gauss_2f1_at_1(self.a, self.b, self.c)

    def value(self, t):
        """h(t) for each element of t; exactly 1 if pq = 0."""
        return gauss_2f1_stack(self.a, self.b, self.c, t) / self.normalization

    def derivative(self, t, order=1):
        """d^order h / dt^order for each element of t; exactly 0 if pq = 0."""
        return gauss_2f1_derivative(self.a, self.b, self.c, t, order) / (
            self.normalization
        )

    def ode_residual(self, t):
        """t(1-t) h'' + [p/2 + q/2 + (n+1)/2 - (p/2 + q/2 + 1) t] h' - (pq/4) h."""
        h = self.value(t)
        h1 = self.derivative(t, 1)
        h2 = self.derivative(t, 2)
        p, q, n = self.p, self.q, self.n
        return (
            t * (1.0 - t) * h2
            + (p / 2.0 + q / 2.0 + (n + 1) / 2.0 - (p / 2.0 + q / 2.0 + 1.0) * t) * h1
            - (p * q / 4.0) * h
        )


# -- boundary singularity classification -------------------------------------


@dataclass(frozen=True)
class SingularityClass:
    kind: str  # "smooth", "log-type" or "half-power"
    exponent: float
    coefficient: float
    coefficient_oracle: float
    holdout_error: float


def classify_singularity(p, q, n):
    """Classify the t -> 1 behavior of F(p/2, q/2, (p+q+n+1)/2; t).

    Smooth when pq = 0. Otherwise `blowup` tells from F(a+m, b+m, c+m; t),
    m = ceil(c - a - b) rungs up the derivative ladder, whether the profile
    has a (1-t)^((n+1)/2) log(1-t) term (odd n) or a (1-t)^(n/2 + 1/2) term
    (even n), and the limit law's Gamma ratio is the coefficient's oracle.
    """
    if n < 2:
        raise ValueError("classification requires n >= 2")
    if p * q == 0:
        return SingularityClass("smooth", 0.0, 0.0, 0.0, 0.0)
    a, b = p / 2.0, q / 2.0
    c = (p + q + n + 1) / 2.0
    m = math.ceil(c - a - b)
    kind, lead, error = blowup(a + m, b + m, c + m)
    if kind == "log-type":
        oracle = log_limit_value(a + m, b + m)
    else:
        oracle = power_limit_value(a + m, b + m, m - (c - a - b))
    return SingularityClass(kind, c - a - b, lead, oracle, error)
