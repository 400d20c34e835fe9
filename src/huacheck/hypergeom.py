"""Gauss hypergeometric machinery for the radial boundary profiles.

Implements the 2F1 series on [0, 1), the value at 1 by Gauss summation, the
parameter-shift derivative ladder, the classical limit laws near t = 1 and
one Richardson fit of the series towards them, the normalized radial profile
h(t) with its defining ODE, and the profile's boundary singularity type.

The series is summed as a short scalar prefix followed by sequential NumPy
blocks, with results identical to the plain scalar loop (see `gauss_2f1`);
`gauss_2f1_stack` sums one series per element of an array in the same
blocks, bit for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

SERIES_RTOL = 1e-15
SERIES_TERM_CAP = 1_000_000
# gauss_2f1 sums this many terms in a scalar loop before switching to blocks,
# so the many short series pay no NumPy call overhead
_SCALAR_PREFIX = 64
_BLOCK_MAX = 4096


def lgamma(x):
    """log Gamma(x) for x > 0.

    math.lgamma returns log|Gamma(x)| for x <= 0, which drops the sign, so
    that range raises.
    """
    if x <= 0.0:
        raise ValueError("lgamma requires x > 0")
    return math.lgamma(x)


class SeriesConvergenceError(RuntimeError):
    pass


def _check_series(a, b, c, t_min, t_max):
    """Raise ValueError unless [t_min, t_max] lies in [0, 1) and c is not a
    non-positive integer.

    Returns True when the series is trivial (a or b is 0, the sum is 1);
    otherwise warns, naming the caller of the entry point, when it
    converges slowly.
    """
    if not (0.0 <= t_min and t_max < 1.0):
        raise ValueError("series evaluation needs t in [0, 1)")
    if c <= 0.0 and c == int(c):
        raise ValueError("c must not be a non-positive integer")
    if a == 0.0 or b == 0.0:
        return True
    if t_max > 0.5 and c - a - b <= 0.0:
        warnings.warn(
            "2F1 series converges slowly for t > 0.5 with c - a - b <= 0",
            stacklevel=3,
        )
    return False


def _sum_blocks(a, b, c, ts, term, total, start):
    """Continue one series per column t of ts from term k = start, where
    term and total hold its last term and partial sum; returns the sums.

    Blocks start at _SCALAR_PREFIX terms and double up to _BLOCK_MAX. Each
    block forms the (terms, columns) term ratios, takes the running terms
    with `np.multiply.accumulate` along axis 0 seeded with the carried
    terms, and the running totals with `np.add.accumulate` seeded with the
    carried totals. A ufunc `accumulate` is a sequential loop down each
    column, without the pairwise summation of `np.sum`, so every partial
    product and partial sum is the same IEEE operation, in the same order,
    as in the scalar loop. A column stops at its first term with |term| <
    SERIES_RTOL |total| and leaves the blocks. SERIES_TERM_CAP counts terms
    from k = 0.
    """
    cap = SERIES_TERM_CAP
    out = np.empty(len(ts))
    live = np.arange(len(ts))
    size = _SCALAR_PREFIX
    # Python floats overflow to inf silently; keep the blocks as quiet
    with np.errstate(all="ignore"):
        while len(live):
            if start >= cap:
                raise SeriesConvergenceError(
                    f"2F1 series did not converge within {SERIES_TERM_CAP} terms"
                )
            k = np.arange(start, min(start + size, cap), dtype=float)[:, None]
            ratios = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * ts
            terms = np.multiply.accumulate(np.concatenate((term[None], ratios)))[1:]
            totals = np.add.accumulate(np.concatenate((total[None], terms)))[1:]
            done = np.abs(terms) < SERIES_RTOL * np.abs(totals)
            term, total = terms[-1], totals[-1]
            hit = done.any(0)
            if hit.any():
                out[live[hit]] = totals[done[:, hit].argmax(0), hit]
                keep = ~hit
                live, ts, term, total = live[keep], ts[keep], term[keep], total[keep]
            start += len(k)
            size = min(2 * size, _BLOCK_MAX)
    return out


def gauss_2f1(a, b, c, t):
    """The 2F1 series sum_k (a)_k (b)_k / ((c)_k k!) t^k for a scalar
    0 <= t < 1.

    The series stops at the first term with |term| < SERIES_RTOL |total|.
    The first _SCALAR_PREFIX terms are summed in a scalar loop, so the many
    short series pay no NumPy call overhead. A series that has not converged
    by then continues in the NumPy blocks of _sum_blocks, whose result is
    bit-identical to summing the whole series term by term.
    """
    if _check_series(a, b, c, t, t):
        return 1.0
    total = 1.0
    term = 1.0
    for k in range(min(_SCALAR_PREFIX, SERIES_TERM_CAP)):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * t
        total += term
        if abs(term) < SERIES_RTOL * abs(total):
            return total
    carried = np.array([t]), np.array([term]), np.array([total])
    return float(_sum_blocks(a, b, c, *carried, _SCALAR_PREFIX)[0])


def gauss_2f1_stack(a, b, c, ts):
    """gauss_2f1(a, b, c, t) for each t of the 1-d array ts, bit for bit.

    Every series is summed in the blocks of _sum_blocks from its first
    term, one column per t, so a stack pays a few NumPy calls in place of
    one Python loop per element.
    """
    ts = np.asarray(ts, dtype=float)
    ones = np.ones(len(ts))
    # a NaN t propagates through min and max and fails the range check
    if _check_series(a, b, c, np.min(ts, initial=0.0), np.max(ts, initial=0.0)):
        return ones
    return _sum_blocks(a, b, c, ts, ones, ones, 0)


def gauss_2f1_at_1(a, b, c):
    """F(a,b,c;1) by Gauss summation; requires c - a - b > 0."""
    if a == 0.0 or b == 0.0:
        return 1.0
    if c - a - b <= 0.0:
        raise ValueError("Gauss summation needs c - a - b > 0")
    return math.exp(lgamma(c) + lgamma(c - a - b) - lgamma(c - a) - lgamma(c - b))


def gauss_2f1_derivative(a, b, c, t, order=1):
    """d^order/dt^order of F via the parameter-shift ladder."""
    coef = 1.0
    for i in range(order):
        coef *= (a + i) * (b + i) / (c + i)
    return coef * gauss_2f1(a + order, b + order, c + order, t)


def gauss_2f1_derivative_series(a, b, c, t):
    """dF/dt by differentiating the series term by term; ladder oracle."""
    if not (0.0 <= t < 1.0):
        raise ValueError("series evaluation needs t in [0, 1)")
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
    """|F(a,b,a+b-s;t) (1-t)^s - F(b-s,a-s,a+b-s;t)|."""
    lhs = gauss_2f1(a, b, a + b - s, t) * (1.0 - t) ** s
    rhs = gauss_2f1(b - s, a - s, a + b - s, t)
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
        held, *fitted = [gauss_2f1(a, b, c, 1 - 2.0**-j) for j in (HOLDOUT_J, *FIT_JS)]
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
        """h(t) for a scalar t, or for each t of a 1-d array (through
        gauss_2f1_stack, bit for bit the scalar values); exactly 1 if pq = 0."""
        series = gauss_2f1_stack if np.ndim(t) else gauss_2f1
        return series(self.a, self.b, self.c, t) / self.normalization

    def derivative(self, t, order=1):
        """d^order h / dt^order; exactly 0 if pq = 0."""
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
