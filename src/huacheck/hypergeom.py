"""Gauss hypergeometric machinery for the radial boundary profiles.

Implements the 2F1 series on [0, 1), the value at 1 by Gauss summation, the
parameter-shift derivative ladder, the classical limit laws near t = 1, the
normalized radial profile h(t) with its defining ODE, and a numerical
classifier for the type of boundary singularity of the profile.

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


def log_limit_estimate(a, b):
    """Estimate the log-law limit from t = 1 - 2^-13 and t = 1 - 2^-14.

    Returns (plain ratio at the finest point, two-point estimate). Near t = 1
    the numerator behaves like A log(1/(1-t)) + B, so the plain ratio carries
    an O(1/log) bias; differencing two geometric points removes the constant.
    """
    t1 = 1.0 - 2.0**-13
    t2 = 1.0 - 2.0**-14
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f1 = gauss_2f1(a, b, a + b, t1)
        f2 = gauss_2f1(a, b, a + b, t2)
    l1 = 13 * math.log(2.0)
    l2 = 14 * math.log(2.0)
    plain = f2 / l2
    twopoint = (f2 - f1) / (l2 - l1)
    return plain, twopoint


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
        gauss_2f1_stack, bit for bit the scalar values)."""
        if self.p * self.q == 0:
            return 1.0
        series = gauss_2f1_stack if np.ndim(t) else gauss_2f1
        return series(self.a, self.b, self.c, t) / self.normalization

    def derivative(self, t, order=1):
        if self.p * self.q == 0:
            return 0.0
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
    fit_residual: float


def _fit_grid():
    return np.array([1.0 - 2.0**-j for j in range(4, 15)])


def log_coefficient_value(a, b, k):
    """Coefficient of (1-t)^k log(1-t) in F(a,b,a+b+k;t), k a positive integer.

    Derived by applying the derivative ladder k times and matching the log
    law: the k-th derivative is c_k F(a+k, b+k, a+b+2k; t), whose log blow-up
    pins the coefficient to (-1)^(k+1) Gamma(a+b+k) / (k! Gamma(a) Gamma(b)).
    """
    sign = -1.0 if k % 2 == 0 else 1.0
    return sign * math.exp(lgamma(a + b + k) - lgamma(a) - lgamma(b)) / math.factorial(k)


def half_power_coefficient_value(a, b, k):
    """Coefficient of (1-t)^(k+1/2) in F(a,b,a+b+k+1/2;t)."""
    c = a + b + k + 0.5
    return math.gamma(c) * math.gamma(-(k + 0.5)) / (math.gamma(a) * math.gamma(b))


def classify_singularity(p, q, n):
    """Classify the t -> 1 behavior of F(p/2, q/2, (p+q+n+1)/2; t).

    Smooth when pq = 0; otherwise a (1-t)^((n+1)/2) log(1-t) term for odd n
    and a (1-t)^(n/2 + 1/2) term for even n. The classification follows the
    parity of n; the returned coefficient and residual come from a least
    squares fit on a geometric grid approaching 1 and must corroborate it.
    """
    if n < 2:
        raise ValueError("classification requires n >= 2")
    if p * q == 0:
        return SingularityClass("smooth", 0.0, 0.0, 0.0, 0.0)
    a, b = p / 2.0, q / 2.0
    c = (p + q + n + 1) / 2.0
    ts = _fit_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fvals = np.array([gauss_2f1(a, b, c, t) for t in ts])
    x = 1.0 - ts
    if n % 2 == 1:
        k = (n + 1) // 2
        exponent = float(k)
        kind = "log-type"
        singular = [x**k * np.log(x), x ** (k + 1) * np.log(x)]
        oracle = log_coefficient_value(a, b, k)
    else:
        k = n // 2
        exponent = k + 0.5
        kind = "half-power"
        singular = [x ** (k + 0.5), x ** (k + 1.5)]
        oracle = half_power_coefficient_value(a, b, k)
    smooth_deg = k + 2
    basis = [x**i for i in range(smooth_deg + 1)] + singular
    Amat = np.stack(basis, axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(Amat, fvals, rcond=None)
    recon = Amat @ coeffs
    fitted = float(coeffs[smooth_deg + 1])
    # residual relative to the size of the singular component on the grid
    sing_scale = float(np.max(np.abs(fitted * singular[0])))
    if sing_scale == 0.0:
        warnings.warn("singular basis coefficient vanished; fit is unstable")
        sing_scale = 1.0
    fit_residual = float(np.max(np.abs(recon - fvals))) / sing_scale
    return SingularityClass(kind, exponent, fitted, oracle, fit_residual)
