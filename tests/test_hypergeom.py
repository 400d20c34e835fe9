import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from huacheck import campaigns, hypergeom


def test_lgamma_rejects_non_positive_arguments():
    # math.lgamma(-0.5) is log|Gamma(-0.5)| = 1.2655..., without the sign,
    # and math.lgamma(nan) is nan
    for x in (0.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            hypergeom.lgamma(x)


def test_singular_coefficients_match_closed_forms():
    # F(1, 1, 2; t) = -log(1 - t) / t blows up like log(1 / (1 - t))
    kind, lead, error = hypergeom.blowup(1.0, 1.0, 2.0)
    assert kind == "log-type" and error < 1e-6
    assert_allclose(lead, 1.0, rtol=1e-7)
    # F(1/2, 3, 3; t) = (1 - t)^(-1/2)
    kind, lead, error = hypergeom.blowup(0.5, 3.0, 3.0)
    assert kind == "half-power" and error < 1e-6
    assert_allclose(lead, 1.0, rtol=1e-9)
    # F(1, 1, 3; t) = 2 [(1 - t) log(1 - t) + t] / t^2 is 2 at t = 1
    assert_allclose(hypergeom.gauss_2f1_at_1(1.0, 1.0, 3.0), 2.0, rtol=1e-14)


def test_gauss_2f1_closed_forms():
    # F(1,1,2;t) = -log(1-t)/t and F(a,b,b;t) = (1-t)^-a
    for t in (0.1, 0.4):
        assert_allclose(
            hypergeom.gauss_2f1_stack(1.0, 1.0, 2.0, t), -math.log(1.0 - t) / t, rtol=1e-13
        )
    with pytest.warns(UserWarning, match="converges slowly"):
        assert_allclose(
            hypergeom.gauss_2f1_stack(1.0, 1.0, 2.0, 0.8), -math.log(0.2) / 0.8, rtol=1e-13
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_allclose(
            hypergeom.gauss_2f1_stack(0.5, 3.0, 3.0, 0.6), (1.0 - 0.6) ** -0.5, rtol=1e-13
        )
    assert hypergeom.gauss_2f1_stack(0.0, 2.0, 3.0, 0.5) == 1.0


def test_gauss_2f1_input_validation():
    with pytest.raises(ValueError):
        hypergeom.gauss_2f1_stack(1.0, 1.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        hypergeom.gauss_2f1_stack(1.0, 1.0, -2.0, 0.5)


@pytest.mark.parametrize("slot", range(3))
def test_nan_parameters_raise_at_once(monkeypatch, slot):
    # a series with a NaN parameter never stops: it used to end in a
    # SeriesConvergenceError at the term cap, lowered here to keep that quick
    monkeypatch.setattr(hypergeom, "SERIES_TERM_CAP", 10)
    abc = [1.0, 1.0, 3.0]
    abc[slot] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        hypergeom.gauss_2f1_stack(*abc, np.array([0.2, 0.4]))
    with pytest.raises(ValueError):
        hypergeom.gauss_2f1_at_1(*abc)
    # one NaN among the broadcast parameters of a stack
    stacked = [np.array([x, 1.0]) if i == slot else x for i, x in enumerate((1.0, 1.0, 3.0))]
    stacked[slot][0] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        hypergeom.gauss_2f1_stack(*stacked, 0.3)


def _reference_gauss_2f1(a, b, c, t):
    """The scalar term-by-term 2F1 loop; returns (sum, number of terms)."""
    if a == 0.0 or b == 0.0:
        return 1.0, 0
    total = 1.0
    term = 1.0
    for k in range(hypergeom.SERIES_TERM_CAP):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * t
        total += term
        if abs(term) < hypergeom.SERIES_RTOL * abs(total):
            return total, k + 1
    raise hypergeom.SeriesConvergenceError("reference series did not converge")


def _terminating(terms):
    """(a, b, c, t) of a series that stops at its zero term, after `terms` terms.

    With a = 1 - terms, b = 1 and c = a + 1/2 every term is positive and
    decays like 0.99^k, so no earlier term passes the relative stop.
    """
    return 1.0 - terms, 1.0, 1.5 - terms, 0.99


def test_block_series_equals_scalar_reference():
    first = hypergeom._BLOCK_MIN
    cases = []
    # the classifier and log-limit parameters approaching t = 1
    params = [
        (p / 2.0, q / 2.0, (p + q + n + 1) / 2.0)
        for p, q, n, _, _ in campaigns.SINGULARITY_CASES
    ]
    params += [(a, b, a + b) for a, b in ((1.0, 1.0), (1.5, 1.5))]
    cases += [(a, b, c, 1.0 - 2.0**-j) for a, b, c in params for j in range(1, 16)]
    # the classifier's ladder-shifted parameters (a+m, b+m, c+m), as far out
    # as its fit grid
    shifted = [
        (p / 2.0 + m, q / 2.0 + m, (p + q + n + 1) / 2.0 + m)
        for p, q, n, kind, _ in campaigns.SINGULARITY_CASES
        if kind != "smooth"
        for m in [math.ceil((n + 1) / 2.0)]
    ]
    fit_js = range(1, max(hypergeom.FIT_JS) + 1)
    cases += [(a, b, c, 1.0 - 2.0**-j) for a, b, c in shifted for j in fit_js]
    # terminating series ending around the ends of the first three blocks
    terminating = [
        terms
        for edge in (first, 3 * first, 7 * first)
        for terms in range(edge - 2, edge + 3)
    ]
    cases += [_terminating(terms) for terms in terminating]
    rng = np.random.default_rng(20261018)
    for _ in range(600):
        a, b = rng.uniform(-6.0, 6.0, size=2)
        c = rng.uniform(-4.5, 8.0)
        if rng.random() < 0.9:
            t = rng.uniform(0.0, 0.99)
        else:
            t = 1.0 - 10.0 ** -rng.uniform(2.0, 4.0)
        cases.append((a, b, c, t))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for terms in terminating:
            assert _reference_gauss_2f1(*_terminating(terms))[1] == terms
        lengths, totals = [], []
        for a, b, c, t in cases:
            expected, count = _reference_gauss_2f1(a, b, c, t)
            lengths.append(count)
            totals.append(expected)
            assert hypergeom.gauss_2f1_stack(a, b, c, t) == expected, (a, b, c, t)
        # one call over every case, each series with its own a, b and c,
        # and two trivial rows with a = 0 and b = 0
        trivial = [(0.0, 2.0, 3.0, 0.9), (1.5, 0.0, 0.5, 0.99)]
        a, b, c, t = np.array(cases + trivial).T
        got = hypergeom.gauss_2f1_stack(a, b, c, t)
    assert np.array_equal(got, totals + [1.0, 1.0])
    # the cases reach past the first block and into the capped 4096-term blocks
    assert min(lengths) < first and max(lengths) > 16 * hypergeom._BLOCK_MAX


def test_stack_series_equals_scalar_reference():
    first = hypergeom._BLOCK_MIN
    a, b, c = 1.0, 1.0, 2.5
    rng = np.random.default_rng(3)
    ts = np.concatenate(
        [[0.0, 1e-3, 0.3, 0.9, 1.0 - 2.0**-8, 1.0 - 2.0**-12], rng.uniform(0, 1, 40)]
    )
    ts = ts[rng.permutation(len(ts))]
    reference = [_reference_gauss_2f1(a, b, c, t) for t in ts]
    got = hypergeom.gauss_2f1_stack(a, b, c, ts)
    assert np.array_equal(got, [total for total, _ in reference])
    # one call mixes series that stop in the first block with series that
    # run into the capped blocks
    lengths = [count for _, count in reference]
    assert min(lengths) < first and max(lengths) > 2 * hypergeom._BLOCK_MAX
    assert np.array_equal(hypergeom.gauss_2f1_stack(0.0, b, c, ts), np.ones(len(ts)))
    assert hypergeom.gauss_2f1_stack(a, b, c, np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [1.0, -0.5, np.nan, np.inf])
def test_stack_series_rejects_t_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"t in \[0, 1\)"):
        hypergeom.gauss_2f1_stack(1.0, 1.0, 3.0, np.array([0.2, bad, 0.4]))


def test_stack_series_warns_once_per_call():
    with pytest.warns(UserWarning, match="converges slowly") as record:
        hypergeom.gauss_2f1_stack(1.0, 1.0, 2.0, np.array([0.6, 0.7, 0.2, 0.8]))
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hypergeom.gauss_2f1_stack(1.0, 1.0, 2.0, np.array([0.1, 0.5]))


@pytest.mark.parametrize("cap", [10, 64, 100, 1000])
def test_term_cap_counts_terms_from_the_first(monkeypatch, cap):
    monkeypatch.setattr(hypergeom, "SERIES_TERM_CAP", cap)
    t = 1.0 - 2.0**-10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fn in (hypergeom.gauss_2f1_stack, _reference_gauss_2f1):
            with pytest.raises(hypergeom.SeriesConvergenceError):
                fn(1.0, 1.0, 2.0, t)
        # a series of exactly `cap` terms converges, one of cap + 1 does not
        expected, count = _reference_gauss_2f1(*_terminating(cap))
        assert count == cap
        assert hypergeom.gauss_2f1_stack(*_terminating(cap)) == expected
        with pytest.raises(hypergeom.SeriesConvergenceError):
            hypergeom.gauss_2f1_stack(*_terminating(cap + 1))
        # a stack counts each series' terms on its own
        a, b, c, t = _terminating(cap)
        assert hypergeom.gauss_2f1_stack(a, b, c, np.array([t, 0.0])).tolist() == [
            expected,
            1.0,
        ]
        with pytest.raises(hypergeom.SeriesConvergenceError):
            a, b, c, t = _terminating(cap + 1)
            hypergeom.gauss_2f1_stack(a, b, c, np.array([t]))


def test_overflowing_series_fails_without_runtime_warning(monkeypatch):
    # the terms pass 1e308 after the first block; the reference's Python
    # floats and the blocks both overflow to inf quietly and run into the cap
    monkeypatch.setattr(hypergeom, "SERIES_TERM_CAP", 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", RuntimeWarning)
        for fn in (hypergeom.gauss_2f1_stack, _reference_gauss_2f1):
            with pytest.raises(hypergeom.SeriesConvergenceError):
                fn(400.0, 400.0, 1.0, 0.999)


def test_slow_convergence_warning_names_the_caller():
    with pytest.warns(UserWarning, match="converges slowly") as record:
        hypergeom.gauss_2f1_stack(1.0, 1.0, 2.0, 0.6)
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hypergeom.gauss_2f1_stack(1.0, 1.0, 2.0, 0.5)
        hypergeom.gauss_2f1_stack(1.0, 1.0, 2.5, 0.6)


def test_gauss_summation_at_one():
    # F(1,1,3;1) = Gamma(3)Gamma(1)/Gamma(2)^2 = 2
    assert_allclose(hypergeom.gauss_2f1_at_1(1.0, 1.0, 3.0), 2.0, rtol=1e-13)
    with pytest.raises(ValueError):
        hypergeom.gauss_2f1_at_1(1.0, 1.0, 2.0)


@pytest.mark.parametrize("slot", range(3))
def test_termwise_derivative_rejects_a_nan_parameter_before_any_term(monkeypatch, slot):
    # it used to run its whole term loop and end in SeriesConvergenceError,
    # at once here, where the cap is lowered to 0 terms
    monkeypatch.setattr(hypergeom, "SERIES_TERM_CAP", 0)
    abc = [1.0, 1.0, 3.0]
    abc[slot] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        hypergeom.gauss_2f1_derivative_series(*abc, 0.3)


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_termwise_derivative_rejects_a_non_positive_integer_c(c):
    # it used to divide by zero in its first term or ratio
    with pytest.raises(ValueError, match="non-positive integer"):
        hypergeom.gauss_2f1_derivative_series(1.0, 1.0, c, 0.3)


@pytest.mark.parametrize("t", [-0.1, 1.0, math.nan])
def test_termwise_derivative_rejects_t_outside_the_unit_interval(t):
    with pytest.raises(ValueError, match=r"t in \[0, 1\)"):
        hypergeom.gauss_2f1_derivative_series(1.0, 1.0, 3.0, t)


@pytest.mark.parametrize("ab", [(0.0, math.nan), (math.nan, 0.0)], ids=["a=0", "b=0"])
def test_gauss_summation_rejects_nan_before_the_zero_shortcut(ab):
    # the a = 0 or b = 0 shortcut used to return 1.0 for a NaN partner
    with pytest.raises(ValueError, match="NaN"):
        hypergeom.gauss_2f1_at_1(*ab, 3.0)


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_gauss_summation_rejects_a_non_positive_integer_c(c):
    # also where the a = 0 shortcut would return 1.0
    for a in (0.0, -3.0):
        with pytest.raises(ValueError, match="non-positive integer"):
            hypergeom.gauss_2f1_at_1(a, 1.0, c)


def test_derivative_ladder_against_termwise_series():
    for a, b, c, t in ((0.5, 1.5, 3.0, 0.3), (2.0, 1.0, 4.5, 0.7)):
        lhs = hypergeom.gauss_2f1_derivative(a, b, c, t)
        rhs = hypergeom.gauss_2f1_derivative_series(a, b, c, t)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_derivative_ladder_against_central_difference():
    a, b, c, t = 1.2, 0.8, 4.0, 0.4
    h = 1e-6
    fd = (hypergeom.gauss_2f1_stack(a, b, c, t + h) - hypergeom.gauss_2f1_stack(a, b, c, t - h)) / (
        2.0 * h
    )
    assert_allclose(hypergeom.gauss_2f1_derivative(a, b, c, t), fd, rtol=1e-8)


def test_euler_identity_residual_small():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in np.linspace(0.0, 0.99, 12):
            assert hypergeom.euler_identity_residual(1.5, 1.5, 1.0, t) < 1e-10


def test_power_limit_law():
    a, b, s = 1.0, 1.0, 0.5
    t = 1.0 - 2.0**-14
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        approx = (1.0 - t) ** s * hypergeom.gauss_2f1_stack(a, b, a + b - s, t)
    target = hypergeom.power_limit_value(a, b, s)
    assert abs(approx - target) < 0.05 * target


def test_log_limit_two_point_estimate():
    # the Richardson fit removes the constant and the x^i log terms that
    # bias any estimate from one or two grid points
    for a, b in ((1.0, 1.0), (1.5, 1.5)):
        kind, lead, _ = hypergeom.blowup(a, b, a + b)
        target = hypergeom.log_limit_value(a, b)
        assert kind == "log-type"
        assert abs(lead - target) / target < 1e-6


def _power_model(s):
    """blowup's power model: x^(i/2 - s) for i < 6."""
    return tuple((i / 2.0 - s, 0) for i in range(6))


@pytest.mark.parametrize("s", [0.0, 0.5, 1.5])
def test_richardson_limit_recovers_exact_combinations(s):
    # random combinations of the log model's terms (s = 0) or of the power
    # model's half powers, sampled exactly on the fit grid
    model = hypergeom.LOG_MODEL if s == 0.0 else _power_model(s)
    rng = np.random.default_rng(int(10 * s))
    js = np.array(hypergeom.FIT_JS, dtype=float)
    x = 2.0**-js
    for _ in range(20):
        coeffs = rng.uniform(0.5, 2.0, len(model)) * rng.choice([-1.0, 1.0], len(model))
        values = sum(
            coef * x**p * np.log(1.0 / x) ** q for coef, (p, q) in zip(coeffs, model)
        )
        fitted = hypergeom.richardson_limit(values, hypergeom.FIT_JS, model)
        assert abs(fitted[0] - coeffs[0]) < 1e-11 * abs(coeffs[0])


def test_radial_profile_normalization_and_ode():
    profile = hypergeom.RadialProfile(2, 1, 3)
    # normalized so the boundary value is 1
    vals = [profile.value(t) for t in (0.0, 0.5, 0.9)]
    assert vals[0] < vals[1] < vals[2] < 1.0
    # h'' sums F(a+2, b+2, c+2; t), whose c - a - b is 0 for n = 3
    with pytest.warns(UserWarning, match="converges slowly"):
        for t in (0.1, 0.5, 0.9):
            assert abs(profile.ode_residual(t)) < 1e-8


def test_radial_profile_stack_equals_scalar_values():
    profile = hypergeom.RadialProfile(2, 1, 3)
    ts = np.linspace(0.0, 0.95, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in (profile.value, profile.derivative, profile.ode_residual):
            assert method(ts).tolist() == [method(t) for t in ts.tolist()]


def test_radial_profile_second_derivative_against_mpmath():
    # the second rung of the ladder, which the Dirichlet extension's exact
    # Hessian reads, against mpmath's numerical derivative of its own 2F1
    mpmath = pytest.importorskip("mpmath")
    profile = hypergeom.RadialProfile(1, 1, 3)
    ts = np.array([0.3, 0.5, 0.6561, 0.8])
    # F(a+2, b+2, c+2; t) has c - a - b = 0 on B_3
    with pytest.warns(UserWarning, match="converges slowly"):
        ladder = profile.derivative(ts, 2)
    a, b, c = profile.a, profile.b, profile.c
    with mpmath.workdps(40):
        norm = mpmath.hyp2f1(a, b, c, 1)
        expected = [
            float(mpmath.diff(lambda x: mpmath.hyp2f1(a, b, c, x), mpmath.mpf(t), 2) / norm)
            for t in ts.tolist()
        ]
    assert_allclose(ladder, expected, rtol=2e-14)


def test_radial_profile_degenerate_bidegrees_are_constant():
    profile = hypergeom.RadialProfile(0, 3, 4)
    assert profile.value(0.3) == 1.0
    assert profile.derivative(0.3) == 0.0


@pytest.mark.parametrize(
    "p,q,n,kind,exponent",
    [
        (1, 1, 3, "log-type", 2.0),
        (2, 2, 5, "log-type", 3.0),
        (1, 1, 2, "half-power", 1.5),
        (1, 1, 4, "half-power", 2.5),
        (0, 2, 3, "smooth", 0.0),
    ],
)
def test_classify_singularity(p, q, n, kind, exponent):
    sc = hypergeom.classify_singularity(p, q, n)
    assert sc.kind == kind
    assert sc.exponent == exponent
    if kind != "smooth":
        assert sc.coefficient_oracle != 0.0
        assert abs(sc.coefficient - sc.coefficient_oracle) < 1e-4 * abs(
            sc.coefficient_oracle
        )
        assert sc.holdout_error < 1e-3
        # the rejected model misses the hold-out point by more than the value
        a, b, c = p / 2.0, q / 2.0, (p + q + n + 1) / 2.0
        m = math.ceil(c - a - b)
        assert _holdout_error(a + m, b + m, c + m, _OTHER_MODEL[kind]) > 1.0


_OTHER_MODEL = {"log-type": "half-power", "half-power": "log-type"}


def _holdout_error(a, b, c, kind):
    """Relative error at HOLDOUT_J of one of blowup's two models, fitted on
    FIT_JS."""
    model = hypergeom.LOG_MODEL if kind == "log-type" else _power_model(a + b - c)
    js = (hypergeom.HOLDOUT_J, *hypergeom.FIT_JS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        held, *fitted = [hypergeom.gauss_2f1_stack(a, b, c, 1.0 - 2.0**-j) for j in js]
    coeffs = hypergeom.richardson_limit(fitted, hypergeom.FIT_JS, model)
    x = 2.0**-hypergeom.HOLDOUT_J
    predicted = sum(
        coef * x**p * math.log(1.0 / x) ** q for coef, (p, q) in zip(coeffs, model)
    )
    return abs(predicted - held) / abs(held)


@pytest.mark.parametrize(
    "mutant, records",
    [
        ("log_limit_value", {"log-limit", "singularity-coefficient"}),
        ("power_limit_value", {"singularity-coefficient"}),
        ("gauss_2f1_stack", {"log-limit", "singularity-coefficient"}),
    ],
)
def test_limit_law_records_catch_a_scaled_route(monkeypatch, mutant, records):
    # either route scaled by 1 + 1e-3 must fail the records that compare them
    exact = getattr(hypergeom, mutant)
    monkeypatch.setattr(hypergeom, mutant, lambda *args: exact(*args) * (1.0 + 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = campaigns.run_hypergeom_campaign(points=1, seed=0)
    failed = {record.name for record in report.records if not record.passed}
    assert records <= failed


def test_radial_ode_record_catches_a_series_stopped_early(monkeypatch):
    # the record draws nothing and reads 1.55e-15; a series stopped at a
    # relative term of 1e-9 reads 1.22e-9, which the old 1e-8 gate let through
    monkeypatch.setattr(hypergeom, "SERIES_RTOL", 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = campaigns.run_hypergeom_campaign(points=1, seed=0)
    (record,) = [r for r in report.records if r.name == "radial-ode"]
    assert record.passed is False
    assert record.residual_max < 1e-8


def test_classify_singularity_needs_large_enough_dimension():
    with pytest.raises(ValueError):
        hypergeom.classify_singularity(1, 1, 1)
