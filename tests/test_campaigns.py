import numpy as np
import pytest

from huacheck import campaigns, domains
from huacheck.fields import random_poly_field


class CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def _fixed_fields(shape, rng, **kwargs):
    # the per-point fields come from their own stream, so only the stacked
    # draws reach the counting generator
    return random_poly_field(shape, np.random.default_rng(0), **kwargs)


@pytest.mark.parametrize(
    "site",
    [
        campaigns.type_iv_points,
        campaigns.polarization_errors,
        campaigns.derivative_ladder_residuals,
        campaigns.rank_one_residuals,
        campaigns.symmetric_pullback_residuals,
        campaigns.corner_pullback_residuals,
        campaigns.transport_residuals,
    ],
    ids=lambda site: site.__name__,
)
def test_stacked_draws_make_the_same_calls_at_any_count(monkeypatch, site):
    monkeypatch.setattr(campaigns, "random_poly_field", _fixed_fields)
    # count 0 makes the same calls, with empty draws
    calls = []
    for count in (0, 10, 100):
        rng = CountingGenerator(3)
        site(rng, count)
        calls.append(rng.calls)
    assert calls[0] == calls[1] == calls[2]


@pytest.mark.parametrize("count", [0, 1, 500])
@pytest.mark.parametrize("n", [1, 3])
def test_units_and_radial_draws_keep_their_contract(count, n):
    rng = np.random.default_rng(count + n)
    units = domains.unit_vectors(rng, count, n)
    assert units.shape == (count, n)
    assert np.all(np.abs(np.linalg.norm(units, axis=1) - 1.0) <= 1e-15)
    points = campaigns._radial_draws(rng, count, n, 0.1, 0.7)
    assert points.shape == (count, n)
    # the radius is drawn in [0.1, 0.7); the norm of the scaled unit vector
    # carries its roundoff
    radii = np.linalg.norm(points, axis=1)
    assert np.all((radii >= 0.1 * (1 - 1e-15)) & (radii < 0.7 * (1 + 1e-15)))
