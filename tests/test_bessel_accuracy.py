"""Accuracy of J_n against a 30-digit mpmath oracle over the documented
domain 0 <= x <= 4000, |n| <= 200, with an absolute budget of 1e-13.

The points cover the whole Miller range, the reach of the linear-density
grid (xi ~ 1080), arguments down to the smallest subnormal, and both
sides of every regime edge: x = _TINY_X (two-term series / Miller) and
x = 4000 (Miller / Hankel, for the orders with 12 n^2 <= 4000; for the
others the point just above 4000 lies outside the domain and must raise).
Both sides of x = 12 and x = 2 sqrt(n), the edges of the retired
longdouble series, stay covered as well.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbeams.bessel import _TINY_X, MAX_ORDER, bessel_j, bessel_j_orders

BUDGET = 1e-13
ORDERS = (0, 1, 7, 50, 120, 199, 200)
ALL_ORDERS = tuple(range(MAX_ORDER + 1))
# Floating-point trouble raises; underflow of J_n(x) ~ (x/2)^n/n! is expected.
STRICT = dict(divide="raise", over="raise", invalid="raise", under="ignore")


def j_mpmath(n, xs):
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselj(n, mpmath.mpf(float(x))))
                         for x in xs])


def _both_sides(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


def miller_range_points():
    rng = np.random.default_rng(20110502)
    return np.concatenate([
        rng.uniform(12.0, 4000.0, 24),
        np.geomspace(12.5, 3999.0, 12),
        [1080.0, 4000.0],
    ])


def small_points():
    return np.concatenate([
        np.geomspace(1e-300, 12.0, 40),
        [5e-324],
        _both_sides(_TINY_X),
        _both_sides(12.0),
    ])


def edge_points(n):
    pts = _both_sides(12.0) + _both_sides(4000.0)
    if n > 0:
        pts += _both_sides(2.0 * math.sqrt(n))
    return np.array(pts)


@pytest.mark.parametrize("n", ORDERS)
def test_miller_range_within_budget(n):
    xs = miller_range_points()
    err = np.abs(bessel_j(n, xs) - j_mpmath(n, xs))
    assert err.max() <= BUDGET, xs[err.argmax()]


@pytest.mark.parametrize("n", ORDERS)
def test_regime_edges_within_budget(n):
    xs = edge_points(n)
    inside = (xs <= 4000.0) | (xs >= 12.0 * n * n)
    err = np.abs(bessel_j(n, xs[inside]) - j_mpmath(n, xs[inside]))
    assert err.max() <= BUDGET, xs[inside][err.argmax()]
    for x in xs[~inside]:
        with pytest.raises(ValueError):
            bessel_j(n, np.array([x]))


def test_small_arguments_within_budget():
    xs = small_points()
    with np.errstate(**STRICT):
        got = bessel_j_orders(ALL_ORDERS, xs)
    assert np.all(np.isfinite(got))
    ref = np.array([j_mpmath(n, xs) for n in ALL_ORDERS])
    err = np.abs(got - ref)
    n, k = np.unravel_index(err.argmax(), err.shape)
    assert err.max() <= BUDGET, (ALL_ORDERS[n], xs[k])


def test_old_series_edges_within_budget():
    # x = 2 sqrt(n) bounded the retired series for order n; evaluate every
    # order on all these edges in one call and check each at its own edge.
    edges = [_both_sides(2.0 * math.sqrt(n)) for n in ALL_ORDERS[1:]]
    with np.errstate(**STRICT):
        got = bessel_j_orders(ALL_ORDERS[1:], np.concatenate(edges))
    for i, (n, xs) in enumerate(zip(ALL_ORDERS[1:], edges)):
        row = got[i, 3 * i:3 * i + 3]
        assert np.abs(row - j_mpmath(n, xs)).max() <= BUDGET, n


def test_zero_argument_is_exact():
    orders = range(-MAX_ORDER, MAX_ORDER + 1)
    with np.errstate(**STRICT):
        got = bessel_j_orders(orders, [0.0, -1e-300])
    delta = np.array([[float(n == 0)] * 2 for n in orders])
    assert np.array_equal(got, delta)


def test_point_alone_matches_point_on_grid():
    # The grid crosses the tiny-x cutoff and dozens of octave blocks; a
    # point's block is fixed, so its value must not depend on the others.
    xs = np.concatenate([small_points(), np.geomspace(13.0, 4000.0, 30)])
    orders = (0, 1, 7, 50, 199, 200)
    with np.errstate(**STRICT):
        grid = bessel_j_orders(orders, xs)
        for k, x in enumerate(xs):
            alone = bessel_j_orders(orders, [x])[:, 0]
            assert np.abs(alone - grid[:, k]).max() <= 1e-15, x


def test_linear_grid_reach_within_budget():
    # The shared sweep of the linear densities: three orders, dense grid.
    xs = np.linspace(1000.0, 1080.0, 9)
    got = bessel_j_orders((-1, 0, 1), xs)
    for row, n in zip(got, (-1, 0, 1)):
        assert np.abs(row - j_mpmath(n, xs)).max() <= BUDGET


def test_worst_growth_corner():
    # n = 200 just above x = 2 sqrt(n), swept together with order 0 from
    # the bottom of its octave block: the largest per-step growth of any
    # sweep in the domain.
    corner = float(np.nextafter(2.0 * math.sqrt(MAX_ORDER), np.inf))
    xs = np.array([24.000001, corner, corner * (1 + 1e-9), 28.5, 47.9])
    got = bessel_j_orders((0, MAX_ORDER), xs)
    assert np.all(np.isfinite(got))
    assert np.abs(got[0] - j_mpmath(0, xs)).max() <= BUDGET
    ref = j_mpmath(MAX_ORDER, xs[1:])
    assert np.all(np.abs(got[1, 1:] - ref) <= 1e-12 * np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(-(MAX_ORDER - 1), MAX_ORDER - 1),
    xs=st.lists(st.floats(0.0, 4000.0), min_size=1, max_size=40),
)
def test_three_orders_match_single_calls(n, xs):
    xs = np.array(xs)
    together = bessel_j_orders((n - 1, n, n + 1), xs)
    for row, k in zip(together, (n - 1, n, n + 1)):
        assert np.abs(row - bessel_j(k, xs)).max() <= 1e-15


def test_three_orders_match_single_calls_on_grid():
    xs = np.linspace(0.0, 1080.0, 2161)
    for n in (0, 1, 7, 50, 120, 199):
        together = bessel_j_orders((n - 1, n, n + 1), xs)
        for row, k in zip(together, (n - 1, n, n + 1)):
            assert np.abs(row - bessel_j(k, xs)).max() <= 1e-15
