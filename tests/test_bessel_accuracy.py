"""Accuracy of J_n against a 30-digit mpmath oracle over the documented
domain 0 <= x <= 4000, |n| <= 200, with an absolute budget of 1e-13.

The points cover the whole Miller range (12, 4000], the reach of the
linear-density grid (xi ~ 1080) and both sides of every regime edge:
x = 12 (series / Miller), x^2 = 4n (series / Miller) and x = 4000 (Miller /
Hankel, for the orders with 12 n^2 <= 4000).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbeams.bessel import MAX_ORDER, bessel_j_array, bessel_j_orders

BUDGET = 1e-13
ORDERS = (0, 1, 7, 50, 120, 199, 200)


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


def edge_points(n):
    pts = _both_sides(12.0) + _both_sides(4000.0)
    if n > 0:
        pts += _both_sides(2.0 * math.sqrt(n))
    return np.array(pts)


@pytest.mark.parametrize("n", ORDERS)
def test_miller_range_within_budget(n):
    xs = miller_range_points()
    err = np.abs(bessel_j_array(n, xs) - j_mpmath(n, xs))
    assert err.max() <= BUDGET, xs[err.argmax()]


@pytest.mark.parametrize("n", ORDERS)
def test_regime_edges_within_budget(n):
    xs = edge_points(n)
    err = np.abs(bessel_j_array(n, xs) - j_mpmath(n, xs))
    assert err.max() <= BUDGET, xs[err.argmax()]


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
        assert np.abs(row - bessel_j_array(k, xs)).max() <= 1e-15


def test_three_orders_match_single_calls_on_grid():
    xs = np.linspace(0.0, 1080.0, 2161)
    for n in (0, 1, 7, 50, 120, 199):
        together = bessel_j_orders((n - 1, n, n + 1), xs)
        for row, k in zip(together, (n - 1, n, n + 1)):
            assert np.abs(row - bessel_j_array(k, xs)).max() <= 1e-15
