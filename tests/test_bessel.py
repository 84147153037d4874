"""Tests for the self-contained integer-order Bessel evaluator.

The primary oracle is an exact-rational ascending series (Fraction
arithmetic, so cancellation is a non-issue); scipy.special provides an
additional independent cross-check over wide grids.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from diracbeams.bessel import MAX_ORDER, bessel_j, bessel_j_orders, counting


def j_exact(n, x, digits=30):
    """J_n(x) by exact rational series; x must be a binary float."""
    q = Fraction(float(x))
    term = Fraction(1)
    for k in range(1, n + 1):
        term *= q / (2 * k)
    total = term
    q2 = q * q / 4
    cut = Fraction(1, 10 ** (digits + 10))
    k = 1
    while True:
        term *= -q2 / (k * (n + k))
        total += term
        if abs(term) < cut * max(Fraction(1), abs(total)) and k > float(x) / 2 + 2:
            return float(total)
        k += 1
        assert k < 2000, "exact series failed to terminate"


# Frozen values from the exact-rational oracle above.
J0_EXACT = {
    0.5: 0.93846980724081286,
    5.0: -0.17759677131433829,
    50.0: 0.055812327669251816,
}


def test_j0_at_zero_is_one():
    assert bessel_j(0, 0.0) == 1.0


def test_jn_at_zero_is_zero():
    for n in (1, 2, 5, -1, -4):
        assert bessel_j(n, 0.0) == 0.0


def test_negative_order_reflection_example():
    # (-1)^2 = +1, so J_{-2}(1.3) is just J_2(1.3)
    assert bessel_j(-2, 1.3) == bessel_j(2, 1.3)
    assert abs(bessel_j(2, 1.3) - j_exact(2, 1.3)) < 1e-13


@pytest.mark.parametrize("x", sorted(J0_EXACT))
def test_j0_against_frozen_exact_series(x):
    assert abs(bessel_j(0, x) - J0_EXACT[x]) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 3, 7, 15, 40])
@pytest.mark.parametrize("x", [0.25, 1.0, 4.0, 9.5, 17.0, 26.0])
def test_against_exact_rational_series(n, x):
    assert abs(bessel_j(n, x) - j_exact(n, x)) <= 1e-12


def test_reflection_identity_is_exact():
    xs = np.array([0.0, 0.3, 1.7, 8.0, 33.0, 210.0])
    for n in range(1, 25):
        lhs = bessel_j(-n, xs)
        rhs = (-1.0) ** n * bessel_j(n, xs)
        assert np.array_equal(lhs, rhs)


def test_recurrence_residual():
    xs = np.linspace(0.1, 100.0, 97)
    worst = 0.0
    for n in range(-50, 51, 7):
        jm, jc, jp = bessel_j_orders((n - 1, n, n + 1), xs)
        worst = max(worst, np.abs(jm + jp - (2.0 * n / xs) * jc).max())
    assert worst <= 1e-10


@pytest.mark.parametrize("x", [0.7, 3.0, 11.0, 30.0, 75.0])
def test_normalization_sum(x):
    total = bessel_j(0, x) ** 2 + 2.0 * sum(
        bessel_j(n, x) ** 2 for n in range(1, int(x) + 60)
    )
    assert abs(total - 1.0) <= 1e-10


def test_scipy_cross_check_wide_grid():
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        np.linspace(0.0, 30.0, 61),
        rng.uniform(30.0, 1000.0, 120),
    ])
    for n in (0, 1, 2, 5, 17, 60, 121, 200):
        mine = bessel_j(n, xs)
        ref = special.jv(n, xs)
        tol = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(mine - ref) <= tol), f"order {n}"


def test_large_argument_branch():
    # Far outside the recurrence range: Hankel expansion takes over.
    for n in (0, 2, 5):
        for x in (50_000.0, 1e5):
            assert abs(bessel_j(n, x) - special.jv(n, x)) < 1e-12


def test_roundoff_negative_clamped_to_zero():
    assert bessel_j(0, -1e-300) == 1.0
    assert bessel_j(3, -1e-300) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(0, np.nan)
    with pytest.raises(ValueError):
        bessel_j(0, np.inf)
    with pytest.raises(ValueError):
        bessel_j(1.5, 1.0)
    # x > 4000 with x < 12 n^2 would need a recurrence whose start index
    # grows with x (~0.24 s for this point): rejected before any work.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="tested domain"):
        bessel_j(199, 3e4)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("n", [MAX_ORDER + 1, -(MAX_ORDER + 1), 200000])
def test_order_above_max_order_rejected_at_once(n):
    # The Miller start index grows with n: J_200000(1) once took 1.4 s.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=rf"\|n\| <= {MAX_ORDER}"):
        bessel_j_orders((0, n), [1.0, 5.0])
    assert time.perf_counter() - t0 < 0.1


def test_order_at_max_order_still_served():
    xs = np.array([150.0, 300.0])
    j = bessel_j_orders((MAX_ORDER, -MAX_ORDER), xs)
    assert np.array_equal(j[0], j[1])
    assert np.abs(j[0] - special.jv(MAX_ORDER, xs)).max() < 1e-13


def test_array_shapes_preserved():
    x = np.linspace(0.0, 5.0, 12).reshape(3, 4)
    out = bessel_j(2, x)
    assert out.shape == (3, 4)
    stacked = bessel_j_orders((0, 1, 2), x)
    assert stacked.shape == (3, 3, 4)
    assert np.allclose(stacked[2], out)


def test_counting_tallies_regimes_blocks_and_steps():
    x = np.array([0.0, 1e-10, 0.5, 5.0, 6.0, 5000.0])
    with counting() as counts:
        bessel_j_orders((0, -1, 3), x)
        bessel_j(2, 5.0)
    assert counts["calls"] == 2 and counts["values"] == 3 * 6 + 1
    assert (counts["zero_points"], counts["tiny_points"],
            counts["miller_points"], counts["hankel_points"]) == (1, 1, 4, 1)
    # 0.5 and 5, 6 fall in two octave blocks; the scalar call in a third
    assert counts["miller_blocks"] == 3
    # One sweep per call from its highest block start,
    # int(max(3, xmax) + 16 xmax^(1/3) + 22): 57 for the block of 5, 6
    # (the block of 0.5 joins at 37), then 54 for the scalar call.
    assert counts["miller_steps"] == 57 + 54


def test_counting_is_off_outside_and_scoped_when_nested():
    with counting() as outer:
        bessel_j(1, 2.0)
        with counting() as inner:
            bessel_j_orders((0, 1), [1.0, 2.0])
        bessel_j(1, 2.0)
    bessel_j(1, 2.0)
    assert (outer["calls"], inner["calls"]) == (2, 1)
    assert inner["values"] == 4 and outer["values"] == 2
