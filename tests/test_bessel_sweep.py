"""The single Miller sweep against a sweep per octave block.

``_miller_block`` below is the earlier production loop, one float64
downward recurrence per fixed octave block, kept verbatim as a test-only
oracle.  The single sweep lets each block join at its own start index and
rescales each block at its own steps by the same powers of two, so every
value it returns must equal the per-block value bit for bit, on the grids
the package evaluates and on random ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbeams.bessel import (
    _MILLER_EDGES,
    _MILLER_X_MAX,
    _TINY_X,
    MAX_ORDER,
    bessel_j_orders,
)


def _miller_block(orders, x, counts):
    """One float64 downward recurrence over an argument block, capturing
    every order in `orders` (each >= 0) in the same pass; tallied into
    ``counts`` unless it is None.

    The starting index sits ~16*x^(1/3) above max(orders, x), where J_M
    has decayed below ~1e-26 of the oscillation amplitude, so the
    truncation is invisible at double precision.  The sum closes with
    J_0 + 2*sum_k J_{2k} = 1.

    Overflow is bounded rather than tested for on every step: one step
    grows max(|J_m|, |J_{m+1}|) by at most G = 2*start/min(x) + 1, so
    the points above `limit` are rescaled every `every` ~ 150/log10(G)
    steps, with limit * G**every * (2*start + 2) = 1e300 bounding the
    values, the captured orders and the normalization sum in between.  A
    rescale multiplies by a power of two and so rounds nothing.
    """
    start = int(max(max(orders), float(x.max()))
                + 16.0 * float(x.max()) ** (1.0 / 3.0) + 22.0)
    if counts is not None:
        counts["miller_blocks"] += 1
        counts["miller_steps"] += start
    log_growth = np.log10(2.0 * start / float(x.min()) + 1.0)
    log_terms = np.log10(2.0 * start + 2.0)
    every = max(1, int(150.0 / log_growth))
    limit = 10.0 ** (300.0 - every * log_growth - log_terms)

    two_inv_x = 2.0 / x
    jp = np.zeros(x.size)           # J_{m+1}, scaled
    jc = np.ones(x.size)            # J_m, scaled
    jm = np.empty(x.size)
    evens = np.zeros(x.size)        # sum_k J_{2k}, k >= 1, scaled
    captured = {n: np.zeros(x.size) for n in orders}

    for m in range(start, 0, -1):
        np.multiply(two_inv_x, m, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, jm = jc, jm, jp
        i = m - 1
        if i in captured:
            captured[i][:] = jc
        if i > 0 and i % 2 == 0:
            evens += jc
        if m % every == 0:
            peak = np.maximum(np.abs(jc), np.abs(jp))
            big = peak > limit
            if big.any():
                scale = np.where(big, np.ldexp(1.0, -np.frexp(peak)[1]), 1.0)
                jp *= scale
                jc *= scale
                evens *= scale
                for arr in captured.values():
                    arr *= scale
    norm = jc + 2.0 * evens
    return [captured[n] / norm for n in orders]


def per_block(orders, x):
    """Miller points of x and J_n there for each order, one block at a time.

    Returns (indices into x, array of shape (len(orders), len(indices))),
    with the negative orders reflected as bessel_j_orders reflects them.
    """
    ns = sorted({abs(n) for n in orders})
    pts = np.flatnonzero((x >= _TINY_X) & (x <= _MILLER_X_MAX))
    vals = np.empty((len(ns), pts.size))
    bins = np.searchsorted(_MILLER_EDGES, x[pts], side="left")
    for b in np.unique(bins):
        sel = bins == b
        vals[:, sel] = _miller_block(ns, x[pts][sel], None)
    out = vals[[ns.index(abs(n)) for n in orders]]
    out[[k for k, n in enumerate(orders) if n < 0 and n % 2]] *= -1.0
    return pts, out


def assert_matches_per_block(orders, x):
    x = np.asarray(x, dtype=float)
    pts, ref = per_block(orders, x)
    got = bessel_j_orders(orders, x)
    assert np.array_equal(got[:, pts], ref)


def test_linear_grid():
    # The Simpson grid of the widest default linear width, a = 135.
    assert_matches_per_block((0, 1, 2), np.linspace(0.0, 8.0 * 135.0, 17281))


def test_profile_pair_grid():
    # A `profile --pair` grid at ell = +-40: orders ell - 1 .. ell + 1.
    xs = np.linspace(0.0, 200.0, 2000)
    assert_matches_per_block((39, 40, 41), xs)
    assert_matches_per_block((-41, -40, -39), xs)


def test_validation_identity_grids():
    # The three grids of validation._bessel_identities.
    xs = np.array([0.1, 0.5, 1.3, 5.0, 17.0, 40.0, 100.0])
    assert_matches_per_block(np.arange(-50, 51, 10).tolist(), xs)
    ns = np.arange(-50, 51, 5)
    for k in (-1, 0, 1):
        assert_matches_per_block((ns + k).tolist(), xs)
    assert_matches_per_block(list(range(90)), np.array([0.7, 3.0, 11.0, 30.0]))


def test_all_orders_over_the_miller_range():
    xs = np.concatenate([np.geomspace(1e-300, 12.0, 300),
                         np.linspace(12.0, 4000.0, 300)])
    assert_matches_per_block(tuple(range(MAX_ORDER + 1)), xs)


@settings(max_examples=60, deadline=None)
@given(
    orders=st.lists(st.integers(-MAX_ORDER, MAX_ORDER), min_size=1, max_size=5),
    xs=st.lists(st.floats(0.0, _MILLER_X_MAX), min_size=1, max_size=60),
)
def test_random_grids_match_per_block(orders, xs):
    assert_matches_per_block(orders, xs)
