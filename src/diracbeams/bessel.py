"""Integer-order cylindrical Bessel functions J_n.

Every beam profile in this package reduces to J_n of a dimensionless
radius, so the evaluator is kept self-contained.  The regime depends on
the argument alone:

* x = 0: exactly delta_{n0},
* 0 < x < _TINY_X = 12 * 2^-30 (about 1.1e-8): the two-term ascending
  series (x/2)^n/n! (1 - (x/2)^2/(n+1)) in float64, which stays finite
  for subnormal x, where 2/x overflows,
* _TINY_X <= x <= 4000: Miller backward recurrence normalized with
  J_0 + 2*sum_k J_{2k} = 1, in float64: one downward sweep per fixed
  octave block of arguments (edges 12 * 2^k, from _TINY_X up) captures
  every requested order, with exact power-of-two rescaling at an interval
  bounded by the largest per-step growth,
* x > 4000 and x >= 12 n^2: the large-argument Hankel expansion, the
  only place that still uses numpy.longdouble (for its phase reduction).

The tested domain is 0 <= x <= 4000 and |n| <= 200 (MAX_ORDER), plus the
Hankel regime; x > 4000 with x < 12 n^2 raises ValueError rather than run
a recurrence whose start index grows with x.  The absolute error budget
is 1e-13; the largest error against 30-digit mpmath, over 26 orders and
1100 arguments in (12, 4000], is 5.2e-15, and over orders 0..200 and
arguments from 5e-324 to 12 it is 1.9e-16.  Negative orders reduce
exactly via J_{-n}(x) = (-1)^n J_n(x).

``counting()`` opens an opt-in tally of the work done inside it: calls,
values, argument points per regime, Miller blocks and Miller steps.  Off,
it costs one context-variable lookup per call.

All functions are pure; concurrent use is safe, and each thread or task
sees only its own tally.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from numbers import Integral

import numpy as np

# Regime boundaries.  Below _TINY_X two terms of the ascending series are
# exact to double precision; the Hankel expansion takes over only where
# the recurrence would need >~4000 steps.
_TINY_X = 12.0 * 2.0**-30
_MILLER_X_MAX = 4000.0
# Upper edges of the Miller blocks: 12 * 2^k, the last one above 4000.
_MILLER_EDGES = _TINY_X * 2.0 ** np.arange(1, 40)
_NEG_CLAMP = -1e-9

# Largest |n| inside the tested accuracy domain (see the module docstring).
MAX_ORDER = 200


_COUNTS = ContextVar("bessel_counts", default=None)


@contextmanager
def counting():
    """Tally the Bessel work done inside the block into the yielded dict.

    calls: bessel_j_orders calls; values: orders x points returned;
    zero_points, tiny_points, miller_points, hankel_points: arguments
    served by each regime; miller_blocks: downward sweeps; miller_steps:
    recurrence steps summed over the sweeps.  A nested block tallies its
    own work only, not into the enclosing one.
    """
    counts = dict.fromkeys(
        ("calls", "values", "zero_points", "tiny_points", "miller_points",
         "hankel_points", "miller_blocks", "miller_steps"), 0)
    token = _COUNTS.set(counts)
    try:
        yield counts
    finally:
        _COUNTS.reset(token)


def bessel_j(n, x):
    """J_n(x) for integer n (any sign) and real x >= 0.

    Tiny negative x from roundoff in radius computations is clamped to 0;
    anything else outside the domain raises ValueError.
    """
    out = bessel_j_orders((n,), x)[0]
    return float(out) if out.ndim == 0 else out


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
    n_max = max((abs(n) for n in orders), default=0)
    if np.any((flat > _MILLER_X_MAX) & (flat < 12.0 * n_max * n_max)):
        raise ValueError(f"J_{n_max} beyond x = {_MILLER_X_MAX:g} needs x >= "
                         f"12 n^2 = {12 * n_max * n_max}: outside the tested domain")

    counts = _COUNTS.get()
    if counts is not None:
        counts["calls"] += 1
        counts["values"] += len(orders) * flat.size
    if not orders:
        return np.empty((0,) + shape)
    ns = sorted({abs(n) for n in orders})
    values = _j_nonneg_orders(ns, flat, counts)
    out = values[[ns.index(abs(n)) for n in orders]]
    # Negative orders reduce through the reflection identity.
    out[[k for k, n in enumerate(orders) if n < 0 and n % 2]] *= -1.0
    return out.reshape((len(orders),) + shape)


def _j_nonneg_orders(ns, x, counts):
    """J_n for the sorted orders ns >= 0 over a flat float64 array.

    Returns shape (len(ns), x.size).  The Miller points share one sweep
    per fixed octave block, which captures every order in the same pass,
    so a point's value never depends on which other points share the call.
    ``counts``, a ``counting()`` dict or None, receives the regime tallies.
    """
    res = np.zeros((len(ns), x.size))
    if ns[0] == 0:
        res[0, x == 0.0] = 1.0
    tiny = (x > 0.0) & (x < _TINY_X)
    if tiny.any():
        res[:, tiny] = _tiny_series(ns, x[tiny])
    # The domain check leaves only Hankel points above _MILLER_X_MAX.
    asym = x > _MILLER_X_MAX
    if asym.any():
        for k, n in enumerate(ns):
            res[k, asym] = _hankel(n, x[asym])
    idx = np.flatnonzero((x >= _TINY_X) & ~asym)
    bins = np.searchsorted(_MILLER_EDGES, x[idx], side="left")
    for b in np.unique(bins):
        pts = idx[bins == b]
        res[:, pts] = _miller_block(ns, x[pts], counts)
    if counts is not None:
        counts["zero_points"] += int(np.count_nonzero(x == 0.0))
        counts["tiny_points"] += int(np.count_nonzero(tiny))
        counts["hankel_points"] += int(np.count_nonzero(asym))
        counts["miller_points"] += idx.size
    return res


def _tiny_series(ns, x):
    """Two-term series (x/2)^n/n! (1 - (x/2)^2/(n+1)) for 0 < x < _TINY_X.

    The first omitted term is below 1e-33 of the leading one.  Nothing
    divides by x, so subnormal arguments stay finite.
    """
    half = 0.5 * x
    q = half * half
    lead = np.ones(x.size)
    out = np.empty((len(ns), x.size))
    done = 0
    for i, n in enumerate(ns):
        for k in range(done + 1, n + 1):
            lead *= half / k
        done = n
        out[i] = lead * (1.0 - q / (n + 1))
    return out


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


def _hankel(n, x):
    """Large-argument Hankel expansion, dynamically truncated.

    Summed in numpy.longdouble (80-bit extended on x86-64), whose extra
    digits keep the reduction of the phase x - (2n+1) pi/4 modulo 2 pi
    accurate at large x.
    """
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    xl = x.astype(ld)
    mu = ld(4 * n * n)
    inv8x = ld(1) / (ld(8) * xl)
    p = np.ones_like(xl)
    q = np.zeros_like(xl)
    term = np.ones_like(xl)
    prev_mag = np.inf
    for k in range(1, 40):
        term = term * (mu - ld((2 * k - 1) ** 2)) * inv8x / ld(k)
        mag = float(np.abs(term).max())
        if mag >= prev_mag:
            break  # asymptotic tail started growing: truncate before it
        # Q takes the odd-k terms, P the even ones, each with signs +, -, ...
        sign = ld(1) if (k // 2) % 2 == 0 else ld(-1)
        if k % 2 == 1:
            q += sign * term
        else:
            p += sign * term
        if mag < 1e-22:
            break
        prev_mag = mag
    chi = np.mod(xl - ld(2 * n + 1) * pi / ld(4), ld(2) * pi)
    amp = np.sqrt(ld(2) / (pi * xl))
    return (amp * (np.cos(chi) * p - np.sin(chi) * q)).astype(float)
