"""Seeded request streams for the benchmark workloads.

A workload is an endless sequence of rounds, and a round is a short list of
argv lists for ``diracbeams.cli.main``.  Every round of a workload holds the
same mix of request kinds; the seed draws their parameters and their order.
A run stops only at a round boundary, so it measures the same mix whatever
the seed and however fast the program is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _num(x):
    return f"{x:.6f}"


def _deg(x):
    return f"{x:.6f}deg"


def _spin(rng):
    return "+" if rng.random() < 0.5 else "-"


def _fmt(rng):
    return "csv" if rng.random() < 0.5 else "json"


def _linear_round(rng):
    return [[
        "linear",
        "--p", _num(rng.uniform(1.0, 5.0)),
        "--theta0", _deg(rng.uniform(30.0, 80.0)),
        "--ell", str(int(rng.integers(-3, 4))),
        "--s", _spin(rng),
        "--format", "json",
    ]]


def _expect_request(rng):
    return [
        "expect",
        "--p", _num(rng.uniform(0.2, 10.0)),
        "--theta0", _deg(rng.uniform(1.0, 89.0)),
        "--ell", str(int(rng.integers(-5, 6))),
        "--s", _spin(rng),
        "--format", "json",
    ]


def _sweep_request(rng):
    p_min = rng.uniform(0.0, 2.0)
    p_points, theta0_points = (2, 4) if rng.random() < 0.5 else (4, 2)
    return [
        "sweep",
        "--ell", str(int(rng.integers(-5, 6))),
        "--s", _spin(rng),
        "--p-min", _num(p_min),
        "--p-max", _num(p_min + rng.uniform(0.5, 8.0)),
        "--p-points", str(p_points),
        "--theta0-min", _deg(rng.uniform(0.0, 30.0)),
        "--theta0-max", _deg(rng.uniform(45.0, 90.0)),
        "--theta0-points", str(theta0_points),
        "--format", _fmt(rng),
    ]


def _expect_round(rng):
    return [_expect_request(rng) for _ in range(3)] + [_sweep_request(rng)]


def _profile_request(rng, pair, fmt):
    argv = [
        "profile",
        "--p", _num(rng.uniform(0.5, 5.0)),
        "--theta0", _deg(rng.uniform(10.0, 80.0)),
        "--ell", str(int(rng.integers(-40, 41))),
        "--s", _spin(rng),
        "--points", str(int(rng.integers(400, 2001))),
        "--xi-max", _num(rng.uniform(20.0, 200.0)),
        "--format", fmt,
    ]
    return argv + ["--pair"] if pair else argv


def _profile_round(rng):
    kinds = [(pair, fmt) for pair in (False, True) for fmt in ("csv", "json")]
    return [_profile_request(rng, *kinds[i])
            for i in rng.permutation(len(kinds))]


def _validate_round(rng):
    kinds = [["validate"]] + [["validate", "--quick"]] * 3
    return [list(kinds[i]) for i in rng.permutation(len(kinds))]


@dataclass(frozen=True)
class Workload:
    make_round: object
    warmup: tuple
    ranges: dict


WORKLOADS = {
    "linear": Workload(
        make_round=_linear_round,
        warmup=(("linear", "--widths", "4,6", "--format", "json"),),
        ranges={
            "round": ("1 linear request", "each costs seconds; rounds of one "
                      "keep the stop point fine-grained"),
            "ell": ([-3, 3], "low orders; the cost is set by the width "
                    "ladder, not by ell"),
            "s": (["+", "-"], "both spin states"),
            "p": ([1.0, 5.0], "relativistic range where delta is sizable"),
            "theta0_deg": ([30.0, 80.0], "wide cones, so the spin-orbit "
                           "terms are large"),
            "widths": ("CLI default 40,60,90,135", "the published ladder; "
                       "sets the 17k-node grid and xi up to ~1080"),
        },
    ),
    "expect": Workload(
        make_round=_expect_round,
        warmup=(("expect", "--format", "json"),
                ("sweep", "--p-points", "2", "--theta0-points", "2")),
        ranges={
            "round": ("3 expect requests then 1 sweep", "every fourth "
                      "request is a small sweep grid"),
            "p": ([0.2, 10.0], "spans nonrelativistic to ultrarelativistic"),
            "theta0_deg": ([1.0, 89.0], "avoids the degenerate theta0 = 0 "
                           "loop while covering the whole cone range"),
            "ell": ([-5, 5], "sign of ell flips the caustic branch"),
            "s": (["+", "-"], "both spin states"),
            "sweep_points": (8, "2 x 4 or 4 x 2 grids of 128-node "
                             "expectation evaluations; one size keeps the "
                             "90th percentile inside one request class"),
            "format": ("expect json; sweep csv or json", "expect's numeric "
                       "columns are checked from JSON"),
        },
    ),
    "profile": Workload(
        make_round=_profile_round,
        warmup=(("profile", "--format", "csv"),
                ("profile", "--pair", "--format", "json")),
        ranges={
            "round": ("4 profile requests: single or --pair, csv or json, "
                      "seeded order", "every run holds the same mix of both "
                      "writers; --pair doubles the Bessel work and output"),
            "ell": ([-40, 40], "high orders exercise the Bessel series and "
                    "Miller start index"),
            "points": ([400, 2000], "small arrays, where per-call overhead "
                       "shows"),
            "xi_max": ([20.0, 200.0], "within the documented Bessel domain"),
            "p": ([0.5, 5.0], "moderate to relativistic momenta"),
            "theta0_deg": ([10.0, 80.0], "visible spin splitting"),
        },
    ),
    "validate": Workload(
        make_round=_validate_round,
        warmup=(("validate", "--quick"),),
        ranges={
            "round": ("1 validate + 3 validate --quick, seeded order",
                      "puts the median inside the quick class and the 90th "
                      "percentile inside the full class"),
        },
    ),
}


def rounds(workload, seed):
    """Endless generator of rounds for ``workload``, fixed by ``seed``."""
    rng = np.random.default_rng(
        [seed & (2**64 - 1), sorted(WORKLOADS).index(workload)])
    make_round = WORKLOADS[workload].make_round
    while True:
        yield make_round(rng)
