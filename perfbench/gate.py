"""Per-request correctness gate, run outside the timed region.

Every reference here is recomputed from the request's own argv with the
README formulas, or with ``scipy.special.jv``; nothing calls into
``diracbeams``.  ``check(argv, rc, out)`` returns ``None`` for a correct
output and a one-line reason otherwise.  The diagnostics at the end are
reported by the traced run and never gate.
"""

from __future__ import annotations

import inspect
import json
import math

import numpy as np

# README: in-house J_n holds absolute error below 1e-13 for x <= 1e3.
# A profile column is a product of two J values of modulus <= 1 times a
# coefficient <= 1, so its error budget is 2 * eps + eps**2, plus rounding.
BESSEL_BUDGET = 1e-13
PROFILE_TOL = 2.0 * BESSEL_BUDGET + 1e-15
CLOSED_TOL = 1e-12          # closed forms recomputed in another order
NUMERIC_TOL = 1e-10         # validation suite: expectations_numeric_vs_closed
BERRY_TOL = 1e-8            # validation suite: berry_phase_loop
LINEAR_OAM_TOL = 1e-3       # validation suite: linear_oam_density
LINEAR_SUM_TOL = 1e-12      # validation suite: linear_am_sum

# The check names `validate --quick` and `validate` report at the commit
# that introduced this benchmark.
QUICK_CHECKS = [
    "bessel_reflection", "bessel_recurrence", "bessel_normalization_sum",
    "clifford_relations", "plane_wave_eigenvector", "current_bound",
    "field_closed_vs_quadrature", "density_profile_vs_field",
    "current_profile_vs_field", "radial_current_zero", "symmetry_ell_s_flip",
    "spin_splitting_at_peak", "total_am_eigenstate",
    "paraxial_lz_sz_eigenstate", "density_z_t_invariance", "fw_unitarity",
    "fw_diagonalization", "fw_plane_wave_rotation", "berry_connection_oracle",
    "berry_curvature_oracle", "soi_operator_two_forms",
    "expectations_numeric_vs_closed", "am_conservation", "berry_phase_loop",
    "moment_decomposition",
]
FULL_CHECKS = QUICK_CHECKS + [
    "linear_oam_density", "linear_am_sum", "linear_radial_convergence",
    "linear_moment_reported",
]

_SWITCHES = ("--pair", "--quick")


class GateError(Exception):
    pass


def flags(argv):
    """Map ``--name value`` pairs (and bare switches) of an argv list."""
    out = {}
    rest = list(argv[1:])
    while rest:
        key = rest.pop(0)
        out[key] = True if key in _SWITCHES else rest.pop(0)
    return out


def parse_angle(text):
    """Angles as the workloads write them, in degrees with a "deg" suffix."""
    return math.radians(float(text.removesuffix("deg")))


def parse_spin(text):
    return {"+": 0.5, "-": -0.5}[text]


def beam(p, theta0, ell, s):
    """Closed-form beam quantities from the README, mass 1."""
    energy = math.sqrt(p * p + 1.0)
    delta = (1.0 - 1.0 / energy) * math.sin(theta0) ** 2
    return {
        "ell": ell, "s": s, "energy": energy, "delta": delta,
        "p_par": p * math.cos(theta0), "p_perp": p * math.sin(theta0),
        "L_z": ell + delta * s, "S_z": s - delta * s,
        "M_z": ell + 2.0 * s - delta * s,
        "berry_phase": 2.0 * math.pi * delta * s,
        "caustic_k_perp_R": ell + delta * s,
    }


def _beam_from_flags(f, s=None):
    return beam(float(f["--p"]), parse_angle(f["--theta0"]), int(f["--ell"]),
                parse_spin(f["--s"]) if s is None else s)


def _near(name, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - want)))
    if not err <= tol:
        raise GateError(f"{name}: error {err:.3e} > {tol:.0e}")


def parse_csv(text):
    """(header, rows array) of a diracbeams CSV document."""
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = body[0].split(",")
    flat = ",".join(body[1:]).split(",") if len(body) > 1 else []
    rows = np.array(flat, dtype=float).reshape(len(body) - 1, len(header))
    return header, rows


def _columns(text, fmt):
    """Output columns by name, for the csv and json writers alike."""
    if fmt == "csv":
        header, rows = parse_csv(text)
        return {h: rows[:, k] for k, h in enumerate(header)}
    return {k: np.asarray(v, dtype=float)
            for k, v in json.loads(text)["results"].items()}


def _check_profile(f, out):
    from scipy.special import jv

    xi_max, points = float(f["--xi-max"]), int(f["--points"])
    cols = _columns(out, f.get("--format", "csv"))
    xi = cols["xi"]
    if xi.shape != (points,):
        raise GateError(f"profile: {xi.shape} rows, want {points}")
    _near("xi", xi, np.linspace(0.0, xi_max, points), 1e-12 * xi_max)
    states = ((0.5, "_plus"), (-0.5, "_minus")) if "--pair" in f else (
        (parse_spin(f["--s"]), ""),)
    for s, suffix in states:
        b = _beam_from_flags(f, s)
        ell, d = b["ell"], b["delta"]
        j_l, j_p = jv(ell, xi), jv(ell + int(round(2 * s)), xi)
        refs = {
            "rho": (1.0 - d / 2.0) * j_l**2 + (d / 2.0) * j_p**2,
            "j_z": (b["p_par"] / b["energy"]) * j_l**2,
            "j_phi": (b["p_perp"] / b["energy"]) * j_l * j_p,
        }
        for name, ref in refs.items():
            _near(name + suffix, cols[name + suffix], ref, PROFILE_TOL)


def _check_expect(f, out):
    doc = json.loads(out)
    params, res = doc["params"], doc["results"]
    b = _beam_from_flags(f)
    for key in ("energy", "delta"):
        _near(key, params[key], b[key], CLOSED_TOL)
    for key in ("L_z", "S_z", "M_z", "berry_phase", "caustic_k_perp_R"):
        _near(key, res[key], b[key], CLOSED_TOL)
    if res["caustic_physical"] is not (b["caustic_k_perp_R"] > 0.0):
        raise GateError("caustic_physical disagrees with the caustic sign")
    for key in ("L_z", "S_z", "M_z", "caustic_k_perp_R"):
        _near(key + "_numeric", res[key + "_numeric"], b[key], NUMERIC_TOL)
    _near("berry_phase_numeric", res["berry_phase_numeric"],
          b["berry_phase"], BERRY_TOL)
    for key in ("L_z", "S_z", "M_z", "berry_phase"):
        _near(key + "_delta", res[key + "_delta"],
              res[key] - res[key + "_numeric"], CLOSED_TOL)
    _near("P_z", res["P_z"], b["p_par"], CLOSED_TOL * (1.0 + b["p_par"]))
    _near("R_perp", res["R_perp"], 0.0, CLOSED_TOL)


def _check_sweep(f, out):
    fmt = f.get("--format", "csv")
    if fmt == "csv":
        header, rows = parse_csv(out)
    else:
        res = json.loads(out)["results"]
        header, rows = res["columns"], np.asarray(res["rows"], dtype=float)
    ps = np.linspace(float(f["--p-min"]), float(f["--p-max"]),
                     int(f["--p-points"]))
    thetas = np.linspace(parse_angle(f["--theta0-min"]),
                         parse_angle(f["--theta0-max"]),
                         int(f["--theta0-points"]))
    if rows.shape != (ps.size * thetas.size, len(header)):
        raise GateError(f"sweep: table shape {rows.shape}")
    col = {h: rows[:, k] for k, h in enumerate(header)}
    s = parse_spin(f["--s"])
    want = [beam(p, th, int(f["--ell"]), s) for p in ps for th in thetas]
    _near("p_over_m", col["p_over_m"], np.repeat(ps, thetas.size), CLOSED_TOL)
    _near("theta0", col["theta0"], np.tile(thetas, ps.size), CLOSED_TOL)
    for key in ("ell", "s", "delta", "L_z", "S_z", "M_z", "berry_phase",
                "caustic_k_perp_R"):
        _near(key, col[key], [w[key] for w in want], CLOSED_TOL)


def _check_linear(f, out):
    res = json.loads(out)["results"]
    b = _beam_from_flags(f)
    _near("L_z_bar", res["L_z_bar"], b["L_z"], LINEAR_OAM_TOL)
    _near("L_z_bar + S_z_bar", res["L_z_bar"] + res["S_z_bar"],
          b["ell"] + b["s"], LINEAR_SUM_TOL)


def _check_validate(f, out):
    doc = json.loads(out)
    if doc["results"]["passed"] is not True:
        raise GateError("validate: passed is not true")
    names = [c["name"] for c in doc["checks"]]
    if names != (QUICK_CHECKS if "--quick" in f else FULL_CHECKS):
        raise GateError(f"validate: check names changed: {names}")


_CHECKS = {
    "profile": _check_profile,
    "expect": _check_expect,
    "sweep": _check_sweep,
    "linear": _check_linear,
    "validate": _check_validate,
}


def check(argv, rc, out):
    """None if the output of ``cli.main(argv)`` is correct, else a reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        _CHECKS[argv[0]](flags(argv), out)
    except GateError as exc:
        return str(exc)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
    return None


# Diagnostics: reported by the traced run, never gating.

def bessel_abs_err(fn, args, kwargs, out):
    """Max |J_n(x) - scipy jv(n, x)| over one captured bessel_j_orders call."""
    from scipy.special import jv

    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    x = np.asarray(bound["x"], dtype=float)
    ref = np.array([jv(n, x) for n in bound["orders"]])
    return float(np.max(np.abs(out - ref), initial=0.0))


def err_bar_ratio(cfg, report):
    """Worse of |extrapolated - exact limit| / reported error for the linear
    OAM density (limit ell + delta*s) and moment density (limit ell + s,
    the README's limit of the enveloped field's moment integral)."""
    b = beam(cfg.p, cfg.theta0, cfg.ell, cfg.s)
    return max(abs(report.l_z - b["L_z"]) / report.l_z_error,
               abs(report.m_z - (b["ell"] + b["s"])) / report.m_z_error)
