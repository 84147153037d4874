"""Command-line interface: profiles, expectation tables, validation, sweeps.

Subcommands
-----------
profile   radial density/current profile (optionally both spin states)
expect    expectation table, closed form next to the numeric path
validate  run the self-validation suite, exit 0/2 on pass/fail
sweep     expectation surfaces over a (p/m, theta0) grid
linear    Gaussian-regularized per-unit-length densities

Units at the boundary: momenta as p/m, angles accept a "deg" or "rad"
suffix (bare numbers are radians).  CSV output carries '#'-prefixed
metadata lines; JSON output is an object with "params", "results" and,
for validate, "checks", laid out as ``json.dumps(doc, indent=2)`` would.
CSV numbers carry 17 significant digits and JSON numbers are repr, so a
round trip reproduces them bit-exactly.  The output format is the same
byte for byte as that of the per-value writers it replaced; both writers
format a whole document in a few C-level calls: one %-format per CSV
table, the C JSON encoder for every innermost list or object.  The
argument parser is built once, at import, and shared by every ``main``
call.

Exit codes: 0 success, 1 parameter error, 2 validation failure, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .beams import BeamConfig, density_profile, spin_pair_profiles
from .foldy import beam_expectations, caustic_radius, magnetic_moment
from .linear_density import ExtrapolationError, linear_expectations
from .validation import main_run


class ParameterError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def parse_angle(text):
    """Angle with optional deg/rad suffix; bare values are radians."""
    t = str(text).strip().lower()
    try:
        if t.endswith("deg"):
            return float(t[:-3]) * np.pi / 180.0
        if t.endswith("rad"):
            return float(t[:-3])
        return float(t)
    except ValueError:
        raise ParameterError(f"could not parse angle {text!r}") from None


def parse_spin(text):
    t = str(text).strip()
    table = {"+": 0.5, "-": -0.5, "0.5": 0.5, "+0.5": 0.5, "-0.5": -0.5}
    if t in table:
        return table[t]
    raise ParameterError(f"spin must be one of +, -, 0.5, -0.5; got {text!r}")


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _csv_text(params, header, rows):
    """Metadata, header and one line per row, each value as "%.17g".

    ``rows`` is a 2-D numpy array or a list of equal-length rows.
    """
    lines = [f"# diracbeams {__version__}"]
    lines.append("# units: hbar = c = mass = 1; momenta in units of m; "
                 "angles in radians")
    for key, val in params.items():
        lines.append(f"# {key} = {val}")
    lines.append(",".join(header))
    if isinstance(rows, np.ndarray):
        n_rows, n_cols = rows.shape
        values = rows.ravel().tolist()
    else:
        n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
        values = [v for row in rows for v in row]
    if n_rows:
        row_fmt = ",".join(["%.17g"] * n_cols)
        lines.append("\n".join([row_fmt] * n_rows) % tuple(values))
    return "\n".join(lines) + "\n"


def _json_value(obj, level=0):
    """``json.dumps(obj, indent=2)``, byte for byte, for str-keyed objects.

    The pure-Python encoder serves any indent; here each innermost list or
    object goes to the C encoder instead, with the newline and indent of
    its level as the item separator.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    kinds = set(map(type, obj.values() if isinstance(obj, dict) else obj))
    if not any(issubclass(t, (dict, list, tuple)) for t in kinds):
        flat = json.dumps(obj, separators=("," + inner, ": "))
        return flat[0] + inner + flat[1:-1] + close + flat[-1]
    if isinstance(obj, dict):
        parts = [json.dumps(k) + ": " + _json_value(v, level + 1)
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(parts) + close + "}"
    parts = [_json_value(v, level + 1) for v in obj]
    return "[" + inner + ("," + inner).join(parts) + close + "]"


def _json_text(params, results, checks=None):
    doc = {"params": params, "results": results}
    if checks is not None:
        doc["checks"] = checks
    return _json_value(doc) + "\n"


def _parse_flag(flag, parser_fn, value):
    try:
        return parser_fn(value)
    except ParameterError as exc:
        raise ParameterError(f"{flag}: {exc}") from None


def _beam_config(p, theta0, ell, s):
    try:
        return BeamConfig(p=p, theta0=theta0, ell=ell, s=s)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def _config_from_args(args):
    theta0 = _parse_flag("--theta0", parse_angle, args.theta0)
    s = _parse_flag("--s", parse_spin, args.s)
    return _beam_config(args.p, theta0, args.ell, s)


def _beam_params(cfg):
    return {
        "p_over_m": cfg.p,
        "theta0": cfg.theta0,
        "ell": cfg.ell,
        "s": cfg.s,
        "energy": cfg.energy,
        "delta": cfg.delta,
    }


def _require_finite(flag, value):
    if not math.isfinite(value):
        raise ParameterError(f"{flag} must be finite, got {value}")


def cmd_profile(args):
    cfg = _config_from_args(args)
    if args.points < 2:
        raise ParameterError("--points must be >= 2")
    _require_finite("--xi-max", args.xi_max)
    if args.xi_max <= 0.0:
        raise ParameterError("--xi-max must be > 0")
    xi = np.linspace(0.0, args.xi_max, args.points)
    params = _beam_params(cfg)
    params.update({"xi_max": args.xi_max, "points": args.points,
                   "pair": bool(args.pair)})
    try:
        if args.pair:
            up, dn = spin_pair_profiles(cfg, xi)
            columns = {"xi": xi,
                       "rho_plus": up.rho, "j_z_plus": up.j_z,
                       "j_phi_plus": up.j_phi,
                       "rho_minus": dn.rho, "j_z_minus": dn.j_z,
                       "j_phi_minus": dn.j_phi}
        else:
            prof = density_profile(cfg, xi)
            columns = {"xi": xi, "rho": prof.rho, "j_z": prof.j_z,
                       "j_phi": prof.j_phi}
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc
    if args.format == "csv":
        rows = np.column_stack(list(columns.values()))
        _write_text(args.out, _csv_text(params, list(columns), rows))
    else:
        results = {k: v.tolist() for k, v in columns.items()}
        _write_text(args.out, _json_text(params, results))
    return 0


def _expect_results(cfg):
    rep = beam_expectations(cfg)
    return {
        "L_z": rep.l_z, "L_z_numeric": rep.l_z_numeric,
        "L_z_delta": rep.l_z - rep.l_z_numeric,
        "S_z": rep.s_z, "S_z_numeric": rep.s_z_numeric,
        "S_z_delta": rep.s_z - rep.s_z_numeric,
        "M_z": rep.m_z, "M_z_numeric": rep.m_z_numeric,
        "M_z_delta": rep.m_z - rep.m_z_numeric,
        "berry_phase": rep.berry_phase,
        "berry_phase_numeric": rep.berry_phase_numeric,
        "berry_phase_delta": rep.berry_phase - rep.berry_phase_numeric,
        "caustic_k_perp_R": rep.caustic_radius,
        "caustic_k_perp_R_numeric": rep.l_z_numeric,
        "caustic_physical": rep.caustic_physical,
        "P_z": rep.p_z_numeric,
        "R_perp": rep.r_perp_numeric,
    }


def cmd_expect(args):
    cfg = _config_from_args(args)
    params = _beam_params(cfg)
    results = _expect_results(cfg)
    if args.format == "csv":
        keys = [k for k in results if not isinstance(results[k], bool)]
        rows = [[results[k] for k in keys]]
        _write_text(args.out, _csv_text(params, keys, rows))
    else:
        _write_text(args.out, _json_text(params, results))
    return 0


def cmd_validate(args):
    report, ok = main_run(quick=args.quick, soi_fault=args.inject_fault)
    params = {"quick": bool(args.quick), "inject_fault": args.inject_fault}
    results = {"passed": ok, "elapsed_seconds": report["elapsed_seconds"]}
    _write_text(args.out, _json_text(params, results,
                                     checks=report["checks"]))
    return 0 if ok else 2


def cmd_sweep(args):
    theta_lo = _parse_flag("--theta0-min", parse_angle, args.theta0_min)
    theta_hi = _parse_flag("--theta0-max", parse_angle, args.theta0_max)
    s = _parse_flag("--s", parse_spin, args.s)
    _require_finite("--p-min", args.p_min)
    _require_finite("--p-max", args.p_max)
    if args.p_min < 0 or args.p_max < args.p_min:
        raise ParameterError("need 0 <= p-min <= p-max")
    if not (0.0 <= theta_lo <= theta_hi <= np.pi / 2 + 1e-15):
        raise ParameterError("need 0 <= theta0-min <= theta0-max <= pi/2")
    if args.p_points < 1 or args.theta0_points < 1:
        raise ParameterError("sweep point counts must be >= 1")
    ps = np.linspace(args.p_min, args.p_max, args.p_points)
    thetas = np.linspace(theta_lo, theta_hi, args.theta0_points)
    header = ["p_over_m", "theta0", "ell", "s", "delta", "L_z", "S_z",
              "M_z", "berry_phase", "caustic_k_perp_R"]
    rows = []
    for p in ps:
        for th in thetas:
            cfg = _beam_config(float(p), float(th), args.ell, s)
            d = cfg.delta
            rows.append([cfg.p, cfg.theta0, cfg.ell, cfg.s, d,
                         cfg.ell + d * cfg.s, cfg.s - d * cfg.s,
                         magnetic_moment(cfg), 2.0 * np.pi * d * cfg.s,
                         caustic_radius(cfg)])
    params = {
        "ell": args.ell, "s": s,
        "p_min": args.p_min, "p_max": args.p_max, "p_points": args.p_points,
        "theta0_min": theta_lo, "theta0_max": theta_hi,
        "theta0_points": args.theta0_points,
    }
    if args.format == "csv":
        _write_text(args.out, _csv_text(params, header, rows))
    else:
        results = {"columns": header, "rows": rows}
        _write_text(args.out, _json_text(params, results))
    return 0


def cmd_linear(args):
    cfg = _config_from_args(args)
    try:
        widths = tuple(float(w) for w in args.widths.split(","))
    except ValueError:
        raise ParameterError(f"could not parse --widths {args.widths!r}") from None
    for w in widths:
        _require_finite("--widths", w)
    try:
        rep = linear_expectations(cfg, widths=widths,
                                  radial_nodes=args.radial_nodes)
    except (ValueError, ExtrapolationError) as exc:
        raise ParameterError(str(exc)) from exc
    params = _beam_params(cfg)
    params.update({"widths": list(widths), "radial_nodes": args.radial_nodes})
    results = {
        "L_z_bar": rep.l_z, "L_z_bar_error": rep.l_z_error,
        "S_z_bar": rep.s_z, "S_z_bar_error": rep.s_z_error,
        "M_z_bar": rep.m_z, "M_z_bar_error": rep.m_z_error,
        "L_z_bar_samples": rep.l_z_samples.tolist(),
        "S_z_bar_samples": rep.s_z_samples.tolist(),
        "M_z_bar_samples": rep.m_z_samples.tolist(),
        "M_z_bar_comparison": rep.m_z_comparison,
    }
    if args.format == "csv":
        header = ["a", "L_z_bar", "S_z_bar", "M_z_bar"]
        rows = np.column_stack([rep.widths, rep.l_z_samples,
                                rep.s_z_samples, rep.m_z_samples])
        params.update({
            "L_z_bar_extrapolated": "%.17g" % rep.l_z,
            "S_z_bar_extrapolated": "%.17g" % rep.s_z,
            "M_z_bar_extrapolated": "%.17g" % rep.m_z,
        })
        _write_text(args.out, _csv_text(params, header, rows))
    else:
        _write_text(args.out, _json_text(params, results))
    return 0


def _add_beam_flags(sub, spin_default="+"):
    sub.add_argument("--p", type=float, default=2.4,
                     help="momentum magnitude p/m (default 2.4)")
    sub.add_argument("--theta0", default="45deg",
                     help="cone angle, e.g. 45deg or 0.7854rad (default 45deg)")
    sub.add_argument("--ell", type=int, default=1,
                     help="vortex winding number (default 1)")
    sub.add_argument("--s", default=spin_default,
                     help="spin index: +, -, 0.5 or -0.5")


def _add_out_flags(sub):
    sub.add_argument("--out", default="-",
                     help="output path, or - for stdout (default)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    parser = _Parser(prog="diracbeams",
                     description="Relativistic electron vortex (Bessel) beams "
                                 "of the free Dirac equation")
    parser.add_argument("--version", action="version",
                        version=f"diracbeams {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("profile", help="radial density/current profile")
    _add_beam_flags(p)
    p.add_argument("--xi-max", dest="xi_max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--pair", action="store_true",
                   help="emit both spin states for split-profile comparison")
    _add_out_flags(p)
    p.set_defaults(func=cmd_profile)

    p = subs.add_parser("expect", help="expectation-value table")
    _add_beam_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_expect)

    p = subs.add_parser("validate", help="run the self-validation suite")
    p.add_argument("--quick", action="store_true",
                   help="subset that finishes in a few seconds")
    p.add_argument("--inject-fault", dest="inject_fault", type=float,
                   default=1.0,
                   help="debug: scale the closed-form spin-orbit amplitude "
                        "to prove the oracle check catches inconsistencies")
    _add_out_flags(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("sweep", help="expectation surfaces over (p/m, theta0)")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--s", default="+")
    p.add_argument("--p-min", dest="p_min", type=float, default=0.0)
    p.add_argument("--p-max", dest="p_max", type=float, default=10.0)
    p.add_argument("--p-points", dest="p_points", type=int, default=11)
    p.add_argument("--theta0-min", dest="theta0_min", default="0")
    p.add_argument("--theta0-max", dest="theta0_max", default="90deg")
    p.add_argument("--theta0-points", dest="theta0_points", type=int, default=10)
    _add_out_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("linear", help="per-unit-length densities "
                                       "(Gaussian-regularized)")
    _add_beam_flags(p)
    p.add_argument("--widths", default="40,60,90,135",
                   help="comma-separated Gaussian xi-widths")
    p.add_argument("--radial-nodes", dest="radial_nodes", type=int,
                   default=4000)
    _add_out_flags(p)
    p.set_defaults(func=cmd_linear)
    return parser


_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
