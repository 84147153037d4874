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
for validate, "checks".  Numbers are written with 17 significant digits
so a round trip reproduces them bit-exactly.

Exit codes: 0 success, 1 parameter error, 2 validation failure, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .beams import BeamConfig, density_profile
from .foldy import beam_expectations
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


def _fmt(x):
    return f"{x:.17g}"


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
    lines = [f"# diracbeams {__version__}"]
    lines.append("# units: hbar = c = mass = 1; momenta in units of m; "
                 "angles in radians")
    for key, val in params.items():
        lines.append(f"# {key} = {val}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(params, results, checks=None):
    doc = {"params": params, "results": results}
    if checks is not None:
        doc["checks"] = checks
    return json.dumps(doc, indent=2) + "\n"


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


def cmd_profile(args):
    cfg = _config_from_args(args)
    if args.points < 2:
        raise ParameterError("--points must be >= 2")
    if args.xi_max <= 0.0:
        raise ParameterError("--xi-max must be > 0")
    xi = np.linspace(0.0, args.xi_max, args.points)
    params = _beam_params(cfg)
    params.update({"xi_max": args.xi_max, "points": args.points,
                   "pair": bool(args.pair)})
    if args.pair:
        up = density_profile(BeamConfig(cfg.p, cfg.theta0, cfg.ell, +0.5), xi)
        dn = density_profile(BeamConfig(cfg.p, cfg.theta0, cfg.ell, -0.5), xi)
        header = ["xi", "rho_plus", "j_z_plus", "j_phi_plus",
                  "rho_minus", "j_z_minus", "j_phi_minus"]
        rows = np.column_stack([xi, up.rho, up.j_z, up.j_phi,
                                dn.rho, dn.j_z, dn.j_phi])
        results = {
            "xi": xi.tolist(),
            "rho_plus": up.rho.tolist(), "j_z_plus": up.j_z.tolist(),
            "j_phi_plus": up.j_phi.tolist(),
            "rho_minus": dn.rho.tolist(), "j_z_minus": dn.j_z.tolist(),
            "j_phi_minus": dn.j_phi.tolist(),
        }
    else:
        prof = density_profile(cfg, xi)
        header = ["xi", "rho", "j_z", "j_phi"]
        rows = np.column_stack([xi, prof.rho, prof.j_z, prof.j_phi])
        results = {"xi": xi.tolist(), "rho": prof.rho.tolist(),
                   "j_z": prof.j_z.tolist(), "j_phi": prof.j_phi.tolist()}
    if args.format == "csv":
        _write_text(args.out, _csv_text(params, header, rows))
    else:
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
            rep = beam_expectations(cfg, n_nodes=128)
            rows.append([cfg.p, cfg.theta0, cfg.ell, cfg.s, cfg.delta,
                         rep.l_z, rep.s_z, rep.m_z, rep.berry_phase,
                         rep.caustic_radius])
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
            "L_z_bar_extrapolated": _fmt(rep.l_z),
            "S_z_bar_extrapolated": _fmt(rep.s_z),
            "M_z_bar_extrapolated": _fmt(rep.m_z),
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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
