"""Self-contained validation suite: every closed form against its oracle.

Each check compares an analytic expression against an independent numeric
route (``oracles``, finite differences, recurrences) and records the
measured figure next to its tolerance.  Grids are fixed and the one random
draw is seeded, so two runs report the same values; only seconds differ.

``REGISTRY`` orders the checks: each entry is a function returning its
``CheckResult``s plus whether it belongs to the quick subset.  Checks that
share a loop or a grid share an entry, so no work runs twice; the entry's
wall time rides on its first check, so the seconds sum to the suite's.

``run_checks(quick=True)`` executes a sub-10-second subset; ``soi_fault``
multiplies the spin-flip lower component of the closed-form field by
sqrt(soi_fault) before it meets the quadrature oracle, a deliberate
inconsistency that the field-oracle check must catch.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .beams import BeamConfig, density_profile, field_closed_form, spin_pair_profiles
from .bessel import bessel_j_orders
from .dirac import ALPHA, BETA, EYE4, current, density, energy, plane_wave_spinor, spin_basis
from .foldy import (beam_expectations, berry_connection, berry_curvature,
                    fw_unitary, magnetic_moment, soi_operator)
from .linear_density import (_radial_node_count, cross_section_averages,
                             linear_expectations)
from .oracles import (berry_connection_numeric, berry_curvature_from_connection,
                      field_quadrature, fw_plane_wave_check, profile_from_field,
                      soi_operator_from_connection)

DIRECTIONS = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -2, 2], [-2, 1, 2]],
    dtype=float,
)
DIRECTIONS /= np.linalg.norm(DIRECTIONS, axis=1)[:, None]

SIGMA_Z4 = 0.5 * np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    comparison: str = "<="  # value <= threshold passes, or ">=" for floors
    note: str = ""
    seconds: float = 0.0  # wall time of the registry entry, on its first check

    @property
    def passed(self):
        if self.comparison == "<=":
            return bool(self.value <= self.threshold)
        return bool(self.value >= self.threshold)

    def as_dict(self):
        return {**asdict(self), "passed": self.passed}


def _bessel_identities(quick, soi_fault):
    xs = np.array([0.1, 0.5, 1.3, 5.0, 17.0, 40.0, 100.0])
    ns = np.arange(-50, 51, 10)
    j = bessel_j_orders(ns.tolist(), xs)
    # ns is symmetric, so the reversed rows hold J_{-n}.
    refl = j[::-1] - ((-1.0) ** ns)[:, None] * j
    out = [CheckResult("bessel_reflection", float(np.abs(refl).max()), 0.0,
                       note="J_{-n} - (-1)^n J_n, exact reduction")]

    # Three calls, so that no single sweep produced all three values.
    ns = np.arange(-50, 51, 5)
    jm, jc, jp = (bessel_j_orders((ns + k).tolist(), xs) for k in (-1, 0, 1))
    resid = np.abs(jm + jp - (2.0 * ns[:, None] / xs) * jc)
    out.append(CheckResult("bessel_recurrence", float(resid.max()), 1e-10))

    xs = np.array([0.7, 3.0, 11.0, 30.0])
    ns = np.arange(int(xs.max()) + 60)
    j2 = bessel_j_orders(ns.tolist(), xs) ** 2
    # Each argument sums the orders n < int(x) + 60.
    j2[ns[:, None] >= xs.astype(int) + 60] = 0.0
    total = j2[0] + 2.0 * j2[1:].sum(axis=0)
    out.append(CheckResult("bessel_normalization_sum",
                           float(np.abs(total - 1.0).max()), 1e-10))
    return out


def _dirac_algebra(quick, soi_fault):
    out = []
    worst = 0.0
    for i in range(3):
        for j in range(3):
            anti = ALPHA[i] @ ALPHA[j] + ALPHA[j] @ ALPHA[i]
            worst = max(worst, float(np.abs(anti - 2.0 * (i == j) * EYE4).max()))
        worst = max(worst, float(np.abs(ALPHA[i] @ BETA + BETA @ ALPHA[i]).max()))
    worst = max(worst, float(np.abs(BETA @ BETA - EYE4).max()))
    out.append(CheckResult("clifford_relations", worst, 1e-15))

    worst = 0.0
    for pn in (0.1, 1.0, 2.4, 10.0):
        for d in DIRECTIONS:
            p = pn * d
            h = np.einsum("i,iab->ab", p, ALPHA) + BETA
            e = float(energy(p))
            for s in (0.5, -0.5):
                w_spinor = plane_wave_spinor(p, spin_basis(s))
                resid = np.linalg.norm(h @ w_spinor - e * w_spinor)
                worst = max(worst, float(resid))
    out.append(CheckResult("plane_wave_eigenvector", worst, 1e-13))

    # Causality bound |j| <= rho for a fixed set of unit bispinors.
    rng = np.random.default_rng(20240901)
    worst = -np.inf
    for _ in range(64):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        worst = max(worst, float(np.linalg.norm(current(psi)) - density(psi)))
    out.append(CheckResult("current_bound", worst, 1e-14,
                           note="max(|j| - rho) over seeded unit bispinors"))
    return out


def _field_oracle(quick, soi_fault):
    xis = np.array([0.0, 2.5, 7.0, 13.0, 20.0])
    phis = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    zs = np.array([-1.3, 0.0, 2.1])
    ts = np.array([0.0, 0.9])
    if quick:
        xis = xis[::2]
        zs = zs[:1]
    grid = np.ix_(xis, phis, zs, ts)
    worst = 0.0
    ells = (0, 1) if quick else (0, 1, 3, -1)
    for theta0 in (np.pi / 4, 0.0):
        for ell in ells:
            for s in (0.5, -0.5):
                cfg = BeamConfig(p=2.4, theta0=theta0, ell=ell, s=s)
                r = grid[0] / cfg.k_perp if cfg.k_perp > 0 else grid[0]
                closed = field_closed_form(cfg, r, grid[1], grid[2], grid[3])
                # The spin-flip component carries all of the spin-orbit term.
                closed[..., 3 if s > 0 else 2] *= np.sqrt(soi_fault)
                quad = field_quadrature(cfg, r, grid[1], grid[2], grid[3],
                                        n_nodes=512)
                n_ref = np.linalg.norm(closed)
                diff = np.linalg.norm(closed - quad)
                worst = max(worst, diff / n_ref if n_ref > 1e-12 else diff)
    return [CheckResult("field_closed_vs_quadrature", float(worst), 1e-9)]


def _profiles(quick, soi_fault):
    out = []
    xi = np.linspace(0.0, 20.0, 81 if quick else 321)
    worst_rho = worst_j = worst_jr = 0.0
    for ell in (0, 1, 3, -1):
        for s in (0.5, -0.5):
            cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
            prof = density_profile(cfg, xi)
            via_field, j_r = profile_from_field(cfg, xi, n_phi=3)
            worst_rho = max(worst_rho, float(np.abs(prof.rho - via_field.rho).max()))
            worst_j = max(
                worst_j,
                float(np.abs(prof.j_z - via_field.j_z).max()),
                float(np.abs(prof.j_phi - via_field.j_phi).max()),
            )
            worst_jr = max(worst_jr, float(np.abs(j_r).max()))
    out.append(CheckResult("density_profile_vs_field", worst_rho, 1e-12))
    out.append(CheckResult("current_profile_vs_field", worst_j, 1e-12))
    out.append(CheckResult("radial_current_zero", worst_jr, 1e-12))

    # rho, |j| invariant under (ell, s) -> (-ell, -s)
    worst = 0.0
    for ell, s in ((1, 0.5), (3, -0.5), (2, 0.5)):
        c1 = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
        c2 = BeamConfig(p=2.4, theta0=np.pi / 4, ell=-ell, s=-s)
        p1, p2 = density_profile(c1, xi), density_profile(c2, xi)
        worst = max(worst, float(np.abs(p1.rho - p2.rho).max()))
        jmag1 = np.hypot(p1.j_z, p1.j_phi)
        jmag2 = np.hypot(p2.j_z, p2.j_phi)
        worst = max(worst, float(np.abs(jmag1 - jmag2).max()))
    out.append(CheckResult("symmetry_ell_s_flip", worst, 1e-12))
    return out


def _phi_derivative(cfg, r, phi, z=0.0, t=0.0, h=1e-5):
    """Closed-form field at the points (r, phi, z, t), which broadcast
    together, and its central difference in phi, from one field call."""
    r, phi, z, t = (np.asarray(v, dtype=float)[..., None]
                    for v in (r, phi, z, t))
    psi = field_closed_form(cfg, r, phi + np.array([0.0, h, -h]), z, t)
    return psi[..., 0, :], (psi[..., 1, :] - psi[..., 2, :]) / (2.0 * h)


def _eigenstructure(quick, soi_fault):
    out = []
    # strict spin splitting at the first density peak (ell = 1, delta = 0.3)
    cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)
    fine = np.linspace(0.0, 6.0, 1201)
    rho_p, rho_m = (prof.rho for prof in spin_pair_profiles(cfg, fine))
    peak = int(np.argmax(rho_m))
    split = float(abs(rho_p[peak] - rho_m[peak]))
    out.append(CheckResult("spin_splitting_at_peak", split, 1e-3, comparison=">=",
                           note=f"peak at xi = {fine[peak]:.3f}"))

    # J_z eigenstate by central finite difference in phi
    worst = 0.0
    # Columns r, phi, z, t of the two sample points.
    pts = np.array([(1.7, 0.9, 0.3, 0.2), (4.2, 2.5, -1.0, 0.7)]).T
    for ell in (0, 1, -1, 3):
        for s in (0.5, -0.5):
            cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
            for psi, dpsi in zip(*_phi_derivative(cfg, *pts)):
                jz_psi = -1j * dpsi + psi @ SIGMA_Z4.T
                resid = np.linalg.norm(jz_psi - (ell + s) * psi)
                worst = max(worst, float(resid / np.linalg.norm(psi)))
    out.append(CheckResult("total_am_eigenstate", worst, 1e-8))

    # delta = 0: simultaneously L_z and Sigma_z eigenstate
    cfg = BeamConfig(p=2.4, theta0=0.0, ell=0, s=0.5)
    psi, dpsi = _phi_derivative(cfg, 1.3, 0.8)
    lz_res = float(np.linalg.norm(-1j * dpsi - cfg.ell * psi))
    sz_res = float(np.linalg.norm(psi @ SIGMA_Z4.T - cfg.s * psi))
    out.append(CheckResult("paraxial_lz_sz_eigenstate", max(lz_res, sz_res), 1e-8))

    # rho independent of z and t (pure phase)
    cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)
    base = density(field_closed_form(cfg, 2.0, 0.3, 0.0, 0.0))
    moved = density(field_closed_form(cfg, 2.0, 0.3, 3.7, 1.9))
    out.append(CheckResult("density_z_t_invariance", float(abs(base - moved)), 1e-14))
    return out


def _fw_transform(quick, soi_fault):
    worst_u = worst_d = worst_w = 0.0
    for pn in (0.1, 1.0, 2.4, 10.0):
        for d in DIRECTIONS:
            p = pn * d
            u_mat = fw_unitary(p)
            h_mat = np.einsum("i,iab->ab", p, ALPHA) + BETA
            e = float(energy(p))
            worst_u = max(worst_u, float(np.abs(u_mat.conj().T @ u_mat - EYE4).max()))
            worst_d = max(
                worst_d, float(np.abs(u_mat.conj().T @ h_mat @ u_mat - BETA * e).max())
            )
            for s in (0.5, -0.5):
                w = spin_basis(s)
                wp = fw_plane_wave_check(p, w)
                target = np.concatenate([w, np.zeros(2)])
                worst_w = max(worst_w, float(np.abs(wp - target).max()))
    return [CheckResult("fw_unitarity", worst_u, 1e-14),
            CheckResult("fw_diagonalization", worst_d, 1e-13),
            CheckResult("fw_plane_wave_rotation", worst_w, 1e-13)]


def _berry_structures(quick, soi_fault):
    worst_a = worst_f = worst_soi = 0.0
    for pn in (0.5, 2.4):
        for d in DIRECTIONS:
            p = pn * d
            worst_a = max(worst_a, float(np.abs(
                berry_connection(p) - berry_connection_numeric(p)
            ).max()))
            worst_f = max(worst_f, float(np.abs(
                berry_curvature(p) - berry_curvature_from_connection(p)
            ).max()))
            worst_soi = max(worst_soi, float(np.abs(
                soi_operator(p) - soi_operator_from_connection(p)
            ).max()))
    return [CheckResult("berry_connection_oracle", worst_a, 1e-7),
            CheckResult("berry_curvature_oracle", worst_f, 1e-6),
            CheckResult("soi_operator_two_forms", worst_soi, 1e-12)]


def _expectations(quick, soi_fault):
    worst_l = worst_sum = worst_phase = worst_m = 0.0
    cfgs = [
        BeamConfig(p=2.4, theta0=np.pi / 4, ell=3, s=0.5),
        BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=-0.5),
        BeamConfig(p=0.7, theta0=0.9, ell=-2, s=0.5),
    ]
    for cfg in cfgs:
        rep = beam_expectations(cfg, n_nodes=256 if quick else 512)
        worst_l = max(worst_l, abs(rep.l_z - rep.l_z_numeric),
                      abs(rep.s_z - rep.s_z_numeric))
        worst_sum = max(worst_sum, abs(rep.l_z_numeric + rep.s_z_numeric
                                       - (cfg.ell + cfg.s)))
        worst_phase = max(worst_phase, abs(
            rep.berry_phase_numeric - 2.0 * np.pi * cfg.delta * cfg.s))
        worst_m = max(worst_m, abs(
            magnetic_moment(cfg) - (rep.l_z + 2.0 * rep.s_z)))
        worst_m = max(worst_m, abs(rep.r_perp_numeric))
    return [CheckResult("expectations_numeric_vs_closed", worst_l, 1e-10),
            CheckResult("am_conservation", worst_sum, 1e-12),
            CheckResult("berry_phase_loop", worst_phase, 1e-8),
            CheckResult("moment_decomposition", worst_m, 1e-12)]


def _linear(quick, soi_fault):
    cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)
    rep = linear_expectations(cfg, widths=(40.0, 60.0, 90.0), radial_nodes=3000)
    target = cfg.ell + cfg.delta * cfg.s
    # The ladder's a = 60 sample against the same width on a grid of
    # half the spacing (2n - 1 Simpson nodes).
    v1 = (rep.l_z_samples[1], rep.s_z_samples[1], rep.m_z_samples[1])
    fine = 2 * _radial_node_count(60.0, 3000) - 1
    v2 = cross_section_averages(cfg, 60.0, radial_nodes=fine)
    worst = max(abs((a - b) / a) for a, b in zip(v1, v2))
    return [
        CheckResult("linear_oam_density", abs(rep.l_z - target), 1e-3),
        CheckResult("linear_am_sum", abs(rep.l_z + rep.s_z - (cfg.ell + cfg.s)),
                    1e-12, note="enveloped field stays a J_z eigenstate"),
        CheckResult("linear_radial_convergence", worst, 1e-8),
        CheckResult("linear_moment_reported", abs(rep.m_z - (cfg.ell + cfg.s)),
                    float(rep.m_z_error),
                    note=("|m_z - (ell + s)| within the reported m_z error; "
                          "the envelope surrogate misses the magnetization "
                          "current, see package docs")),
    ]


# (run, in the quick subset); run(quick, soi_fault) returns CheckResults.
REGISTRY = (
    (_bessel_identities, True),
    (_dirac_algebra, True),
    (_field_oracle, True),
    (_profiles, True),
    (_eigenstructure, True),
    (_fw_transform, True),
    (_berry_structures, True),
    (_expectations, True),
    (_linear, False),
)


def run_checks(quick=False, soi_fault=1.0):
    """Run the validation suite; returns (list of CheckResult, all_passed)."""
    checks = []
    for run, in_quick in REGISTRY:
        if quick and not in_quick:
            continue
        t0 = time.perf_counter()
        results = run(quick, soi_fault)
        results[0].seconds = time.perf_counter() - t0
        checks.extend(results)
    return checks, all(c.passed for c in checks)


def report_dict(checks, elapsed=None):
    """JSON-ready report for the CLI."""
    rep = {
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
        "n_checks": len(checks),
    }
    if elapsed is not None:
        rep["elapsed_seconds"] = elapsed
    return rep


def main_run(quick=False, soi_fault=1.0):
    t0 = time.perf_counter()
    checks, ok = run_checks(quick=quick, soi_fault=soi_fault)
    return report_dict(checks, elapsed=time.perf_counter() - t0), ok
