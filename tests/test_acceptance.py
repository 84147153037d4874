"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.

Criterion 10 is split into its three clauses.  Clause 10b asserts that the
Gaussian-regularized SAM linear density extrapolates to s: for the stated
construction (canonical Sigma_z on a Gaussian-enveloped total-AM
eigenstate) that target is not reachable -- the OAM and SAM densities sum
to (ell + s) pointwise, so with the OAM density at ell + delta*s (clause
10a, which passes) the SAM density sits at s - delta*s, a distance
delta*s ~ 0.154 from the target.  The clause is asserted as stated and
fails honestly rather than being weakened; see the repository notes.

Criteria 01, 04, 05, 06 and 11 are registered validation checks: they read
their figures from one full run of the suite (the ``validation_run``
fixture) instead of computing them a second time.
"""

import time

import numpy as np
import pytest

from diracbeams.beams import BeamConfig, density_profile
from diracbeams.foldy import beam_expectations, berry_phase, magnetic_moment
from diracbeams.linear_density import linear_expectations
from diracbeams.validation import run_checks

REFERENCE = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)


def _line(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def test_criterion_01_field_oracle_equivalence(validation_run):
    checks, _, _ = validation_run
    field = checks["field_closed_vs_quadrature"]
    worst, elapsed = field.value, field.seconds
    ok = worst <= 1e-9 and elapsed < 5.0
    _line(1, ok, f"closed vs quadrature rel err {worst:.3e} "
                 f"(<= 1e-9), runtime {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_soi_strength_reference_point():
    cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)
    ok = abs(cfg.delta - 0.3076923076923077) <= 1e-13 and round(cfg.delta, 1) == 0.3
    _line(2, ok, f"delta(p=2.4, theta0=pi/4) = {cfg.delta:.10f} "
                 f"(0.30769..., rounds to 0.3)")
    assert cfg.delta == pytest.approx(0.3076923076923077, abs=1e-13)
    assert round(cfg.delta, 1) == 0.3


def test_criterion_03_central_intensity_dichotomy():
    xi0 = np.array([0.0])
    cfg_dn = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=-0.5)
    cfg_up = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)
    rho_dn = density_profile(cfg_dn, xi0).rho[0]
    rho_up = density_profile(cfg_up, xi0).rho[0]
    ok = (rho_dn == cfg_dn.delta / 2.0
          and abs(rho_dn - 0.15384615384615385) <= 1e-12
          and rho_up == 0.0)
    _line(3, ok, f"rho_down(0) = {rho_dn:.11f} = delta/2, rho_up(0) = {rho_up}")
    assert rho_dn == cfg_dn.delta / 2.0
    assert abs(rho_dn - 0.15384615384615385) <= 1e-12
    assert rho_up == 0.0


def test_criterion_04_total_am_eigenstate(validation_run):
    checks, _, _ = validation_run
    worst = checks["total_am_eigenstate"].value
    ok = worst <= 1e-8
    _line(4, ok, f"J_z eigenstate residual {worst:.3e} (<= 1e-8)")
    assert worst <= 1e-8


def test_criterion_05_fw_properties(validation_run):
    checks, _, _ = validation_run
    worst_u = checks["fw_unitarity"].value
    worst_d = checks["fw_diagonalization"].value
    ok = worst_u <= 1e-14 and worst_d <= 1e-13
    _line(5, ok, f"unitarity {worst_u:.3e} (<= 1e-14), "
                 f"diagonalization {worst_d:.3e} (<= 1e-13) on 4x6 grid")
    assert worst_u <= 1e-14
    assert worst_d <= 1e-13


def test_criterion_06_berry_structure_oracles(validation_run):
    checks, _, _ = validation_run
    worst_a = checks["berry_connection_oracle"].value
    worst_f = checks["berry_curvature_oracle"].value
    ok = worst_a <= 1e-7 and worst_f <= 1e-6
    _line(6, ok, f"connection FD {worst_a:.3e} (<= 1e-7), "
                 f"curvature FD {worst_f:.3e} (<= 1e-6)")
    assert worst_a <= 1e-7
    assert worst_f <= 1e-6


def test_criterion_07_berry_phase():
    worst = 0.0
    for ell, s in ((1, 0.5), (3, -0.5), (0, 0.5)):
        cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
        worst = max(worst, abs(berry_phase(cfg) - 2 * np.pi * cfg.delta * s))
    p03 = np.sqrt(2.5**2 - 1.0)  # delta = 0.3
    cfg03 = BeamConfig(p=p03, theta0=np.pi / 4, ell=1, s=0.5)
    dev03 = abs(berry_phase(cfg03) - 0.3 * np.pi)
    ok = worst <= 1e-8 and dev03 <= 1e-8
    _line(7, ok, f"loop integral vs 2 pi delta s: {worst:.3e} (<= 1e-8); "
                 f"delta=0.3 case vs 0.3 pi: {dev03:.3e}")
    assert worst <= 1e-8
    assert dev03 <= 1e-8


def test_criterion_08_expectation_values():
    worst_match = worst_cons = 0.0
    for ell, s in ((3, 0.5), (1, -0.5), (-2, 0.5), (0, -0.5)):
        cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
        rep = beam_expectations(cfg)
        assert rep.l_z == pytest.approx(ell + cfg.delta * s, abs=1e-14)
        assert rep.s_z == pytest.approx(s - cfg.delta * s, abs=1e-14)
        worst_match = max(worst_match, abs(rep.l_z - rep.l_z_numeric),
                          abs(rep.s_z - rep.s_z_numeric))
        worst_cons = max(worst_cons,
                         abs(rep.l_z_numeric + rep.s_z_numeric - (ell + s)),
                         abs(rep.l_z + rep.s_z - (ell + s)))
    ok = worst_match <= 1e-10 and worst_cons <= 1e-12
    _line(8, ok, f"numeric vs closed {worst_match:.3e} (<= 1e-10), "
                 f"L+S conservation {worst_cons:.3e} (<= 1e-12)")
    assert worst_match <= 1e-10
    assert worst_cons <= 1e-12


def test_criterion_09_magnetic_moment():
    worst = 0.0
    for ell, s in ((1, 0.5), (3, -0.5), (0, 0.5)):
        cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
        rep = beam_expectations(cfg)
        assert magnetic_moment(cfg) == pytest.approx(
            ell + 2 * s - cfg.delta * s, abs=1e-14)
        worst = max(worst, abs(magnetic_moment(cfg) - (rep.l_z + 2 * rep.s_z)))
    # g factors at delta = 0: moment ell + 2s, unit orbital slope, double spin
    m_l1 = magnetic_moment(BeamConfig(p=2.4, theta0=0.0, ell=1, s=0.5))
    m_l0 = magnetic_moment(BeamConfig(p=2.4, theta0=0.0, ell=0, s=0.5))
    g_orb_ok = (m_l1 - m_l0) == 1.0
    g_spin_ok = m_l0 == 1.0  # 2s with s = 1/2
    ok = worst <= 1e-12 and g_orb_ok and g_spin_ok
    _line(9, ok, f"moment vs L+2S decomposition {worst:.3e} (<= 1e-12); "
                 f"g=1 orbital and g=2 spin recovered at delta=0")
    assert worst <= 1e-12
    assert g_orb_ok and g_spin_ok


@pytest.fixture(scope="module")
def linear_report():
    t0 = time.perf_counter()
    rep = linear_expectations(REFERENCE, widths=(40.0, 60.0, 90.0, 135.0),
                              radial_nodes=4000)
    return rep, time.perf_counter() - t0


def test_criterion_10a_linear_oam_density(linear_report):
    rep, elapsed = linear_report
    target = REFERENCE.ell + REFERENCE.delta * REFERENCE.s
    dev = abs(rep.l_z - target)
    ok = dev <= 1e-3 and elapsed < 60.0
    _line("10a", ok, f"L_z_bar -> {rep.l_z:.6f} vs ell + delta*s = "
                     f"{target:.6f}, |diff| {dev:.2e} (<= 1e-3), "
                     f"runtime {elapsed:.1f}s (< 60s)")
    assert dev <= 1e-3
    assert elapsed < 60.0


def test_criterion_10b_linear_sam_density(linear_report):
    rep, _ = linear_report
    dev = abs(rep.s_z - REFERENCE.s)
    ok = dev <= 1e-3
    _line("10b", ok,
          f"S_z_bar -> {rep.s_z:.6f} vs s = {REFERENCE.s}, |diff| {dev:.2e} "
          f"(<= 1e-3) -- the canonical SAM density of a total-AM eigenstate "
          f"sits at s - delta*s = {REFERENCE.s - REFERENCE.delta * REFERENCE.s:.6f}, "
          f"so this target is unreachable by construction")
    assert dev <= 1e-3


def test_criterion_10c_linear_moment_reported(linear_report):
    rep, _ = linear_report
    comp = rep.m_z_comparison
    cand_a = REFERENCE.ell + 2 * REFERENCE.s
    cand_b = cand_a + REFERENCE.delta * REFERENCE.s
    ok = ("orbital_plus_spin" in comp
          and "orbital_plus_spin_plus_soi" in comp
          and comp["orbital_plus_spin"] == pytest.approx(rep.m_z - cand_a,
                                                         abs=1e-15)
          and comp["orbital_plus_spin_plus_soi"] == pytest.approx(
              rep.m_z - cand_b, abs=1e-15))
    _line("10c", ok,
          f"M_z_bar = {rep.m_z:.6f}; vs ell+2s = {cand_a}: "
          f"{comp['orbital_plus_spin']:+.6f}; vs ell+2s+delta*s = {cand_b:.6f}: "
          f"{comp['orbital_plus_spin_plus_soi']:+.6f} (discrepancies logged)")
    assert ok


def test_criterion_11_symmetry_suite(validation_run):
    checks, _, _ = validation_run
    worst = checks["symmetry_ell_s_flip"].value
    split = checks["spin_splitting_at_peak"].value
    ok = worst <= 1e-12 and split > 1e-3
    _line(11, ok, f"(-ell,-s) invariance {worst:.3e} (<= 1e-12); "
                  f"s-flip split at first peak {split:.3e} (> 1e-3)")
    assert worst <= 1e-12
    assert split > 1e-3


def test_criterion_12_validation_suite(validation_run):
    checks1, ok1, elapsed1 = validation_run
    t0 = time.perf_counter()
    checks2, ok2 = run_checks(quick=False)
    elapsed = elapsed1 + time.perf_counter() - t0

    def without_seconds(checks):
        return [{k: v for k, v in c.as_dict().items() if k != "seconds"}
                for c in checks]

    deterministic = (without_seconds(checks1.values())
                     == without_seconds(checks2))
    ok = ok1 and ok2 and deterministic and elapsed < 120.0
    _line(12, ok, f"validation suite passed={ok1}, deterministic="
                  f"{deterministic}, two runs in {elapsed:.1f}s (< 120s)")
    assert ok1 and ok2
    assert deterministic
    assert elapsed < 120.0
