"""The validation registry: each registered check passes under its pinned name.

The checks themselves live once, in ``diracbeams.validation``; this file
reads one full run of them (the ``validation_run`` fixture) and pins the
names and order the ``validate`` command reports.  It also guards against
vacuous checks, and keeps a per-point oracle for the one check whose field
calls are batched.
"""

import numpy as np
import pytest

from diracbeams.beams import BeamConfig, field_closed_form
from diracbeams.validation import REGISTRY, SIGMA_Z4, run_checks

QUICK_NAMES = [
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
FULL_NAMES = QUICK_NAMES + [
    "linear_oam_density", "linear_am_sum", "linear_radial_convergence",
    "linear_moment_reported",
]


@pytest.mark.parametrize("name", FULL_NAMES)
def test_registered_check(validation_run, name):
    checks, _, _ = validation_run
    check = checks[name]
    assert check.passed, check


def test_full_run_names_in_order(validation_run):
    checks, ok, _ = validation_run
    assert list(checks) == FULL_NAMES
    assert ok


def test_seconds_sum_to_the_run(validation_run):
    checks, _, elapsed = validation_run
    seconds = [c.seconds for c in checks.values()]
    assert min(seconds) >= 0.0
    assert sum(1 for s in seconds if s > 0.0) == len(REGISTRY)
    assert sum(seconds) <= elapsed


def test_quick_subset_catches_an_injected_fault():
    checks, ok = run_checks(quick=True, soi_fault=1.01)
    assert [c.name for c in checks] == QUICK_NAMES
    assert not ok
    assert [c.name for c in checks if not c.passed] == [
        "field_closed_vs_quadrature"]


# Checks that read exactly 0.0 because the quantity they measure is an
# exact identity in floating point, not because they compare a result
# with itself.
EXACT_ZERO = {
    "clifford_relations": "the alpha and beta matrices hold only 0, +-1 and "
                          "+-i, so every anticommutator is computed exactly",
    "symmetry_ell_s_flip": "J_{-n} = (-1)^n J_n is an exact sign flip, and "
                           "rho and |j| only square it or take hypot of it",
    "paraxial_lz_sz_eigenstate": "theta0 = 0 puts every point at xi = 0, "
                                 "where J_0 = 1 and J_{+-1} = 0 exactly, so "
                                 "the ell = 0 field is constant in phi with "
                                 "no spin-down component",
    "linear_am_sum": "harmonic plus spin is ell + s on every nonzero "
                     "component of the enveloped field, a J_z eigenstate",
}


def test_no_check_with_a_positive_threshold_reads_exactly_zero(validation_run):
    # A tolerance check that reads 0.0 most likely compares a quantity
    # with itself, as linear_radial_convergence once did (the same grid on
    # both sides); only the exact identities above may read 0.0.
    checks, _, _ = validation_run
    assert set(EXACT_ZERO) <= set(checks)
    vacuous = [name for name, c in checks.items()
               if c.threshold > 0.0 and c.value == 0.0
               and name not in EXACT_ZERO]
    assert vacuous == []


def _phi_derivative_per_point(cfg, r, phi, z, t, h=1e-5):
    """The field and its central difference in phi, one call per offset."""
    psi = field_closed_form(cfg, r, phi, z, t)
    dpsi = (
        field_closed_form(cfg, r, phi + h, z, t)
        - field_closed_form(cfg, r, phi - h, z, t)
    ) / (2.0 * h)
    return psi, dpsi


def test_total_am_eigenstate_matches_per_point_oracle(validation_run):
    # One scalar field call per point and phi offset, as the check was
    # first written; the batched check must read the same value exactly.
    worst = 0.0
    pts = [(1.7, 0.9, 0.3, 0.2), (4.2, 2.5, -1.0, 0.7)]
    for ell in (0, 1, -1, 3):
        for s in (0.5, -0.5):
            cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
            for (r, phi, z, t) in pts:
                psi, dpsi = _phi_derivative_per_point(cfg, r, phi, z, t)
                jz_psi = -1j * dpsi + psi @ SIGMA_Z4.T
                resid = np.linalg.norm(jz_psi - (ell + s) * psi)
                worst = max(worst, float(resid / np.linalg.norm(psi)))
    checks, _, _ = validation_run
    assert checks["total_am_eigenstate"].value == worst
