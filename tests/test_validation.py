"""The validation registry: each registered check passes under its pinned name.

The checks themselves live once, in ``diracbeams.validation``; this file
reads one full run of them (the ``validation_run`` fixture) and pins the
names and order the ``validate`` command reports.
"""

import pytest

from diracbeams.validation import REGISTRY, run_checks

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
