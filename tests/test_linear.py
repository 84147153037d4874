"""Gaussian-regularized linear densities and their width extrapolation.

The enveloped field remains a total-AM eigenstate, so the canonical OAM
and SAM cross-section densities must sum to (ell + s) identically; the
OAM density extrapolates to ell + delta*s and the SAM density therefore
to s - delta*s.  The direct moment integral of the envelope surrogate
converges to ell + s: the surrogate drops the magnetization current a
true localized solution would carry (worth ~2s extra), so the report
carries explicit comparisons instead of a single assertion.
"""

import numpy as np
import pytest

from diracbeams.beams import BeamConfig, field_closed_form
from diracbeams.dirac import current, density
from diracbeams.linear_density import (
    ExtrapolationError,
    RegularizedBeam,
    cross_section_averages,
    linear_expectations,
)

WIDTHS = (40.0, 60.0, 90.0, 135.0)


@pytest.fixture(scope="module")
def cfg():
    return BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)


@pytest.fixture(scope="module")
def report(cfg):
    return linear_expectations(cfg, widths=WIDTHS, radial_nodes=4000)


class TestExtrapolatedValues:
    def test_oam_density(self, cfg, report):
        assert abs(report.l_z - (cfg.ell + cfg.delta * cfg.s)) <= 1e-3

    def test_am_sum_is_total(self, cfg, report):
        # exact eigenstate identity, holds at every width
        assert abs(report.l_z + report.s_z - (cfg.ell + cfg.s)) <= 1e-12
        for lz, sz in zip(report.l_z_samples, report.s_z_samples):
            assert abs(lz + sz - (cfg.ell + cfg.s)) <= 1e-12

    def test_sam_density_canonical_split(self, cfg, report):
        assert abs(report.s_z - (cfg.s - cfg.delta * cfg.s)) <= 1e-3

    def test_moment_converges_to_total_am(self, cfg, report):
        assert abs(report.m_z - (cfg.ell + cfg.s)) <= 1e-3

    def test_moment_comparisons_reported(self, cfg, report):
        comp = report.m_z_comparison
        assert set(comp) == {
            "orbital_plus_spin",
            "orbital_plus_spin_plus_soi",
            "one_particle_moment",
        }
        assert comp["orbital_plus_spin"] == pytest.approx(
            report.m_z - (cfg.ell + 2 * cfg.s), abs=1e-15
        )



    def test_error_estimates_bound_truth(self, cfg, report):
        # The reported errors must bound the distances to the exact limits,
        # ell + delta*s for the OAM density and ell + s for the moment
        # integral, on the reference beam and two more.
        reports = [(cfg, report)] + [
            (c, linear_expectations(c, widths=WIDTHS, radial_nodes=4000))
            for c in (BeamConfig(p=3.0, theta0=1.0, ell=-2, s=-0.5),
                      BeamConfig(p=1.5, theta0=0.6, ell=3, s=0.5))
        ]
        for c, rep in reports:
            assert rep.l_z_error > 0.0
            assert abs(rep.l_z - (c.ell + c.delta * c.s)) <= rep.l_z_error
            assert abs(rep.m_z - (c.ell + c.s)) <= rep.m_z_error


class TestNumericalBehavior:
    def test_radial_node_doubling(self, cfg):
        v1 = cross_section_averages(cfg, 60.0, radial_nodes=3000)
        v2 = cross_section_averages(cfg, 60.0, radial_nodes=6000)
        for a, b in zip(v1, v2):
            assert abs((a - b) / a) <= 1e-8

    def test_width_set_shift_stability(self, cfg, report):
        shifted = linear_expectations(
            cfg, widths=tuple(1.5 * w for w in WIDTHS), radial_nodes=4000
        )
        assert abs(shifted.l_z - report.l_z) <= 1e-3
        assert abs(shifted.s_z - report.s_z) <= 1e-3
        assert abs(shifted.m_z - report.m_z) <= 1e-3

    def test_azimuthal_orthogonality(self, cfg):
        # numeric phi-average of the densities matches the phi=0 slice the
        # radial integrator uses: cross terms between different azimuthal
        # harmonics integrate to zero
        xi = np.array([0.7, 1.9, 3.3])
        r = xi / cfg.k_perp
        phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        R, PH = np.meshgrid(r, phis, indexing="ij")
        psi = field_closed_form(cfg, R, PH)
        rho_avg = density(psi).mean(axis=1)
        j = current(psi)
        jphi_avg = (-np.sin(PH) * j[..., 0] + np.cos(PH) * j[..., 1]).mean(axis=1)
        psi0 = field_closed_form(cfg, r, 0.0)
        assert np.abs(rho_avg - density(psi0)).max() <= 1e-14
        assert np.abs(jphi_avg - current(psi0)[..., 1]).max() <= 1e-14

    def test_small_cone_angle_limit(self):
        # delta ~ 1e-6: linear densities approach the bare quantum numbers
        cfg = BeamConfig(p=2.4, theta0=2e-3, ell=1, s=0.5)
        rep = linear_expectations(cfg, widths=(40.0, 60.0, 90.0),
                                  radial_nodes=3000)
        assert abs(rep.l_z - 1.0) <= 1e-3
        assert abs(rep.s_z - 0.5) <= 1e-3


class TestValidationAndErrors:
    def test_widths_must_increase(self, cfg):
        with pytest.raises(ValueError):
            linear_expectations(cfg, widths=(60.0, 40.0))
        with pytest.raises(ValueError):
            linear_expectations(cfg, widths=(40.0,))

    def test_unconverged_fit_raises_with_diagnostics(self, cfg):
        with pytest.raises(ExtrapolationError) as err:
            linear_expectations(cfg, widths=(40.0, 60.0, 90.0),
                                radial_nodes=3000, fit_tol=1e-14)
        assert "widths" in err.value.diagnostics

    def test_degenerate_transverse_structure_rejected(self):
        cfg = BeamConfig(p=2.4, theta0=0.0, ell=1, s=0.5)
        with pytest.raises(ValueError):
            linear_expectations(cfg)


class TestRegularizedBeam:
    def test_envelope_and_field(self, cfg):
        beam = RegularizedBeam(cfg, a=30.0)
        xi = np.array([0.0, 15.0, 60.0])
        env = beam.envelope(xi)
        assert env[0] == 1.0
        assert np.allclose(env, np.exp(-(xi**2) / (2.0 * 30.0**2)))
        r = xi / cfg.k_perp
        bare = field_closed_form(cfg, r, 0.4)
        assert np.allclose(beam.field(r, 0.4), bare * env[:, None])

    def test_width_validation(self, cfg):
        with pytest.raises(ValueError):
            RegularizedBeam(cfg, a=0.0)
        with pytest.raises(ValueError):
            RegularizedBeam(BeamConfig(p=0.0, theta0=0.3, ell=0, s=0.5), a=10.0)
