"""Foldy-Wouthuysen calculus: unitary, Berry structures, expectations."""

import numpy as np
import pytest

from diracbeams.beams import BeamConfig
from diracbeams.dirac import EYE4, PAULI, energy, spin_basis
from diracbeams.foldy import (
    ZeroMomentumError,
    beam_expectations,
    berry_connection,
    berry_curvature,
    berry_phase,
    caustic_radius,
    fw_unitary,
    magnetic_moment,
    sam_operator,
    soi_operator,
    spin_operator,
)
from diracbeams.oracles import (
    berry_connection_numeric,
    berry_curvature_from_connection,
    fw_plane_wave_check,
    soi_operator_from_connection,
)
from diracbeams.validation import DIRECTIONS


def p_for_mass_ratio(u, mass=1.0):
    """Momentum magnitude giving m/E = u."""
    return mass * np.sqrt(1.0 / u**2 - 1.0)


class TestFwUnitary:
    def test_identity_at_rest(self):
        assert np.array_equal(fw_unitary(np.zeros(3)), EYE4)

    def test_rotates_plane_wave_to_upper_block(self):
        for pn in (0.5, 2.4):
            for d in DIRECTIONS:
                for s in (0.5, -0.5):
                    w = spin_basis(s)
                    wp = fw_plane_wave_check(pn * d, w)
                    assert np.abs(wp - np.concatenate([w, [0, 0]])).max() <= 1e-13


class TestBerryConnection:
    def test_singular_at_origin(self):
        with pytest.raises(ZeroMomentumError):
            berry_connection(np.zeros(3))

    def test_z_component_vanishes_along_z(self):
        a = berry_connection(np.array([0.0, 0.0, 2.4]))
        assert np.abs(a[2]).max() == 0.0

    def test_hermitian_components(self):
        for d in DIRECTIONS:
            a = berry_connection(2.4 * d)
            for i in range(3):
                assert np.abs(a[i] - a[i].conj().T).max() <= 1e-15

    @pytest.mark.parametrize("pn", [0.5, 2.4])
    def test_finite_difference_oracle(self, pn):
        for d in DIRECTIONS:
            p = pn * d
            closed = berry_connection(p)
            numeric = berry_connection_numeric(p, rel_step=1e-6)
            assert np.abs(closed - numeric).max() <= 1e-7

    def test_vanishes_toward_rest(self):
        p = 1e-3 * DIRECTIONS[4]
        a = berry_connection(p)
        assert np.abs(a).max() * 1e-3 <= 1e-5


class TestBerryCurvature:
    def test_singular_at_origin(self):
        with pytest.raises(ZeroMomentumError):
            berry_curvature(np.zeros(3))

    def test_nonrelativistic_limit(self):
        # m/E -> 1: curvature tends to -sigma / (2 m^2)
        f = berry_curvature(1e-4 * DIRECTIONS[3])
        assert np.abs(f + PAULI / 2.0).max() <= 1e-7

    def test_ultrarelativistic_limit(self):
        # m/E -> 0: the monopole-like helicity form -kappa (kappa.sigma)/2E^2
        p = 1e6 * DIRECTIONS[4]
        kappa = DIRECTIONS[4]
        e2 = float(energy(p)) ** 2
        target = -np.einsum(
            "i,ab->iab", kappa, np.einsum("i,iab->ab", kappa, PAULI)
        ) / (2.0 * e2)
        assert np.abs(berry_curvature(p) - target).max() * e2 <= 1e-6

    @pytest.mark.parametrize("pn", [0.5, 2.4])
    def test_field_strength_oracle(self, pn):
        for d in DIRECTIONS:
            p = pn * d
            closed = berry_curvature(p)
            numeric = berry_curvature_from_connection(p)
            assert np.abs(closed - numeric).max() <= 1e-6


class TestSoiOperator:
    def test_two_forms_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            p = rng.normal(size=3) * rng.uniform(0.2, 4.0)
            a = soi_operator(p)
            b = soi_operator_from_connection(p)
            assert np.abs(a - b).max() <= 1e-12

    def test_z_expectation_vanishes_along_z(self):
        p = np.array([0.0, 0.0, 2.4])
        for s in (0.5, -0.5):
            w = spin_basis(s)
            val = np.einsum("a,ab,b->", w.conj(), soi_operator(p)[2], w)
            assert abs(val) <= 1e-15

    def test_vanishes_in_rest_limit(self):
        p = p_for_mass_ratio(1 - 1e-6) * DIRECTIONS[3]
        assert np.abs(soi_operator(p)).max() <= 2e-6

    def test_soi_plus_sam_is_spin(self):
        # operator statement behind OAM/SAM conservation
        for d in DIRECTIONS:
            p = 1.9 * d
            total = soi_operator(p) + sam_operator(p)
            assert np.abs(total - spin_operator()).max() <= 1e-15

    def test_singular_at_origin(self):
        with pytest.raises(ZeroMomentumError):
            soi_operator(np.zeros(3))


class TestSamOperatorLimits:
    def test_helicity_limit(self):
        u = 1e-3
        p = p_for_mass_ratio(u) * DIRECTIONS[4]
        kappa = DIRECTIONS[4]
        s_op = spin_operator()
        helicity = np.einsum(
            "i,ab->iab", kappa, np.einsum("i,iab->ab", kappa, s_op)
        )
        assert np.abs(sam_operator(p) - helicity).max() <= 1e-2

    def test_spin_limit(self):
        u = 1.0 - 1e-3
        p = p_for_mass_ratio(u) * DIRECTIONS[4]
        assert np.abs(sam_operator(p) - spin_operator()).max() <= 1e-2


class TestBeamExpectations:
    def test_reference_values(self):
        cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=3, s=0.5)
        rep = beam_expectations(cfg)
        assert rep.l_z == pytest.approx(3.0 + 4.0 / 13.0 * 0.5, abs=1e-14)
        assert rep.s_z == pytest.approx(0.5 - 4.0 / 13.0 * 0.5, abs=1e-14)
        assert rep.l_z == pytest.approx(3.1538461538461537, abs=1e-15)
        assert rep.s_z == pytest.approx(0.34615384615384615, abs=1e-15)

    @pytest.mark.parametrize("ell,s", [(3, 0.5), (1, -0.5), (-2, 0.5), (0, -0.5)])
    def test_numeric_path_matches_closed_form(self, ell, s):
        cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
        rep = beam_expectations(cfg)
        assert abs(rep.l_z - rep.l_z_numeric) <= 1e-10
        assert abs(rep.s_z - rep.s_z_numeric) <= 1e-10
        assert abs(rep.l_z_numeric + rep.s_z_numeric - (ell + s)) <= 1e-12
        assert abs(rep.l_z + rep.s_z - (ell + s)) <= 1e-14

    def test_paraxial_values(self):
        cfg = BeamConfig(p=2.4, theta0=0.0, ell=2, s=0.5)
        rep = beam_expectations(cfg)
        assert rep.l_z == 2.0
        assert rep.s_z == 0.5
        assert abs(rep.l_z_numeric - 2.0) <= 1e-12

    def test_rest_frame(self):
        cfg = BeamConfig(p=0.0, theta0=np.pi / 4, ell=1, s=0.5)
        rep = beam_expectations(cfg)
        assert rep.l_z == 1.0 and rep.s_z == 0.5
        assert rep.l_z_numeric == pytest.approx(1.0, abs=1e-12)

    def test_transverse_position_centroid_vanishes(self):
        cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)
        rep = beam_expectations(cfg)
        assert rep.r_perp_numeric <= 1e-14
        assert rep.p_z_numeric == pytest.approx(cfg.p_par, abs=1e-15)


class TestBerryPhase:
    def test_equals_2pi_delta_s(self):
        for ell, s in ((1, 0.5), (0, -0.5), (3, 0.5)):
            cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
            assert abs(
                berry_phase(cfg) - 2.0 * np.pi * cfg.delta * s
            ) <= 1e-8

    def test_delta_0p3_gives_0p3_pi(self):
        # E = 2.5 makes (1 - m/E) sin^2(pi/4) = 0.3 up to float rounding
        p = np.sqrt(2.5**2 - 1.0)
        cfg = BeamConfig(p=p, theta0=np.pi / 4, ell=1, s=0.5)
        assert abs(berry_phase(cfg) - 0.3 * np.pi) <= 1e-8

    def test_odd_in_spin(self):
        up = berry_phase(BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5))
        dn = berry_phase(BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=-0.5))
        assert up == pytest.approx(-dn, abs=1e-12)

    def test_consistent_with_oam_shift(self):
        # phase / 2 pi = <L_z> - ell = delta * s
        for ell, s in ((1, 0.5), (2, -0.5)):
            cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
            rep = beam_expectations(cfg)
            shift = berry_phase(cfg) / (2.0 * np.pi)
            assert abs(shift - (rep.l_z - ell)) <= 1e-8
            assert abs(shift - cfg.delta * s) <= 1e-8

    def test_degenerate_loop(self):
        assert berry_phase(BeamConfig(p=2.4, theta0=0.0, ell=1, s=0.5)) == 0.0
        assert berry_phase(BeamConfig(p=0.0, theta0=0.4, ell=1, s=0.5)) == 0.0


class TestCausticAndMoment:
    def test_caustic_quantization(self):
        p = np.sqrt(2.5**2 - 1.0)  # delta = 0.3
        cfg = BeamConfig(p=p, theta0=np.pi / 4, ell=3, s=0.5)
        assert caustic_radius(cfg) == pytest.approx(3.15, abs=1e-12)
        rep = beam_expectations(cfg)
        assert rep.caustic_radius == pytest.approx(rep.l_z, abs=1e-15)

    def test_caustic_spin_splitting(self):
        cfg_p = BeamConfig(p=2.4, theta0=np.pi / 4, ell=2, s=0.5)
        cfg_m = BeamConfig(p=2.4, theta0=np.pi / 4, ell=2, s=-0.5)
        assert caustic_radius(cfg_p) - caustic_radius(cfg_m) == pytest.approx(
            cfg_p.delta, abs=1e-14
        )

    def test_caustic_sign_flag(self):
        cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=-1, s=0.5)
        rep = beam_expectations(cfg)
        assert rep.caustic_radius < 0.0
        assert not rep.caustic_physical

    def test_pure_spin_moment_g2(self):
        cfg = BeamConfig(p=2.4, theta0=0.0, ell=0, s=0.5)
        assert magnetic_moment(cfg) == 1.0

    def test_spin_sum_cancels_odd_terms(self):
        up = magnetic_moment(BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5))
        dn = magnetic_moment(BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=-0.5))
        assert up + dn == pytest.approx(2.0, abs=1e-14)

    def test_reference_value(self):
        p = np.sqrt(2.5**2 - 1.0)  # delta = 0.3
        cfg = BeamConfig(p=p, theta0=np.pi / 4, ell=1, s=0.5)
        assert magnetic_moment(cfg) == pytest.approx(1.85, abs=1e-12)

    def test_decomposition_identity(self):
        for ell, s in ((1, 0.5), (3, -0.5), (0, 0.5)):
            cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
            rep = beam_expectations(cfg)
            assert abs(
                magnetic_moment(cfg) - (rep.l_z + 2.0 * rep.s_z)
            ) <= 1e-14
