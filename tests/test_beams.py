"""Beam fields: closed form vs quadrature oracle, profiles, symmetries."""

import numpy as np
import pytest

from diracbeams.beams import BeamConfig, density_profile, field_closed_form
from diracbeams.dirac import density, plane_wave_spinor
from diracbeams.oracles import field_quadrature
from diracbeams.validation import SIGMA_Z4


def make_cfg(ell=1, s=0.5, p=2.4, theta0=np.pi / 4):
    return BeamConfig(p=p, theta0=theta0, ell=ell, s=s)


class TestBeamConfig:
    def test_reference_point(self):
        cfg = make_cfg()
        assert cfg.energy == pytest.approx(2.6, abs=1e-15)
        assert cfg.delta == pytest.approx(4.0 / 13.0, abs=1e-15)
        # the one-digit rounding quoted alongside the reference figures
        assert round(cfg.delta, 1) == 0.3

    def test_paraxial_limit(self):
        cfg = BeamConfig(p=5.0, theta0=0.0, ell=2, s=0.5)
        assert cfg.delta == 0.0
        assert cfg.p_perp == 0.0

    def test_rest_limit(self):
        cfg = BeamConfig(p=0.0, theta0=np.pi / 4, ell=1, s=0.5)
        assert cfg.delta == 0.0
        assert cfg.energy == 1.0

    def test_momentum_decomposition(self):
        for theta in (0.0, 0.3, np.pi / 4, np.pi / 2):
            cfg = BeamConfig(p=2.4, theta0=theta, ell=0, s=0.5)
            assert cfg.p_perp**2 + cfg.p_par**2 == pytest.approx(
                cfg.p**2, rel=1e-15
            )
            assert 0.0 <= cfg.delta < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BeamConfig(p=-1.0, theta0=0.5, ell=0, s=0.5)
        with pytest.raises(ValueError):
            BeamConfig(p=1.0, theta0=2.0, ell=0, s=0.5)
        with pytest.raises(ValueError):
            BeamConfig(p=1.0, theta0=0.5, ell=0, s=0.3)
        with pytest.raises(ValueError):
            BeamConfig(p=1.0, theta0=0.5, ell=0.5, s=0.5)

    @pytest.mark.parametrize("bad", [
        {"mass": float("nan")}, {"mass": float("inf")}, {"mass": 0.0},
        {"ell": True}, {"ell": 2.0}, {"ell": 1.5},
        {"ell": 200}, {"ell": -200}, {"ell": 10**6},
    ])
    def test_rejects_input_outside_domain(self, bad):
        kwargs = {"p": 2.4, "theta0": np.pi / 4, "ell": 1, "s": 0.5} | bad
        with pytest.raises(ValueError):
            BeamConfig(**kwargs)

    def test_accepts_numpy_integers_up_to_ell_max(self):
        for ell in (np.int64(199), np.int32(-199), np.int8(3)):
            cfg = make_cfg(ell=ell)
            assert type(cfg.ell) is int and cfg.ell == int(ell)


class TestClosedForm:
    def test_paraxial_reduces_to_plane_wave(self):
        cfg = BeamConfig(p=2.4, theta0=0.0, ell=0, s=0.5)
        z, t = 1.3, 0.7
        psi = field_closed_form(cfg, r=5.0, phi=1.1, z=z, t=t)
        pw = plane_wave_spinor(np.array([0.0, 0.0, cfg.p]), cfg.polarization)
        phase = np.exp(1j * (cfg.p * z - cfg.energy * t))
        assert np.allclose(psi, phase * pw, atol=1e-15)

    def test_on_axis_down_spin_single_component(self):
        # ell = 1, s = -1/2 at r = 0: only the spin-orbit J_0 term survives,
        # i.e. the lower-block component multiplying -beta*sqrt(delta).
        cfg = make_cfg(ell=1, s=-0.5)
        psi = field_closed_form(cfg, r=0.0, phi=0.9)
        expected = -1j * np.sqrt(cfg.delta / 2.0)
        assert psi[2] == pytest.approx(expected, abs=1e-15)
        assert np.allclose(psi[[0, 1, 3]], 0.0, atol=1e-16)

    def test_on_axis_up_spin_vanishes(self):
        cfg = make_cfg(ell=1, s=0.5)
        psi = field_closed_form(cfg, r=0.0, phi=0.9)
        assert np.allclose(psi, 0.0, atol=1e-16)


class TestQuadratureOracle:
    def test_reference_point_matches_closed_form(self):
        cfg = make_cfg(ell=1, s=0.5)
        r = 2.0 / cfg.k_perp
        a = field_closed_form(cfg, r, 0.7)
        b = field_quadrature(cfg, r, 0.7, n_nodes=512)
        assert np.abs(a - b).max() <= 1e-10

    @pytest.mark.parametrize("ell", [0, 1, 3, -1])
    @pytest.mark.parametrize("s", [0.5, -0.5])
    def test_grid_agreement_including_phase(self, ell, s):
        cfg = make_cfg(ell=ell, s=s)
        xi = np.array([0.0, 2.5, 7.0, 13.0, 20.0])
        phi = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        XI, PH = np.meshgrid(xi, phi, indexing="ij")
        closed = field_closed_form(cfg, XI / cfg.k_perp, PH, z=0.4, t=0.2)
        quad = field_quadrature(cfg, XI / cfg.k_perp, PH, z=0.4, t=0.2,
                                n_nodes=512)
        rel = np.linalg.norm(closed - quad) / np.linalg.norm(closed)
        assert rel <= 1e-9

    def test_node_doubling_convergence(self):
        cfg = make_cfg(ell=1, s=0.5)
        r = 2.0 / cfg.k_perp
        f256 = field_quadrature(cfg, r, 0.7, n_nodes=256)
        f512 = field_quadrature(cfg, r, 0.7, n_nodes=512)
        assert np.abs(f256 - f512).max() < 1e-12

    def test_on_axis_zero_winding_is_cone_average(self):
        cfg = make_cfg(ell=0, s=0.5)
        psi = field_quadrature(cfg, 0.0, 0.0, n_nodes=256)
        nodes = 2 * np.pi * np.arange(256) / 256
        w_avg = plane_wave_spinor(cfg.cone_momenta(nodes),
                                  cfg.polarization).mean(axis=0)
        assert np.allclose(psi, w_avg, atol=1e-14)

    def test_mixed_polarization_agrees(self):
        # general (alpha, beta): only the field route exists for these
        cfg = make_cfg(ell=2, s=0.5)
        w = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        r = np.array([0.8, 2.9]) / cfg.k_perp
        a = field_closed_form(cfg, r, 0.3, w=w)
        b = field_quadrature(cfg, r, 0.3, n_nodes=512, w=w)
        assert np.abs(a - b).max() <= 1e-12

    def test_too_few_nodes_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            field_quadrature(cfg, 1.0, 0.0, n_nodes=32)


class TestProfiles:
    def test_central_intensity_dichotomy(self):
        xi0 = np.array([0.0])
        down = density_profile(make_cfg(ell=1, s=-0.5), xi0).rho[0]
        up = density_profile(make_cfg(ell=1, s=0.5), xi0).rho[0]
        cfg = make_cfg()
        assert down == pytest.approx(cfg.delta / 2.0, abs=1e-15)
        assert up == 0.0

    def test_rho_nonnegative_and_shapes(self):
        cfg = make_cfg(ell=3, s=-0.5)
        xi = np.linspace(0.0, 40.0, 500)
        prof = density_profile(cfg, xi)
        assert (prof.rho >= 0.0).all()
        assert prof.rho.shape == prof.j_z.shape == prof.j_phi.shape == xi.shape

    def test_symmetry_under_joint_flip(self):
        xi = np.linspace(0.0, 20.0, 301)
        for ell, s in ((1, 0.5), (3, -0.5), (2, 0.5)):
            p1 = density_profile(make_cfg(ell=ell, s=s), xi)
            p2 = density_profile(make_cfg(ell=-ell, s=-s), xi)
            assert np.abs(p1.rho - p2.rho).max() <= 1e-12
            jmag1 = np.hypot(p1.j_z, p1.j_phi)
            jmag2 = np.hypot(p2.j_z, p2.j_phi)
            assert np.abs(jmag1 - jmag2).max() <= 1e-12

    def test_strict_spin_dependence(self):
        # flipping only s changes the profile when delta > 0 and ell != 0
        fine = np.linspace(0.0, 6.0, 1201)
        rho_m = density_profile(make_cfg(ell=1, s=-0.5), fine).rho
        rho_p = density_profile(make_cfg(ell=1, s=0.5), fine).rho
        peak = int(np.argmax(rho_m))
        assert abs(rho_p[peak] - rho_m[peak]) > 1e-3

    def test_fig_like_split_curves_differ(self):
        xi = np.linspace(0.0, 20.0, 400)
        up = density_profile(make_cfg(ell=3, s=0.5), xi)
        dn = density_profile(make_cfg(ell=3, s=-0.5), xi)
        assert np.abs(up.rho - dn.rho).max() > 1e-3
        assert np.abs(up.j_phi - dn.j_phi).max() > 1e-3


class TestEigenstructure:
    def test_paraxial_separate_eigenstates(self):
        # delta = 0: simultaneously an OAM and a spin eigenstate
        cfg = BeamConfig(p=2.4, theta0=0.0, ell=0, s=-0.5)
        h = 1e-5
        psi = field_closed_form(cfg, 1.3, 0.8)
        dpsi = (
            field_closed_form(cfg, 1.3, 0.8 + h)
            - field_closed_form(cfg, 1.3, 0.8 - h)
        ) / (2.0 * h)
        assert np.linalg.norm(-1j * dpsi - cfg.ell * psi) <= 1e-8
        assert np.linalg.norm(psi @ SIGMA_Z4.T - cfg.s * psi) <= 1e-8

    def test_z_t_dependence_is_pure_phase(self):
        cfg = make_cfg(ell=1, s=0.5)
        rho0 = density(field_closed_form(cfg, 2.0, 0.3, 0.0, 0.0))
        for z, t in [(3.7, 0.0), (0.0, 2.2), (-1.1, 5.0)]:
            assert density(field_closed_form(cfg, 2.0, 0.3, z, t)) == \
                pytest.approx(rho0, abs=1e-14)

    def test_theta0_right_angle_edge(self):
        # cos(pi/2) only vanishes to float rounding, so p_par ~ 1e-16
        cfg = BeamConfig(p=2.4, theta0=np.pi / 2, ell=1, s=0.5)
        assert cfg.p_par == pytest.approx(0.0, abs=1e-15)
        prof = density_profile(cfg, np.linspace(0, 5, 11))
        assert np.abs(prof.j_z).max() <= 1e-15
        psi = field_closed_form(cfg, 1.0, 0.5, z=2.0)
        quad = field_quadrature(cfg, 1.0, 0.5, z=2.0)
        assert np.abs(psi - quad).max() <= 1e-12
