"""Property tests over random beams: the identities the paper fixes.

Beams are drawn with p/m = 0 or in [1e-3, 10], theta0 = 0 or in
[1e-3, pi/2] (so r = xi / k_perp stays finite), |ell| <= 20 and either
spin, and points with xi = k_perp r in [0, 20], any azimuth and
|z|, |t| <= 5.  In that range the 512-node quadrature oracle has converged
to roundoff, so closed form and quadrature must agree to 1e-11.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbeams.beams import BeamConfig, field_closed_form
from diracbeams.dirac import current, density
from diracbeams.oracles import field_quadrature

beams = st.builds(
    BeamConfig,
    p=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    theta0=st.one_of(st.just(0.0), st.floats(1e-3, np.pi / 2)),
    ell=st.integers(-20, 20),
    s=st.sampled_from([0.5, -0.5]),
)
points = st.tuples(
    st.floats(0.0, 20.0),          # xi
    st.floats(0.0, 2.0 * np.pi),   # phi
    st.floats(-5.0, 5.0),          # z
    st.floats(-5.0, 5.0),          # t
)
SETTINGS = settings(max_examples=50, deadline=None)

# Sigma_z / 2 on the bispinor components
SPIN_Z = np.array([0.5, -0.5, 0.5, -0.5])


def _radius(cfg, xi):
    return xi / cfg.k_perp if cfg.k_perp > 0.0 else xi


@SETTINGS
@given(beams, points, st.floats(-np.pi, np.pi))
def test_total_am_eigenvalue(cfg, point, alpha):
    # J_z = -i d/dphi + Sigma_z/2 with eigenvalue ell + s means a rotation
    # by alpha multiplies component c by exp(i (ell + s - S_c) alpha).
    xi, phi, z, t = point
    r = _radius(cfg, xi)
    psi = field_closed_form(cfg, r, phi, z, t)
    rotated = field_closed_form(cfg, r, phi + alpha, z, t)
    expected = np.exp(1j * (cfg.ell + cfg.s - SPIN_Z) * alpha) * psi
    assert np.abs(rotated - expected).max() <= 1e-12


@SETTINGS
@given(beams, points)
def test_current_bounded_by_density(cfg, point):
    xi, phi, z, t = point
    psi = field_closed_form(cfg, _radius(cfg, xi), phi, z, t)
    assert np.linalg.norm(current(psi)) <= density(psi) + 1e-14


@SETTINGS
@given(beams, points)
def test_joint_flip_keeps_density_and_current_magnitude(cfg, point):
    xi, phi, z, t = point
    flipped = BeamConfig(p=cfg.p, theta0=cfg.theta0, ell=-cfg.ell, s=-cfg.s)
    psi = field_closed_form(cfg, _radius(cfg, xi), phi, z, t)
    psi_f = field_closed_form(flipped, _radius(flipped, xi), phi, z, t)
    assert abs(density(psi) - density(psi_f)) <= 1e-12
    assert abs(np.linalg.norm(current(psi))
               - np.linalg.norm(current(psi_f))) <= 1e-12


@SETTINGS
@given(beams, points)
def test_closed_form_matches_quadrature(cfg, point):
    xi, phi, z, t = point
    r = _radius(cfg, xi)
    closed = field_closed_form(cfg, r, phi, z, t)
    quad = field_quadrature(cfg, r, phi, z, t, n_nodes=512)
    assert np.abs(closed - quad).max() <= 1e-11
