"""Dirac algebra: Clifford relations, plane-wave spinors, density/current."""

import numpy as np
import pytest

from diracbeams.dirac import (
    ALPHA,
    BETA,
    EYE4,
    current,
    density,
    dirac_matrices,
    energy,
    plane_wave_spinor,
    spin_basis,
)
from diracbeams.validation import DIRECTIONS


def test_beta_is_diag_1_1_m1_m1():
    assert np.array_equal(BETA, np.diag([1, 1, -1, -1]).astype(complex))


def test_alpha_dot_unit_momentum_squares_to_identity():
    for d in DIRECTIONS:
        ad = np.einsum("i,iab->ab", d, ALPHA)
        assert np.abs(ad @ ad - EYE4).max() <= 1e-15


def test_dirac_matrices_returns_consistent_tuple():
    ax, ay, az, beta = dirac_matrices()
    assert np.array_equal(ax, ALPHA[0])
    assert np.array_equal(beta, BETA)


def test_rest_spinor():
    w = spin_basis(0.5)
    psi = plane_wave_spinor(np.zeros(3), w)
    assert np.allclose(psi, [1, 0, 0, 0], atol=1e-15)


def test_unit_norm_for_generic_momenta():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.normal(size=3) * rng.uniform(0, 5)
        phase = rng.uniform(0, 2 * np.pi, size=2)
        amp = rng.uniform(0, 1)
        w = np.array([np.cos(amp) * np.exp(1j * phase[0]),
                      np.sin(amp) * np.exp(1j * phase[1])])
        psi = plane_wave_spinor(p, w)
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-14


@pytest.mark.parametrize("pn", [0.1, 1.0, 2.4, 10.0])
@pytest.mark.parametrize("s", [0.5, -0.5])
def test_hamiltonian_eigenvector(pn, s):
    for d in DIRECTIONS:
        p = pn * d
        h = np.einsum("i,iab->ab", p, ALPHA) + BETA
        psi = plane_wave_spinor(p, spin_basis(s))
        resid = np.linalg.norm(h @ psi - float(energy(p)) * psi)
        assert resid <= 1e-13


def test_plane_wave_density_and_current():
    p = np.array([0.0, 0.0, 2.4])
    psi = plane_wave_spinor(p, spin_basis(0.5))
    e = float(energy(p))
    assert abs(density(psi) - 1.0) <= 1e-14
    assert np.allclose(current(psi), p / e, atol=1e-14)
    # tilted momentum too
    p = 1.7 * DIRECTIONS[4]
    psi = plane_wave_spinor(p, spin_basis(-0.5))
    assert np.allclose(current(psi), p / float(energy(p)), atol=1e-13)


def test_rest_spinor_carries_no_current():
    psi = np.array([1, 0, 0, 0], dtype=complex)
    assert density(psi) == 1.0
    assert np.allclose(current(psi), 0.0)


def test_current_bounded_by_density():
    rng = np.random.default_rng(5)
    for _ in range(200):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.linalg.norm(current(psi)) <= density(psi) * (1 + 1e-12)


def test_continuity_at_zero_momentum():
    # W(eps * d) -> W(0) along every ray: the gap shrinks like eps/2
    w = spin_basis(0.5)
    rest = plane_wave_spinor(np.zeros(3), w)
    for d in DIRECTIONS:
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            gap = np.linalg.norm(plane_wave_spinor(eps * d, w) - rest)
            assert gap <= eps


def test_vectorized_momenta():
    rng = np.random.default_rng(2)
    ps = rng.normal(size=(7, 3))
    psi = plane_wave_spinor(ps, spin_basis(0.5))
    assert psi.shape == (7, 4)
    for k in range(7):
        single = plane_wave_spinor(ps[k], spin_basis(0.5))
        assert np.allclose(psi[k], single, atol=1e-15)


def test_non_unit_polarization_rejected():
    with pytest.raises(ValueError):
        plane_wave_spinor(np.array([0, 0, 1.0]), np.array([1.0, 1.0]))


def test_spin_basis_validation():
    with pytest.raises(ValueError):
        spin_basis(0.3)
