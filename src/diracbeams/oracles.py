"""Independent numeric routes that the closed forms are checked against.

No production path calls these; the validation suite, the tests and the
demos do.  Plane-wave quadrature over the cone azimuth checks the Bessel
field, the bispinor density of the sampled field checks the closed-form
profiles, central differences of the FW unitary and of the connection
check the Berry connection and curvature, A x p checks the spin-orbit
operator, and the FW rotation of a plane wave checks the unitary.
"""

from __future__ import annotations

import numpy as np

from .beams import RadialProfile, field_closed_form
from .dirac import current, density, plane_wave_spinor
from .foldy import _EPS3, _norm, ZeroMomentumError, berry_connection, fw_unitary

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _i_pow(n):
    """i**n for integer n, exact on the 4-cycle."""
    return _I_POW[n % 4]


def field_quadrature(cfg, r, phi, z=0.0, t=0.0, n_nodes=512, w=None):
    """Beam field by direct plane-wave superposition over the cone azimuth.

    Periodic trapezoid rule with ``n_nodes`` nodes; the integrand is smooth
    and 2pi-periodic, so convergence is spectral.  Serves as the
    independent oracle for ``field_closed_form`` -- prefactors are kept so
    the two agree including global phase.  Parameters broadcast together
    to the result's shape broadcast(r, phi, z, t) + (4,); the node sum
    runs over broadcast(r, phi) only and is then multiplied by the
    plane-wave phase of (z, t), so callers pass open grids (``np.ix_``).
    """
    if n_nodes < 64:
        raise ValueError("n_nodes must be >= 64")
    w = cfg.polarization if w is None else np.asarray(w, dtype=complex)
    r, phi, z, t = (np.asarray(v, dtype=float) for v in (r, phi, z, t))
    nodes = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    spinors = plane_wave_spinor(cfg.cone_momenta(nodes), w, cfg.mass)

    xi = cfg.k_perp * r
    osc = np.exp(
        1j * xi[..., None] * np.cos(nodes - phi[..., None])
        + 1j * cfg.ell * nodes
    )
    phase = np.exp(1j * (cfg.p_par * z - cfg.energy * t))
    pref = phase / (_i_pow(cfg.ell) * n_nodes)
    return pref[..., None] * np.einsum("...n,nc->...c", osc, spinors)


def profile_from_field(cfg, xi, n_phi=1):
    """Density/current profile evaluated through the field + bispinor route.

    Independent cross-check of ``density_profile``: builds the closed-form
    field on the grid, all azimuths in one call, and applies the bispinor
    density/current.  The cylindrical components come from the Cartesian
    current at each sampled azimuth (they are azimuth-independent for the
    spin basis states).
    """
    xi = np.asarray(xi, dtype=float)
    k = cfg.k_perp
    if k == 0.0:
        r = np.zeros_like(xi)
    else:
        r = xi / k
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    psi = field_closed_form(cfg, r[..., None], phis)
    rho_all = density(psi)
    j_all = current(psi)
    rho = np.zeros_like(xi)
    j_z = np.zeros_like(xi)
    j_phi = np.zeros_like(xi)
    j_r = np.zeros_like(xi)
    for i, ph in enumerate(phis):
        j = j_all[..., i, :]
        rho += rho_all[..., i]
        j_z += j[..., 2]
        j_phi += -np.sin(ph) * j[..., 0] + np.cos(ph) * j[..., 1]
        j_r += np.cos(ph) * j[..., 0] + np.sin(ph) * j[..., 1]
    rho /= n_phi
    j_z /= n_phi
    j_phi /= n_phi
    j_r /= n_phi
    return RadialProfile(xi=xi, rho=rho, j_z=j_z, j_phi=j_phi), j_r


def positive_block(mat4):
    """Upper-left 2x2 sector of a 4x4 operator (positive-energy projection)."""
    return np.asarray(mat4)[:2, :2]


def berry_connection_numeric(p, mass=1.0, rel_step=1e-6):
    """Finite-difference i * P+ (U^dag dU/dp), the oracle for the closed form."""
    p, pn = _norm(p)
    if pn == 0.0:
        raise ZeroMomentumError("Berry connection is undefined at p = 0")
    h = rel_step * pn
    u_dag = fw_unitary(p, mass).conj().T
    out = np.empty((3, 2, 2), dtype=complex)
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        du = (fw_unitary(p + dp, mass) - fw_unitary(p - dp, mass)) / (2.0 * h)
        out[i] = 1j * positive_block(u_dag @ du)
    return out


def berry_curvature_from_connection(p, mass=1.0, rel_step=1e-5):
    """Non-Abelian field strength of the closed-form connection, by central
    differences: F_k = (1/2) eps_kij (dA_j/dp_i - dA_i/dp_j - i [A_i, A_j])."""
    p, pn = _norm(p)
    if pn == 0.0:
        raise ZeroMomentumError("Berry curvature is undefined at p = 0")
    h = rel_step * pn
    a = berry_connection(p, mass)
    grad = np.empty((3, 3, 2, 2), dtype=complex)  # grad[i, j] = dA_j / dp_i
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        grad[i] = (
            berry_connection(p + dp, mass) - berry_connection(p - dp, mass)
        ) / (2.0 * h)
    f_tensor = (
        grad
        - np.swapaxes(grad, 0, 1)
        - 1j * (np.einsum("iab,jbc->ijac", a, a) - np.einsum("jab,ibc->ijac", a, a))
    )
    return 0.5 * np.einsum("kij,ijab->kab", _EPS3, f_tensor)


def soi_operator_from_connection(p, mass=1.0):
    """The same operator built as A x p; agreement with ``soi_operator``
    is part of the validation suite."""
    a = berry_connection(p, mass)
    p = np.asarray(p, dtype=float)
    return np.einsum("ijk,jab,k->iab", _EPS3, a, p)


def fw_plane_wave_check(p, w, mass=1.0):
    """U^dag W(p) for a plane-wave bispinor; should equal (w, 0)."""
    u = fw_unitary(p, mass)
    return u.conj().T @ plane_wave_spinor(np.asarray(p, dtype=float), w, mass)
