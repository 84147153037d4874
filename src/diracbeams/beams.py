"""Spinor Bessel beams: exact cylindrical solutions of the free Dirac equation.

A beam is a monoenergetic superposition of plane waves on a cone of polar
angle theta0 with azimuthal winding exp(i ell phi).  Two independent
routes to the field are provided:

* ``field_closed_form`` -- the analytic three-term Bessel expression,
* ``field_quadrature``  -- direct numerical superposition of plane waves
  over the cone azimuth (periodic trapezoid rule, spectrally accurate).

The two agree including the global phase; that agreement is the central
correctness oracle of the package.  The radial delta of the cone spectrum
is consumed analytically, so only the azimuthal integral is ever
discretized.

Spin-orbit strength: delta = (1 - m/E) sin^2(theta0), in [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .bessel import MAX_ORDER, bessel_j_orders
from .dirac import current, density, plane_wave_spinor, spin_basis

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _i_pow(n):
    """i**n for integer n, exact on the 4-cycle."""
    return _I_POW[n % 4]


@dataclass(frozen=True)
class BeamConfig:
    """Physical beam parameters, natural units (momenta in units of mass).

    p : momentum magnitude, >= 0
    theta0 : cone polar angle in radians, within [0, pi/2]
    ell : vortex winding number, an integer with |ell| <= MAX_ORDER - 1
          (the field needs J_{ell-1} .. J_{ell+1})
    s : spin index, +0.5 or -0.5
    mass : rest mass, 1.0 by default
    """

    p: float
    theta0: float
    ell: int
    s: float
    mass: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p < 0.0:
            raise ValueError(f"momentum must be finite and >= 0, got {self.p}")
        if not 0.0 <= self.theta0 <= np.pi / 2.0 + 1e-15:
            raise ValueError(f"theta0 must lie in [0, pi/2], got {self.theta0}")
        if self.s not in (0.5, -0.5):
            raise ValueError(f"spin index must be +0.5 or -0.5, got {self.s}")
        if isinstance(self.ell, bool) or not isinstance(self.ell, Integral):
            raise ValueError(f"vortex index must be an integer, got {self.ell!r}")
        if abs(self.ell) > MAX_ORDER - 1:
            raise ValueError(f"vortex index must satisfy |ell| <= "
                             f"{MAX_ORDER - 1}, got {self.ell}")
        object.__setattr__(self, "ell", int(self.ell))
        if not np.isfinite(self.mass) or self.mass <= 0.0:
            raise ValueError(f"mass must be finite and positive, got {self.mass}")

    @property
    def energy(self):
        return float(np.hypot(self.p, self.mass))

    @property
    def p_perp(self):
        return self.p * float(np.sin(self.theta0))

    @property
    def p_par(self):
        return self.p * float(np.cos(self.theta0))

    @property
    def k_perp(self):
        # hbar = 1, so the transverse wavenumber equals p_perp.
        return self.p_perp

    @property
    def delta(self):
        """Spin-orbit strength (1 - m/E) sin^2(theta0)."""
        return (1.0 - self.mass / self.energy) * float(np.sin(self.theta0)) ** 2

    @property
    def polarization(self):
        return spin_basis(self.s)

    def cone_momenta(self, phi):
        """Momenta on the spectral cone at azimuth(s) phi, shape (..., 3)."""
        phi = np.asarray(phi, dtype=float)
        return np.stack(
            [
                self.p_perp * np.cos(phi),
                self.p_perp * np.sin(phi),
                self.p_par * np.ones_like(phi),
            ],
            axis=-1,
        )


@dataclass
class RadialProfile:
    """Sampled density and current versus dimensionless radius xi = k_perp r."""

    xi: np.ndarray
    rho: np.ndarray
    j_z: np.ndarray
    j_phi: np.ndarray


def _closed_form(cfg, r, phi, z, t, w, soi_scale):
    """Three-term analytic field; soi_scale != 1 is a fault-injection knob
    used by the self-validation suite (it scales delta in the spin-orbit
    amplitudes only)."""
    r, phi, z, t = np.broadcast_arrays(
        np.asarray(r, dtype=float),
        np.asarray(phi, dtype=float),
        np.asarray(z, dtype=float),
        np.asarray(t, dtype=float),
    )
    ell = cfg.ell
    xi = cfg.k_perp * r
    j_lm, j_l, j_lp = bessel_j_orders((ell - 1, ell, ell + 1), xi)

    u = cfg.mass / cfg.energy
    a_up = np.sqrt((1.0 + u) / 2.0)
    b_low = np.sqrt((1.0 - u) / 2.0) * np.cos(cfg.theta0)
    c_soi = np.sqrt(soi_scale * cfg.delta / 2.0)

    alpha, beta = w
    e_l = np.exp(1j * ell * phi)
    e_lm = np.exp(1j * (ell - 1) * phi)
    e_lp = np.exp(1j * (ell + 1) * phi)
    phase = np.exp(1j * (cfg.p_par * z - cfg.energy * t))

    psi = np.empty(r.shape + (4,), dtype=complex)
    psi[..., 0] = a_up * alpha * e_l * j_l
    psi[..., 1] = a_up * beta * e_l * j_l
    psi[..., 2] = b_low * alpha * e_l * j_l - 1j * c_soi * beta * e_lm * j_lm
    psi[..., 3] = -b_low * beta * e_l * j_l + 1j * c_soi * alpha * e_lp * j_lp
    psi *= phase[..., None]
    return psi


def field_closed_form(cfg, r, phi, z=0.0, t=0.0, w=None):
    """Beam field from the analytic Bessel expression.

    Parameters broadcast together; the result has shape
    broadcast(r, phi, z, t) + (4,).  ``w`` overrides the polarization
    spinor (defaults to the basis state selected by cfg.s); profiles for
    mixed polarizations are available only through this field route.
    """
    w = cfg.polarization if w is None else np.asarray(w, dtype=complex)
    if abs(np.vdot(w, w).real - 1.0) > 1e-12:
        raise ValueError("polarization spinor must have unit norm")
    return _closed_form(cfg, r, phi, z, t, w, soi_scale=1.0)


def field_quadrature(cfg, r, phi, z=0.0, t=0.0, n_nodes=512, w=None):
    """Beam field by direct plane-wave superposition over the cone azimuth.

    Periodic trapezoid rule with ``n_nodes`` nodes; the integrand is smooth
    and 2pi-periodic, so convergence is spectral.  Serves as the
    independent oracle for ``field_closed_form`` -- prefactors are kept so
    the two agree including global phase.
    """
    if n_nodes < 64:
        raise ValueError("n_nodes must be >= 64")
    w = cfg.polarization if w is None else np.asarray(w, dtype=complex)
    r, phi, z, t = np.broadcast_arrays(
        np.asarray(r, dtype=float),
        np.asarray(phi, dtype=float),
        np.asarray(z, dtype=float),
        np.asarray(t, dtype=float),
    )
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


def density_profile(cfg, xi):
    """Closed-form density and current profiles on a xi = k_perp r grid.

    rho   = (1 - delta/2) J_ell^2 + (delta/2) J_{ell+2s}^2
    j_z   = (p_par / E) J_ell^2
    j_phi = (p_perp / E) J_ell J_{ell+2s}

    The same quantities obtained by feeding ``field_closed_form`` through
    the bispinor density/current agree pointwise (see the validation
    suite); this closed form exists only for the spin basis states.
    """
    xi = np.asarray(xi, dtype=float)
    ell = cfg.ell
    partner = int(round(ell + 2 * cfg.s))
    j_l, j_p = bessel_j_orders((ell, partner), xi)
    d = cfg.delta
    rho = (1.0 - d / 2.0) * j_l**2 + (d / 2.0) * j_p**2
    j_z = (cfg.p_par / cfg.energy) * j_l**2
    j_phi = (cfg.p_perp / cfg.energy) * j_l * j_p
    return RadialProfile(xi=xi, rho=rho, j_z=j_z, j_phi=j_phi)


def profile_from_field(cfg, xi, n_phi=1):
    """Density/current profile evaluated through the field + bispinor route.

    Independent cross-check of ``density_profile``: builds the closed-form
    field on the grid and applies the bispinor density/current.  The
    cylindrical components come from the Cartesian current at each sampled
    azimuth (they are azimuth-independent for the spin basis states).
    """
    xi = np.asarray(xi, dtype=float)
    k = cfg.k_perp
    if k == 0.0:
        r = np.zeros_like(xi)
    else:
        r = xi / k
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    rho = np.zeros_like(xi)
    j_z = np.zeros_like(xi)
    j_phi = np.zeros_like(xi)
    j_r = np.zeros_like(xi)
    for ph in phis:
        psi = field_closed_form(cfg, r, ph)
        j = current(psi)
        rho += density(psi)
        j_z += j[..., 2]
        j_phi += -np.sin(ph) * j[..., 0] + np.cos(ph) * j[..., 1]
        j_r += np.cos(ph) * j[..., 0] + np.sin(ph) * j[..., 1]
    rho /= n_phi
    j_z /= n_phi
    j_phi /= n_phi
    j_r /= n_phi
    return RadialProfile(xi=xi, rho=rho, j_z=j_z, j_phi=j_phi), j_r
