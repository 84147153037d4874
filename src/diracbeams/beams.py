"""Spinor Bessel beams: exact cylindrical solutions of the free Dirac equation.

A beam is a monoenergetic superposition of plane waves on a cone of polar
angle theta0 with azimuthal winding exp(i ell phi).  ``field_closed_form``
is the analytic three-term Bessel expression for its spinor field and
``density_profile`` the closed-form density and current.  Their oracles,
plane-wave quadrature over the cone azimuth and the bispinor density of
the sampled field, live in ``oracles``; the closed form and the quadrature
agree including the global phase, the central correctness check of the
package.

Spin-orbit strength: delta = (1 - m/E) sin^2(theta0), in [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .bessel import MAX_ORDER, bessel_j_orders
from .dirac import spin_basis

# Largest momentum magnitude and mass: the FW kernels square momenta
# component-wise (p @ p, p^2 + m^2), which overflows near 1e154 and
# underflows to an exact zero, a spurious p = 0, below about 1e-162.
MAX_MOMENTUM = 1e150
MIN_MOMENTUM = 1.0 / MAX_MOMENTUM


@dataclass(frozen=True)
class BeamConfig:
    """Physical beam parameters, natural units (momenta in units of mass).

    p : momentum magnitude, 0 or within [MIN_MOMENTUM, MAX_MOMENTUM]
    theta0 : cone polar angle in radians, within [0, pi/2]
    ell : vortex winding number, an integer with |ell| <= MAX_ORDER - 1
          (the field needs J_{ell-1} .. J_{ell+1})
    s : spin index, +0.5 or -0.5
    mass : rest mass, 0 < mass <= MAX_MOMENTUM, 1.0 by default
    """

    p: float
    theta0: float
    ell: int
    s: float
    mass: float = 1.0

    def __post_init__(self):
        if not (self.p == 0.0 or MIN_MOMENTUM <= self.p <= MAX_MOMENTUM):
            raise ValueError(f"momentum must be 0 or lie in [{MIN_MOMENTUM:g}, "
                             f"{MAX_MOMENTUM:g}], got {self.p}")
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
        if not 0.0 < self.mass <= MAX_MOMENTUM:
            raise ValueError(f"mass must lie in (0, {MAX_MOMENTUM:g}], "
                             f"got {self.mass}")

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
    c_soi = np.sqrt(cfg.delta / 2.0)

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
    partner = int(round(cfg.ell + 2 * cfg.s))
    j_l, j_p = bessel_j_orders((cfg.ell, partner), xi)
    return _profile(cfg, xi, j_l, j_p)


def spin_pair_profiles(cfg, xi):
    """``density_profile`` for s = +1/2 and s = -1/2, in that order.

    One Bessel call serves both spins: J_{ell-1}, J_ell and J_{ell+1}.
    cfg.s is ignored; delta, p_par, p_perp and E do not depend on it.
    """
    xi = np.asarray(xi, dtype=float)
    j_lm, j_l, j_lp = bessel_j_orders((cfg.ell - 1, cfg.ell, cfg.ell + 1), xi)
    return _profile(cfg, xi, j_l, j_lp), _profile(cfg, xi, j_l, j_lm)


def _profile(cfg, xi, j_l, j_p):
    """``density_profile``'s formulas, from J_ell and J_{ell+2s}."""
    d = cfg.delta
    rho = (1.0 - d / 2.0) * j_l**2 + (d / 2.0) * j_p**2
    j_z = (cfg.p_par / cfg.energy) * j_l**2
    j_phi = (cfg.p_perp / cfg.energy) * j_l * j_p
    return RadialProfile(xi=xi, rho=rho, j_z=j_z, j_phi=j_phi)
