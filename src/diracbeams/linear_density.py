"""Per-unit-length expectation values for Gaussian-regularized beams.

An infinite Bessel beam carries a divergent number of electrons per unit
length, so cross-section expectation values are regularized by modulating
the transverse amplitude with a Gaussian envelope exp(-r^2 / 2 a^2) and
extrapolating the width a to infinity: the averages approach their limit
as 1/a^2, so c0 + c2/a^2 is fitted over a ladder of widths.  Widths are
quoted in units of 1/k_perp, i.e. as dimensionless xi-widths.

Observables per unit z-length:

* OAM density: the canonical -i d/dphi, which acts analytically on the
  single azimuthal harmonics carried by each bispinor component;
* SAM density: the canonical Sigma_z, acting componentwise;
* magnetic moment density: (e/2) (r x j)_z with the bispinor current of
  the enveloped field, normalized by the particle number per unit length.

Because the enveloped field remains an exact J_z eigenstate, the OAM and
SAM linear densities sum to (ell + s) hbar identically -- the envelope
surrogate realizes the canonical split (ell + delta*s, s - delta*s).
Whether those -delta*s conversion terms should instead sit entirely in
the OAM is a property of the exact diffracting Bessel-Gauss solution,
which this surrogate deliberately does not reproduce; the report exposes
the moment comparisons so the difference stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beams import BeamConfig, field_closed_form
from .dirac import current, density

SIGMA_Z_DIAG = np.array([0.5, -0.5, 0.5, -0.5])


class ExtrapolationError(RuntimeError):
    """Width extrapolation failed to converge; carries diagnostics."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class RegularizedBeam:
    """A Bessel beam with a transverse Gaussian envelope of xi-width a."""

    cfg: BeamConfig
    a: float

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("Gaussian width must be positive")
        if self.cfg.k_perp == 0.0:
            raise ValueError(
                "regularized cross-section needs a transverse structure "
                "(p > 0 and theta0 > 0)"
            )

    def envelope(self, xi):
        return np.exp(-np.asarray(xi, dtype=float) ** 2 / (2.0 * self.a**2))

    def field(self, r, phi, z=0.0, t=0.0):
        bare = field_closed_form(self.cfg, r, phi, z, t)
        xi = self.cfg.k_perp * np.asarray(r, dtype=float)
        return bare * self.envelope(xi)[..., None]


@dataclass
class LinearDensityReport:
    """Linear densities per width plus their infinite-width extrapolation.

    Angular momenta in hbar units, the moment in e hbar / 2E units.
    ``m_z_comparison`` holds the extrapolated moment minus each candidate
    closed form, so the discrepancies are reported rather than hidden.
    """

    widths: np.ndarray
    l_z_samples: np.ndarray
    s_z_samples: np.ndarray
    m_z_samples: np.ndarray
    l_z: float
    s_z: float
    m_z: float
    l_z_error: float
    s_z_error: float
    m_z_error: float
    m_z_comparison: dict = field(default_factory=dict)


def _simpson(y, x):
    """Composite Simpson on a uniform grid with an odd number of nodes."""
    n = len(x)
    if n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of nodes")
    h = x[1] - x[0]
    return (h / 3.0) * (
        y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()
    )


def _component_harmonics(cfg):
    """Azimuthal winding number carried by each bispinor component."""
    ell = cfg.ell
    if cfg.s > 0:
        return np.array([ell, ell, ell, ell + 1])
    return np.array([ell, ell, ell - 1, ell])


def _fit_inverse_square_width(widths, values):
    """Least-squares fit c0 + c2/a^2; returns (c0, c2, max residual)."""
    design = np.column_stack([np.ones_like(widths), 1.0 / widths**2])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = np.abs(design @ coef - values).max()
    return float(coef[0]), float(coef[1]), float(resid)


def cross_section_averages(cfg, a, radial_nodes=4000):
    """One-width cross-section averages (L_z, S_z, M_z) of the enveloped beam.

    The azimuthal integrals are analytic (each component is a single
    harmonic, so cross terms between different windings drop); only the
    radial integral is numerical, by composite Simpson on [0, 8a], where
    the squared envelope has decayed below 1e-27.
    """
    beam = RegularizedBeam(cfg, a)
    xi_max = 8.0 * a
    n = max(int(radial_nodes), int(16.0 * xi_max) + 1)
    if n % 2 == 0:
        n += 1
    xi = np.linspace(0.0, xi_max, n)
    r = xi / cfg.k_perp

    psi = field_closed_form(cfg, r, 0.0)
    g2 = beam.envelope(xi) ** 2
    comp2 = (psi.conj() * psi).real  # |psi_c|^2, shape (n, 4)

    rho = comp2.sum(axis=-1) * g2
    harmonics = _component_harmonics(cfg)
    lz_den = comp2 @ harmonics.astype(float) * g2
    sz_den = comp2 @ SIGMA_Z_DIAG * g2
    # phi = 0, so the azimuthal unit vector is y-hat.
    jphi = current(psi)[..., 1] * g2

    norm = _simpson(xi * rho, xi)
    l_z = _simpson(xi * lz_den, xi) / norm
    s_z = _simpson(xi * sz_den, xi) / norm
    m_z = (cfg.energy / cfg.p_perp) * _simpson(xi * xi * jphi, xi) / norm
    return l_z, s_z, m_z


def linear_expectations(cfg, widths=(40.0, 60.0, 90.0, 135.0),
                        radial_nodes=4000, fit_tol=5e-3):
    """Linear densities of OAM, SAM, and magnetic moment, extrapolated a -> oo.

    Parameters
    ----------
    cfg : BeamConfig with p > 0 and theta0 > 0.
    widths : increasing ladder of Gaussian xi-widths (largest should be
        well above ~50 for the 1/a^2 fit to settle).
    radial_nodes : minimum Simpson node count per width (the grid is
        refined automatically so the oscillatory integrands stay resolved).
    fit_tol : maximum tolerated residual of the c0 + c2/a^2 fit, relative
        to max(1, |c0|); beyond it an ExtrapolationError is raised.

    Returns a LinearDensityReport.  The error estimates combine the fit
    residual with the magnitude of the last increment in the ladder.  With
    deviations falling as 1/a^2, that increment exceeds the last sample's
    own distance to the limit whenever the last two widths differ by a
    factor above sqrt(2), so the estimate bounds the extrapolation error.
    """
    widths = np.asarray(widths, dtype=float)
    if widths.ndim != 1 or len(widths) < 2:
        raise ValueError("need at least two widths")
    if not np.all(np.diff(widths) > 0.0):
        raise ValueError("widths must be strictly increasing")

    samples = np.array([
        cross_section_averages(cfg, a, radial_nodes) for a in widths
    ])
    l_s, s_s, m_s = samples[:, 0], samples[:, 1], samples[:, 2]

    report_vals = {}
    for name, vals in (("l_z", l_s), ("s_z", s_s), ("m_z", m_s)):
        c0, _, resid = _fit_inverse_square_width(widths, vals)
        if resid > fit_tol * max(1.0, abs(c0)):
            raise ExtrapolationError(
                f"width extrapolation of {name} did not converge "
                f"(fit residual {resid:.3e})",
                diagnostics={
                    "observable": name,
                    "widths": widths.tolist(),
                    "values": vals.tolist(),
                    "residual": resid,
                },
            )
        increment = abs(vals[-1] - vals[-2])
        report_vals[name] = (c0, resid + increment)

    m_z = report_vals["m_z"][0]
    d, s, ell = cfg.delta, cfg.s, cfg.ell
    comparison = {
        "orbital_plus_spin": m_z - (ell + 2.0 * s),
        "orbital_plus_spin_plus_soi": m_z - (ell + 2.0 * s + d * s),
        "one_particle_moment": m_z - (ell + 2.0 * s - d * s),
    }
    return LinearDensityReport(
        widths=widths,
        l_z_samples=l_s,
        s_z_samples=s_s,
        m_z_samples=m_s,
        l_z=report_vals["l_z"][0],
        s_z=report_vals["s_z"][0],
        m_z=m_z,
        l_z_error=report_vals["l_z"][1],
        s_z_error=report_vals["s_z"][1],
        m_z_error=report_vals["m_z"][1],
        m_z_comparison=comparison,
    )
