"""Per-unit-length expectation values for Gaussian-regularized beams.

An infinite Bessel beam carries a divergent number of electrons per unit
length, so cross-section expectation values are regularized by modulating
the transverse amplitude with a Gaussian envelope exp(-r^2 / 2 a^2) and
extrapolating the width a to infinity: the averages approach their limit
as 1/a^2, so c0 + c2/a^2 is fitted over a ladder of widths.  Widths are
quoted in units of 1/k_perp, i.e. as dimensionless xi-widths.

One request evaluates the field once for the whole ladder, on the union
of the widths' Simpson grids (capped at MAX_POINTS nodes); each width
then gathers its own nodes, applies its envelope and runs Simpson.

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
from functools import reduce

import numpy as np

from .beams import MAX_POINTS, BeamConfig, field_closed_form
from .dirac import ALPHA

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


def _radial_node_count(a, radial_nodes):
    """Simpson nodes on [0, 8a]: at least radial_nodes, 16 per unit of xi
    and 3, odd; ValueError above MAX_POINTS, before anything is allocated."""
    if 128.0 * a < MAX_POINTS:      # False for inf and NaN as well
        n = max(int(radial_nodes), int(128.0 * a) + 1, 3)
        if n % 2 == 0:
            n += 1
        if n <= MAX_POINTS:
            return n
    raise ValueError(f"width {a:g} with radial_nodes {radial_nodes} needs more "
                     f"than {MAX_POINTS} Simpson nodes")


def _union_node_bound(widths, counts):
    """Upper bound on the distinct nodes of the grids linspace(0, 8a, n).

    linspace puts node k at fl(k h), h = fl(8a / (n - 1)), and the last
    node at 8a; all grids share xi = 0.  A grid whose step h a longer grid
    already has is therefore a prefix of it, but for its endpoint when
    fl((n - 1) h) misses 8a.  Grids of different steps are counted as
    sharing only xi = 0.  A zero step (subnormal a) makes linspace divide
    instead, so such a grid is never counted as a prefix.
    """
    bound, steps = 1, set()
    for a, n in sorted(zip(widths, counts), key=lambda grid: -grid[1]):
        h = 8.0 * a / (n - 1)
        if h in steps:
            bound += int((n - 1) * h != 8.0 * a)
        else:
            bound += n - 1
            if h:
                steps.add(h)
    return bound


def _ladder_averages(cfg, widths, radial_nodes):
    """Cross-section averages (L_z, S_z, M_z) per width, shape (len(widths), 3).

    The field is evaluated once, on the union of the widths' Simpson
    grids; each width gathers its own nodes from it, applies its envelope
    and integrates in the one-width operation order.  The union is capped
    at MAX_POINTS, checked before any array is allocated, and built one
    grid at a time, so memory stays within the union plus one grid.
    """
    counts = [_radial_node_count(a, radial_nodes) for a in widths]
    n_union = _union_node_bound(widths, counts)
    if n_union > MAX_POINTS:
        raise ValueError(f"widths {list(map(float, widths))} with radial_nodes "
                         f"{radial_nodes} share up to {n_union} distinct nodes, "
                         f"more than {MAX_POINTS} Simpson nodes")
    beams = [RegularizedBeam(cfg, a) for a in widths]

    def grids():
        return (np.linspace(0.0, 8.0 * a, n) for a, n in zip(widths, counts))

    xi = reduce(np.union1d, grids())
    psi = field_closed_form(cfg, xi / cfg.k_perp, 0.0)
    comp2 = (psi.conj() * psi).real  # |psi_c|^2, shape (n, 4)
    rho = comp2.sum(axis=-1)
    lz_den = comp2 @ _component_harmonics(cfg).astype(float)
    sz_den = comp2 @ SIGMA_Z_DIAG
    # phi = 0, so the azimuthal current is the alpha_y one.
    jphi = np.einsum("...a,ab,...b->...", psi.conj(), ALPHA[1], psi).real

    out = np.empty((len(widths), 3))
    for row, beam, xi_w in zip(out, beams, grids()):
        at = np.searchsorted(xi, xi_w)
        g2 = beam.envelope(xi_w) ** 2
        norm = _simpson(xi_w * (rho[at] * g2), xi_w)
        row[0] = _simpson(xi_w * (lz_den[at] * g2), xi_w) / norm
        row[1] = _simpson(xi_w * (sz_den[at] * g2), xi_w) / norm
        row[2] = (cfg.energy / cfg.p_perp) * _simpson(
            xi_w * xi_w * (jphi[at] * g2), xi_w) / norm
    return out


def cross_section_averages(cfg, a, radial_nodes=4000):
    """One-width cross-section averages (L_z, S_z, M_z) of the enveloped beam.

    The azimuthal integrals are analytic (each component is a single
    harmonic, so cross terms between different windings drop); only the
    radial integral is numerical, by composite Simpson on [0, 8a], where
    the squared envelope has decayed below 1e-27.  The grid holds
    max(radial_nodes, 128 a + 1, 3) nodes, made odd, at most MAX_POINTS.
    This is the one-width ladder of ``linear_expectations``.
    """
    return tuple(_ladder_averages(cfg, (a,), radial_nodes)[0])


def linear_expectations(cfg, widths=(40.0, 60.0, 90.0, 135.0),
                        radial_nodes=4000, fit_tol=5e-3):
    """Linear densities of OAM, SAM, and magnetic moment, extrapolated a -> oo.

    Parameters
    ----------
    cfg : BeamConfig with p > 0 and theta0 > 0.
    widths : increasing ladder of Gaussian xi-widths (largest should be
        well above ~50 for the 1/a^2 fit to settle).  The field is
        evaluated once, on the union of the widths' Simpson grids.  Grids
        of 128 a + 1 nodes (a a multiple of 1/64, radial_nodes not above
        128 a + 1), as in the default ladder, all have step 1/16, so each
        is a prefix of the largest one.
    radial_nodes : minimum Simpson node count per width (the grid is
        refined automatically so the oscillatory integrands stay resolved).
        A width whose grid would exceed MAX_POINTS nodes, or a ladder
        whose grids together might, raises ValueError before any array
        is allocated.
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
    samples = _ladder_averages(cfg, widths, radial_nodes)
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
