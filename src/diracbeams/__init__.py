"""Exact Bessel-beam solutions of the free Dirac equation.

Relativistic electron vortex beams: closed-form spinor fields with an
independent plane-wave-quadrature oracle, spin-dependent density and
current profiles, Foldy-Wouthuysen operator calculus (Berry connection,
curvature, spin-orbit operator), beam expectation values with their
Berry-phase corrections, magnetic moments, and Gaussian-regularized
per-unit-length densities.

Natural units hbar = c = 1 with the electron mass defaulting to 1, so
all momenta are p/m; every observable depends only on p/m and the cone
angle theta0.
"""

from .bessel import bessel_j, bessel_j_orders
from .dirac import (
    ALPHA,
    BETA,
    PAULI,
    current,
    density,
    dirac_matrices,
    energy,
    pauli_matrices,
    plane_wave_spinor,
    spin_basis,
)
from .beams import (
    BeamConfig,
    RadialProfile,
    density_profile,
    field_closed_form,
)
from .foldy import (
    ExpectationReport,
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
from .linear_density import (
    ExtrapolationError,
    LinearDensityReport,
    RegularizedBeam,
    cross_section_averages,
    linear_expectations,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "PAULI",
    "BeamConfig",
    "ExpectationReport",
    "ExtrapolationError",
    "LinearDensityReport",
    "RadialProfile",
    "RegularizedBeam",
    "ZeroMomentumError",
    "beam_expectations",
    "berry_connection",
    "berry_curvature",
    "berry_phase",
    "bessel_j",
    "bessel_j_orders",
    "caustic_radius",
    "cross_section_averages",
    "current",
    "density",
    "density_profile",
    "dirac_matrices",
    "energy",
    "field_closed_form",
    "fw_unitary",
    "linear_expectations",
    "magnetic_moment",
    "pauli_matrices",
    "plane_wave_spinor",
    "sam_operator",
    "soi_operator",
    "spin_basis",
    "spin_operator",
    "__version__",
]
