"""Foldy-Wouthuysen operator calculus for positive-energy electron states.

The FW unitary diagonalizes the free Dirac Hamiltonian momentum by
momentum.  Its momentum dependence induces a non-Abelian gauge field
(Berry connection) on the positive-energy subspace; the connection,
its curvature, and the derived position/OAM/SAM/spin-orbit operators
are all momentum-parameterized 2x2 matrix functions here -- expectation
values over a beam's conical spectrum reduce to one-dimensional
azimuthal integrals, so no Hilbert-space discretization is needed.

Conventions (hbar = c = 1):

* projection to the positive-energy block takes the upper-left 2x2
  sector after conjugation by the FW unitary;
* the non-Abelian field strength is
  F_ij = dA_j/dp_i - dA_i/dp_j - i [A_i, A_j], the commutator sign
  fixed so that [R_i, R_j] = i eps_ijk F_k holds for the position
  operator R = i d/dp + A acting on momentum amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import ALPHA, BETA, EYE4, PAULI, energy

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


class ZeroMomentumError(ValueError):
    """Raised where a momentum-space quantity is singular at p = 0."""


def _norm(p):
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError("momentum must be a 3-vector")
    return p, float(np.sqrt(p @ p))


def fw_unitary(p, mass=1.0):
    """FW unitary U(p) = (1/sqrt2)(sqrt(1 + m/E) - beta (alpha.kappa) sqrt(1 - m/E)).

    Satisfies U^dag U = 1 and U^dag (alpha.p + beta m) U = beta E; at
    p = 0 the kappa term carries a vanishing prefactor and U = 1.
    """
    p, pn = _norm(p)
    e = float(energy(p, mass))
    u = mass / e
    kappa = p / pn if pn > 0.0 else np.array([0.0, 0.0, 1.0])
    alpha_kappa = np.einsum("i,iab->ab", kappa, ALPHA)
    return (
        np.sqrt((1.0 + u) / 2.0) * EYE4
        - np.sqrt(max(1.0 - u, 0.0) / 2.0) * (BETA @ alpha_kappa)
    )


def berry_connection(p, mass=1.0):
    """Berry connection A = (p x sigma) (1 - m/E) / (2 p^2), shape (3, 2, 2).

    Equals i times the positive-energy block of U^dag dU/dp componentwise
    (``oracles.berry_connection_numeric``); each component is Hermitian.
    Singular at p = 0.
    """
    p, pn = _norm(p)
    if pn == 0.0:
        raise ZeroMomentumError("Berry connection is undefined at p = 0")
    e = float(energy(p, mass))
    f = (1.0 - mass / e) / (2.0 * pn * pn)
    return f * np.einsum("ijk,j,kab->iab", _EPS3, p, PAULI)


def berry_curvature(p, mass=1.0):
    """Berry curvature F = -(1/2E^2)[(m/E) sigma + (1 - m/E) kappa (kappa.sigma)].

    Shape (3, 2, 2), Hermitian components; singular at p = 0.
    """
    p, pn = _norm(p)
    if pn == 0.0:
        raise ZeroMomentumError("Berry curvature is undefined at p = 0")
    e = float(energy(p, mass))
    u = mass / e
    kappa = p / pn
    kappa_sigma = np.einsum("i,iab->ab", kappa, PAULI)
    return (
        -(u * PAULI + (1.0 - u) * kappa[:, None, None] * kappa_sigma)
        / (2.0 * e * e)
    )


def spin_operator():
    """Non-relativistic spin S = sigma/2 (positive-energy block), (3, 2, 2)."""
    return PAULI / 2.0


def soi_operator(p, mass=1.0):
    """Spin-orbit operator (1 - m/E)[S - kappa (kappa.S)], shape (3, 2, 2).

    The amount of angular momentum transferred from spin to orbit: it is
    added to the canonical OAM and subtracted from the spin, so their sum
    stays canonical.  Equals A x p with the Berry connection A (see
    ``oracles.soi_operator_from_connection``).
    """
    p, pn = _norm(p)
    if pn == 0.0:
        raise ZeroMomentumError("spin-orbit operator is undefined at p = 0")
    e = float(energy(p, mass))
    kappa = p / pn
    s = spin_operator()
    kappa_s = np.einsum("i,iab->ab", kappa, s)
    return (1.0 - mass / e) * (s - kappa[:, None, None] * kappa_s)


def sam_operator(p, mass=1.0):
    """Positive-energy spin operator (m/E) S + (1 - m/E) kappa (kappa.S).

    Interpolates between the helicity operator (ultrarelativistic) and
    the rest-frame spin (nonrelativistic); equals S minus the spin-orbit
    operator.
    """
    p, pn = _norm(p)
    if pn == 0.0:
        raise ZeroMomentumError("positive-energy spin operator needs p > 0")
    e = float(energy(p, mass))
    u = mass / e
    kappa = p / pn
    s = spin_operator()
    kappa_s = np.einsum("i,iab->ab", kappa, s)
    return u * s + (1.0 - u) * kappa[:, None, None] * kappa_s


@dataclass
class ExpectationReport:
    """Beam expectation values, hbar units for angular momenta and
    e hbar / 2E units for the magnetic moment.

    Closed forms and their independent numeric (cone-quadrature)
    counterparts are kept side by side; ``caustic_radius`` is quoted in
    units of 1/k_perp, i.e. the number k_perp * R = ell + delta*s.
    """

    l_z: float
    s_z: float
    m_z: float
    berry_phase: float
    caustic_radius: float
    caustic_physical: bool
    l_z_numeric: float
    s_z_numeric: float
    m_z_numeric: float
    berry_phase_numeric: float
    p_z_numeric: float
    r_perp_numeric: float


def berry_phase(cfg, n_nodes=512):
    """Holonomy -loop_integral(<w|A|w> . dp) around the beam's spectral circle.

    Equals 2 pi delta s.  A degenerate loop (p_perp = 0) carries zero
    phase by convention.
    """
    if n_nodes < 64:
        raise ValueError("n_nodes must be >= 64")
    if cfg.p_perp == 0.0:
        return 0.0
    w = cfg.polarization
    phis = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    momenta = cfg.cone_momenta(phis)
    tangent = np.stack(
        [-cfg.p_perp * np.sin(phis), cfg.p_perp * np.cos(phis),
         np.zeros_like(phis)],
        axis=-1,
    )
    vals = np.empty(n_nodes)
    for k in range(n_nodes):
        a = berry_connection(momenta[k], cfg.mass)
        a_exp = np.einsum("a,iab,b->i", w.conj(), a, w).real
        vals[k] = a_exp @ tangent[k]
    return float(-(2.0 * np.pi / n_nodes) * vals.sum())


def caustic_radius(cfg):
    """Spin-dependent caustic radius, k_perp * R = ell + delta * s.

    Returned in units of 1/k_perp; the value is signed, and only a
    positive value corresponds to a physical bright ring.
    """
    return cfg.ell + cfg.delta * cfg.s


def magnetic_moment(cfg):
    """Beam magnetic moment ell + 2s - delta*s in units of e hbar / 2E.

    Orbital and spin parts enter with g = 1 and g = 2; the -delta*s term
    is the Berry-phase (spin-orbit) correction.
    """
    return cfg.ell + 2.0 * cfg.s - cfg.delta * cfg.s


def beam_expectations(cfg, n_nodes=512):
    """Closed-form and cone-quadrature expectation values for a beam.

    Closed forms: <L_z> = ell + delta*s, <S_z> = s - delta*s (hbar units),
    <M_z> = ell + 2s - delta*s (e hbar/2E units), Berry phase 2 pi delta s.

    The numeric path applies the operator kernels on the spectral circle:
    the canonical -i d/dphi acts on exp(i ell phi) through an FFT spectral
    derivative, and the spin-orbit/spin kernels are averaged over the cone
    azimuth (the radial delta of the spectrum cancels between numerator
    and denominator, leaving plain 1D integrals).
    """
    if n_nodes < 64:
        raise ValueError("n_nodes must be >= 64")
    d, s, ell = cfg.delta, cfg.s, cfg.ell
    l_closed = ell + d * s
    s_closed = s - d * s

    w = cfg.polarization
    phis = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    f = np.exp(1j * ell * phis)
    freqs = np.fft.fftfreq(n_nodes, d=1.0 / n_nodes)
    dphi_f = np.fft.ifft(1j * freqs * np.fft.fft(f))
    l_canonical = float(np.mean((f.conj() * (-1j) * dphi_f)).real)

    if cfg.p == 0.0:
        # The kernels are singular at p = 0, but their cone averages have
        # plain limits there (delta = 0): no conversion, bare spin.
        soi_avg = 0.0
        sam_avg = s
        a_perp = np.zeros(2)
        p_z_mean = 0.0
    else:
        momenta = cfg.cone_momenta(phis)
        soi_vals = np.empty(n_nodes)
        sam_vals = np.empty(n_nodes)
        a_perp = np.zeros(2)
        for k in range(n_nodes):
            mk = momenta[k]
            soi_vals[k] = np.einsum(
                "a,ab,b->", w.conj(), soi_operator(mk, cfg.mass)[2], w
            ).real
            sam_vals[k] = np.einsum(
                "a,ab,b->", w.conj(), sam_operator(mk, cfg.mass)[2], w
            ).real
            a = berry_connection(mk, cfg.mass)
            a_perp += np.einsum("a,iab,b->i", w.conj(), a[:2], w).real
        soi_avg = float(soi_vals.mean())
        sam_avg = float(sam_vals.mean())
        a_perp /= n_nodes
        p_z_mean = float(momenta[:, 2].mean())

    l_num = l_canonical + soi_avg
    s_num = sam_avg
    caustic = caustic_radius(cfg)
    return ExpectationReport(
        l_z=l_closed,
        s_z=s_closed,
        m_z=magnetic_moment(cfg),
        berry_phase=2.0 * np.pi * d * s,
        caustic_radius=caustic,
        caustic_physical=caustic > 0.0,
        l_z_numeric=l_num,
        s_z_numeric=s_num,
        m_z_numeric=l_num + 2.0 * s_num,
        berry_phase_numeric=berry_phase(cfg, n_nodes),
        p_z_numeric=p_z_mean,
        r_perp_numeric=float(np.hypot(a_perp[0], a_perp[1])),
    )
