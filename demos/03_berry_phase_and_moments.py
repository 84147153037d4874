"""Berry-phase corrections to OAM, SAM, caustic radius, and magnetic moment.

The Foldy-Wouthuysen transformation that diagonalizes the free Dirac
Hamiltonian is momentum dependent, so positive-energy observables pick up
a Berry connection A = (p x sigma)(1 - m/E)/(2 p^2).  Integrating <A>
around the beam's spectral circle gives the Berry phase 2 pi delta s,
which shifts the OAM and the caustic radius:

    <L_z> = ell + delta s        <S_z> = s - delta s     (hbar units)
    k_perp R = ell + delta s     Phi_B = 2 pi delta s
    <M_z> = ell + 2s - delta s   (e hbar / 2E units; g=1 orbital, g=2 spin)

Every closed form is printed next to an independent numeric evaluation
(finite differences for the connection, cone quadrature for the
expectation values, a discretized loop integral for the phase).

Run:  python demos/03_berry_phase_and_moments.py
"""

import numpy as np

from diracbeams import (
    BeamConfig,
    beam_expectations,
    berry_connection,
    berry_phase,
    magnetic_moment,
)
from diracbeams.oracles import berry_connection_numeric

print(__doc__)

p = np.array([1.2, -0.7, 2.0])
a_closed = berry_connection(p)
a_fd = berry_connection_numeric(p)
print(f"Berry connection at p = {p}: closed vs finite-difference "
      f"max |diff| = {np.abs(a_closed - a_fd).max():.3e}\n")

print(f"{'ell':>4} {'s':>5} {'delta':>8} {'L_z':>9} {'L_z num':>9} "
      f"{'S_z':>9} {'S_z num':>9} {'Phi_B/pi':>9} {'k.R':>7} {'M_z':>8}")
for ell in (0, 1, 3):
    for s in (+0.5, -0.5):
        cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
        rep = beam_expectations(cfg)
        print(f"{ell:4d} {s:+5.1f} {cfg.delta:8.4f} "
              f"{rep.l_z:9.5f} {rep.l_z_numeric:9.5f} "
              f"{rep.s_z:9.5f} {rep.s_z_numeric:9.5f} "
              f"{berry_phase(cfg) / np.pi:9.5f} "
              f"{rep.caustic_radius:7.4f} {magnetic_moment(cfg):8.5f}")

print("\nNote the spin-to-orbit conversion: L_z + S_z = ell + s always,")
print("but delta*s moves from the spin to the orbital part.  The moment")
print("shows the same Berry correction on top of g=1 / g=2 weighting.")

cfg = BeamConfig(p=np.sqrt(2.5**2 - 1.0), theta0=np.pi / 4, ell=1, s=+0.5)
print(f"\ndelta = {cfg.delta:.3f} beam: Phi_B = {berry_phase(cfg):.12f} "
      f"= {berry_phase(cfg) / np.pi:.3f} pi (expect 0.3 pi)")
