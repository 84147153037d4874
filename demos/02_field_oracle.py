"""The two independent routes to the beam field agree to machine precision.

Route 1: the closed-form three-term Bessel expression for the spinor field.
Route 2: brute-force superposition of plane-wave bispinors over the cone
azimuth with a periodic trapezoid rule (spectrally convergent).

Both keep identical prefactors, so they match including the global phase.
This is the package's central correctness oracle; the script shows the
agreement and the spectral convergence of the quadrature.

Run:  python demos/02_field_oracle.py
"""

import numpy as np

from diracbeams import BeamConfig, field_closed_form
from diracbeams.oracles import field_quadrature

print(__doc__)

cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=+0.5)
r = 2.0 / cfg.k_perp  # xi = 2
point = dict(r=r, phi=0.7, z=0.4, t=0.1)

closed = field_closed_form(cfg, **point)
print("closed form at (xi=2, phi=0.7, z=0.4, t=0.1):")
for c, v in zip("1234", closed):
    print(f"  psi_{c} = {v.real:+.12f} {v.imag:+.12f}i")

print("\nquadrature error vs node count (periodic trapezoid):")
for n in (64, 96, 128, 192, 256, 512):
    quad = field_quadrature(cfg, **point, n_nodes=n)
    err = np.abs(closed - quad).max()
    print(f"  n_nodes = {n:4d}:  max |diff| = {err:.3e}")

print("\nworst relative mismatch over a (xi, phi) grid, all ell, s:")
xi = np.array([0.0, 2.5, 7.0, 13.0, 20.0])
phi = np.linspace(0, 2 * np.pi, 8, endpoint=False)
# An open grid: each route evaluates its radial factor once per xi.
XI, PH = np.ix_(xi, phi)
worst = 0.0
for ell in (0, 1, 3, -1):
    for s in (+0.5, -0.5):
        c = BeamConfig(p=2.4, theta0=np.pi / 4, ell=ell, s=s)
        f1 = field_closed_form(c, XI / c.k_perp, PH)
        f2 = field_quadrature(c, XI / c.k_perp, PH, n_nodes=512)
        worst = max(worst, np.linalg.norm(f1 - f2) / np.linalg.norm(f1))
print(f"  {worst:.3e}")
