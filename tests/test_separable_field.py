"""Separable field evaluation: open grids give the meshgrid result exactly.

``field_closed_form`` and ``field_quadrature`` evaluate each factor on the
shape of the coordinates it depends on, so an open grid (``np.ix_``) and
the full meshgrid of the same axes must give bit-identical fields, while
the Bessel work scales with the number of distinct radii only.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbeams.beams import BeamConfig, field_closed_form
from diracbeams.bessel import counting
from diracbeams.oracles import field_quadrature, profile_from_field

beams = st.builds(
    BeamConfig,
    p=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    theta0=st.one_of(st.just(0.0), st.floats(1e-3, np.pi / 2)),
    ell=st.integers(-20, 20),
    s=st.sampled_from([0.5, -0.5]),
)


def axis(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=4).map(np.array)


axes = st.tuples(axis(0.0, 20.0), axis(0.0, 2.0 * np.pi), axis(-5.0, 5.0),
                 axis(-5.0, 5.0))


def _grids(cfg, xis, phis, zs, ts):
    """The same points as an open grid and as a meshgrid, radii r = xi/k."""
    r = xis / cfg.k_perp if cfg.k_perp > 0.0 else xis
    return (np.ix_(r, phis, zs, ts),
            np.meshgrid(r, phis, zs, ts, indexing="ij"))


@settings(max_examples=50, deadline=None)
@given(beams, axes)
def test_open_grid_equals_meshgrid(cfg, grid_axes):
    open_grid, mesh = _grids(cfg, *grid_axes)
    closed = field_closed_form(cfg, *open_grid)
    assert closed.shape == mesh[0].shape + (4,)
    assert np.array_equal(closed, field_closed_form(cfg, *mesh))
    quad = field_quadrature(cfg, *open_grid, n_nodes=64)
    assert np.array_equal(quad, field_quadrature(cfg, *mesh, n_nodes=64))


def test_bessel_work_scales_with_the_radii_only():
    cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=3, s=-0.5)
    xis = np.array([0.0, 2.5, 7.0, 13.0, 20.0])
    grid = np.ix_(xis / cfg.k_perp, np.linspace(0.0, 6.0, 8),
                  np.array([-1.3, 0.0, 2.1]), np.array([0.0, 0.9]))
    with counting() as counts:
        psi = field_closed_form(cfg, *grid)
    assert psi.shape == (5, 8, 3, 2, 4)
    # J_{ell-1}, J_ell, J_{ell+1} once per radius, not per grid point.
    assert (counts["calls"], counts["values"]) == (1, 3 * len(xis))


def test_profile_from_field_makes_one_bessel_call():
    cfg = BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)
    xi = np.linspace(0.0, 20.0, 81)
    with counting() as counts:
        profile_from_field(cfg, xi, n_phi=3)
    assert (counts["calls"], counts["values"]) == (1, 3 * len(xi))
