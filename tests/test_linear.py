"""Gaussian-regularized linear densities and their width extrapolation.

The enveloped field remains a total-AM eigenstate, so the canonical OAM
and SAM cross-section densities must sum to (ell + s) identically; the
OAM density extrapolates to ell + delta*s and the SAM density therefore
to s - delta*s.  The direct moment integral of the envelope surrogate
converges to ell + s: the surrogate drops the magnetization current a
true localized solution would carry (worth ~2s extra), so the report
carries explicit comparisons instead of a single assertion.
"""

import time
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbeams import linear_density
from diracbeams.beams import MAX_POINTS, BeamConfig, field_closed_form
from diracbeams.bessel import counting
from diracbeams.dirac import current, density
from diracbeams.linear_density import (
    SIGMA_Z_DIAG,
    ExtrapolationError,
    RegularizedBeam,
    _component_harmonics,
    _radial_node_count,
    _simpson,
    _union_node_bound,
    cross_section_averages,
    linear_expectations,
)

WIDTHS = (40.0, 60.0, 90.0, 135.0)


@pytest.fixture(scope="module")
def cfg():
    return BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5)


@pytest.fixture(scope="module")
def report(cfg):
    return linear_expectations(cfg, widths=WIDTHS, radial_nodes=4000)


class TestExtrapolatedValues:
    def test_oam_density(self, cfg, report):
        assert abs(report.l_z - (cfg.ell + cfg.delta * cfg.s)) <= 1e-3

    def test_am_sum_is_total(self, cfg, report):
        # exact eigenstate identity, holds at every width
        assert abs(report.l_z + report.s_z - (cfg.ell + cfg.s)) <= 1e-12
        for lz, sz in zip(report.l_z_samples, report.s_z_samples):
            assert abs(lz + sz - (cfg.ell + cfg.s)) <= 1e-12

    def test_sam_density_canonical_split(self, cfg, report):
        assert abs(report.s_z - (cfg.s - cfg.delta * cfg.s)) <= 1e-3

    def test_moment_converges_to_total_am(self, cfg, report):
        assert abs(report.m_z - (cfg.ell + cfg.s)) <= 1e-3

    def test_moment_comparisons_reported(self, cfg, report):
        comp = report.m_z_comparison
        assert set(comp) == {
            "orbital_plus_spin",
            "orbital_plus_spin_plus_soi",
            "one_particle_moment",
        }
        assert comp["orbital_plus_spin"] == pytest.approx(
            report.m_z - (cfg.ell + 2 * cfg.s), abs=1e-15
        )



    def test_error_estimates_bound_truth(self, cfg, report):
        # The reported errors must bound the distances to the exact limits,
        # ell + delta*s for the OAM density and ell + s for the moment
        # integral, on the reference beam and two more.
        reports = [(cfg, report)] + [
            (c, linear_expectations(c, widths=WIDTHS, radial_nodes=4000))
            for c in (BeamConfig(p=3.0, theta0=1.0, ell=-2, s=-0.5),
                      BeamConfig(p=1.5, theta0=0.6, ell=3, s=0.5))
        ]
        for c, rep in reports:
            assert rep.l_z_error > 0.0
            assert abs(rep.l_z - (c.ell + c.delta * c.s)) <= rep.l_z_error
            assert abs(rep.m_z - (c.ell + c.s)) <= rep.m_z_error


class TestNumericalBehavior:
    def test_width_set_shift_stability(self, cfg, report):
        shifted = linear_expectations(
            cfg, widths=tuple(1.5 * w for w in WIDTHS), radial_nodes=4000
        )
        assert abs(shifted.l_z - report.l_z) <= 1e-3
        assert abs(shifted.s_z - report.s_z) <= 1e-3
        assert abs(shifted.m_z - report.m_z) <= 1e-3

    def test_azimuthal_orthogonality(self, cfg):
        # numeric phi-average of the densities matches the phi=0 slice the
        # radial integrator uses: cross terms between different azimuthal
        # harmonics integrate to zero
        xi = np.array([0.7, 1.9, 3.3])
        r = xi / cfg.k_perp
        phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        R, PH = np.meshgrid(r, phis, indexing="ij")
        psi = field_closed_form(cfg, R, PH)
        rho_avg = density(psi).mean(axis=1)
        j = current(psi)
        jphi_avg = (-np.sin(PH) * j[..., 0] + np.cos(PH) * j[..., 1]).mean(axis=1)
        psi0 = field_closed_form(cfg, r, 0.0)
        assert np.abs(rho_avg - density(psi0)).max() <= 1e-14
        assert np.abs(jphi_avg - current(psi0)[..., 1]).max() <= 1e-14

    def test_small_cone_angle_limit(self):
        # delta ~ 1e-6: linear densities approach the bare quantum numbers
        cfg = BeamConfig(p=2.4, theta0=2e-3, ell=1, s=0.5)
        rep = linear_expectations(cfg, widths=(40.0, 60.0, 90.0),
                                  radial_nodes=3000)
        assert abs(rep.l_z - 1.0) <= 1e-3
        assert abs(rep.s_z - 0.5) <= 1e-3


class TestValidationAndErrors:
    def test_widths_must_increase(self, cfg):
        with pytest.raises(ValueError):
            linear_expectations(cfg, widths=(60.0, 40.0))
        with pytest.raises(ValueError):
            linear_expectations(cfg, widths=(40.0,))

    def test_unconverged_fit_raises_with_diagnostics(self, cfg):
        with pytest.raises(ExtrapolationError) as err:
            linear_expectations(cfg, widths=(40.0, 60.0, 90.0),
                                radial_nodes=3000, fit_tol=1e-14)
        assert "widths" in err.value.diagnostics

    @pytest.mark.parametrize("widths, radial_nodes", [
        ((40.0, MAX_POINTS / 128.0), 4000),     # 128 a + 1 = cap + 1 nodes
        ((40.0, 1e6), 4000),
        ((40.0, np.inf), 4000),
        ((40.0, 60.0), MAX_POINTS + 1),
        # Each grid under the cap, their union of 1049639 nodes above it.
        ((4100.0, 4100.3), 4000),
    ])
    def test_grid_above_cap_raises_before_any_width(self, cfg, widths,
                                                    radial_nodes, monkeypatch):
        def no_field(*args, **kwargs):
            raise AssertionError("a width was sampled")
        monkeypatch.setattr(linear_density, "field_closed_form", no_field)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"than {MAX_POINTS} Simpson"):
            linear_expectations(cfg, widths=widths, radial_nodes=radial_nodes)
        assert time.perf_counter() - t0 < 0.1

    def test_tiny_width_gets_three_nodes(self, cfg):
        assert _radial_node_count(1e-3, 1) == 3
        assert np.all(np.isfinite(cross_section_averages(cfg, 1e-3, 1)))

    def test_degenerate_transverse_structure_rejected(self):
        cfg = BeamConfig(p=2.4, theta0=0.0, ell=1, s=0.5)
        with pytest.raises(ValueError):
            linear_expectations(cfg)


class TestRegularizedBeam:
    def test_envelope_and_field(self, cfg):
        beam = RegularizedBeam(cfg, a=30.0)
        xi = np.array([0.0, 15.0, 60.0])
        env = beam.envelope(xi)
        assert env[0] == 1.0
        assert np.allclose(env, np.exp(-(xi**2) / (2.0 * 30.0**2)))

    def test_width_validation(self, cfg):
        with pytest.raises(ValueError):
            RegularizedBeam(cfg, a=0.0)
        with pytest.raises(ValueError):
            RegularizedBeam(BeamConfig(p=0.0, theta0=0.3, ell=0, s=0.5), a=10.0)


def one_width_oracle(cfg, a, radial_nodes=4000):
    """The earlier per-width evaluation: one field call per width."""
    beam = RegularizedBeam(cfg, a)
    xi_max = 8.0 * a
    xi = np.linspace(0.0, xi_max, _radial_node_count(a, radial_nodes))
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


def ladder_samples(rep):
    return np.column_stack([rep.l_z_samples, rep.s_z_samples, rep.m_z_samples])


ORACLE_CONFIGS = [
    BeamConfig(p=2.4, theta0=np.pi / 4, ell=1, s=0.5),
    BeamConfig(p=3.0, theta0=1.2, ell=-2, s=-0.5),
    BeamConfig(p=1.5, theta0=0.6, ell=3, s=0.5),
]

beams = st.builds(
    BeamConfig,
    p=st.floats(0.05, 5.0),
    theta0=st.floats(0.05, np.pi / 2),
    ell=st.integers(-20, 20),
    s=st.sampled_from([0.5, -0.5]),
)
# Even multiples of 1/128 get grids of step 1/16 once 128 a + 1 reaches
# radial_nodes, each a prefix of the longest; other widths get steps of
# their own, so the union is no prefix.
widths = st.one_of(st.integers(256, 3840).map(lambda k: k / 128.0),
                   st.floats(2.0, 30.0))
ladders = st.lists(widths, min_size=1, max_size=4, unique=True).map(sorted)


class TestOneFieldEvaluationPerLadder:
    @pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
    def test_default_ladder_equals_per_width_oracle_bitwise(self, cfg):
        rep = linear_expectations(cfg, widths=WIDTHS)
        oracle = np.array([one_width_oracle(cfg, a) for a in WIDTHS])
        assert np.array_equal(ladder_samples(rep), oracle)
        assert np.array_equal(cross_section_averages(cfg, 60.0),
                              one_width_oracle(cfg, 60.0))

    @settings(max_examples=40, deadline=None)
    @given(cfg=beams, ladder=ladders,
           radial_nodes=st.sampled_from([0, 1001, 4000]))
    def test_ladder_matches_per_width_oracle(self, cfg, ladder, radial_nodes):
        if len(ladder) == 1:
            samples = np.array([cross_section_averages(cfg, ladder[0],
                                                       radial_nodes)])
        else:
            samples = ladder_samples(linear_expectations(
                cfg, widths=ladder, radial_nodes=radial_nodes, fit_tol=np.inf))
        oracle = np.array([one_width_oracle(cfg, a, radial_nodes)
                           for a in ladder])
        assert np.all(np.abs(samples - oracle) <= 1e-14 * np.abs(oracle))
        counts = [_radial_node_count(a, radial_nodes) for a in ladder]
        union = reduce(np.union1d, (np.linspace(0.0, 8.0 * a, n)
                                    for a, n in zip(ladder, counts)))
        assert union.size <= _union_node_bound(ladder, counts)

    def test_default_ladder_makes_one_bessel_call(self, cfg):
        with counting() as c:
            linear_expectations(cfg, widths=WIDTHS)
        assert (c["calls"], c["values"]) == (1, 3 * 17281)

    @pytest.mark.parametrize("ladder, radial_nodes, bound", [
        (WIDTHS, 4000, 17281),                  # prefixes of the a = 135 grid
        ((4096.0, 8000.0), 4000, 1024001),      # 1548290 nodes in all
        # Steps 1/50 and 1/25: the union holds 6001 nodes, but grids of
        # different steps count as sharing only xi = 0.
        ((10.0, 20.0), 4000, 8001),
    ])
    def test_union_bound(self, ladder, radial_nodes, bound):
        counts = [_radial_node_count(a, radial_nodes) for a in ladder]
        assert _union_node_bound(ladder, counts) == bound
