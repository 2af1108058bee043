"""Grid construction, CDF/quantile interpolation, and derivative accuracy."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blc_lab import (
    DegenerateDensityError,
    DistributionSpec,
    DomainError,
    GridDensity,
    SpecError,
    materialize,
)
from blc_lab.core import (
    MASS_TOL,
    _trapezoid_weights,
    cumulative_parabolic,
    quadrature_weights,
)

from conftest import GAUSSIAN, LAPLACE, LOGISTIC, MIX_134, grid_of, two_bump_spec


class TestMaterialize:
    def test_gaussian_median_value(self):
        g = materialize(GAUSSIAN, n_points=2048)
        assert abs(g.cdf(0.0) - 0.5) <= 1e-8

    def test_logistic_density_at_zero(self):
        g = grid_of(LOGISTIC)
        assert abs(g.pdf(0.0) - 0.25) <= 1e-8

    def test_laplace_density_at_zero(self):
        g = grid_of(LAPLACE)
        assert abs(g.pdf(0.0) - 0.5) <= 1e-8

    def test_grid_family_keeps_abscissas(self):
        spec = two_bump_spec()
        g = grid_of(spec)
        assert len(g.xs) == len(spec.params["abscissas"])
        assert g.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_uniform_support(self):
        g = materialize(DistributionSpec.uniform(2.0, 5.0), n_points=256)
        assert g.support == (2.0, 5.0)
        assert np.allclose(g.fs, 1.0 / 3.0)

    def test_zero_mass_grid_rejected(self):
        spec = DistributionSpec.grid(np.linspace(0, 1, 16), np.zeros(16))
        with pytest.raises(DegenerateDensityError, match="degenerate density"):
            materialize(spec)

    def test_tiny_resolution_rejected(self):
        with pytest.raises(SpecError):
            materialize(GAUSSIAN, n_points=32)

    def test_invalid_params_rejected(self):
        with pytest.raises(SpecError, match="invalid spec"):
            DistributionSpec.gaussian(0.0, -1.0)
        with pytest.raises(SpecError, match="invalid spec"):
            DistributionSpec.gaussian_mixture([0.6, 0.6], [0, 1], [1, 1])
        with pytest.raises(SpecError, match="invalid spec"):
            DistributionSpec.grid([0, 1, 2], [1, 1, 1])  # fewer than 8 points
        with pytest.raises(SpecError, match="invalid spec"):
            DistributionSpec.uniform(1.0, 1.0)

    @pytest.mark.parametrize("bad", [("abscissas", 3, math.inf),
                                     ("abscissas", 0, math.nan),
                                     ("density_values", 3, math.inf),
                                     ("density_values", 5, math.nan)])
    def test_non_finite_grid_rejected(self, bad):
        key, i, value = bad
        params = {"abscissas": list(range(10)), "density_values": [1.0] * 10}
        params[key][i] = value
        with pytest.raises(SpecError, match="finite"):
            DistributionSpec("grid", params)

    def test_spec_json_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(MIX_134.to_json(), encoding="utf-8")
        loaded = DistributionSpec.from_json(path)
        assert loaded == MIX_134

    def test_missing_family_field(self):
        with pytest.raises(SpecError, match="family"):
            DistributionSpec.from_json({"params": {}})

    def test_mass_invariants(self):
        for spec in (GAUSSIAN, LOGISTIC, LAPLACE, MIX_134):
            g = grid_of(spec)
            assert abs(g.total_mass - 1.0) <= MASS_TOL
            assert g.Fs[0] <= MASS_TOL and g.Fs[-1] >= 1 - MASS_TOL
            assert np.all(np.diff(g.Fs) >= 0)
            assert np.all(g.fs >= 0)
            assert g.j_lo <= g.j_hi

    def test_grid_density_derives_j_range_and_mass(self):
        xs = np.linspace(-1.0, 1.0, 201)
        g = GridDensity(xs=xs, fs=np.full(201, 0.5), Fs=(xs + 1.0) / 2.0)
        assert (g.j_lo, g.j_hi) == (1, 199)
        assert g.total_mass == g.quadrature_mass()
        moved = dataclasses.replace(g, xs=xs + 1.0)
        assert (moved.j_lo, moved.j_hi, moved.total_mass) == (1, 199, g.total_mass)
        with pytest.raises(TypeError):
            GridDensity(xs=xs, fs=g.fs, Fs=g.Fs, j_lo=0, j_hi=200)
        # an empty J(F) is reported before the mass is checked
        with pytest.raises(DegenerateDensityError, match=r"J\(F\) empty"):
            GridDensity(xs=xs, fs=3.0 * g.fs, Fs=np.zeros(201))
        with pytest.raises(DegenerateDensityError, match="total mass"):
            GridDensity(xs=xs, fs=3.0 * g.fs, Fs=g.Fs)

    def test_mixture_symmetry_tolerance(self):
        # a symmetric mixture puts its center on a node; others their median
        for dsd, symmetric in ((1e-13, True), (1e-10, False)):
            spec = DistributionSpec.gaussian_mixture([0.5, 0.5], [-1.0, 1.0],
                                                     [1.0, 1.0 + dsd])
            assert (0.0 in materialize(spec).xs) is symmetric


class TestCdfQuantile:
    def test_logistic_symmetry_and_clamp(self, logistic):
        # even node counts make the window asymmetric by one cell, so the
        # renormalized CDF at the center is 0.5 only up to the tail mass
        assert logistic.cdf(0.0) == pytest.approx(0.5, abs=1e-8)
        assert logistic.cdf(1e9) == 1.0
        assert logistic.cdf(-1e9) == 0.0

    def test_laplace_cdf_closed_form(self, laplace):
        assert laplace.cdf(1.0) == pytest.approx(1 - math.exp(-1) / 2, abs=1e-5)

    def test_quantile_examples(self, gauss, logistic, laplace):
        # inversion error is (dF^2/8) |x''(F)|, second order in the CDF gap
        assert abs(gauss.quantile(0.5)) <= 1e-8
        assert logistic.quantile(0.75) == pytest.approx(math.log(3.0), abs=1e-4)
        assert laplace.quantile(0.25) == pytest.approx(-math.log(2.0), abs=1e-4)

    def test_quantile_examples_fine_grid(self):
        logi = grid_of(LOGISTIC, n=8192)
        lap = grid_of(LAPLACE, n=8192)
        assert logi.quantile(0.75) == pytest.approx(math.log(3.0), abs=1e-5)
        assert lap.quantile(0.25) == pytest.approx(-math.log(2.0), abs=1e-5)

    def test_quantile_domain_errors(self, gauss):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError, match="quantile domain"):
                gauss.quantile(bad)

    @pytest.mark.parametrize("spec", [GAUSSIAN, LOGISTIC, LAPLACE, MIX_134])
    def test_roundtrip_cdf_quantile(self, spec):
        g = grid_of(spec)
        ps = np.linspace(0.01, 0.99, 99)
        back = g.cdf(g.quantile(ps))
        assert np.abs(back - ps).max() <= 1e-5

    def test_quantile_monotone(self, mix134):
        ps = np.linspace(0.001, 0.999, 999)
        qs = mix134.quantile(ps)
        assert np.all(np.diff(qs) >= 0)

    def test_plateau_quantile_leftmost(self, two_bump):
        # mass 1/2 is reached at the foot of the ramp cell after the first
        # bump; the CDF is flat from there to the second bump and inversion
        # picks the leftmost point of the plateau
        assert two_bump.quantile(0.5) == pytest.approx(1.005, abs=1e-9)


class TestCdfReconstruction:
    @pytest.mark.parametrize("spec", [GAUSSIAN, LOGISTIC, LAPLACE, MIX_134])
    def test_quadrature_matches_analytic_cdf(self, spec):
        g = grid_of(spec, n=4096)
        rebuilt = cumulative_parabolic(g.xs, g.fs)
        assert np.abs(rebuilt - g.Fs).max() <= 1e-7

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10, 11, 2048, 2049])
    def test_parabolic_rule_matches_cellwise_loop(self, n):
        # reference: accumulate each cell's parabola (through the triple at
        # the even index at or below it, the last triple for a final odd
        # cell) node by node, in cell order
        xs = np.linspace(-3.0, 5.0, n)
        fs = np.cos(xs) + 2.0
        hh = float(np.diff(xs).mean())
        w = np.zeros(n)
        cell = np.zeros(n - 1)
        for i in range(n - 1):
            base = min(i - i % 2, n - 3)
            c = (5.0, 8.0, -1.0) if i == base else (-1.0, 8.0, 5.0)
            for k in range(3):
                w[base + k] += c[k] * hh / 12.0
            cell[i] = hh * sum(c[k] * fs[base + k] for k in range(3)) / 12.0
        assert np.abs(quadrature_weights(xs) - w).max() <= 1e-15
        rebuilt = cumulative_parabolic(xs, fs)
        assert np.abs(rebuilt[1:] - np.cumsum(cell)).max() <= 1e-15

    def test_trapezoid_weights_sum(self):
        xs = np.array([0.0, 1.0, 3.0, 4.0])
        w = _trapezoid_weights(xs)
        assert w.sum() == pytest.approx(4.0)
        assert np.allclose(w, [0.5, 1.5, 1.5, 0.5])


class TestDensityDerivative:
    def test_symmetric_peaks(self, gauss, logistic):
        assert abs(gauss.density_derivative(0.0)) <= 1e-6
        assert abs(logistic.density_derivative(0.0)) <= 1e-6

    def test_gaussian_analytic_value(self, gauss):
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert gauss.density_derivative(1.0) == pytest.approx(-phi1, abs=1e-8)

    @staticmethod
    def tabulated_pair(spec):
        """An analytic grid, its tabulated copy, and nodes inside both J(F)."""
        g = grid_of(spec, n=4096)
        tab = materialize(DistributionSpec.grid(g.xs, g.fs))
        assert g.dpdf_fn is not None and tab.dpdf_fn is None
        return g, tab, g.xs[max(g.j_lo, tab.j_lo) + 1:min(g.j_hi, tab.j_hi)]

    def test_fd_matches_analytic(self):
        # the tabulated copy has no dpdf_fn, so it takes the finite differences
        for spec in (GAUSSIAN, LOGISTIC, MIX_134):
            g, tab, xs = self.tabulated_pair(spec)
            fd = tab.density_derivative(xs)
            exact = g.density_derivative(xs)
            assert np.abs(fd - exact).max() <= 1e-4

    def test_fd_matches_analytic_laplace_away_from_kink(self):
        g, tab, xs = self.tabulated_pair(LAPLACE)
        h = float(np.diff(g.xs).max())
        keep = np.abs(xs) > 1.5 * h  # second difference smears the kink cell
        fd = tab.density_derivative(xs[keep])
        exact = g.density_derivative(xs[keep])
        assert np.abs(fd - exact).max() <= 1e-4

    def test_outside_J_rejected(self, gauss):
        with pytest.raises(DomainError, match="outside J"):
            gauss.density_derivative(gauss.xs[-1] + 1.0)


class TestExports:
    def test_csv_header_and_shape(self, tmp_path, gauss):
        path = tmp_path / "density.csv"
        gauss.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,f,F"
        assert len(lines) == len(gauss.xs) + 1
        x0, f0, F0 = map(float, lines[1].split(","))
        assert x0 == pytest.approx(gauss.xs[0])
        assert F0 == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(mean=st.floats(-5, 5), sd=st.floats(0.1, 10))
def test_gaussian_invariants_property(mean, sd):
    g = materialize(DistributionSpec.gaussian(mean, sd), n_points=256)
    assert abs(g.total_mass - 1.0) <= MASS_TOL
    assert np.all(np.diff(g.Fs) >= 0)
    assert abs(g.cdf(mean) - 0.5) <= 1e-6
    ps = np.linspace(0.05, 0.95, 19)
    assert np.abs(g.cdf(g.quantile(ps)) - ps).max() <= 1e-4


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.1, 2.0),
    sd=st.floats(0.3, 3.0),
    w=st.floats(0.05, 0.95),
)
def test_mixture_invariants_property(a, sd, w):
    spec = DistributionSpec.gaussian_mixture([w, 1 - w], [-a, a], [sd, sd])
    g = materialize(spec, n_points=512)
    assert abs(g.total_mass - 1.0) <= MASS_TOL
    assert np.all(np.diff(g.Fs) >= 0)
    med = g.median()
    assert abs(g.cdf(med) - 0.5) <= 1e-6
