"""Grid construction, CDF/quantile interpolation, and derivative accuracy."""
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr

import blc_lab
from blc_lab import (
    DegenerateDensityError,
    DistributionSpec,
    DomainError,
    GridDensity,
    SpecError,
    Status,
    certify_blc,
    core,
    materialize,
)
from blc_lab.core import (
    MASS_TOL,
    _mixture_quantile,
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

    def test_params_are_converted_once(self):
        spec = DistributionSpec.from_json({"family": "gaussian_mixture", "params": {
            "weights": [1, 0], "means": [0, 2], "sds": [1, 3]}})
        assert spec.params == {"weights": [1.0, 0.0], "means": [0.0, 2.0], "sds": [1.0, 3.0]}
        assert all(type(v) is float for vals in spec.params.values() for v in vals)
        assert spec == DistributionSpec.gaussian_mixture([1.0, 0.0], [0.0, 2.0], [1.0, 3.0])
        assert DistributionSpec.from_json(
            {"family": "laplace", "params": {"location": 0, "scale": 2}}).label() == "laplace(0,2)"

    @pytest.mark.parametrize("family", ["laplace", "logistic"])
    def test_far_tail_cdf_raises_no_warning(self, family):
        cdf = core._make_family(DistributionSpec(family, {"location": 0.0, "scale": 1.0})).cdf
        zs = np.array([-800.0, -700.0, -0.0, 0.0, 700.0, 800.0])
        F = cdf(zs)
        assert F[0] == 0.0 and F[-1] == 1.0 and np.all(np.diff(F) >= 0)
        if family == "laplace":
            tails = [0.5 * math.exp(-abs(z)) for z in zs]
            assert F.tolist() == [t if z < 0 else 1.0 - t for z, t in zip(zs, tails)]

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

    @pytest.mark.parametrize("params", [[1, 2], None, "ab"], ids=repr)
    def test_params_must_be_a_json_object(self, params):
        with pytest.raises(SpecError, match="must be numbers in a JSON object"):
            DistributionSpec.from_json({"family": "gaussian", "params": params})

    def test_mass_invariants(self):
        for spec in (GAUSSIAN, LOGISTIC, LAPLACE, MIX_134):
            g = grid_of(spec)
            assert abs(g.total_mass - 1.0) <= MASS_TOL
            assert g.Fs[0] <= MASS_TOL and g.Fs[-1] >= 1 - MASS_TOL
            assert np.all(np.diff(g.Fs) >= 0)
            assert np.all(g.fs >= 0)
            assert g.j_range.start < g.j_range.stop

    def test_grid_density_derives_j_range_and_mass(self):
        xs = np.linspace(-1.0, 1.0, 201)
        g = GridDensity(xs=xs, fs=np.full(201, 0.5), Fs=(xs + 1.0) / 2.0)
        assert g.j_range == slice(1, 200)
        assert g.total_mass == g.quadrature_mass()
        moved = dataclasses.replace(g, xs=xs + 1.0)
        assert (moved.j_range, moved.total_mass) == (slice(1, 200), g.total_mass)
        with pytest.raises(TypeError):
            GridDensity(xs=xs, fs=g.fs, Fs=g.Fs, j_range=slice(0, 201))
        # an empty J(F) is reported before the mass is checked
        with pytest.raises(DegenerateDensityError, match=r"J\(F\) empty"):
            GridDensity(xs=xs, fs=3.0 * g.fs, Fs=np.zeros(201))
        with pytest.raises(DegenerateDensityError, match="total mass"):
            GridDensity(xs=xs, fs=3.0 * g.fs, Fs=g.Fs)

    @pytest.mark.parametrize("array,message", [
        ("xs", "strictly increasing"), ("fs", "density values must be >= 0"),
        ("Fs", "CDF values must be nondecreasing")])
    @pytest.mark.parametrize("total_mass", [None, 1.0])
    def test_grid_density_refuses_nan(self, array, message, total_mass):
        # every check states what must hold, so a NaN fails it, whether the
        # mass is given or taken from the quadrature
        xs = np.linspace(-6.0, 6.0, 101)
        arrays = {"xs": xs, "fs": np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi),
                  "Fs": ndtr(xs)}
        arrays[array] = arrays[array].copy()
        arrays[array][50] = math.nan
        with pytest.raises(SpecError, match=message):
            GridDensity(**arrays, total_mass=total_mass)

    @pytest.mark.parametrize("array,message", [
        ("xs", "strictly increasing and finite"), ("fs", "density values must be >= 0 and finite"),
        ("Fs", "CDF values must be nondecreasing and finite")])
    @pytest.mark.parametrize("total_mass", [None, 1.0])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("node", [50, 100])
    def test_grid_density_refuses_infinity(self, array, message, total_mass, value, node):
        # an infinite density value was accepted with a given mass, which
        # gave a NaN mean and a dead-node violation; an infinite last node
        # passes the order tests, so finiteness is a test of its own
        xs = np.linspace(-6.0, 6.0, 101)
        arrays = {"xs": xs, "fs": np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi),
                  "Fs": ndtr(xs)}
        arrays[array] = arrays[array].copy()
        arrays[array][node] = value
        with pytest.raises(SpecError, match=message):
            GridDensity(**arrays, total_mass=total_mass)

    def test_grid_density_refuses_nan_mass(self):
        xs = np.linspace(-6.0, 6.0, 101)
        with pytest.raises(DegenerateDensityError, match="total mass misses 1 by"):
            GridDensity(xs=xs, fs=np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi),
                        Fs=ndtr(xs), total_mass=math.nan)

    def test_single_node_j_range_refused(self):
        # abscissas 0..8 with all mass on node 4: only F(4) = 1/2 lies in J(F)
        spec = DistributionSpec.grid(np.arange(9.0), [0, 0, 0, 0, 1, 0, 0, 0, 0])
        with pytest.raises(DegenerateDensityError, match=r"J\(F\) has a single node"):
            materialize(spec)

    def test_mixture_anchor_is_median_solved_from_mean(self):
        # a mirrored mixture has its center on a node
        assert 0.0 in materialize(MIX_134).xs
        # F rounds to 1/2 from x = -0.85 to 0.07: the median starts, and
        # stays, at the mean, and the law is refuted either way
        flat = DistributionSpec.gaussian_mixture([0.5, 0.5], [-5.0, 5.0], [0.5, 0.6])
        g = materialize(flat, n_points=256)
        assert 0.0 in g.xs
        cert = certify_blc(g)
        assert (cert.status, cert.slack) == (Status.VIOLATED, -1.0)
        # a law with density at its median is anchored where its F is 1/2
        w, mu, sd = [0.3, 0.7], [0.0, 1.0], [1.0, 0.8]
        g = materialize(DistributionSpec.gaussian_mixture(w, mu, sd))
        anchor = g.xs[len(g) // 2]
        F = sum(wi * ndtr((anchor - mi) / si) for wi, mi, si in zip(w, mu, sd))
        assert abs(F - 0.5) <= 1e-12


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

    def test_nan_quantile_rejected(self, gauss):
        # a NaN probability used to pass the domain check and return NaN
        for bad in (math.nan, [0.5, math.nan]):
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
        # the rule on the first k + 1 nodes, k even, is composite Simpson there
        g = grid_of(spec, n=4096)
        ks = np.arange(2, len(g), 2)
        rebuilt = [quadrature_weights(g.xs[:k + 1]) @ g.fs[:k + 1] for k in ks]
        assert np.abs(rebuilt - g.Fs[ks]).max() <= 1e-7

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10, 11, 2048, 2049])
    def test_parabolic_rule_matches_cellwise_loop(self, n):
        # reference: accumulate each cell's parabola (through the triple at
        # the even index at or below it, the last triple for a final odd
        # cell) node by node, in cell order
        xs = np.linspace(-3.0, 5.0, n)
        hh = float(np.diff(xs).mean())
        w = np.zeros(n)
        for i in range(n - 1):
            base = min(i - i % 2, n - 3)
            c = (5.0, 8.0, -1.0) if i == base else (-1.0, 8.0, 5.0)
            for k in range(3):
                w[base + k] += c[k] * hh / 12.0
        assert np.abs(quadrature_weights(xs) - w).max() <= 1e-15

    def test_trapezoid_weights_sum(self):
        # a non-uniform grid takes the trapezoid rule
        xs = np.array([0.0, 1.0, 3.0, 4.0])
        w = quadrature_weights(xs)
        assert w.sum() == pytest.approx(4.0)
        assert np.allclose(w, [0.5, 1.5, 1.5, 0.5])


class TestDensityDerivative:
    def test_symmetric_peaks(self, gauss, logistic):
        # the center is a node of both grids
        for g in (gauss, logistic):
            assert abs(g.node_derivatives()[g.xs == 0.0]).item() <= 1e-6

    def test_gaussian_analytic_value(self, gauss):
        phi = np.exp(-0.5 * gauss.xs**2) / math.sqrt(2 * math.pi)
        assert np.abs(gauss.node_derivatives() + gauss.xs * phi).max() <= 1e-8

    @staticmethod
    def tabulated_pair(spec):
        """An analytic grid, its tabulated copy, and the nodes inside both J(F)."""
        g = grid_of(spec, n=4096)
        tab = materialize(DistributionSpec.grid(g.xs, g.fs))
        assert g.dpdf_fn is not None and tab.dpdf_fn is None
        return g, tab, slice(max(g.j_range.start, tab.j_range.start) + 1,
                             min(g.j_range.stop, tab.j_range.stop) - 1)

    def test_fd_matches_analytic(self):
        # the tabulated copy has no dpdf_fn, so it takes the finite differences
        for spec in (GAUSSIAN, LOGISTIC, MIX_134):
            g, tab, inner = self.tabulated_pair(spec)
            fd = tab.node_derivatives()[inner]
            exact = g.node_derivatives()[inner]
            assert np.abs(fd - exact).max() <= 1e-4

    def test_fd_matches_analytic_laplace_away_from_kink(self):
        g, tab, inner = self.tabulated_pair(LAPLACE)
        h = float(np.diff(g.xs).max())
        keep = np.abs(g.xs[inner]) > 1.5 * h  # second difference smears the kink cell
        fd = tab.node_derivatives()[inner][keep]
        exact = g.node_derivatives()[inner][keep]
        assert np.abs(fd - exact).max() <= 1e-4


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


# ---------------------------------------------------------------------------
# mixture quantile solver
# ---------------------------------------------------------------------------

QUANTILE_PS = (5e-10, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 5e-10)


def _random_mixtures(rng, n, k=None):
    """Overlapping mixtures, so every quantile is well conditioned."""
    out = []
    for _ in range(n):
        kk = k or int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(kk))
        out.append((w, rng.uniform(-1.5, 1.5, kk), rng.uniform(0.5, 2.0, kk)))
    return out


def _bisection_quantile(p, w, mu, sd):
    """Reference root: bisect the closed-form CDF (survival function above 1/2)."""
    if p <= 0.5:
        def below(x):  # F(x) < p
            return sum(wi * 0.5 * math.erfc(-(x - m) / (s * math.sqrt(2.0)))
                       for wi, m, s in zip(w, mu, sd)) < p
    else:
        def below(x):  # S(x) > 1 - p
            return sum(wi * 0.5 * math.erfc((x - m) / (s * math.sqrt(2.0)))
                       for wi, m, s in zip(w, mu, sd)) > 1.0 - p
    lo, hi = float(min(mu) - 40 * max(sd)), float(max(mu) + 40 * max(sd))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if below(mid) else (lo, mid)


class TestMixtureQuantile:
    def test_roots_match_bisection_reference(self):
        rng = np.random.default_rng(11)
        for w, mu, sd in _random_mixtures(rng, 40):
            got = _mixture_quantile(np.array([QUANTILE_PS]), w, mu[None], sd[None])[0]
            for p, q in zip(QUANTILE_PS, got):
                assert abs(q - _bisection_quantile(p, w, mu, sd)) <= core._XTOL, (p, w, mu, sd)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_stack_equals_rows_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        mixes = _random_mixtures(rng, 30, k)
        w = mixes[0][0]
        mu = np.array([m for _, m, _ in mixes])
        sd = np.array([s for _, _, s in mixes])
        ps = rng.choice(QUANTILE_PS, size=(30, 3))
        stack = _mixture_quantile(ps, w, mu, sd)
        for d in range(30):
            row = _mixture_quantile(ps[d:d + 1], w, mu[d:d + 1], sd[d:d + 1])
            assert np.array_equal(stack[d], row[0])
            for j in range(3):
                single = _mixture_quantile(ps[d:d + 1, j], w, mu[d:d + 1], sd[d:d + 1])
                assert single.shape == (1,) and single[0] == stack[d, j]

    def test_cycling_newton_steps_end_in_bisection(self):
        # Newton steps from the start alternate between about -1.5574 and
        # 0.6254 inside the bracket; after _NEWTON_STEPS they bisect to the root
        w = [0.4365139385677624, 0.24541707741987642, 0.3180689840123613]
        mu = np.array([[-1.892451545662042, 0.6772002568387596, -0.4709680520753886]])
        sd = np.array([[1.2670728050912725, 1.8964915284144936, 0.3225943559258878]])
        p = 0.5685714285714285
        (root,) = _mixture_quantile(np.array([p]), w, mu, sd)
        assert abs(root - _bisection_quantile(p, w, mu[0], sd[0])) <= 2.0 * core._XTOL
        assert root == pytest.approx(-0.543139, abs=1e-6)

    def test_roots_final_within_newton_steps_are_unchanged(self, monkeypatch):
        # a stack whose roots are all final after _NEWTON_STEPS plain Newton
        # steps gets the same roots, bit for bit, with the bisection rule
        rng = np.random.default_rng(3)
        ps = np.array([QUANTILE_PS])
        mixes = _random_mixtures(rng, 60)
        want = [_mixture_quantile(ps, w, mu[None], sd[None]) for w, mu, sd in mixes]
        monkeypatch.setattr(core, "_MAXITER", core._NEWTON_STEPS + 1)
        monkeypatch.setattr(core, "_NEWTON_STEPS", math.inf)
        compared = 0
        for (w, mu, sd), roots in zip(mixes, want):
            try:
                newton = _mixture_quantile(ps, w, mu[None], sd[None])
            except RuntimeError:
                continue
            assert newton.tobytes() == roots.tobytes()
            compared += 1
        assert compared >= 50

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 5), data=st.data())
    def test_roots_solve_the_closed_form_cdf(self, k, data):
        # F - p (S - (1 - p) above 1/2) changes sign within the solver's
        # tolerance of the root, up to the rounding of F itself; no call raises
        w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        w /= w.sum()
        mu, sd = (np.array(data.draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))
                  for lo, hi in ((-5.0, 5.0), (0.05, 5.0)))
        p = data.draw(st.floats(1e-9, 1.0 - 1e-9))
        (root,) = _mixture_quantile(np.array([p]), w, mu[None], sd[None])
        sign, target = (-1.0, 1.0 - p) if p > 0.5 else (1.0, p)

        def tail(x):  # F(x), or S(x) above 1/2
            return sum(wi * 0.5 * math.erfc(-sign * (x - m) / (s * math.sqrt(2.0)))
                       for wi, m, s in zip(w, mu, sd))

        delta = 2.0 * (core._XTOL + core._RTOL * abs(root))
        slack = 1e-14 * target
        below, above = sorted((tail(root - delta), tail(root + delta)))
        assert below - slack <= target <= above + slack, (w, mu, sd, p, root)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(core, "_MAXITER", 1)
        with pytest.raises(RuntimeError, match="no convergence"):
            _mixture_quantile(np.array([0.3]), [0.5, 0.5], np.array([[-1.0, 1.0]]),
                              np.array([[1.0, 1.0]]))


@st.composite
def _mixtures_and_points(draw):
    # one mixture, (k,) parameters, on points of any shape; or a stack of R
    # mixtures, (k, R, 1), on (R, n) points, as a direction scan and the
    # quantile solver call the kernel; with a sign of +-1 per point
    k = draw(st.integers(1, 12))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    if draw(st.booleans()):
        rows = draw(st.integers(1, 4))
        params, shape = (k, rows, 1), (rows, draw(st.integers(1, 6)))
    else:
        params, shape = (k,), draw(st.sampled_from([(), (1,), (7,), (2, 5)]))
    mu, sd = (draw(arrays(np.float64, params, elements=st.floats(lo, hi)))
              for lo, hi in ((-5.0, 5.0), (0.05, 5.0)))
    x = draw(arrays(np.float64, shape, elements=st.floats(-40.0, 40.0)))
    return w, mu, sd, x, draw(arrays(np.float64, shape, elements=st.sampled_from([-1.0, 1.0])))


@settings(max_examples=150, deadline=None)
@given(case=_mixtures_and_points())
def test_mixture_kernel_sums_components_in_order(case):
    # pdf, cdf and f' of a mixture equal the plain per-component sum taken
    # left to right from +0.0, bit for bit, for every component count; so do
    # the joint calls of a tabulated grid (pdf and CDF) and of a solver step
    # (the CDF, or the survival function where the sign is -1, and the pdf)
    w, mu, sd, x, sign = case
    fam = core._mixture_family(w, mu, sd, window=(-1.0, 0.0, 1.0))  # window unused
    want = [0.0, 0.0, 0.0, 0.0]
    for wi, mi, si in zip(w, mu, sd):
        z = (x - mi) / si
        dens = wi * np.exp(-0.5 * z * z) / (si * math.sqrt(2.0 * math.pi))
        for i, term in enumerate((dens, wi * ndtr(z), dens * (-z / si), wi * ndtr(sign * z))):
            want[i] = want[i] + term
    pdf, cdf, dpdf, tail = want
    got = [(fam.pdf(x), pdf), (fam.cdf(x), cdf), (fam.dpdf(x), dpdf)]
    got += zip(core._mixture_sums(("pdf", "cdf"), w, mu, sd, x), (pdf, cdf))
    got += zip(core._mixture_sums(("cdf", "pdf"), w, mu, sd, x, sign), (tail, pdf))
    for value, ref in got:
        assert np.shape(value) == x.shape
        assert np.asarray(value).tobytes() == np.broadcast_to(ref, x.shape).tobytes()


def test_public_names_resolve():
    assert all(hasattr(blc_lab, name) for name in blc_lab.__all__)
    for name in ("weighted_measure", "WeightedMeasure", "upper_tail_at"):
        assert not hasattr(blc_lab, name) and name not in blc_lab.__all__
    assert not hasattr(GridDensity, "density_derivative")


def test_import_leaves_scipy_optimize_out():
    src = os.path.dirname(os.path.dirname(blc_lab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, blc_lab; "
            "print([m for m in ('scipy.optimize', 'scipy.fft') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
