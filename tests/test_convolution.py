"""Convolution quadrature, the covariance criterion, and smoothing sequences."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from blc_lab import (
    CertifyOptions,
    DegenerateDensityError,
    DistributionSpec,
    DomainError,
    RequiresCertificateError,
    SpecError,
    Status,
    Verdict,
    certify_blc,
    check_convolution_blc_consistency,
    check_log_concave,
    convolve,
    covariance_criterion,
    integration_by_parts_check,
    materialize,
    smooth_sequence,
)
from blc_lab.convolution import CONV_CERTIFY_TOL, _node_sums, _roles, _x_blocks
from blc_lab.core import MASS_TOL, _spacing, quadrature_weights

from conftest import (
    GAUSSIAN,
    LAPLACE,
    LOGISTIC,
    MIX_134,
    MIX_20,
    PROP_PAIRS,
    UNIFORM01,
    grid_of,
    mixture_spec,
    tabulated_spec,
)

SQ2PI = math.sqrt(2 * math.pi)


def norm_pdf(x, mu=0.0, sd=1.0):
    z = (np.asarray(x, float) - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * SQ2PI)


class TestConvolve:
    def test_gaussian_closure(self, gauss):
        gZ = convolve(gauss, gauss)
        target = norm_pdf(gZ.xs, 0.0, math.sqrt(2.0))
        assert np.abs(gZ.fs - target).max() <= 1e-5

    def test_mixture_gaussian_closed_form(self, mix134, gauss):
        gZ = convolve(mix134, gauss)
        sd = math.sqrt(2.0)
        target = 0.5 * norm_pdf(gZ.xs, -1.34, sd) + 0.5 * norm_pdf(gZ.xs, 1.34, sd)
        assert np.abs(gZ.fs - target).max() <= 1e-5

    @pytest.mark.parametrize("tabulated_first", [False, True])
    def test_mixture_with_tabulated_gaussian_closed_form(self, tabulated_first):
        # in both orders the tabulated factor is Y: its own (trapezoid-
        # weighted) node weights are spread onto a lattice on which the
        # mixture's exact functions are evaluated
        mix = grid_of(mixture_spec(1.0, sd=0.8), n=1024)
        tab = materialize(tabulated_spec(DistributionSpec.gaussian(0.3, 0.7), 1001))
        gZ = convolve(tab, mix) if tabulated_first else convolve(mix, tab)
        sd = math.sqrt(0.8**2 + 0.7**2)
        f = 0.5 * norm_pdf(gZ.xs, -0.7, sd) + 0.5 * norm_pdf(gZ.xs, 1.3, sd)
        F = 0.5 * ndtr((gZ.xs + 0.7) / sd) + 0.5 * ndtr((gZ.xs - 1.3) / sd)
        assert np.abs(gZ.fs - f).max() <= 1e-8 * f.max()
        assert np.abs(gZ.Fs - F).max() <= 5e-9
        assert certify_blc(gZ, CertifyOptions(tolerance=1e-5)).status is Status.CERTIFIED

    def test_two_tabulated_factors_interpolate_the_finer(self):
        # X is interpolated, so the coarser grid (here the non-uniform one)
        # carries the sum; the other way round the mass missed its tolerance
        fine = materialize(tabulated_spec(DistributionSpec.gaussian(0.2, 0.9), 801,
                                          spacing="uniform"))
        coarse = materialize(tabulated_spec(DistributionSpec.gaussian(-0.2, 1.1), 401))
        assert _roles(fine, coarse)[1] is coarse
        gZ = convolve(fine, coarse)
        F = ndtr(gZ.xs / math.hypot(0.9, 1.1))
        assert np.abs(gZ.Fs - F).max() <= 1e-5
        assert certify_blc(gZ, CertifyOptions(tolerance=1e-5)).status is Status.CERTIFIED

    def test_uniform_triangle(self, uniform01):
        gZ = convolve(uniform01, uniform01)
        tri = np.clip(np.where(gZ.xs <= 1.0, gZ.xs, 2.0 - gZ.xs), 0.0, None)
        assert np.abs(gZ.fs - tri).max() <= 1e-9
        assert gZ.pdf(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_mass_and_monotonicity(self, mix134, laplace):
        gZ = convolve(mix134, laplace)
        assert abs(gZ.total_mass - 1.0) <= MASS_TOL
        assert np.all(np.diff(gZ.Fs) >= 0)

    def test_cdf_consistency_both_identities(self, mix134, laplace):
        # F_Z from the lower-tail identity must match quadrature of the
        # upper-tail identity at probe points, and re-integrating the
        # convolved density must reproduce the same CDF
        gZ = convolve(mix134, laplace)
        probes = gZ.quantile(np.linspace(0.02, 0.98, 50))
        upper = (1.0 - mix134.cdf_fn(probes[:, None] - laplace.xs)) @ (
            laplace.quad_weights * laplace.fs)
        assert np.abs((1.0 - gZ.cdf(probes)) - upper).max() <= 1e-5
        ks = np.arange(2, len(gZ), 2)  # the rule on nodes 0..k is composite Simpson
        rebuilt = [quadrature_weights(gZ.xs[:k + 1]) @ gZ.fs[:k + 1] for k in ks]
        assert np.abs(rebuilt - gZ.Fs[ks]).max() <= 1e-5

    def test_commutativity(self, mix134, logistic):
        a = convolve(mix134, logistic)
        b = convolve(logistic, mix134)
        xs = np.linspace(-6, 6, 501)
        assert np.abs(a.pdf(xs) - b.pdf(xs)).max() <= 1e-6


    @pytest.mark.parametrize("sx,sy", [
        (MIX_134, LOGISTIC), (MIX_134, LAPLACE), (LAPLACE, LOGISTIC),
        (GAUSSIAN, UNIFORM01), (LAPLACE, UNIFORM01), (LAPLACE, mixture_spec(0.5, sd=0.4)),
    ], ids=lambda s: s.label())
    def test_argument_order_gives_identical_nodes(self, sx, sy):
        # the factor roles depend on the factors, not on the argument order
        for n_x, n_y in ((2048, 2048), (1024, 2048)):
            gX, gY = grid_of(sx, n=n_x), grid_of(sy, n=n_y)
            a, b = convolve(gX, gY), convolve(gY, gX)
            assert np.array_equal(a.xs, b.xs)
            assert np.array_equal(a.fs, b.fs)

    @pytest.mark.parametrize("sx,nx,sy,ny", [
        # Laplace given first was the outer factor, its kink fell between the
        # inner grid's nodes and the mass missed its tolerance; the roles now
        # put the Laplace factor inside in both orders
        (LAPLACE, 384, mixture_spec(0.6, sd=0.6), 384),
        # Y's weights are scaled to unit mass: Z inherited the Laplace grid's
        # own Simpson error (+3.9e-6), and a Laplace tabulated on an even grid
        # (quadrature mass 1 - 1.3e-4) failed every convolution it carried
        (DistributionSpec.laplace(0.3, 0.8), 256, mixture_spec(1.0, sd=0.8), 256),
        (tabulated_spec(LAPLACE, 401, spacing="uniform"), 401, GAUSSIAN, 512),
    ], ids=["kink-inside", "laplace-grid-mass", "tabulated-laplace"])
    def test_laplace_factor_keeps_unit_mass_in_both_orders(self, sx, nx, sy, ny):
        lap, other = grid_of(sx, n=nx), grid_of(sy, n=ny)
        for gX, gY in ((lap, other), (other, lap)):
            gZ = convolve(gX, gY)
            assert abs(gZ.total_mass - 1.0) <= MASS_TOL

    def test_missed_mass_reports_its_deviation(self):
        # the message carries the signed deviation, which rounding the mass
        # itself to six digits would print as "1"
        gX = grid_of(DistributionSpec.laplace(2.0, 1.3), n=128)
        gY = grid_of(DistributionSpec.logistic(-1.0, 0.5), n=128)
        with pytest.raises(DegenerateDensityError,
                           match=r"total mass misses 1 by -8\.8\de-06 \(tolerance 1e-06\)"):
            convolve(gX, gY)

    def test_nodes_on_inner_lattice_respect_minimum_count(self, mix134):
        # at least as many nodes as the larger factor has (made odd), on the
        # lattice of the factor with the finer grid: the mixture against a
        # 501-point Gaussian, the Gaussian otherwise
        for n_y in (501, 2048, 3001):
            gY = grid_of(GAUSSIAN, n=n_y)
            n = max(len(mix134), n_y) | 1
            gZ = convolve(mix134, gY)
            assert n <= len(gZ) <= 2 * n
            step = (gZ.xs[1] - gZ.xs[0]) / _spacing(_roles(mix134, gY)[1].xs)
            assert round(step) >= 1 and abs(step - round(step)) <= 1e-9

    def test_direct_sums_when_lattice_does_not_fit(self):
        # a Y grid too coarse for the least node count (a 256-point box under
        # a 2048-point narrow Gaussian), and one so fine that its lattice
        # would outgrow the direct sums, both fall back to evenly spaced
        # nodes, as many as the larger factor has (made odd)
        narrow = grid_of(DistributionSpec.gaussian(0.0, 0.1), n=2048)
        mix = grid_of(MIX_134, n=256)
        for gX, gY, n in ((narrow, grid_of(UNIFORM01, n=256), 2049),
                          (mix, grid_of(DistributionSpec.gaussian(0.0, 1e-4), n=256), 257)):
            gZ = convolve(gX, gY)
            assert len(gZ) == n
            assert np.allclose(np.diff(gZ.xs), np.diff(gZ.xs)[0])
            assert abs(gZ.total_mass - 1.0) <= MASS_TOL
            swapped = convolve(gY, gX)
            assert np.array_equal(swapped.xs, gZ.xs) and np.array_equal(swapped.fs, gZ.fs)


_FAMILIES = ("mixture", "gaussian", "logistic", "laplace", "uniform", "tabulated")


@st.composite
def _factor_specs(draw):
    family = draw(st.sampled_from(_FAMILIES))
    c, s = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.3, 2.0))
    if family == "tabulated":
        n = draw(st.sampled_from([301, 401, 1001]))
        spacing = draw(st.sampled_from(["uniform", "sinh"]))
        return tabulated_spec(DistributionSpec.gaussian(c, s), n, spacing=spacing)
    if family == "mixture":
        return mixture_spec(draw(st.floats(0.0, 1.3)) * s, sd=s, shift=c)
    if family == "uniform":
        return DistributionSpec.uniform(c - s, c + s)
    if family == "gaussian":
        return DistributionSpec.gaussian(c, s)
    return getattr(DistributionSpec, family)(c, s)


@settings(max_examples=40, deadline=None)
@given(sx=_factor_specs(), sy=_factor_specs(), n=st.sampled_from([256, 512]))
@example(sx=mixture_spec(1.0, sd=0.8),  # Y's weights spread onto a lattice
         sy=tabulated_spec(DistributionSpec.gaussian(0.3, 0.7), 1001), n=256)
@example(sx=LOGISTIC, sy=tabulated_spec(DistributionSpec.gaussian(0.3, 0.7), 301), n=512)
def test_lattice_sums_equal_direct_sums(sx, sy, n):
    # the FFT pass is the same quadrature as summing over Y's grid directly
    gX, gY = _roles(materialize(sx, n_points=n), materialize(sy, n_points=n))
    xs, fs, Fs = _node_sums(gX, gY, n + 1)
    assert len(xs) >= n + 1
    pdf_X, cdf_X = gX.functions()
    wf = gY.quad_weights * gY.fs / np.sum(gY.quad_weights * gY.fs)
    u = xs[:, None] - gY.xs
    assert np.abs(Fs - np.asarray(cdf_X(u), dtype=float) @ wf).max() <= 1e-13
    if gY.uniform_bounds is None:  # else f_Z is a closed form
        assert np.abs(fs - np.asarray(pdf_X(u), dtype=float) @ wf).max() <= 1e-13


@pytest.mark.parametrize("other", [
    DistributionSpec.laplace(0.4, 0.5),
    DistributionSpec.uniform(-0.3, 0.9),
    tabulated_spec(DistributionSpec.gaussian(0.2, 0.7), 301, spacing="uniform"),
], ids=["laplace", "uniform", "even-grid"])
@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("scale", [0.9, 1.1, 1.3])
def test_kink_meets_an_even_node_of_y_at_every_output_node(other, n, scale):
    # the lattice rule for a kinked X: the output nodes step from kink + y_0
    # by 2h and m is even, so x_k - y_j hits the kink only at an even j; for
    # each kind of Y some scale and n make floor((x_0 - kink) / h) odd, so a
    # step of h would show, and some make the step m odd before evening
    gX, gY = _roles(materialize(DistributionSpec.laplace(-0.7, scale), n_points=n),
                    materialize(other, n_points=n))
    assert gX.kink_x is not None
    h = _spacing(gY.xs)
    xs = _node_sums(gX, gY, n + 1 - n % 2)[0]  # the nodes, before any mass check
    m = (xs[1] - xs[0]) / h
    assert abs(m - round(m)) <= 1e-9 and round(m) >= 2  # on Y's lattice, past m = 1
    t = (xs - gX.kink_x - gY.xs[0]) / h
    assert np.abs(t - np.round(t)).max() <= 1e-6
    assert np.all(np.round(t) % 2 == 0)


@settings(max_examples=40, deadline=None)
@given(sx=_factor_specs(), sy=_factor_specs(), n=st.sampled_from([256, 512]))
@example(sx=GAUSSIAN, sy=DistributionSpec.gaussian(1.0, 1.0), n=256)  # equal spacings
@example(sx=LOGISTIC, sy=DistributionSpec.logistic(1.0, 1.0), n=512)
@example(sx=GAUSSIAN, sy=tabulated_spec(DistributionSpec.gaussian(1.0, 1.0), 301), n=512)
@example(sx=tabulated_spec(GAUSSIAN, 301), sy=tabulated_spec(LOGISTIC, 301), n=256)  # same nodes
def test_convolution_commutes(sx, sy, n):
    # a pair that misses the mass tolerance must miss it in both orders
    gX, gY = materialize(sx, n_points=n), materialize(sy, n_points=n)
    results = []
    for a, b in ((gX, gY), (gY, gX)):
        try:
            results.append(convolve(a, b))
        except DegenerateDensityError:
            results.append(None)
    ab, ba = results
    if ab is None or ba is None:
        assert ab is None and ba is None
        return
    for attr in ("xs", "fs", "Fs"):
        assert np.array_equal(getattr(ab, attr), getattr(ba, attr)), attr


# every kind of X the direct sums and the criterion evaluate off its nodes
_X_KINDS = ("mixture", "gaussian", "logistic", "laplace", "uniform",
            "even_grid", "sinh_grid", "convolved")


@st.composite
def _x_factors(draw):
    kind = draw(st.sampled_from(_X_KINDS))
    c, s = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.3, 2.0))
    if kind == "convolved":  # tabulated: its CDF is interpolated
        return convolve(grid_of(mixture_spec(1.0, sd=0.8), n=256),
                        materialize(DistributionSpec.logistic(c, s), n_points=256))
    if kind in ("even_grid", "sinh_grid"):
        spec = tabulated_spec(DistributionSpec.gaussian(c, s), draw(st.sampled_from([301, 1001])),
                              spacing="uniform" if kind == "even_grid" else "sinh")
    elif kind == "mixture":
        spec = mixture_spec(draw(st.floats(0.0, 1.3)) * s, sd=s, shift=c)
    elif kind == "uniform":
        spec = DistributionSpec.uniform(c - s, c + s)
    elif kind == "gaussian":
        spec = DistributionSpec.gaussian(c, s)
    else:
        spec = getattr(DistributionSpec, kind)(c, s)
    return materialize(spec, n_points=256)


def _sinh_y(n, c, s):
    """A Gaussian tabulated on n sinh-spaced points: a Y without a lattice of
    its own, spread onto one for a smooth analytic X and summed directly else."""
    return materialize(tabulated_spec(DistributionSpec.gaussian(c, s), n), n_points=n)


def _spreads(gX):
    """Whether Y's weights are spread onto a lattice for this X: an exact pdf,
    no kink, no box."""
    return gX.pdf_fn is not None and gX.kink_x is None and gX.uniform_bounds is None


@settings(max_examples=30, deadline=None)
@given(gX=_x_factors(), n=st.sampled_from([256, 1024]),
       c=st.floats(-2.0, 2.0), s=st.floats(0.3, 2.0))
def test_blocked_banded_sums_equal_full_matrix_sums(gX, n, c, s):
    # X's CDF band changes no value of a block, and the row blocks leave
    # each sum as one full-matrix product; a smooth analytic X is summed on
    # the spread lattice instead, which holds it to the FFT pass's bound
    gY = _sinh_y(n, c, s)
    xs = np.linspace(gX.xs[0] + gY.xs[0], gX.xs[-1] + gY.xs[-1], n + 1)
    pdf_X, cdf_X = gX.functions()
    u = xs[:, None] - gY.xs
    F_full, f_full = np.asarray(cdf_X(u), dtype=float), np.asarray(pdf_X(u), dtype=float)
    for rows, Fx, fx in _x_blocks(gX, xs, gY.xs):
        assert np.array_equal(Fx, F_full[rows]) and np.array_equal(fx, f_full[rows])
    wf = gY.quad_weights * gY.fs / np.sum(gY.quad_weights * gY.fs)
    got_xs, fs, Fs = _node_sums(gX, gY, n + 1)
    assert np.array_equal(got_xs, xs)
    for got, vals in ((fs, f_full), (Fs, F_full)):
        want = vals @ wf
        bound = 1e-13 if _spreads(gX) else 1e-15 * np.abs(want).max()
        assert np.abs(got - want).max() <= bound


def _counting(g, count):
    """``g`` with its exact pdf and cdf adding the points they get to count[0]."""
    def counted(fn):
        def call(x):
            count[0] += np.size(x)
            return fn(x)
        return call
    return dataclasses.replace(g, pdf_fn=counted(g.pdf_fn), cdf_fn=counted(g.cdf_fn))


def test_smooth_x_meets_a_non_uniform_y_on_a_spread_lattice():
    # a mixture X against a 1001-point sinh Y is evaluated on the lattice the
    # weights of Y are spread onto, not on each of the n * n_Y direct cells
    n, count = 1024, [0]
    gX = _counting(materialize(mixture_spec(1.0, sd=0.8), n_points=n), count)
    gY = _sinh_y(1001, 0.3, 0.7)
    assert _roles(gX, gY) == (gX, gY)
    convolve(gX, gY)
    assert 0 < count[0] < n * len(gY) / 8
    # a kinked X, an interpolated X, and a lattice past the guard (a narrow
    # X against a wide Y) keep the direct sums, equal to the full-matrix product
    logistic_y = materialize(tabulated_spec(DistributionSpec.logistic(0.0, 1.0), 401))
    for gX, gY in ((materialize(LAPLACE, n_points=n), gY),
                   (materialize(tabulated_spec(GAUSSIAN, 801, spacing="uniform")), gY),
                   (materialize(DistributionSpec.gaussian(0.0, 0.05), n_points=n), logistic_y)):
        xs, fs, Fs = _node_sums(gX, gY, n + 1)
        pdf_X, cdf_X = gX.functions()
        u = xs[:, None] - gY.xs
        wf = gY.quad_weights * gY.fs / np.sum(gY.quad_weights * gY.fs)
        for got, vals in ((fs, pdf_X(u)), (Fs, cdf_X(u))):
            want = np.asarray(vals, dtype=float) @ wf
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(gX=_x_factors(), gaps=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
def test_cdf_accessors_clamp_off_the_grid(gX, gaps):
    # the band of the direct sums rests on this: off X's grid every CDF
    # accessor returns exactly the first or last node value
    cdf_X = gX.functions()[1]
    gaps = np.asarray(gaps)
    left = np.nextafter(gX.xs[0] - gaps, -np.inf)
    right = np.nextafter(gX.xs[-1] + gaps, np.inf)
    assert np.all(np.asarray(cdf_X(left), dtype=float) == gX.Fs[0])
    assert np.all(np.asarray(cdf_X(right), dtype=float) == gX.Fs[-1])


def _tilted_covariances(gX, gY, xs):
    """Both covariances with the tilted measures m_x and mbar_x built explicitly."""
    pdf_X, cdf_X = gX.functions()
    alive = gY.fs > 1e-12 * gY.fs.max()
    wf = gY.quad_weights * gY.fs
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(alive, -gY.node_derivatives() / gY.fs, 0.0)
    u = xs[:, None] - gY.xs
    Fx, fx = np.asarray(cdf_X(u), dtype=float), np.asarray(pdf_X(u), dtype=float)
    covs, masses = [], []
    for tilt, sign in ((Fx, 1.0), (1.0 - Fx, -1.0)):
        w = np.where(alive, wf * tilt, 0.0)
        z = w.sum(axis=1)
        # w b = wf f_X / z with b = sign f_X / t: also where t = 0, in the
        # limit from inside X's support
        with np.errstate(divide="ignore", invalid="ignore"):
            w, wb = w / z[:, None], np.where(alive, sign * wf * fx, 0.0) / z[:, None]
            covs.append(np.sum(wb * a, axis=1) - np.sum(w * a, axis=1) * np.sum(wb, axis=1))
        masses.append(z)
    return covs[0], covs[1], (masses[0] > MASS_TOL) & (masses[1] > MASS_TOL)


_Y_KINDS = ("sinh_grid", "gaussian", "logistic", "laplace", "mixture")


def _y_factor(kind, n, c, s):
    """A Y of the criterion: one of ``_Y_KINDS`` at location c and scale s."""
    if kind == "sinh_grid":
        return _sinh_y(n, c, s)
    if kind == "mixture":
        return materialize(mixture_spec(0.8 * s, sd=s, shift=c), n_points=n)
    return materialize(getattr(DistributionSpec, kind)(c, s), n_points=n)


@settings(max_examples=30, deadline=None)
@given(gX=_x_factors(), y_kind=st.sampled_from(_Y_KINDS), n=st.sampled_from([256, 1024]),
       c=st.floats(-2.0, 2.0), s=st.floats(0.3, 2.0))
def test_four_sum_covariances_match_tilted_measures(gX, y_kind, n, c, s):
    gY = _y_factor(y_kind, n, c, s)
    xs = gX.quantile(np.linspace(0.02, 0.98, 17)) + gY.median()
    xs = np.concatenate([xs, [gX.xs[0] + gY.xs[0] - 1.0]])  # one anchor without mass
    report = covariance_criterion(gX, gY, xs=xs)
    want_lo, want_up, usable = _tilted_covariances(gX, gY, xs)
    assert np.array_equal(report.xs, xs[usable])
    # near-zero covariances are cancellation-limited in either form, hence the floor
    for got, want in ((report.cov_lower, want_lo[usable]), (report.cov_upper, want_up[usable])):
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1e-3))


@settings(max_examples=30, deadline=None)
@given(gX=_x_factors(), y_kind=st.sampled_from(_Y_KINDS), n=st.sampled_from([256, 1024]),
       c=st.floats(-2.0, 2.0), s=st.floats(0.3, 2.0))
def test_criterion_does_not_depend_on_anchor_order(gX, y_kind, n, c, s):
    # X's CDF band comes from each block's least and greatest anchor, so
    # reversed anchors, some beyond both ends of X + Y's grid, give the
    # reversed covariances bit for bit
    gY = _y_factor(y_kind, n, c, s)
    lo, hi = gX.xs[0] + gY.xs[0], gX.xs[-1] + gY.xs[-1]
    xs = np.concatenate([[lo - 1.0, lo - 1e-3],
                         gX.quantile(np.linspace(0.02, 0.98, 41)) + gY.median(),
                         [hi + 1e-3, hi + 1.0]])
    fwd = covariance_criterion(gX, gY, xs=xs)
    rev = covariance_criterion(gX, gY, xs=xs[::-1])
    for attr in ("xs", "cov_lower", "cov_upper"):
        assert np.array_equal(getattr(rev, attr), getattr(fwd, attr)[::-1]), attr
    assert rev.skipped == fwd.skipped[::-1]


_QUANTILES = np.linspace(0.02, 0.98, 41)


def _convolve_or_none(gX, gY):
    """X + Y, or None where the sum misses the mass tolerance."""
    try:
        return convolve(gX, gY)
    except DegenerateDensityError:
        return None


def _all_anchors(report):
    """The kept and skipped anchors of a report, ascending."""
    return np.sort(np.concatenate([report.xs, report.skipped]))


@settings(max_examples=40, deadline=None)
@given(gX=_x_factors().filter(lambda g: g.uniform_bounds is None),
       y_kind=st.sampled_from(_Y_KINDS[1:]), n=st.sampled_from([256, 1024]),
       c=st.floats(-2.0, 2.0), s=st.floats(0.3, 2.0))
def test_default_points_fill_the_lattice_of_y(gX, y_kind, n, c, s):
    # a uniform Y puts the default points on every step of its lattice (2h
    # from X's kink, else h from X's first node, plus y_0), from the point
    # nearest the 0.02 quantile of F_Z to the one nearest the 0.98 quantile,
    # so the 41 quantiles snapped to the lattice are among them.  Their
    # covariances are those of the direct blocks at the same points, except
    # where x - y_j is X's first or last node: on the lattice exactly, while
    # the direct difference may round off X's grid, where a tabulated pdf is
    # 0.  That one cell per tilt moves a covariance by
    # wf_j f_X (a_j - S_a / z) / z, with z >= 0.01 at these quantiles.
    gY = _y_factor(y_kind, n, c, s)
    gZ = _convolve_or_none(gX, gY)
    assume(gZ is not None)
    report = covariance_criterion(gX, gY, gZ=gZ)
    h = _spacing(gY.xs)
    u_ref, step = (gX.kink_x, 2 * h) if gX.kink_x is not None else (gX.xs[0], h)
    t = (_all_anchors(report) - (u_ref + gY.xs[0])) / step
    assert np.abs(t - np.rint(t)).max() < 1e-6
    t = np.rint(t)
    snapped = np.rint((gZ.quantile(_QUANTILES) - (u_ref + gY.xs[0])) / step)
    assert np.all(np.diff(t) == 1) and (t[0], t[-1]) == (snapped[0], snapped[-1])
    assert np.all(np.isin(snapped, t))
    direct = covariance_criterion(gX, gY, xs=report.xs)
    assert np.array_equal(direct.xs, report.xs)
    f_end = np.abs(gX.functions()[0](gX.xs[[0, -1]])).max()
    wf, a = gY.quad_weights * gY.fs, np.abs(gY.node_derivatives() / gY.fs).max()
    tol = 1e-12 + 2 * wf.max() * f_end * a / 0.01
    for got, want in ((report.cov_lower, direct.cov_lower), (report.cov_upper, direct.cov_upper)):
        assert np.abs(got - want).max() <= tol


@settings(max_examples=30, deadline=None)
@given(sep=st.floats(0.0, 1.3), sd=st.floats(0.3, 2.0), c=st.floats(-2.0, 2.0),
       y_kind=st.sampled_from(["gaussian", "logistic", "laplace", "uniform"]),
       cy=st.floats(-2.0, 2.0), sy=st.floats(0.3, 2.0), n=st.sampled_from([256, 1024]))
def test_blc_with_log_concave_is_stable_at_every_lattice_point(sep, sd, c, y_kind, cy, sy, n):
    # the paper's theorem: a BLC X plus a log-concave Y is BLC, so both
    # covariances are >= 0 for all x in J(F_Z); every lattice point of the
    # default criterion (the quantiles past the quarter guard) sees it, with
    # either factor playing Y
    gX = materialize(mixture_spec(sep * sd, sd=sd, shift=c), n_points=n)
    spec = (DistributionSpec.uniform(cy - sy, cy + sy) if y_kind == "uniform"
            else getattr(DistributionSpec, y_kind)(cy, sy))
    gY = materialize(spec, n_points=n)
    gZ = _convolve_or_none(gX, gY)
    assume(gZ is not None)
    for first, second in ((gX, gY), (gY, gX)):
        report = covariance_criterion(first, second, gZ=gZ)
        assert report.verdict is Verdict.STABLE, (first.label, report.min_lower, report.min_upper)


@pytest.mark.parametrize("y_kind", ["gaussian", "logistic", "mixture"])
def test_kinked_x_anchors_lie_even_steps_from_its_kink(y_kind):
    gX = materialize(DistributionSpec.laplace(0.3, 0.8), n_points=256)
    gY = _y_factor(y_kind, 256, -0.4, 1.1)
    report = covariance_criterion(gX, gY)
    t = (_all_anchors(report) - gX.kink_x - gY.xs[0]) / _spacing(gY.xs)
    assert np.abs(t - np.rint(t)).max() < 1e-6 and np.all(np.rint(t) % 2 == 0)


@settings(max_examples=20, deadline=None)
@given(gX=_x_factors(), n=st.sampled_from([256, 1024]),
       c=st.floats(-2.0, 2.0), s=st.floats(0.3, 2.0))
def test_non_uniform_y_keeps_the_quantile_anchors(gX, n, c, s):
    # a sinh-grid Y has no lattice: the quantiles are the anchors and the
    # direct blocks give their covariances bit for bit
    gY = _sinh_y(n, c, s)
    gZ = _convolve_or_none(gX, gY)
    assume(gZ is not None)
    report = covariance_criterion(gX, gY, gZ=gZ)
    direct = covariance_criterion(gX, gY, xs=gZ.quantile(_QUANTILES))
    for attr in ("xs", "cov_lower", "cov_upper"):
        assert np.array_equal(getattr(report, attr), getattr(direct, attr)), attr
    assert report.skipped == direct.skipped


def test_lattice_larger_than_a_quarter_of_the_direct_cells_keeps_the_quantiles():
    # the anchors of a wide X span about 207000 points of a narrow Y's lattice,
    # against 41 * 1024 cells of the direct blocks
    gX = materialize(DistributionSpec.gaussian(0.0, 30.0), n_points=1024)
    gY = materialize(DistributionSpec.gaussian(0.0, 0.05), n_points=1024)
    gZ = convolve(gX, gY)
    report = covariance_criterion(gX, gY, gZ=gZ)
    assert np.array_equal(report.xs, gZ.quantile(_QUANTILES))


@pytest.mark.parametrize("gY", [_sinh_y(4001, 0.0, 1.0),
                                materialize(DistributionSpec.gaussian(0.0, 1.0), n_points=4001)],
                         ids=["sinh_grid", "uniform_grid"])
def test_direct_sums_and_criterion_stay_small_in_memory(gY):
    # blocks of at most 8192 cells: neither pass holds an (n, n_Y) array, and
    # the criterion's lattice sums hold a few arrays of the lattice's length
    gX = materialize(mixture_spec(1.0, sd=0.8), n_points=2048)
    tracemalloc.start()
    try:
        gZ = convolve(gX, gY)
        conv_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = covariance_criterion(gX, gY, gZ=gZ)
        crit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conv_peak < 4 * 2**20 and crit_peak < 4 * 2**20, (conv_peak, crit_peak)
    lattice = _spacing(gY.xs) is not None
    assert np.array_equal(report.xs, gZ.quantile(_QUANTILES)) is not lattice


class TestCovarianceCriterion:
    def test_flagship_self_convolution_stable(self, mix134):
        report = covariance_criterion(mix134, mix134)
        assert report.verdict is Verdict.STABLE
        assert min(report.min_lower, report.min_upper) >= -1e-6

    def test_gaussian_pair_nonnegative_everywhere(self, gauss):
        report = covariance_criterion(gauss, gauss)
        assert report.cov_lower.min() >= -1e-6
        assert report.cov_upper.min() >= -1e-6

    def test_log_concave_factor_nonnegative_everywhere(self, mix134, gauss, laplace):
        # with a log-concave second factor both integrands are aligned
        # monotone, so every anchor covariance is nonnegative
        for Y in (gauss, laplace):
            assert check_log_concave(Y).status is Status.CERTIFIED
            report = covariance_criterion(mix134, Y)
            assert report.cov_lower.min() >= -1e-6
            assert report.cov_upper.min() >= -1e-6

    def test_supercritical_pair_unstable(self):
        g = grid_of(MIX_20)
        report = covariance_criterion(g, g)
        assert report.verdict is Verdict.UNSTABLE
        assert min(report.min_lower, report.min_upper) < -1e-2

    def test_report_summary_and_csv(self, tmp_path, gauss):
        report = covariance_criterion(gauss, gauss)
        assert set(report.summary()) == {"min_lower", "min_upper", "verdict"}
        path = tmp_path / "criterion.csv"
        report.to_csv(path)
        assert path.read_text().splitlines()[0] == "x,cov_lower,cov_upper"

    def test_anchor_refinement_stable(self, mix134):
        # the stability conditions quantify over all points; 81 quantiles
        # must not move the verdict or the minima of every lattice point
        # between the 0.02 and 0.98 quantiles materially
        gZ = convolve(mix134, mix134)
        coarse = covariance_criterion(mix134, mix134, gZ=gZ)  # every lattice point
        fine = covariance_criterion(mix134, mix134,
                                    xs=gZ.quantile(np.linspace(0.02, 0.98, 81)))
        assert coarse.verdict is fine.verdict
        assert abs(min(fine.min_lower, fine.min_upper)
                   - min(coarse.min_lower, coarse.min_upper)) <= 5e-3

    def test_covariances_match_weighted_measures(self, mix134, laplace):
        # each anchor's covariances, taken one anchor at a time under the
        # tilted measures m_x and mbar_x, whose masses are F_Z(x) and 1 - F_Z(x)
        xs = np.linspace(-3.0, 3.0, 7)
        report = covariance_criterion(mix134, laplace, xs=xs)
        assert np.array_equal(report.xs, xs)
        gZ = convolve(mix134, laplace)
        wq = laplace.quad_weights
        a = -laplace.node_derivatives() / laplace.fs
        for x, cl, cu in zip(xs, report.cov_lower, report.cov_upper):
            Fx = mix134.cdf_fn(x - laplace.xs)
            fx = mix134.pdf_fn(x - laplace.xs)
            FZ = gZ.cdf(x)
            for cov, tilt, sign, mass in ((cl, Fx, 1.0, FZ), (cu, 1.0 - Fx, -1.0, 1.0 - FZ)):
                raw = laplace.fs * tilt
                normalizer = float(np.sum(wq * raw))
                assert normalizer == pytest.approx(mass, abs=1e-5)
                w = wq * raw / normalizer
                wb = sign * wq * laplace.fs * fx / normalizer  # w b, also where the tilt is 0
                want = np.sum(wb * a) - np.sum(w * a) * np.sum(wb)
                assert cov == pytest.approx(want, abs=1e-12)

    def test_out_of_range_anchors_skipped(self, gauss):
        report = covariance_criterion(gauss, gauss, xs=[-80.0, 80.0])
        assert report.verdict is Verdict.INCONCLUSIVE
        assert len(report.skipped) == 2

    @pytest.mark.parametrize("spec", [DistributionSpec.laplace(0.0, 0.01),
                                      DistributionSpec.logistic(0.0, 0.01)],
                             ids=lambda s: s.label())
    def test_narrow_factor_far_tails_raise_no_warning(self, spec):
        # the wide Gaussian's grid reaches thousands of scales into X's tails,
        # where the Laplace and logistic CDFs used to overflow exp
        report = covariance_criterion(grid_of(spec), grid_of(DistributionSpec.gaussian(0.0, 10.0)))
        assert report.verdict is Verdict.STABLE

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_tolerance_rejected(self, gauss, tol):
        # a NaN tolerance used to certify anything and report Unstable here,
        # and a negative one to turn a stable pair Unstable
        with pytest.raises(SpecError, match="finite and >= 0"):
            CertifyOptions(tolerance=tol)
        with pytest.raises(SpecError, match="finite and >= 0"):
            covariance_criterion(gauss, gauss, tolerance=tol)

    @pytest.mark.parametrize("xs", [[math.nan, 0.0], [math.inf], [0.0, -math.inf]])
    def test_non_finite_anchor_rejected(self, gauss, xs):
        # a NaN anchor used to be skipped silently, an infinite one to give Inconclusive
        with pytest.raises(DomainError, match="finite"):
            covariance_criterion(gauss, gauss, xs=xs)


class TestBiconditional:
    PAIRS = [
        (GAUSSIAN, GAUSSIAN),
        (MIX_134, GAUSSIAN),
        (MIX_134, MIX_134),
        (MIX_134, LAPLACE),
        (LAPLACE, LOGISTIC),
        (MIX_20, MIX_20),
        (mixture_spec(1.9), mixture_spec(1.9)),
    ]

    @pytest.mark.parametrize("sx,sy", PAIRS,
                             ids=lambda s: s.label() if hasattr(s, "label") else s)
    def test_criterion_agrees_with_direct_certification(self, sx, sy):
        gX, gY = grid_of(sx), grid_of(sy)
        report = covariance_criterion(gX, gY)
        direct = certify_blc(convolve(gX, gY), CertifyOptions(tolerance=1e-6))
        assert (report.verdict is Verdict.STABLE) == (direct.status is Status.CERTIFIED)

    def test_consistency_certificate_flagship(self, mix134):
        cert = check_convolution_blc_consistency(mix134, mix134)
        assert cert.status is Status.CERTIFIED
        assert cert.condition_id == "convolution_biconditional"

    def test_consistency_certificate_mixed_pair(self, mix134, laplace):
        cert = check_convolution_blc_consistency(mix134, laplace)
        assert cert.status is Status.CERTIFIED

    def test_consistency_rejects_uncertified_input(self, mix30, gauss):
        with pytest.raises(RequiresCertificateError):
            check_convolution_blc_consistency(mix30, gauss)

    def test_engineered_refuting_pair(self):
        # scripted search over separations: two-component factors at +-a are
        # bi-log-concave up to a ~= 1.3473 and self-convolutions stay
        # certified up to a ~= 1.784, so both sides of the refuting direction
        # need a supercritical pair; at a = 2 both report failure decisively
        g = grid_of(MIX_20)
        report = covariance_criterion(g, g)
        direct = certify_blc(convolve(g, g))
        assert report.verdict is Verdict.UNSTABLE
        assert direct.status is Status.VIOLATED
        assert direct.slack == pytest.approx(-0.4479, abs=5e-3)


class TestStabilityUnderLogConcave:
    @pytest.mark.parametrize("sx,sy", PROP_PAIRS,
                             ids=lambda s: s.label() if hasattr(s, "label") else s)
    def test_convolution_with_log_concave_is_certified(self, sx, sy):
        gX, gY = grid_of(sx), grid_of(sy)
        assert certify_blc(gX).status is Status.CERTIFIED
        assert check_log_concave(gY).status is Status.CERTIFIED
        gZ = convolve(gX, gY)
        assert certify_blc(gZ, CertifyOptions(tolerance=1e-6)).status is Status.CERTIFIED

    @pytest.mark.parametrize("sx,sy", [
        (DistributionSpec.gaussian(0.0, 0.01), DistributionSpec.uniform(-10.0, 10.0)),
        (tabulated_spec(DistributionSpec.gaussian(-0.2, 1.1), 401),
         tabulated_spec(DistributionSpec.logistic(0.3, 0.5), 401)),
    ], ids=["narrow-gaussian-box", "two-tabulated"])
    def test_log_concave_sums_certify_without_a_derivative(self, sx, sy):
        # an f' summed on the box's coarse lattice, or taken from a tabulated
        # factor's finite differences, is too rough at the box edges and in
        # the logistic's tail to certify these sums; node values suffice
        gX, gY = materialize(sx, n_points=2048), materialize(sy, n_points=2048)
        for a, b in ((gX, gY), (gY, gX)):
            cert = certify_blc(convolve(a, b), CertifyOptions(tolerance=CONV_CERTIFY_TOL))
            assert cert.certified, cert.slack


@st.composite
def _gaussian_mixtures(draw):
    k = draw(st.integers(2, 3))
    raw = [draw(st.floats(0.2, 1.0)) for _ in range(k)]
    w = [r / sum(raw) for r in raw[:-1]]
    return DistributionSpec.gaussian_mixture(
        w + [1.0 - sum(w)], [draw(st.floats(-2.0, 2.0)) for _ in range(k)],
        [draw(st.floats(0.5, 2.0)) for _ in range(k)])


_LOG_CONCAVE = ("gaussian", "logistic", "laplace", "uniform",
                "tabulated gaussian", "tabulated logistic", "tabulated laplace")


@settings(max_examples=80, deadline=None)
@given(sx=_gaussian_mixtures(), family=st.sampled_from(_LOG_CONCAVE),
       loc=st.floats(-2.0, 2.0), scale=st.floats(0.2, 2.0), n=st.sampled_from([512, 1024]),
       n_tab=st.sampled_from([301, 401, 1001]), mixture_first=st.booleans())
def test_certified_mixture_convolved_with_log_concave_certifies(sx, family, loc, scale, n,
                                                                n_tab, mixture_first):
    # the paper's stability theorem: BLC * log-concave is BLC, in either order;
    # tabulated factors lie on sinh-spaced abscissas (+-8 sds, +-18 scales)
    gX = materialize(sx, n_points=n)
    assume(certify_blc(gX).certified)
    law = family.split()[-1]
    if law == "uniform":
        sy = DistributionSpec.uniform(loc - scale, loc + scale)
    else:
        sy = getattr(DistributionSpec, law)(loc, scale)
    if family.startswith("tabulated"):
        sy = tabulated_spec(sy, n_tab, half_width=8.0 if law == "gaussian" else 18.0)
    gY = materialize(sy, n_points=n)
    gZ = convolve(gX, gY) if mixture_first else convolve(gY, gX)
    assert certify_blc(gZ, CertifyOptions(tolerance=CONV_CERTIFY_TOL)).certified


class TestIntegrationByParts:
    def test_gaussian_stein_linear(self, gauss):
        lhs, rhs = integration_by_parts_check(gauss, lambda x: x)
        assert lhs == pytest.approx(1.0, abs=1e-6)
        assert abs(lhs - rhs) <= 1e-4 * (1 + abs(lhs))

    def test_gaussian_stein_quadratic(self, gauss):
        lhs, rhs = integration_by_parts_check(gauss, lambda x: x**2)
        assert lhs == pytest.approx(0.0, abs=1e-6)
        assert rhs == pytest.approx(0.0, abs=1e-6)

    def test_logistic_tanh(self, logistic):
        lhs, rhs = integration_by_parts_check(logistic, np.tanh)
        assert abs(lhs - rhs) <= 1e-4 * (1 + abs(lhs))

    def test_sampled_array_input(self, gauss):
        lhs, rhs = integration_by_parts_check(gauss, np.asarray(gauss.xs))
        assert abs(lhs - rhs) <= 1e-4 * (1 + abs(lhs))

    def test_boundary_decay_rejection(self, uniform01):
        with pytest.raises(ValueError, match="boundary decay"):
            integration_by_parts_check(uniform01, lambda x: x)

    def test_interior_zero_rejection(self, two_bump):
        with pytest.raises(ValueError, match="degenerate"):
            integration_by_parts_check(two_bump, lambda x: x)

    def test_non_finite_test_function_rejected(self, gauss):
        values = np.asarray(gauss.xs).copy()
        values[len(values) // 2] = math.nan
        for test_g in (values, lambda x: np.where(x > 0.0, math.inf, x)):
            with pytest.raises(ValueError, match="finite"):
                integration_by_parts_check(gauss, test_g)
        with pytest.raises(ValueError, match="one value per grid node"):
            integration_by_parts_check(gauss, values[1:])


class TestSmoothSequence:
    def test_flagship_sequence(self, mix134):
        steps = smooth_sequence(mix134, [1.0, 0.5, 0.25, 0.1])
        l1 = [st.distances["1"] for st in steps]
        # frozen from the closed-form mixture smoothed densities (adaptive
        # quadrature of |f_sigma - f|): 0.197019, 0.073073, 0.020893, 0.003483
        assert np.allclose(l1, [0.197019, 0.073073, 0.020893, 0.003483], atol=5e-4)
        assert all(st.certificate.status is Status.CERTIFIED for st in steps)
        assert all(a > b for a, b in zip(l1, l1[1:]))
        assert l1[-1] < 0.05

    def test_distances_shrink_in_all_norms(self, laplace):
        steps = smooth_sequence(laplace, [0.5, 0.1])
        for key in ("1", "2", "inf"):
            assert steps[0].distances[key] > steps[1].distances[key]

    def test_requires_decreasing_sigmas(self, mix134):
        with pytest.raises(ValueError, match="decreasing"):
            smooth_sequence(mix134, [0.1, 0.5])

    def test_requires_certified_input(self, mix30):
        with pytest.raises(RequiresCertificateError) as exc:
            smooth_sequence(mix30, [0.5])
        assert type(exc.value) is RequiresCertificateError

    def test_requires_sigmas(self, mix134):
        with pytest.raises(SpecError, match="empty"):
            smooth_sequence(mix134, [])
