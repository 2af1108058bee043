"""Convolution quadrature, the covariance criterion, and smoothing sequences."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from blc_lab import (
    CertifyOptions,
    DegenerateDensityError,
    DistributionSpec,
    RequiresCertificateError,
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
    upper_tail_at,
    weighted_measure,
)
from blc_lab.convolution import _eval_outer, _node_sums, _roles, _spacing, _x_functions
from blc_lab.core import MASS_TOL, cumulative_parabolic

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

    @pytest.mark.parametrize("tabulated_first,f_tol,F_tol",
                             [(False, 1e-8, 5e-9), (True, 2e-5, 1e-5)])
    def test_mixture_with_tabulated_gaussian_closed_form(self, tabulated_first, f_tol, F_tol):
        # the argument order matters for a tabulated factor: given second it
        # carries the direct sums on its own (trapezoid-weighted) nodes with
        # the mixture's exact functions; given first it is interpolated, has
        # no analytic derivative, and the mixture's lattice carries the sums
        mix = grid_of(mixture_spec(1.0, sd=0.8), n=1024)
        u = np.linspace(-1.0, 1.0, 1001)
        xs = 0.3 + 0.7 * 8.0 * np.sinh(2.5 * u) / math.sinh(2.5)
        tab = materialize(DistributionSpec.grid(xs, norm_pdf(xs, 0.3, 0.7)))
        gZ = convolve(tab, mix) if tabulated_first else convolve(mix, tab)
        assert (gZ.dpdf_fn is None) is tabulated_first
        sd = math.sqrt(0.8**2 + 0.7**2)
        f = 0.5 * norm_pdf(gZ.xs, -0.7, sd) + 0.5 * norm_pdf(gZ.xs, 1.3, sd)
        F = 0.5 * ndtr((gZ.xs + 0.7) / sd) + 0.5 * ndtr((gZ.xs - 1.3) / sd)
        assert np.abs(gZ.fs - f).max() <= f_tol * f.max()
        assert np.abs(gZ.Fs - F).max() <= F_tol
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
        upper = upper_tail_at(mix134, laplace, probes)
        assert np.abs((1.0 - gZ.cdf(probes)) - upper).max() <= 1e-5
        rebuilt = cumulative_parabolic(gZ.xs, gZ.fs)
        assert np.abs(rebuilt - gZ.Fs).max() <= 1e-5

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

    def test_laplace_mixture_small_grid_both_orders(self):
        # Laplace given first was the outer factor, its kink fell between the
        # inner grid's nodes and the mass missed its tolerance; the roles now
        # put the Laplace factor inside in both orders
        lap, mix = grid_of(LAPLACE, n=384), grid_of(mixture_spec(0.6, sd=0.6), n=384)
        for gX, gY in ((lap, mix), (mix, lap)):
            gZ = convolve(gX, gY)
            assert abs(gZ.total_mass - 1.0) <= MASS_TOL

    def test_off_node_derivative_is_summed_directly(self, mix134, gauss):
        gZ = convolve(mix134, gauss)
        gX, gY = _roles(mix134, gauss)
        mid = 0.5 * (gZ.xs[1:] + gZ.xs[:-1])[gZ.j_lo:gZ.j_hi:97]
        direct = _eval_outer(gX.dpdf_fn, mid, gY.xs, gY.quad_weights * gY.fs)
        assert np.array_equal(gZ.density_derivative(mid), direct)
        assert gZ.density_derivative(float(mid[0])) == pytest.approx(direct[0], rel=1e-14)

    def test_nodes_on_inner_lattice_respect_minimum_count(self, mix134):
        # at least as many nodes as the larger factor has (made odd), on the
        # lattice of the factor with the finer grid: the mixture against a
        # 501-point Gaussian, the Gaussian otherwise
        for n_y in (501, 2048, 3001):
            gY = grid_of(GAUSSIAN, n=n_y)
            n = max(len(mix134), n_y) | 1
            gZ = convolve(mix134, gY)
            assert n <= len(gZ) <= 2 * n
            step = (gZ.xs[1] - gZ.xs[0]) / _spacing(_roles(mix134, gY)[1])
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


_FAMILIES = ("mixture", "gaussian", "logistic", "laplace", "uniform")


@st.composite
def _factor_specs(draw):
    family = draw(st.sampled_from(_FAMILIES))
    c, s = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.3, 2.0))
    if family == "mixture":
        return mixture_spec(draw(st.floats(0.0, 1.3)) * s, sd=s, shift=c)
    if family == "uniform":
        return DistributionSpec.uniform(c - s, c + s)
    if family == "gaussian":
        return DistributionSpec.gaussian(c, s)
    return getattr(DistributionSpec, family)(c, s)


@settings(max_examples=40, deadline=None)
@given(sx=_factor_specs(), sy=_factor_specs(), n=st.sampled_from([256, 512]))
def test_lattice_sums_equal_direct_sums(sx, sy, n):
    # the FFT pass is the same quadrature as summing over Y's grid directly
    gX, gY = _roles(materialize(sx, n_points=n), materialize(sy, n_points=n))
    xs, fs, Fs, dpdf_Z = _node_sums(gX, gY, n + 1)
    assert len(xs) >= n + 1
    pdf_X, cdf_X, dpdf_X = _x_functions(gX)
    wf = gY.quad_weights * gY.fs
    assert np.abs(Fs - _eval_outer(cdf_X, xs, gY.xs, wf)).max() <= 1e-13
    if gY.uniform_bounds is None:  # else f_Z and f_Z' are closed forms
        assert np.abs(fs - _eval_outer(pdf_X, xs, gY.xs, wf)).max() <= 1e-13
        if gX.kink_x is not None:
            # the lattice meets X's kink exactly, where f_X' takes its
            # convention value; x_k - y_j only rounds to it
            kink, d = gX.kink_x, dpdf_X
            dpdf_X = lambda u: d(np.where(np.abs(u - kink) <= 1e-9, kink, u))  # noqa: E731
        assert np.abs(dpdf_Z(xs) - _eval_outer(dpdf_X, xs, gY.xs, wf)).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(sx=_factor_specs(), sy=_factor_specs(), n=st.sampled_from([256, 512]))
@example(sx=GAUSSIAN, sy=DistributionSpec.gaussian(1.0, 1.0), n=256)  # equal spacings
@example(sx=LOGISTIC, sy=DistributionSpec.logistic(1.0, 1.0), n=512)
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


class TestWeightedMeasure:
    def test_gaussian_center_normalizer(self, gauss):
        wm = weighted_measure(gauss, gauss, 0.0, "lower")
        assert wm.normalizer == pytest.approx(0.5, abs=1e-5)
        assert wm.expectation(np.ones_like(wm.ys)) == pytest.approx(1.0, abs=1e-5)

    def test_far_right_anchor_recovers_f_Y(self, gauss):
        wm = weighted_measure(gauss, gauss, 8.0, "lower")
        assert np.abs(wm.weights - gauss.fs).max() <= 1e-6

    def test_mirror_symmetry_of_kinds(self):
        g = grid_of(MIX_134, n=2049)  # odd count gives an exactly symmetric grid
        lower = weighted_measure(g, g, 0.0, "lower")
        upper = weighted_measure(g, g, 0.0, "upper")
        assert np.abs(lower.weights - upper.weights[::-1]).max() <= 1e-12

    def test_normalizer_matches_convolution_cdf(self, mix134, gauss):
        gZ = convolve(mix134, gauss)
        for x in (-1.0, 0.3, 2.0):
            wm = weighted_measure(mix134, gauss, x, "lower")
            assert wm.normalizer == pytest.approx(gZ.cdf(x), abs=1e-5)


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
        # the stability conditions quantify over all anchors; doubling the
        # anchor budget must not move the verdict or the minima materially
        gZ = convolve(mix134, mix134)
        coarse = covariance_criterion(mix134, mix134, gZ=gZ)  # 41 quantile anchors
        fine = covariance_criterion(mix134, mix134,
                                    xs=gZ.quantile(np.linspace(0.02, 0.98, 81)))
        assert coarse.verdict is fine.verdict
        assert abs(min(fine.min_lower, fine.min_upper)
                   - min(coarse.min_lower, coarse.min_upper)) <= 5e-3

    def test_covariances_match_weighted_measures(self, mix134, laplace):
        # each anchor's covariances, taken under the tilted measures of
        # weighted_measure one anchor at a time
        xs = np.linspace(-3.0, 3.0, 7)
        report = covariance_criterion(mix134, laplace, xs=xs)
        assert np.array_equal(report.xs, xs)
        a = -laplace.node_derivatives() / laplace.fs
        for x, cl, cu in zip(xs, report.cov_lower, report.cov_upper):
            Fx = mix134.cdf_fn(x - laplace.xs)
            fx = mix134.pdf_fn(x - laplace.xs)
            for kind, cov, tilt, sign in (("lower", cl, Fx, 1.0), ("upper", cu, 1.0 - Fx, -1.0)):
                wm = weighted_measure(mix134, laplace, x, kind)
                b = np.where(tilt > 0, sign * fx / np.where(tilt > 0, tilt, 1.0), 0.0)
                want = wm.expectation(a * b) - wm.expectation(a) * wm.expectation(b)
                assert cov == pytest.approx(want, abs=1e-12)

    def test_out_of_range_anchors_skipped(self, gauss):
        report = covariance_criterion(gauss, gauss, xs=[-80.0, 80.0])
        assert report.verdict is Verdict.INCONCLUSIVE
        assert len(report.skipped) == 2


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
        with pytest.raises(RequiresCertificateError):
            smooth_sequence(mix30, [0.5])
