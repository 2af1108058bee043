"""Profiles, Cheeger/Poincare constants, ratio checks, concentration bounds."""
import math

import numpy as np
import pytest

from blc_lab import (
    DistributionSpec,
    DomainError,
    IsoProfile,
    RequiresCertificateError,
    SpecError,
    Status,
    blc_isoperimetric_constant,
    bobkov_houdre_constant,
    certify_blc,
    check_log_concave,
    concentration_check,
    halfspace_profile_1d,
    iso_profile,
    poincare_constant,
    variance_functional,
    weak_blc_ratio_check,
)

from conftest import (
    AGREEMENT_CORPUS,
    GAUSSIAN,
    LAPLACE,
    LOGISTIC,
    MIX_134,
    UNIFORM01,
    grid_of,
)

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
PS99 = np.linspace(0.01, 0.99, 99)


class TestProfiles:
    def test_logistic_closed_form(self):
        g = grid_of(LOGISTIC, n=4096)
        prof = iso_profile(g, PS99)
        assert np.abs(prof.values - PS99 * (1 - PS99)).max() <= 1e-5

    def test_laplace_closed_form(self):
        g = grid_of(LAPLACE, n=4096)
        prof = iso_profile(g, PS99)
        assert np.abs(prof.values - np.minimum(PS99, 1 - PS99)).max() <= 1e-5

    def test_gaussian_median_value(self, gauss):
        prof = iso_profile(gauss, [0.5])
        assert prof.values[0] == pytest.approx(PHI0, abs=1e-8)

    def test_uniform_profile_constant(self, uniform01):
        prof = iso_profile(uniform01, PS99)
        assert np.allclose(prof.values, 1.0, atol=1e-9)

    def test_halfspace_equals_full_for_symmetric(self, mix134):
        full = iso_profile(mix134, PS99)
        half = halfspace_profile_1d(mix134, PS99)
        assert np.abs(full.values - half.values).max() <= 1e-9
        assert half.kind == "halfspace_1d"

    def test_halfspace_for_asymmetric_exponential(self):
        # tabulated standard exponential: I(p) = 1-p, so the half-space
        # profile is min(p, 1-p) in closed form
        xs = np.linspace(0.0, 25.0, 4096)
        spec = DistributionSpec.grid(xs, np.exp(-xs))
        g = grid_of(spec)
        half = halfspace_profile_1d(g, PS99)
        assert np.abs(half.values - np.minimum(PS99, 1 - PS99)).max() <= 1e-3

    def test_symmetry_invariant(self, mix134):
        prof = iso_profile(mix134, PS99)
        assert np.abs(prof.values - prof.values[::-1]).max() <= 1e-9

    def test_nan_profile_entries_rejected(self, gauss):
        # NaN in ps or in the values used to pass every range check, and
        # iso_profile returned a NaN value
        for ps, values in (([0.2, math.nan], [0.3, 0.3]), ([math.nan, 0.2], [0.3, 0.3]),
                           ([0.2, 0.4], [0.3, math.nan])):
            with pytest.raises(ValueError, match="strictly inside|>= 0"):
                IsoProfile(ps=ps, values=values, kind="full_1d")
        with pytest.raises(DomainError, match="quantile domain"):
            iso_profile(gauss, [0.2, math.nan])

    def test_csv_export(self, tmp_path, gauss):
        path = tmp_path / "profile.csv"
        iso_profile(gauss, PS99).to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "p,I"
        assert len(lines) == 100


class TestIsoperimetricConstants:
    def test_laplace_both_formulas(self, laplace):
        assert bobkov_houdre_constant(laplace) == pytest.approx(1.0, abs=1e-4)
        assert blc_isoperimetric_constant(laplace) == pytest.approx(1.0, abs=1e-4)

    def test_logistic_both_formulas(self, logistic):
        assert bobkov_houdre_constant(logistic) == pytest.approx(0.5, abs=1e-4)
        assert blc_isoperimetric_constant(logistic) == pytest.approx(0.5, abs=1e-4)

    def test_gaussian_value(self, gauss):
        assert bobkov_houdre_constant(gauss) == pytest.approx(2 * PHI0, abs=1e-4)

    def test_mixture_value(self, mix134):
        phi134 = math.exp(-0.5 * 1.34**2) / math.sqrt(2 * math.pi)
        assert blc_isoperimetric_constant(mix134) == pytest.approx(2 * phi134, abs=1e-6)

    def test_requires_certificate(self, mix30):
        with pytest.raises(RequiresCertificateError, match="requires BLC certificate") as exc:
            blc_isoperimetric_constant(mix30)
        assert type(exc.value) is RequiresCertificateError

    @pytest.mark.parametrize("spec", AGREEMENT_CORPUS, ids=lambda s: s.label())
    def test_formula_agreement_on_corpus(self, spec):
        g = grid_of(spec)
        cert = certify_blc(g)
        assert cert.status is Status.CERTIFIED
        two_fm = blc_isoperimetric_constant(g, certificate=cert)
        essinf = bobkov_houdre_constant(g)
        assert abs(two_fm - essinf) / two_fm <= 1e-3


class TestRatioCheck:
    def test_logistic_ratio_certified(self, logistic):
        cert = weak_blc_ratio_check(halfspace_profile_1d(logistic, PS99))
        assert cert.status is Status.CERTIFIED

    def test_laplace_ratio_certified(self, laplace):
        cert = weak_blc_ratio_check(halfspace_profile_1d(laplace, PS99))
        assert cert.status is Status.CERTIFIED

    def test_wide_mixture_ratio_violated(self, mix30):
        cert = weak_blc_ratio_check(halfspace_profile_1d(mix30, PS99))
        assert cert.status is Status.VIOLATED

    def test_nan_slack_is_violated(self):
        # infinite profile values make the ratio steps NaN, which must not certify
        prof = IsoProfile(ps=[0.1, 0.2, 0.3, 0.4], values=[1.0, 0.5, math.inf, math.inf],
                          kind="halfspace_1d")
        cert = weak_blc_ratio_check(prof)
        assert cert.status is Status.VIOLATED
        assert math.isnan(cert.slack) and cert.witness_x == pytest.approx(0.25)

    def test_full_profile_rejected(self, gauss):
        with pytest.raises(ValueError, match="half-space"):
            weak_blc_ratio_check(iso_profile(gauss, PS99))

    def test_symmetric_blc_ratio_monotonicities(self):
        # I(p)/p nonincreasing and I(p)/(1-p) nondecreasing for symmetric
        # certified measures
        for spec in (GAUSSIAN, LOGISTIC, LAPLACE, MIX_134):
            prof = iso_profile(grid_of(spec), PS99)
            up = prof.values / PS99
            down = prof.values / (1 - PS99)
            assert np.all(np.diff(up) <= 1e-9), spec.label()
            assert np.all(np.diff(down) >= -1e-9), spec.label()


class TestLogConcaveProfileConcavity:
    @pytest.mark.parametrize("spec", [GAUSSIAN, LOGISTIC, LAPLACE, UNIFORM01],
                             ids=lambda s: s.label())
    def test_midpoint_concavity(self, spec):
        g = grid_of(spec, n=4096)
        assert check_log_concave(g).status is Status.CERTIFIED
        prof = iso_profile(g, PS99)
        second = np.diff(prof.values, 2)
        assert second.max() <= 1e-8


class TestPoincare:
    def test_constant_values(self, laplace, logistic, gauss):
        assert poincare_constant(laplace) == pytest.approx(0.25, abs=1e-4)
        assert poincare_constant(logistic) == pytest.approx(0.0625, abs=1e-4)
        assert poincare_constant(gauss) == pytest.approx(PHI0**2, abs=1e-4)

    def test_variance_functional_linear(self, gauss):
        var, dirichlet = variance_functional(gauss, lambda x: x)
        assert var == pytest.approx(1.0, abs=1e-6)
        assert dirichlet == pytest.approx(1.0, abs=1e-9)

    def test_variance_functional_laplace(self, laplace):
        var, dirichlet = variance_functional(laplace, lambda x: x)
        assert var == pytest.approx(2.0, abs=1e-5)
        assert dirichlet == pytest.approx(1.0, abs=1e-9)
        assert poincare_constant(laplace) * var <= dirichlet + 1e-8

    def test_variance_functional_sine(self, logistic):
        var, dirichlet = variance_functional(logistic, np.sin)
        assert poincare_constant(logistic) * var <= dirichlet + 1e-8

    def test_random_test_functions_on_corpus(self):
        rng = np.random.default_rng(20260810)
        for spec in AGREEMENT_CORPUS:
            g = grid_of(spec)
            cert = certify_blc(g)
            cp = poincare_constant(g, certificate=cert)
            scale = g.std()
            shift = g.mean()
            for _ in range(20):
                amp = rng.uniform(0.2, 2.0, size=3)
                freq = rng.uniform(0.3, 2.5, size=3)
                phase = rng.uniform(0, 2 * np.pi, size=3)
                def fn(x, a=amp, w=freq, ph=phase):
                    z = (x - shift) / scale
                    return sum(ai * np.sin(wi * z + pi)
                               for ai, wi, pi in zip(a, w, ph))
                var, dirichlet = variance_functional(g, fn)
                assert cp * var <= dirichlet + 1e-8, spec.label()


class TestConcentration:
    def test_laplace_closed_form(self, laplace):
        report = concentration_check(laplace, [3.0])
        assert report.empirical[0] == pytest.approx(math.exp(-3) / 2, abs=1e-6)
        assert report.bound[0] == pytest.approx(math.exp(-0.5), abs=1e-9)
        assert report.all_within

    def test_small_radius_limit(self, gauss):
        report = concentration_check(gauss, [1e-6])
        assert report.empirical[0] == pytest.approx(0.5, abs=1e-5)
        assert report.bound[0] == pytest.approx(1.0, abs=1e-5)

    def test_flagship_mixture_all_radii(self, mix134):
        report = concentration_check(mix134, np.arange(1.0, 7.0))
        assert report.all_within
        assert len(report.violations) == 0

    @pytest.mark.parametrize("spec", AGREEMENT_CORPUS, ids=lambda s: s.label())
    def test_bound_holds_on_corpus(self, spec):
        g = grid_of(spec)
        report = concentration_check(g, np.arange(0.5, 6.5, 0.5))
        assert report.all_within

    def test_requires_positive_radii(self, gauss):
        with pytest.raises(ValueError):
            concentration_check(gauss, [0.0, 1.0])

    def test_nan_radius_rejected(self, gauss):
        # a NaN radius used to give all_within = False, a false refutation
        with pytest.raises(SpecError, match="radii must be > 0"):
            concentration_check(gauss, [1.0, math.nan])

    def test_requires_certificate(self, mix30):
        with pytest.raises(RequiresCertificateError):
            concentration_check(mix30, [1.0])

    def test_csv_export(self, tmp_path, laplace):
        report = concentration_check(laplace, [1.0, 2.0])
        path = tmp_path / "conc.csv"
        report.to_csv(path)
        assert path.read_text().splitlines()[0] == "r,empirical,bound"
