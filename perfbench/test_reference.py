"""Tests of the benchmark's reference computations.

    python3 -m pytest perfbench/test_reference.py -q

Most tests check ``reference`` against independent evaluations (mpmath at
high precision, ``scipy.stats``, numerical integration); the first group
checks that its bi-log-concavity margin agrees with ``blc_lab.certify_blc``.
"""
from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

import reference as R

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def sym(a, sd=1.0, shift=0.0):
    return R.Mixture([0.5, 0.5], [shift - a * sd, shift + a * sd], [sd, sd])


# -- agreement with the program -------------------------------------------


@pytest.mark.parametrize("a, certified", [(1.0, True), (1.34, True), (1.36, False), (2.0, False)])
def test_margin_verdict_matches_certify_blc(a, certified):
    import blc_lab as bl
    margin, _ = R.blc_margin(sym(a))
    g = bl.materialize(bl.DistributionSpec.gaussian_mixture([0.5, 0.5], [-a, a], [1.0, 1.0]))
    cert = bl.certify_blc(g)
    assert (margin > 0) == certified
    assert cert.certified == certified
    if not certified:  # a refuted margin is the program's sandwich slack to 3 digits
        assert cert.slack == pytest.approx(margin, rel=1e-3)


def test_margin_is_affine_invariant():
    base, _ = R.blc_margin(sym(1.2))
    moved, _ = R.blc_margin(sym(1.2, sd=3.5, shift=-7.0))
    assert moved == pytest.approx(base, rel=1e-6)


# -- log-space evaluation against mpmath ------------------------------------


def _mp_margins(w, mu, sd, x):
    mpmath.mp.dps = 50
    x = mpmath.mpf(x)
    f = fp = F = S = mpmath.mpf(0)
    for wk, mk, sk in zip(w, mu, sd):
        z = (x - mk) / sk
        phi = mpmath.npdf(z) / sk
        f += wk * phi
        fp += wk * phi * (-z / sk)
        F += wk * mpmath.ncdf(z)
        S += wk * mpmath.ncdf(-z)
    return float(min(1 - fp * F / f**2, 1 + fp * S / f**2))


@pytest.mark.parametrize("x", [-9.0, -0.6, 0.0, 0.6036, 3.0, 9.0])
def test_margins_match_mpmath(x):
    w, mu, sd = [0.3, 0.7], [-1.5, 1.2], [0.8, 1.1]
    got = float(R.blc_margins(R.Mixture(w, mu, sd), np.array([x]))[0])
    assert got == pytest.approx(_mp_margins(w, mu, sd, x), rel=1e-9, abs=1e-12)


def test_ppf_inverts_cdf_in_both_tails_and_batches():
    mix = R.Mixture([[0.3, 0.7], [0.5, 0.5]], [[-1.5, 1.2], [-2.0, 2.0]], [[0.8, 1.1], [1.0, 1.0]])
    for p in (1e-9, 0.3, 0.5, 1 - 1e-9):
        q = mix.ppf(p)
        assert q.shape == (2,)
        if p <= 0.5:
            np.testing.assert_allclose(np.exp(mix.logcdf(q[:, None])[:, 0]), p, rtol=1e-9)
        else:
            np.testing.assert_allclose(np.exp(mix.logsf(q[:, None])[:, 0]), 1 - p, rtol=1e-6)


# -- closed forms against numerical integration ------------------------------


def _numeric_conv(f_x, f_y, x):
    return integrate.quad(lambda y: f_x(x - y) * f_y(y), -40, 40, limit=400, points=[0.0])[0]


def test_mixture_gaussian_and_mixture_mixture_convolutions():
    x = R.Mixture([0.4, 0.6], [-1.0, 1.3], [0.7, 1.2])
    y = R.Mixture([0.5, 0.5], [-0.5, 2.0], [0.9, 0.4])
    g = R.Mixture.gaussian(0.3, 0.8)
    fx = lambda t: float(x.pdf(np.array([t]))[0])  # noqa: E731
    for other in (g, y):
        fo = lambda t: float(other.pdf(np.array([t]))[0])  # noqa: E731
        z = x.convolve(other)
        for t in (-3.0, 0.1, 2.5):
            assert float(z.pdf(np.array([t]))[0]) == pytest.approx(_numeric_conv(fx, fo, t),
                                                                   rel=1e-8)
        assert float(z.var()) == pytest.approx(float(x.var() + other.var()))


def test_box_convolution_pdf_and_cdf():
    x = R.Mixture([0.4, 0.6], [-1.0, 1.3], [0.7, 1.2])
    lo, hi = -0.5, 1.5
    for t in (-4.0, -0.2, 0.8, 3.9):
        pdf = integrate.quad(lambda y: float(x.pdf(np.array([t - y]))[0]) / (hi - lo), lo, hi)[0]
        cdf = integrate.quad(lambda y: float(x.cdf(np.array([t - y]))[0]) / (hi - lo), lo, hi)[0]
        assert float(R.mixture_box_pdf(x, lo, hi, np.array([t]))[0]) == pytest.approx(pdf, rel=1e-9)
        assert float(R.mixture_box_cdf(x, lo, hi, np.array([t]))[0]) == pytest.approx(cdf, rel=1e-9)


def test_smoothing_l1_matches_quadrature():
    x = sym(1.1)
    s = x.convolve(R.Mixture.gaussian(0.0, 0.5))
    want = integrate.quad(lambda t: abs(float(s.pdf(np.array([t]))[0])
                                        - float(x.pdf(np.array([t]))[0])),
                          -12, 12, limit=400)[0]
    assert R.smoothing_l1(x, 0.5) == pytest.approx(want, rel=1e-5)


# -- families: 2 f(median), moments, profiles --------------------------------

FAMILIES = [
    ("gaussian", {"mean": 0.7, "sd": 1.8}, stats.norm(0.7, 1.8)),
    ("logistic", {"location": -1.0, "scale": 0.6}, stats.logistic(-1.0, 0.6)),
    ("laplace", {"location": 2.0, "scale": 1.5}, stats.laplace(2.0, 1.5)),
    ("uniform", {"lo": -1.0, "hi": 3.0}, stats.uniform(-1.0, 4.0)),
]


@pytest.mark.parametrize("family, params, dist", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_family_facts_and_profiles(family, params, dist):
    facts = R.family_facts(family, params)
    med = dist.median()
    assert facts["median"] == pytest.approx(med)
    assert facts["two_f_median"] == pytest.approx(2 * dist.pdf(med))
    assert facts["mean"] == pytest.approx(dist.mean())
    assert facts["var"] == pytest.approx(dist.var())
    ps = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(R.quantile_profile(family, params, ps),
                               dist.pdf(dist.ppf(ps)), rtol=1e-10)


def test_mixture_facts_and_profile():
    p = {"weights": [0.3, 0.7], "means": [-1.5, 1.2], "sds": [0.8, 1.1]}
    mix = R.mixture_of(p)
    facts = R.family_facts("gaussian_mixture", p)
    cdf = lambda t: 0.3 * stats.norm.cdf(t, -1.5, 0.8) + 0.7 * stats.norm.cdf(t, 1.2, 1.1)  # noqa: E731
    assert cdf(facts["median"]) == pytest.approx(0.5, abs=1e-12)
    assert facts["two_f_median"] == pytest.approx(2 * float(mix.pdf(np.array([facts["median"]]))[0]))
    prof = R.quantile_profile("gaussian_mixture", p, [0.2])
    q = float(mix.ppf(0.2))
    assert cdf(q) == pytest.approx(0.2, abs=1e-12)
    assert prof[0] == pytest.approx(float(mix.pdf(np.array([q]))[0]))


def test_family_margins():
    assert R.family_margin("gaussian", {"mean": 0.0, "sd": 2.0}) > 0.01
    assert R.family_margin("laplace", {"location": 0.0, "scale": 1.0}) == 0.0
    assert R.family_margin("gaussian_mixture",
                           {"weights": [0.5, 0.5], "means": [-2.0, 2.0], "sds": [1.0, 1.0]}) < -1


# -- directions and multivariate references ----------------------------------


def test_angular_step_of_uniform_2d_grid():
    n = 16
    theta = np.pi * np.arange(n) / n
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    assert R.angular_step(dirs) == pytest.approx(np.pi / n)
    assert R.line_angles(dirs[:1], -dirs[:1])[0, 0] == pytest.approx(0.0, abs=1e-7)


def test_fine_directions_are_unit_and_cover_the_half_sphere():
    for d, count in ((2, 512), (3, 2048)):
        fine = R.fine_directions(d, count)
        np.testing.assert_allclose(np.linalg.norm(fine, axis=1), 1.0)
        probe = np.random.default_rng(0).standard_normal((200, d))
        assert R.line_angles(probe, fine).min(axis=1).max() < 2.5 * R.angular_step(fine)


def test_projection_and_halfspace_profile_of_a_gaussian():
    cov = np.array([[[2.0, 0.3], [0.3, 1.0]]])
    dirs = R.fine_directions(2, 8)
    mix = R.projected_mixture([1.0], [[0.0, 0.0]], cov, dirs)
    np.testing.assert_allclose(mix.sd[:, 0] ** 2, np.einsum("di,ij,dj->d", dirs, cov[0], dirs))
    ps = np.linspace(0.05, 0.5, 10)
    prof = R.halfspace_profile([1.0], [[0.0, 0.0]], cov, dirs, ps)
    sd_max = float(mix.sd.max())
    np.testing.assert_allclose(prof, stats.norm.pdf(stats.norm.ppf(ps)) / sd_max, rtol=1e-9)
    assert R.ratio_margin(ps, prof) > 0


def test_batched_margins_match_single_margins():
    dirs = R.fine_directions(2, 5)
    cov = np.array([np.eye(2), np.eye(2)])
    mix = R.projected_mixture([0.5, 0.5], [[1.8, 0.4], [-1.8, -0.4]], cov, dirs)
    batched = R.batched_blc_margins(mix, n=4001)
    for k in range(len(dirs)):
        single, _ = R.blc_margin(R.Mixture(mix.w[k], mix.mu[k], mix.sd[k]))
        assert batched[k] == pytest.approx(single, abs=2e-3 * max(1.0, abs(single)))
