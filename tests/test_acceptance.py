"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; runtime bounds are asserted where a
criterion carries one.
"""
import math
import time

import numpy as np

import blc_lab as bl

from conftest import (
    AGREEMENT_CORPUS,
    MIX_134,
    MIX_20,
    MIX_30,
    PROP_PAIRS,
    grid_of,
    two_bump_spec,
)

PS99 = np.linspace(0.01, 0.99, 99)


def report(num, desc, passed):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {desc}")
    return passed


def test_criterion_01_logistic_profile():
    t0 = time.perf_counter()
    g = bl.materialize(bl.DistributionSpec.logistic(0, 1), n_points=4096)
    prof = bl.iso_profile(g, PS99)
    err = float(np.abs(prof.values - PS99 * (1 - PS99)).max())
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-5 and elapsed < 1.0
    assert report(1, f"logistic profile vs p(1-p): max err {err:.2e}, "
                     f"{elapsed:.3f}s", ok)


def test_criterion_02_laplace_profile_and_constant():
    g = bl.materialize(bl.DistributionSpec.laplace(0, 1), n_points=4096)
    prof = bl.iso_profile(g, PS99)
    err = float(np.abs(prof.values - np.minimum(PS99, 1 - PS99)).max())
    essinf = bl.bobkov_houdre_constant(g)
    two_fm = bl.blc_isoperimetric_constant(g)
    ok = err <= 1e-5 and abs(essinf - 1.0) <= 1e-3 and abs(two_fm - 1.0) <= 1e-3
    assert report(2, f"laplace profile err {err:.2e}; "
                     f"Is essinf {essinf:.6f}, 2f(m) {two_fm:.6f}", ok)


def test_criterion_03_isoperimetric_formula_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in AGREEMENT_CORPUS:
        g = bl.materialize(spec, n_points=2048)
        cert = bl.certify_blc(g)
        assert cert.status is bl.Status.CERTIFIED, spec.label()
        a = bl.blc_isoperimetric_constant(g, certificate=cert)
        b = bl.bobkov_houdre_constant(g)
        worst = max(worst, abs(a - b) / a)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 10.0
    assert report(3, f"2f(m) vs ess-inf on {len(AGREEMENT_CORPUS)} measures: "
                     f"worst rel {worst:.2e}, {elapsed:.2f}s", ok)


def test_criterion_04_condition_equivalence():
    corpus = AGREEMENT_CORPUS + [MIX_30, two_bump_spec()]
    disagreements = []
    for spec in corpus:
        g = grid_of(spec)
        anchors = g.quantile(np.linspace(0.1, 0.9, 9))
        statuses = {
            "envelope": bl.check_envelope(g, anchors).status,
            "hazard": bl.check_hazards(g).status,
            "sandwich": bl.check_derivative_sandwich(g).status,
        }
        if len(set(statuses.values())) != 1:
            disagreements.append((spec.label(), statuses))
    ok = not disagreements
    assert report(4, f"envelope/hazard/sandwich agree on {len(corpus)} measures "
                     f"(incl. refuted cases); disagreements: {disagreements}", ok)


def test_criterion_05_log_concave_convolution_stability():
    t0 = time.perf_counter()
    failures = []
    for sx, sy in PROP_PAIRS:
        gX = bl.materialize(sx, n_points=2048)
        gY = bl.materialize(sy, n_points=2048)
        gZ = bl.convolve(gX, gY)
        cert = bl.certify_blc(gZ, bl.CertifyOptions(tolerance=1e-6))
        if cert.status is not bl.Status.CERTIFIED:
            failures.append((sx.label(), sy.label(), cert.slack))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    assert report(5, f"{len(PROP_PAIRS)} (BLC, log-concave) convolutions certified "
                     f"in {elapsed:.1f}s; failures: {failures}", ok)


def test_criterion_06_convolution_biconditional():
    g = grid_of(MIX_134)
    rep = bl.covariance_criterion(g, g)
    direct = bl.certify_blc(bl.convolve(g, g))
    min_cov = min(rep.min_lower, rep.min_upper)
    flagship_ok = (rep.verdict is bl.Verdict.STABLE and min_cov >= -1e-6
                   and direct.status is bl.Status.CERTIFIED)

    h = grid_of(MIX_20)  # found by scanning separations: conv refuted above ~1.784
    rep2 = bl.covariance_criterion(h, h)
    direct2 = bl.certify_blc(bl.convolve(h, h))
    refuter_ok = (rep2.verdict is bl.Verdict.UNSTABLE
                  and direct2.status is bl.Status.VIOLATED)
    ok = flagship_ok and refuter_ok
    assert report(6, f"flagship min cov {min_cov:+.2e} Stable+Certified; "
                     f"engineered pair both refute: {refuter_ok}", ok)


def test_criterion_07_integration_by_parts_identity():
    measures = {
        "gaussian": grid_of(bl.DistributionSpec.gaussian(0, 1)),
        "logistic": grid_of(bl.DistributionSpec.logistic(0, 1)),
        "mixture": grid_of(MIX_134),
    }
    tests = {
        "identity": lambda x: x,
        "square": lambda x: x**2,
        "tanh": np.tanh,
        "sine": np.sin,
    }
    worst = 0.0
    for g in measures.values():
        for fn in tests.values():
            lhs, rhs = bl.integration_by_parts_check(g, fn)
            worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    # Stein cases pin the exact values
    lhs1, rhs1 = bl.integration_by_parts_check(measures["gaussian"], lambda x: x)
    lhs0, rhs0 = bl.integration_by_parts_check(measures["gaussian"], lambda x: x**2)
    stein_ok = (abs(lhs1 - 1) <= 1e-6 and abs(rhs1 - 1) <= 1e-6
                and abs(lhs0) <= 1e-6 and abs(rhs0) <= 1e-6)
    ok = worst <= 1e-4 and stein_ok
    assert report(7, f"expectation-covariance identity on 3x4 grid: worst "
                     f"rel {worst:.2e}; exact Stein cases {stein_ok}", ok)


def test_criterion_08_concentration_and_poincare():
    rs = np.arange(0.5, 6.5, 0.5)
    rng = np.random.default_rng(20260810)
    conc_fail, poin_fail = [], []
    for spec in AGREEMENT_CORPUS:
        g = grid_of(spec)
        cert = bl.certify_blc(g)
        rep = bl.concentration_check(g, rs, certificate=cert)
        if not rep.all_within:
            conc_fail.append(spec.label())
        cp = bl.poincare_constant(g, certificate=cert)
        scale, shift = g.std(), g.mean()
        for _ in range(20):
            amp = rng.uniform(0.2, 2.0, 3)
            freq = rng.uniform(0.3, 2.5, 3)
            phase = rng.uniform(0, 2 * np.pi, 3)
            def fn(x):
                z = (x - shift) / scale
                return sum(a * np.sin(w * z + p)
                           for a, w, p in zip(amp, freq, phase))
            var, dirichlet = bl.variance_functional(g, fn)
            if cp * var > dirichlet + 1e-8:
                poin_fail.append(spec.label())
    ok = not conc_fail and not poin_fail
    assert report(8, f"half-line tails within exp(-r f(m)/3) for r in [0.5,6] and "
                     f"200 Poincare margins >= 0; failures: {conc_fail + poin_fail}", ok)


def test_criterion_09_smoothing_approximation():
    g = grid_of(MIX_134)
    steps = bl.smooth_sequence(g, [1.0, 0.5, 0.25, 0.1])
    l1 = [st.distances["1"] for st in steps]
    all_cert = all(st.certificate.status is bl.Status.CERTIFIED for st in steps)
    monotone = all(a > b for a, b in zip(l1, l1[1:]))
    ok = all_cert and monotone and l1[-1] < 0.05
    assert report(9, f"smoothing L1 distances {['%.4f' % v for v in l1]}, "
                     f"all certified {all_cert}", ok)


def test_criterion_10_multivariate_suite():
    t0 = time.perf_counter()
    ps = np.linspace(0.02, 0.98, 49)
    parts = {}

    def gauss_nd(d):
        return bl.SymmetricMixtureNd(d, np.array([1.0]), np.zeros((1, d)),
                                     np.eye(d)[None, :, :])

    def mix2d(a):
        return bl.SymmetricMixtureNd(
            2, np.array([0.5, 0.5]), np.array([[-a, 0.0], [a, 0.0]]),
            np.array([np.eye(2), np.eye(2)]))

    # (a) standard gaussians in d = 2, 3
    scans = {d: bl.weak_star_check(gauss_nd(d), 64) for d in (2, 3)}
    parts["a"] = all(s.verdict is bl.Status.CERTIFIED for s in scans.values()) and all(
        bl.weak_blc_check_nd(gauss_nd(d), ps, 64).status is bl.Status.CERTIFIED
        for d in (2, 3))

    # (b) flagship passes; wide mixture fails along the mean axis
    flag = bl.weak_star_check(mix2d(1.34), 64)
    wide = bl.weak_star_check(mix2d(3.0), 64)
    angle = math.degrees(math.acos(min(1.0, abs(float(wide.worst_direction[0])))))
    parts["b"] = (flag.verdict is bl.Status.CERTIFIED
                  and wide.verdict is bl.Status.VIOLATED and angle <= 5.0)

    # (c) certified scans also pass the weak ratio check
    parts["c"] = all(
        bl.weak_blc_check_nd(m, ps, 64).status is bl.Status.CERTIFIED
        for m in (gauss_nd(2), gauss_nd(3), mix2d(1.34)))

    # (d) projection-convolution commutation over 16 random directions
    m    = mix2d(1.34)
    conv = bl.convolve_nd(m, gauss_nd(2))
    rng = np.random.default_rng(7)
    xs = np.linspace(-6, 6, 601)
    worst = 0.0
    for _ in range(16):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        lhs = bl.project_to_line(conv, u)
        rhs = bl.convolve(bl.project_to_line(m, u),
                          bl.project_to_line(gauss_nd(2), u))
        worst = max(worst, float(np.abs(lhs.pdf(xs) - rhs.pdf(xs)).max()))
    parts["d"] = worst <= 1e-5

    # (e) the converse of (c) fails: at components +-(2, 0) with covariance
    # diag(1, s), every s refutes weak*, while the ratio check separates
    # s = 100 (certified) from s = 1 and 25 (refuted)
    def stretched(s):
        return bl.SymmetricMixtureNd(
            2, np.array([0.5, 0.5]), np.array([[-2.0, 0.0], [2.0, 0.0]]),
            np.array([np.diag([1.0, s])] * 2))

    ratio = {s: bl.weak_blc_check_nd(stretched(s), ps, 64, n_grid=1024).status
             for s in (1.0, 25.0, 100.0)}
    parts["e"] = (all(bl.weak_star_check(stretched(s), 64, n_grid=1024).verdict
                      is bl.Status.VIOLATED for s in ratio)
                  and ratio == {1.0: bl.Status.VIOLATED, 25.0: bl.Status.VIOLATED,
                                100.0: bl.Status.CERTIFIED})

    elapsed = time.perf_counter() - t0
    ok = all(parts.values()) and elapsed < 120.0
    assert report(10, f"multivariate suite parts {parts}, worst dir angle "
                      f"{angle:.2f} deg, commutation sup {worst:.1e}, "
                      f"{elapsed:.1f}s", ok)
