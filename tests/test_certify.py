"""Certification checks: agreement of the three conditions, refutations, invariance."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from blc_lab import (
    MASS_TOL,
    Certificate,
    DistributionSpec,
    DomainError,
    Status,
    certify_blc,
    check_derivative_sandwich,
    check_envelope,
    check_hazards,
    check_log_concave,
    materialize,
)
from blc_lab.certify import combined_status

from conftest import (
    AGREEMENT_CORPUS,
    GAUSSIAN,
    LAPLACE,
    LOGISTIC,
    MIX_134,
    MIX_30,
    UNIFORM01,
    grid_of,
    mixture_spec,
    tabulated_spec,
    two_bump_spec,
)


def deciles(g):
    return g.quantile(np.linspace(0.1, 0.9, 9))


def mixture_blc_margins(spec, x):
    """min(1 - f'F/f^2, 1 + f'(1-F)/f^2) of a Gaussian mixture, in closed form."""
    w, mu, sd = (np.asarray(spec.params[k]) for k in ("weights", "means", "sds"))
    z = (x[:, None] - mu) / sd
    comp = w * np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi))
    f, fp = comp.sum(axis=1), (comp * -z / sd).sum(axis=1)
    F, S = (w * ndtr(z)).sum(axis=1), (w * ndtr(-z)).sum(axis=1)
    return np.minimum(1.0 - fp * F / f**2, 1.0 + fp * S / f**2)


class TestHazards:
    def test_gaussian_certified(self, gauss):
        cert = check_hazards(gauss)
        assert cert.status is Status.CERTIFIED
        assert cert.slack > 0

    def test_flagship_mixture_certified(self, mix134):
        cert = check_hazards(mix134)
        assert cert.status is Status.CERTIFIED

    def test_wide_mixture_violated_near_zero(self, mix30):
        cert = check_hazards(mix30)
        assert cert.status is Status.VIOLATED
        # independent fine-scan oracle locates the worst decrease at +-0.579
        assert abs(cert.witness_x) < 1.5
        assert cert.slack < -1e-3


class TestDerivativeSandwich:
    def test_logistic_certified_and_identity(self, logistic):
        # for the standard logistic, f' = F(1-F)(1-2F) sits inside the sandwich
        F = logistic.Fs[logistic.j_range]
        fp = logistic.node_derivatives()[logistic.j_range]
        # tail renormalization shifts F by the truncated mass (~5e-10)
        assert np.abs(fp - F * (1 - F) * (1 - 2 * F)).max() <= 1e-8
        cert = check_derivative_sandwich(logistic)
        assert cert.status is Status.CERTIFIED
        assert cert.slack >= 0

    def test_interior_zero_forces_violation(self, two_bump):
        cert = check_derivative_sandwich(two_bump)
        assert cert.status is Status.VIOLATED
        assert 1.0 < cert.witness_x < 2.0  # inside the dead zone

    def test_laplace_certified_skipping_kink(self, laplace):
        cert = check_derivative_sandwich(laplace)
        assert cert.status is Status.CERTIFIED

    def test_wide_mixture_violation_location(self, mix30):
        cert = check_derivative_sandwich(mix30)
        assert cert.status is Status.VIOLATED
        # analytic oracle: most negative margin -151.7 at x = +-0.2996
        assert cert.slack == pytest.approx(-151.7, rel=1e-2)
        assert abs(abs(cert.witness_x) - 0.2996) < 0.02


class TestEnvelope:
    def test_anchor_with_zero_offset_is_tight(self, gauss):
        # the 21 offsets over +-3 sd include t = 0, where both envelopes are equalities
        cert = check_envelope(gauss, [0.0])
        assert cert.status is Status.CERTIFIED
        assert cert.slack == pytest.approx(0.0, abs=1e-12)

    def test_flagship_mixture_certified(self, mix134):
        cert = check_envelope(mix134, deciles(mix134))
        assert cert.status is Status.CERTIFIED

    def test_wide_mixture_violated(self, mix30):
        cert = check_envelope(mix30, deciles(mix30))
        assert cert.status is Status.VIOLATED

    def test_anchor_outside_J_rejected(self, gauss, logistic):
        with pytest.raises(DomainError, match="outside J"):
            check_envelope(gauss, [gauss.xs[-1] + 5.0])
        # F = 3e-6 lies inside (0, 1) but not clear of the boundary trim
        with pytest.raises(DomainError, match="outside J"):
            check_envelope(logistic, [math.log(3e-6 / (1.0 - 3e-6))])

    def test_no_anchor_inconclusive(self, gauss):
        # no anchor gives no margin: Inconclusive, as for a two-node J(F)
        cert = check_envelope(gauss, [])
        assert cert.status is Status.INCONCLUSIVE
        assert cert.slack == -math.inf and cert.witness_x is None
        assert cert.condition_id == "cdf_envelope"


class TestLogConcavity:
    def test_gaussian_curvature_is_one(self, gauss):
        cert = check_log_concave(gauss)
        assert cert.status is Status.CERTIFIED
        # slack is in (log f)'' units and the Gaussian has (log f)'' = -1
        assert cert.slack == pytest.approx(1.0, abs=1e-4)

    def test_uniform_certified_flat(self, uniform01):
        cert = check_log_concave(uniform01)
        assert cert.status is Status.CERTIFIED
        assert abs(cert.slack) <= 1e-6

    def test_flagship_mixture_not_log_concave(self, mix134):
        cert = check_log_concave(mix134)
        assert cert.status is Status.VIOLATED

    def test_zero_density_inconclusive(self, two_bump):
        cert = check_log_concave(two_bump)
        assert cert.status is Status.INCONCLUSIVE
        assert cert.witness_x is not None

    def test_two_node_j_range_inconclusive(self):
        # abscissas 0..8 with mass on nodes 3 and 4: J(F) is those two nodes,
        # which have no three-point second difference
        g = materialize(DistributionSpec.grid(np.arange(9.0), [0, 0, 0, 1, 1, 0, 0, 0, 0]))
        assert (g.j_range.start, g.j_range.stop) == (3, 5)
        cert = check_log_concave(g)
        assert cert.status is Status.INCONCLUSIVE
        assert cert.witness_x is None and cert.slack == -math.inf

    def test_log_concave_implies_blc(self):
        for spec in (GAUSSIAN, LOGISTIC, LAPLACE, UNIFORM01):
            g = grid_of(spec)
            assert check_log_concave(g).status is Status.CERTIFIED
            assert certify_blc(g).status is Status.CERTIFIED


class TestCertifyBlc:
    def test_corpus_certified(self):
        for spec in AGREEMENT_CORPUS:
            cert = certify_blc(grid_of(spec))
            assert cert.status is Status.CERTIFIED, (spec.label(), cert.slack)

    def test_flagship_examples(self, laplace, mix134, two_bump):
        assert certify_blc(laplace).status is Status.CERTIFIED
        assert certify_blc(mix134).status is Status.CERTIFIED
        cert = certify_blc(two_bump)
        assert cert.status is Status.VIOLATED
        assert cert.witness_x is not None

    @pytest.mark.parametrize("sd", [1e-4, 1e5])
    def test_verdict_does_not_depend_on_the_unit(self, sd):
        # a density below MASS_TOL in absolute terms is not a vanishing one
        g = grid_of(DistributionSpec.gaussian(0.0, sd))
        assert certify_blc(g).status is Status.CERTIFIED

    def test_condition_id_names_worst_check(self, mix30):
        cert = certify_blc(grid_of(MIX_30))
        assert cert.status is Status.VIOLATED
        assert cert.condition_id.startswith("blc:")

    @pytest.mark.parametrize("spec", [
        MIX_30, mixture_spec(2.0),
        DistributionSpec.gaussian_mixture([0.3, 0.7], [-1.5, 2.0], [0.6, 1.1]),
    ], ids=["sep3", "sep2", "asymmetric"])
    def test_violated_slack_is_the_closed_form_margin(self, spec):
        # the margins are the derivatives of F/f and -(1-F)/f, so the slack
        # is their worst value over the trimmed nodes
        g = grid_of(spec)
        cert = certify_blc(g)
        want = mixture_blc_margins(spec, g.xs[g.j_range]).min()
        assert cert.status is Status.VIOLATED
        assert cert.slack == pytest.approx(want, rel=1e-3)

    def test_combined_status_precedence(self):
        def certs(*statuses):
            return [Certificate(s, 0.0, "test", 1e-7) for s in statuses]

        assert combined_status(certs(Status.INCONCLUSIVE, Status.VIOLATED,
                                     Status.CERTIFIED)) is Status.VIOLATED
        assert combined_status(certs(Status.CERTIFIED, Status.INCONCLUSIVE)) \
            is Status.INCONCLUSIVE
        assert combined_status(certs(Status.CERTIFIED)) is Status.CERTIFIED

    def test_certificate_json_contract(self, gauss):
        doc = certify_blc(gauss).to_dict()
        assert set(doc) == {"status", "slack", "witness_x", "condition_id", "tolerance"}


class TestEquivalenceOfConditions:
    """The three conditions, checked independently, must reach the same verdict."""

    CORPUS = AGREEMENT_CORPUS + [MIX_30, two_bump_spec(), UNIFORM01]

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.label())
    def test_statuses_agree(self, spec):
        g = grid_of(spec)
        statuses = {
            check_hazards(g).status,
            check_derivative_sandwich(g).status,
            check_envelope(g, deciles(g)).status,
        }
        assert len(statuses) == 1, statuses


class TestMonotoneRefinement:
    @pytest.mark.parametrize("spec", [GAUSSIAN, LOGISTIC, LAPLACE, MIX_134],
                             ids=lambda s: s.label())
    def test_certified_survives_refinement(self, spec):
        verdicts = [certify_blc(grid_of(spec, n=n)).status for n in (1024, 2048, 4096)]
        assert all(v is Status.CERTIFIED for v in verdicts)

    def test_gaussian_slack_converges(self):
        # the slack tends to the worst margin instead of shrinking with the
        # node spacing
        slacks = [certify_blc(grid_of(GAUSSIAN, n=n)).slack for n in (256, 1024, 4096)]
        assert min(slacks) > 0.04
        assert max(slacks) - min(slacks) <= 2e-3

    def test_violated_survives_refinement(self):
        verdicts = [certify_blc(grid_of(MIX_30, n=n)).status for n in (1024, 2048, 4096)]
        assert all(v is Status.VIOLATED for v in verdicts)


def affine_spec(spec, a, b):
    """Distribution of a*X + b for X ~ spec."""
    p = spec.params
    if spec.family == "gaussian":
        return DistributionSpec.gaussian(a * p["mean"] + b, abs(a) * p["sd"])
    if spec.family in ("logistic", "laplace"):
        fam = getattr(DistributionSpec, spec.family)
        return fam(a * p["location"] + b, abs(a) * p["scale"])
    if spec.family == "gaussian_mixture":
        return DistributionSpec.gaussian_mixture(
            p["weights"], [a * m + b for m in p["means"]],
            [abs(a) * s for s in p["sds"]])
    if spec.family == "uniform":
        lo, hi = a * p["lo"] + b, a * p["hi"] + b
        return DistributionSpec.uniform(min(lo, hi), max(lo, hi))
    raise NotImplementedError(spec.family)


class TestAffineInvariance:
    @pytest.mark.parametrize("a,b", [(0.5, 1.3), (-2.0, 0.7), (3.0, -5.0)])
    def test_status_stable_under_affine_maps(self, a, b):
        for spec in (GAUSSIAN, LOGISTIC, MIX_134, MIX_30):
            base = certify_blc(grid_of(spec)).status
            mapped = certify_blc(grid_of(affine_spec(spec, a, b))).status
            assert base is mapped, spec.label()


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["gaussian", "logistic", "laplace", "mixture"]),
       c=st.floats(-2.0, 2.0), s=st.floats(0.3, 2.0), d=st.floats(0.0, 2.0),
       w=st.floats(0.2, 0.8), a=st.floats(0.2, 5.0), flip=st.booleans(),
       b=st.floats(-5.0, 5.0), n=st.sampled_from([256, 1024]))
def test_slack_invariant_under_affine_maps(family, c, s, d, w, a, flip, b, n):
    if family == "mixture":
        spec = DistributionSpec.gaussian_mixture([w, 1 - w], [c - d, c + d], [s, 0.5 * s + 0.3])
    elif family == "gaussian":
        spec = DistributionSpec.gaussian(c, s)
    else:
        spec = getattr(DistributionSpec, family)(c, s)
    # a reflection lays the window out from the other tail, which only a
    # symmetric law maps onto its own grid; mixtures are mapped by a > 0
    if flip and family != "mixture":
        a = -a
    base = certify_blc(materialize(spec, n_points=n))
    mapped = certify_blc(materialize(affine_spec(spec, a, b), n_points=n))
    assert mapped.status is base.status
    # deep refutations reach slacks of order 1e6, where 1e-9 is below rounding
    assert abs(mapped.slack - base.slack) <= 1e-9 * max(1.0, abs(base.slack))


@settings(max_examples=20, deadline=None)
@given(mean=st.floats(-3, 3), sd=st.floats(0.2, 5))
def test_random_gaussians_certify(mean, sd):
    g = materialize(DistributionSpec.gaussian(mean, sd), n_points=512)
    assert certify_blc(g).status is Status.CERTIFIED


@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.0, 1.2), sd=st.floats(0.5, 2.0))
def test_subcritical_mixtures_certify(a, sd):
    # separation-to-sd ratios up to 1.2 stay clear of the critical ratio 1.3473
    g = materialize(mixture_spec(a * sd, sd=sd), n_points=1024)
    assert certify_blc(g).status is Status.CERTIFIED


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["gaussian", "logistic", "laplace", "mixture"]),
       c=st.floats(-2.0, 2.0), s=st.floats(0.3, 2.0), d=st.floats(0.0, 3.0),
       tabulated=st.sampled_from([None, "uniform", "sinh"]),
       n=st.sampled_from([201, 512, 2048]))
def test_shape_checks_read_the_one_j_range(family, c, s, d, tabulated, n):
    # J(F) is the node slice with F in [10 MASS_TOL, 1 - 10 MASS_TOL], and
    # every lens locates its witness inside it
    if family == "mixture":
        spec = mixture_spec(d * s, sd=s, shift=c)
    elif family == "gaussian":
        spec = DistributionSpec.gaussian(c, s)
    else:
        spec = getattr(DistributionSpec, family)(c, s)
    if tabulated is None or family == "mixture":  # tabulated_spec takes a location-scale law
        g = materialize(spec, n_points=n)
    else:
        g = materialize(tabulated_spec(spec, n, spacing=tabulated))
    trim = 10.0 * MASS_TOL
    assert np.array_equal(g.xs[g.j_range], g.xs[(g.Fs >= trim) & (g.Fs <= 1.0 - trim)])
    first, last = g.xs[g.j_range][[0, -1]]
    for check in (check_hazards, check_derivative_sandwich, check_log_concave):
        witness = check(g).witness_x
        assert witness is None or first <= witness <= last, check.__name__
