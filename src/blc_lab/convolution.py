"""Numerical convolution of densities and convolution-stability analysis.

The density of X+Y is the quadrature ``f_Z(x) = int f_X(x - y) f_Y(y) dy``
on Y's grid; the CDF comes from the companion identity
``F_Z(x) = int F_X(x - y) f_Y(y) dy`` rather than from re-integrating f_Z,
which keeps the tails honest, and f_Z' likewise from f_X'.

When Y's grid is uniform with spacing h, the output nodes are put on Y's
lattice, ``x_k = x_0 + y_0 + m h k``.  Every difference x_k - y_j is then a
point ``x_0 + h t`` of one lattice, so X's pdf, cdf and derivative are each
evaluated once on it and each quadrature sum over all nodes is one FFT
correlation with ``quad_weights * f_Y``: the same fourth-order rule on the
same analytic functions, in O(n log n) instead of O(n^2).  The node
derivatives come from the same pass, so certifying the result does not
repeat the sum.  Which factor plays Y is decided by the factors, not the
argument order (see :func:`convolve`).  A non-uniform (tabulated) Y grid
keeps the direct O(n^2) sum, and so do off-node derivative queries and
:func:`upper_tail_at`.

Stability of bi-log-concavity under the convolution is characterized by two
covariance conditions: with a(y) = (-log f_Y)'(y),

    cov_{m_x}( a, f_X/F_X (x - .) )            >= 0   and
    cov_{mbar_x}( a, -f_X/(1-F_X) (x - .) )    >= 0   for all x in J(F_Z),

where m_x and mbar_x weight Y's grid by f_Y(y) F_X(x-y) and
f_Y(y) (1-F_X)(x-y).  The first condition is equivalent to log-concavity of
F_Z, the second to log-concavity of 1-F_Z; both follow from Chebyshev's
association inequality whenever Y is log-concave, since each second argument
is monotone in y for bi-log-concave X.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.fft import next_fast_len

from .certify import Certificate, CertifyOptions, Status, certify_blc
from .core import (
    MASS_TOL,
    DegenerateDensityError,
    DistributionSpec,
    DomainError,
    GridDensity,
    SpecError,
    materialize,
    quadrature_weights,
    _is_uniform,
    _write_csv,
)
from .isoperimetry import _require_blc

# certification of quadrature-produced densities tolerates the quadrature
# noise floor; measured worst case is ~1e-7 on equality-tail families
CONV_CERTIFY_TOL = 1e-5
_CHUNK = 512


def _eval_outer(fn, xs_out: np.ndarray, ys: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """Accumulate sum_j wf[j] * fn(x_i - y_j) in row chunks."""
    out = np.empty(len(xs_out))
    for lo in range(0, len(xs_out), _CHUNK):
        hi = min(lo + _CHUNK, len(xs_out))
        out[lo:hi] = fn(xs_out[lo:hi, None] - ys[None, :]) @ wf
    return out


def _x_functions(g: GridDensity):
    """pdf, cdf and density derivative (None if unknown), exact when available."""
    return (g.pdf_fn if g.pdf_fn is not None else g.pdf,
            g.cdf_fn if g.cdf_fn is not None else g.cdf,
            g.dpdf_fn)


def _spacing(g: GridDensity) -> Optional[float]:
    """Node spacing of a uniform grid; None for a non-uniform one."""
    return float(g.xs[-1] - g.xs[0]) / (len(g) - 1) if _is_uniform(g.xs) else None


def _roles(gX: GridDensity, gY: GridDensity) -> tuple[GridDensity, GridDensity]:
    """Order the factors as (X, Y), Y being the one whose grid carries the sum.

    A uniform factor goes to Y, where its box is handled in closed form.
    Between two analytic factors on uniform grids a kinked one (Laplace) goes
    to Y, so its kink sits on an even node of the parabolic rule; otherwise,
    and between two uniform factors, the finer grid does, and on equal
    spacing the grid further left.  The choice depends on the factors only,
    so both argument orders give identical results; a tabulated factor
    without a box keeps the argument order.
    """
    def key(g):  # the factor with the smaller key becomes Y
        return (g.uniform_bounds is None, g.kink_x is None, _spacing(g), float(g.xs[0]))

    box = gX.uniform_bounds is not None or gY.uniform_bounds is not None
    analytic = all(g.pdf_fn is not None and g.cdf_fn is not None for g in (gX, gY))
    uniform_grids = _spacing(gX) is not None and _spacing(gY) is not None
    if (box or (analytic and uniform_grids)) and key(gX) < key(gY):
        return gY, gX
    return gX, gY


def _lattice_sums(fns, start: float, u_ref: float, gY: GridDensity,
                  m: int, n_out: int) -> np.ndarray:
    """sum_j wf_j fn(start + m h k - y_j) for k < n_out, one row per fn.

    With y_j = y_0 + j h the argument is start - y_0 + h (m k - j), a point
    of one lattice, so each fn is evaluated once on its m (n_out - 1) + n_Y
    points and the sums are a correlation with wf = quad_weights * f_Y, done
    by one real FFT.  The lattice is laid out from ``u_ref``, one of its
    points, which is then hit exactly (X's kink, where the derivative takes
    its convention value).  The transform length is at least the lattice
    length, so nothing wraps around into the entries read back.
    """
    n_y, h = len(gY), _spacing(gY)
    size = m * (n_out - 1) + n_y
    i_ref = round((u_ref - start + gY.xs[0]) / h) + n_y - 1
    u = u_ref + h * (np.arange(size) - i_ref)
    n_fft = next_fast_len(size, real=True)
    wf_hat = np.fft.rfft(gY.quad_weights * gY.fs, n_fft)
    vals = np.stack([np.asarray(fn(u), dtype=float) for fn in fns])
    full = np.fft.irfft(np.fft.rfft(vals, n_fft, axis=-1) * wf_hat, n_fft, axis=-1)
    return full[:, n_y - 1:size:m]


def _nodes_or_direct(xs: np.ndarray, node_vals: np.ndarray, direct: Callable) -> Callable:
    """Derivative callable: precomputed values at nodes, ``direct`` elsewhere."""
    def dpdf_Z(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        idx = np.minimum(np.searchsorted(xs, flat), len(xs) - 1)
        hit = xs[idx] == flat
        out = node_vals[idx]
        if not hit.all():
            out[~hit] = direct(flat[~hit])
        return out.reshape(x.shape)
    return dpdf_Z


def convolve(gX: GridDensity, gY: GridDensity) -> GridDensity:
    """Density of X+Y on a uniform grid spanning the summed supports.

    The factors are first put in their roles (:func:`_roles`): a uniform
    factor, else a kinked one, else the one on the finer grid becomes Y.
    The least node count n is the larger factor's node count, made odd so
    that direct sums get the midpoint of the summed supports as a node.
    When Y's grid is uniform with spacing h the nodes are Y's lattice points
    ``x_0 + y_0 + m h k``, with ``m`` the largest step that still gives at
    least n nodes (so between n and about 2n of them), and f_Z, F_Z and
    f_Z' at every node come from one FFT pass.  If X has a kink
    (Laplace) the nodes shift by less than 2h and ``m`` is even (unless 1),
    so that the kink meets Y's grid on an even node at every output node.
    f_Z' off the nodes is summed directly, so it stays exact.

    A tabulated (non-uniform) Y gets n evenly spaced nodes and direct O(n^2)
    sums, and so does a Y too coarse for n nodes or so fine that its lattice
    would hold more than a quarter of the n * n_Y points of the direct sums.

    A uniform factor's density is discontinuous, so sampling it inside the
    quadrature would cost a full order of accuracy; its f_Z and f_Z' are
    taken in closed form from X's CDF and density instead, and only F_Z is
    summed.
    """
    gX, gY = _roles(gX, gY)
    n = max(len(gX), len(gY))
    xs, fs, Fs, dpdf_Z = _node_sums(gX, gY, n + 1 - n % 2)
    Fs = np.maximum.accumulate(np.clip(Fs, 0.0, 1.0))
    return GridDensity(xs=xs, fs=np.maximum(fs, 0.0), Fs=Fs,
                       label=f"conv[{gX.label},{gY.label}]", dpdf_fn=dpdf_Z)


def _node_sums(gX: GridDensity, gY: GridDensity, n: int):
    """Nodes of X+Y with f_Z and F_Z there (unclipped) and the f_Z' callable.

    The factors come in their roles; ``n`` is the least node count.
    """
    pdf_X, cdf_X, dpdf_X = _x_functions(gX)
    box = gY.uniform_bounds is not None
    ys, wf = gY.xs, gY.quad_weights * gY.fs
    lo = gX.xs[0] + gY.xs[0]
    span = (gX.xs[-1] - gX.xs[0]) + (gY.xs[-1] - gY.xs[0])
    h = _spacing(gY)
    # the lattice must allow n nodes; past a quarter of the n * n_Y points of
    # the direct sums (a very fine Y) it is measured to be no faster
    lattice = h is not None and (n - 1) * h <= span < n * len(gY) * h / 4

    fns = [cdf_X] if box else [pdf_X, cdf_X] + ([dpdf_X] if dpdf_X is not None else [])
    if lattice:
        m = max(1, int(span / ((n - 1) * h)))
        start, u_ref = lo, gX.xs[0]
        if gX.kink_x is not None:
            # shift the nodes by less than 2h so that X's kink meets Y's grid
            # on an even node of the parabolic rule at every output node
            if m > 1:
                m -= m % 2
            anchor = gX.kink_x + gY.xs[0]
            start = anchor + 2 * h * math.floor((lo - anchor) / (2 * h))
            u_ref = gX.kink_x
        n_out = int(math.ceil((lo + span - start) / (m * h) - 1e-9)) + 1
        xs = start + m * h * np.arange(n_out)
        sums = _lattice_sums(fns, start, u_ref, gY, m, n_out)
    else:  # direct sums; f_Z' is summed only where it is asked for
        xs = np.linspace(lo, gX.xs[-1] + gY.xs[-1], n)
        sums = [_eval_outer(fn, xs, ys, wf) for fn in fns[:2]]

    if box:
        fs, dpdf_Z = _box_density(gX, gY, xs)
        return xs, fs, sums[0], dpdf_Z
    fs, Fs = sums[0], sums[1]
    if dpdf_X is None:
        return xs, fs, Fs, None

    def direct_dpdf(x):
        return _eval_outer(dpdf_X, np.atleast_1d(x), ys, wf)

    if lattice:
        return xs, fs, Fs, _nodes_or_direct(xs, sums[2], direct_dpdf)
    return xs, fs, Fs, direct_dpdf


def _box_density(gX: GridDensity, gY: GridDensity, xs: np.ndarray):
    """Closed-form f_Z and f_Z' for a uniform factor Y on [lo, hi].

    f_Z(x) = (F_X(x - lo) - F_X(x - hi)) / (hi - lo), and likewise f_Z' from
    the densities.
    """
    lo, hi = gY.uniform_bounds
    width = hi - lo
    pdf_X, cdf_X, _ = _x_functions(gX)
    fs = (np.asarray(cdf_X(xs - lo), float) - np.asarray(cdf_X(xs - hi), float)) / width

    def dpdf_Z(x, _p=pdf_X, _lo=lo, _hi=hi, _w=width):
        x = np.asarray(x, dtype=float)
        return (np.asarray(_p(x - _lo), float) - np.asarray(_p(x - _hi), float)) / _w

    return fs, dpdf_Z


def upper_tail_at(gX: GridDensity, gY: GridDensity, x) -> np.ndarray | float:
    """1 - F_{X+Y}(x) by direct quadrature of the complementary identity."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _, cdf_X, _ = _x_functions(gX)
    wf = gY.quad_weights * gY.fs
    out = _eval_outer(lambda u: 1.0 - cdf_X(u), x_arr, gY.xs, wf)
    return float(out[0]) if np.isscalar(x) else out


class Verdict(str, enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class WeightedMeasure:
    """Probability measure on Y's grid weighting y by F_X(x-y) or its complement."""

    anchor_x: float
    ys: np.ndarray
    weights: np.ndarray  # normalized density values at ys
    normalizer: float    # F_{X+Y}(anchor) for kind=lower, else its complement
    kind: str            # lower | upper

    def expectation(self, values: np.ndarray) -> float:
        w = quadrature_weights(self.ys) * self.weights
        return float(np.sum(w * values))


def weighted_measure(gX: GridDensity, gY: GridDensity, x: float,
                     kind: str = "lower") -> WeightedMeasure:
    """Tilted copy of Y entering the covariance criterion at anchor x."""
    if kind not in ("lower", "upper"):
        raise ValueError("kind must be 'lower' or 'upper'")
    _, cdf_X, _ = _x_functions(gX)
    Fx = np.asarray(cdf_X(x - gY.xs), dtype=float)
    raw = gY.fs * (Fx if kind == "lower" else 1.0 - Fx)
    normalizer = float(np.sum(gY.quad_weights * raw))
    if not (MASS_TOL < normalizer < 1.0):
        raise DomainError("outside J(F): anchor carries no usable mass")
    return WeightedMeasure(anchor_x=float(x), ys=gY.xs, weights=raw / normalizer,
                           normalizer=normalizer, kind=kind)


@dataclass(frozen=True)
class ConvolutionCriterionReport:
    """Per-anchor covariance values for the two stability conditions."""

    xs: np.ndarray
    cov_lower: np.ndarray
    cov_upper: np.ndarray
    min_lower: float
    min_upper: float
    verdict: Verdict
    tolerance: float
    skipped: tuple[float, ...] = ()
    excluded_mass: float = 0.0

    def to_csv(self, path):
        _write_csv(path, ("x", "cov_lower", "cov_upper"),
                   zip(self.xs, self.cov_lower, self.cov_upper))

    def summary(self) -> dict:
        return {
            "min_lower": self.min_lower,
            "min_upper": self.min_upper,
            "verdict": self.verdict.value,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def _anchor_covariances(gX: GridDensity, gY: GridDensity, xs: np.ndarray,
                        wf: np.ndarray, alive: np.ndarray, a: np.ndarray):
    """Both covariances at every anchor of ``xs`` in one (anchors x n_Y) pass.

    Returns (cov_lower, cov_upper, usable); an anchor is usable when both
    tilted measures carry more than ``MASS_TOL``.  Nodes outside ``alive`` or
    where the tilt vanishes get zero weight.
    """
    pdf_X, cdf_X, _ = _x_functions(gX)
    u = xs[:, None] - gY.xs[None, :]
    Fx = np.asarray(cdf_X(u), dtype=float)
    fx = np.asarray(pdf_X(u), dtype=float)
    covs, masses = [], []
    for tilt, sign in ((Fx, 1.0), (1.0 - Fx, -1.0)):
        live = alive & (tilt > 0.0)
        w = np.where(live, wf * tilt, 0.0)
        z = w.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.where(live, sign * fx / tilt, 0.0)
            w = w / z[:, None]
        covs.append(np.sum(w * a * b, axis=1) - np.sum(w * a, axis=1) * np.sum(w * b, axis=1))
        masses.append(z)
    usable = (MASS_TOL < masses[0]) & (MASS_TOL < masses[1])
    return covs[0], covs[1], usable


def covariance_criterion(
    gX: GridDensity,
    gY: GridDensity,
    xs: Optional[Sequence[float]] = None,
    tolerance: float = 1e-6,
    gZ: Optional[GridDensity] = None,
) -> ConvolutionCriterionReport:
    """Evaluate both stability covariances over a set of anchors.

    Anchors default to 41 quantiles of F_{X+Y} between 0.02 and 0.98 (pass
    ``gZ`` to reuse an existing convolution).  Nodes where f_Y falls below
    1e-12 times its maximum are excluded from the quadrature together with
    their (negligible) weight, which is reported; anchors whose tilted
    measures carry no mass are skipped.
    """
    if xs is None:
        if gZ is None:
            gZ = convolve(gX, gY)
        xs = gZ.quantile(np.linspace(0.02, 0.98, 41))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))

    wq = gY.quad_weights
    alive = gY.fs > 1e-12 * gY.fs.max()
    excluded = float(np.sum((wq * gY.fs)[~alive]))
    a = np.where(alive, -gY.node_derivatives() / gY.fs, 0.0)  # a = (-log f_Y)'
    blocks = [_anchor_covariances(gX, gY, xs[lo:lo + _CHUNK], wq * gY.fs, alive, a)
              for lo in range(0, max(len(xs), 1), _CHUNK)]  # one block even if empty
    cov_lo, cov_up, ok = (np.concatenate(parts) for parts in zip(*blocks))
    kept = xs[ok].tolist()
    skipped = xs[~ok].tolist()
    cov_lo, cov_up = cov_lo[ok], cov_up[ok]

    if not kept:
        return ConvolutionCriterionReport(
            xs=np.array([]), cov_lower=np.array([]), cov_upper=np.array([]),
            min_lower=math.nan, min_upper=math.nan,
            verdict=Verdict.INCONCLUSIVE, tolerance=tolerance,
            skipped=tuple(skipped), excluded_mass=excluded,
        )
    min_lo = float(cov_lo.min())
    min_up = float(cov_up.min())
    verdict = Verdict.STABLE if min(min_lo, min_up) >= -tolerance else Verdict.UNSTABLE
    return ConvolutionCriterionReport(
        xs=np.asarray(kept), cov_lower=cov_lo, cov_upper=cov_up,
        min_lower=min_lo, min_upper=min_up, verdict=verdict,
        tolerance=tolerance, skipped=tuple(skipped), excluded_mass=excluded,
    )


def check_convolution_blc_consistency(gX: GridDensity, gY: GridDensity) -> Certificate:
    """Cross-validate the covariance criterion against direct certification.

    Both inputs must certify as bi-log-concave.  The certificate is Certified
    when the criterion verdict (at its default anchors) and the direct
    certificate of the numerical convolution (at ``CONV_CERTIFY_TOL``)
    agree; its slack is the agreement confidence (the smaller of the two
    margin magnitudes, negated on disagreement).
    """
    opts = CertifyOptions(tolerance=CONV_CERTIFY_TOL)
    _require_blc(gX)
    _require_blc(gY)
    gZ = convolve(gX, gY)
    report = covariance_criterion(gX, gY, gZ=gZ)
    direct = certify_blc(gZ, opts)
    crit_min = min(report.min_lower, report.min_upper)
    agree = (report.verdict is Verdict.STABLE) == (direct.status is Status.CERTIFIED)
    confidence = min(abs(crit_min), abs(direct.slack))
    slack = confidence if agree else -confidence
    status = Status.CERTIFIED if agree else Status.VIOLATED
    witness = None if agree else float(report.xs[int(np.argmin(
        np.minimum(report.cov_lower, report.cov_upper)))])
    return Certificate(status, float(slack), "convolution_biconditional",
                       opts.tolerance, witness_x=witness)


def integration_by_parts_check(
    nu: GridDensity,
    test_g: Union[Callable, Sequence[float]],
) -> tuple[float, float]:
    """Compare E[g'] with cov(g, phi') for phi = -log(density of nu).

    Returns the two quadrature values (lhs, rhs).  The identity needs the
    boundary-decay hypothesis f(x) (g(x) - E[g]) -> 0 at the grid edges,
    which is checked numerically (|f (g - E[g])| <= 1e-6 there); densities
    vanishing at an interior node leave phi' undefined and are rejected.
    """
    if callable(test_g):
        gv = np.asarray(test_g(nu.xs), dtype=float)
    else:
        gv = np.asarray(test_g, dtype=float)
        if gv.shape != nu.xs.shape:
            raise ValueError("sampled test function must match the grid length")
    interior = nu.fs[1:-1]
    if np.any(interior <= 0.0):
        raise DegenerateDensityError(
            "degenerate density: zero density at an interior node, phi' undefined")

    w = nu.quad_weights * nu.fs
    mean_g = float(np.sum(w * gv))
    for edge in (0, -1):
        decay = abs(nu.fs[edge] * (gv[edge] - mean_g))
        if decay > 1e-6:
            raise ValueError(
                f"boundary decay violated: |f (g - E[g])| = {decay:.3g} at grid edge")

    dg = np.gradient(gv, nu.xs, edge_order=2)
    lhs = float(np.sum(w * dg))
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_p = -nu.node_derivatives() / nu.fs
    phi_p = np.where(np.isfinite(phi_p), phi_p, 0.0)
    mean_phi = float(np.sum(w * phi_p))
    rhs = float(np.sum(w * (gv - mean_g) * (phi_p - mean_phi)))
    return lhs, rhs


@dataclass(frozen=True)
class SmoothingStep:
    """One Gaussian-smoothing stage: bandwidth, result, certificate, distances."""

    sigma: float
    density: GridDensity
    certificate: Certificate
    distances: dict  # keys "1", "2", "inf"


def smooth_sequence(g: GridDensity, sigmas: Sequence[float]) -> list[SmoothingStep]:
    """Convolve with shrinking centered Gaussians and track L_p distances.

    Each smoothed density must itself certify at ``CONV_CERTIFY_TOL``
    (convolution with a log-concave factor preserves the shape constraint);
    its L_1, L_2 and L_inf distances to the original density, keyed "1", "2"
    and "inf", decrease along the sequence.
    """
    sigmas = [float(s) for s in sigmas]
    if any(s <= 0 for s in sigmas):
        raise SpecError("sigmas must be > 0")
    if any(b >= a for a, b in zip(sigmas, sigmas[1:])):
        raise SpecError("sigmas must be strictly decreasing")
    _require_blc(g)
    cert_opts = CertifyOptions(tolerance=CONV_CERTIFY_TOL)

    steps = []
    for s in sigmas:
        kernel = materialize(DistributionSpec.gaussian(0.0, s), n_points=len(g))
        smoothed = convolve(g, kernel)
        cert = certify_blc(smoothed, cert_opts)
        diff = smoothed.fs - np.asarray(g.pdf(smoothed.xs), dtype=float)
        w = smoothed.quad_weights
        distances = {
            "1": float(np.sum(w * np.abs(diff))),
            "2": float(math.sqrt(np.sum(w * diff**2))),
            "inf": float(np.max(np.abs(diff))),
        }
        steps.append(SmoothingStep(sigma=s, density=smoothed,
                                   certificate=cert, distances=distances))
    return steps
