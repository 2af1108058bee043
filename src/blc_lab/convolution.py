"""Numerical convolution of densities and convolution-stability analysis.

The density of X+Y is the quadrature ``f_Z(x) = int f_X(x - y) f_Y(y) dy``
on Y's grid; the CDF comes from the companion identity
``F_Z(x) = int F_X(x - y) f_Y(y) dy`` rather than from re-integrating f_Z,
which keeps the tails honest.

When Y's grid is uniform with spacing h, the output nodes are put on Y's
lattice, ``x_k = x_0 + y_0 + m h k``.  Every difference x_k - y_j is then a
point ``x_0 + h t`` of one lattice, so X's pdf and cdf are each evaluated
once on it and each quadrature sum over all nodes is one FFT correlation
with ``quad_weights * f_Y`` (scaled to unit sum, so that Y is a
probability measure on its nodes): the same fourth-order rule on the same
analytic functions, in O(n log n) instead of O(n^2).  One rule lays every
such lattice out: its reference point is X's kink, else X's first node;
x_0 lies a whole number of steps (2h with a kink, else h) from reference +
y_0, and with a kink m is even unless 1, so the kink meets Y's grid on an
even node of the parabolic rule at every output node (every other one if
m is 1).  A uniform Y is summed like any other; its f_Z is then replaced
by the closed form from X's CDF, as sampling a discontinuous density
would cost an order.  Which factor plays Y is decided by the factors, not
the argument order (see :func:`_roles`); a tabulated factor plays Y
unless the other one is uniform, so X is interpolated
(:meth:`GridDensity.functions`) only when both are tabulated.
A non-uniform Y grid gets n evenly spaced output nodes.  Against a smooth
analytic X (exact pdf, no kink, not a box) Y's unit-mass node weights are
spread onto a lattice with 8-point Lagrange weights (:func:`_spread`, the
transpose of 8-point interpolation, exact for polynomials up to degree 7)
and summed by the same FFT pass: the lattice step is the output step over
the least integer m that gives 2048 steps across X's window, and the
lattice starts 4 steps left of y_0, so each x_k - v_i is a whole number of
steps from X's first node.  The result matched the direct sums to 1e-13
on 176 sinh-tabulated Y (measured).  A kinked or interpolated X, and a
spread lattice longer than an eighth of the n * n_Y direct cells, keep the
direct O(n^2) sum.  It and the covariance criterion at given points read X
at x - y from one generator, :func:`_x_blocks`, in blocks of the largest
power-of-two row count with rows * n_Y <= 8192 (64 KB per array).  X's CDF is evaluated there only on
the band of columns where x - y can meet X's grid; off it every cdf
accessor returns F_X's first or last node value (``np.interp`` clamps,
analytic families clip).  The band comes from each block's least and
greatest x, so the criterion's points may come in any order.  X's pdf is
evaluated on every cell: an analytic pdf is not truncated to X's window.
The result carries node values only: where its density derivative is read,
it comes from finite differences, as for any tabulated density.

Stability of bi-log-concavity under the convolution is characterized by two
covariance conditions: with a(y) = (-log f_Y)'(y),

    cov_{m_x}( a, f_X/F_X (x - .) )            >= 0   and
    cov_{mbar_x}( a, -f_X/(1-F_X) (x - .) )    >= 0   for all x in J(F_Z),

where m_x and mbar_x weight Y's grid by f_Y(y) F_X(x-y) and
f_Y(y) (1-F_X)(x-y).  With Y's node weights wf, four sums over Y's nodes
give both: S0 = sum wf F_X(x - .), S1 = sum wf a F_X, S2 = sum wf f_X and
S3 = sum wf a f_X, the upper tilt taking sum wf - S0 and sum wf a - S1 for
the first two (:func:`_covariances`).  f_X is counted at every node, also
where a tilt is 0: the limit from inside X's support.  With a uniform Y the
default points are every point of the lattice above from the one nearest
the 0.02 quantile of F_Z to the one nearest the 0.98 quantile, and the four
sums at all of them are correlations on the lattice of the differences
(:func:`_lattice_sums`); given points, a non-uniform Y, or a lattice
larger than a quarter of the 41 * n_Y direct cells sum :func:`_x_blocks`
at the given points or at the 41 quantiles.
The first condition is equivalent to log-concavity of F_Z, the second to
log-concavity of 1-F_Z; both follow from Chebyshev's association
inequality whenever Y is log-concave, since each second argument
is monotone in y for bi-log-concave X.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .certify import (Certificate, CertifyOptions, Status, _require_blc, _verdict,
                      certify_blc)
from .core import (
    MASS_TOL,
    DegenerateDensityError,
    DistributionSpec,
    DomainError,
    GridDensity,
    SpecError,
    materialize,
    _block_rows,
    _node_values,
    _spacing,
    _write_csv,
)

# certification of quadrature-produced densities tolerates the quadrature
# noise floor; measured worst case is ~1e-7 on equality-tail families
CONV_CERTIFY_TOL = 1e-5
# odd parts 3^b 5^c of the FFT lengths 2^a 3^b 5^c, which numpy transforms fast
_ODD_SMOOTH = [3**b * 5**c for b in range(12) for c in range(8)]
# least number of lattice steps across X's window when Y's weights are spread
_SPREAD_STEPS = 2048
# prod_{i != k} (k - i) over i < 8: the denominators of 8-point Lagrange weights
_LAGRANGE_DEN = np.array([math.prod(k - i for i in range(8) if i != k) for k in range(8)],
                         dtype=float)


def _x_blocks(gX: GridDensity, xs: np.ndarray, ys: np.ndarray):
    """X at x_i - y_j, in blocks of :func:`_block_rows` rows of ``xs``.

    Yields per block its row slice, F_X(x_i - y_j) and f_X(x_i - y_j).  Off
    X's grid every CDF accessor returns F_X's first or last node value, so
    the columns whose x_i - y_j all exceed X's last node (a prefix, since
    ``ys`` ascends) get ``Fs[-1]``, those whose x_i - y_j all fall below its
    first node (a suffix) get ``Fs[0]``, and the CDF is evaluated only on
    the band between.  The band is taken from the block's least and
    greatest x, so ``xs`` may come in any order.  The pdf is evaluated on
    every cell: an analytic pdf is not truncated to X's window.  The CDF
    block is one buffer, overwritten by the next block.
    """
    pdf_X, cdf_X = gX.functions()
    n_y = len(ys)
    rows = _block_rows(n_y)
    buf = np.empty((rows, n_y))
    for lo in range(0, len(xs), rows):
        x = xs[lo:lo + rows, None]
        j0 = np.count_nonzero(x.min() - ys > gX.xs[-1])  # x_i - y_j > last node in every row
        j1 = n_y - np.count_nonzero(x.max() - ys < gX.xs[0])  # < first node in every row
        Fx = buf[:len(x)]
        Fx[:, :j0] = gX.Fs[-1]
        Fx[:, j1:] = gX.Fs[0]
        Fx[:, j0:j1] = cdf_X(x - ys[j0:j1])
        yield slice(lo, lo + rows), Fx, np.asarray(pdf_X(x - ys), dtype=float)


def _spread(wf: np.ndarray, t: np.ndarray, n_v: int) -> np.ndarray:
    """Weights ``wf`` at lattice coordinates ``t`` (>= 3) spread onto n_v lattice points.

    Each weight goes to the 8 points around it, base + 0..7 with base =
    floor(t) - 3, times the Lagrange weights of interpolating there: the
    transpose of 8-point interpolation, so a sum of the spread weights
    against a function on the lattice equals the sum of ``wf`` against the
    function's interpolant, exact for polynomials up to degree 7.
    """
    base = np.minimum(np.floor(t).astype(np.int64) - 3, n_v - 8)
    d = (t - base)[:, None] - np.arange(8)
    ones = np.ones((len(t), 1))
    left = np.cumprod(np.hstack([ones, d[:, :-1]]), axis=1)  # prod over i < k of d_i
    right = np.cumprod(np.hstack([ones, d[:, :0:-1]]), axis=1)[:, ::-1]  # over i > k
    return np.bincount((base[:, None] + np.arange(8)).ravel(),
                       weights=(wf[:, None] * left * right / _LAGRANGE_DEN).ravel(),
                       minlength=n_v)


def _roles(gX: GridDensity, gY: GridDensity) -> tuple[GridDensity, GridDensity]:
    """Order the factors as (X, Y), Y being the one whose grid carries the sum.

    Y is, in this order of precedence: a uniform factor, whose box is handled
    in closed form; a tabulated one (no exact pdf), so that only its own
    nodes enter the sums; a kinked one (Laplace), so that its kink sits on
    an even node of the parabolic rule; the finer uniform grid, or between
    two tabulated factors the coarser grid, so that the interpolated X is
    the finer one (a non-uniform grid counts as infinitely coarse); the grid
    further left; the tabulated values.  The key depends on the factors
    only, so both argument orders give identical results.
    """
    def key(g):  # the factor with the smaller key becomes Y
        exact = g.pdf_fn is not None
        spacing = _spacing(g.xs) or math.inf
        return (g.uniform_bounds is None, exact, g.kink_x is None,
                spacing if exact else -spacing, float(g.xs[0]),
                g.xs.tobytes(), g.fs.tobytes())

    return (gY, gX) if key(gX) < key(gY) else (gX, gY)


def _lattice_sums(fns, wf: np.ndarray, y0: float, h: float, u_ref: float,
                 x0: float, m: int, n_out: int) -> np.ndarray:
    """sum_j wf_j fn(x_k - y_j) at x_k = x0 + m h k, k < n_out, for Y's nodes y0 + h j.

    Every x_k - y_j = x0 - y0 + h (m k - j) is then a point of one lattice,
    laid out from ``u_ref`` (which it hits exactly when x0 lies a whole
    number of h from u_ref + y0), so each fn is evaluated once on it and
    the sums are a correlation with each row of Y's node weights ``wf``
    (shape (..., n_Y)), done by real FFTs; the result has shape
    (..., len(fns), n_out).  The transform length is the least 2^a 3^b 5^c
    (b < 12, c < 8) not below the lattice length, so nothing wraps around
    into the entries read back.
    """
    n_y = wf.shape[-1]
    size = m * (n_out - 1) + n_y
    u = u_ref + h * (np.arange(size) - round((u_ref - x0 + y0) / h) - n_y + 1)
    n_fft = min(p << (-(-size // p) - 1).bit_length() for p in _ODD_SMOOTH if p < 2 * size)
    vals = np.stack([np.asarray(fn(u), dtype=float) for fn in fns])
    full = np.fft.irfft(np.fft.rfft(vals, n_fft) * np.fft.rfft(wf, n_fft)[..., None, :], n_fft)
    return full[..., n_y - 1:size:m]


def convolve(gX: GridDensity, gY: GridDensity) -> GridDensity:
    """Density of X+Y on a uniform grid spanning the summed supports.

    The factors are first put in their roles (:func:`_roles`): a uniform
    factor, else a tabulated one, else a kinked one, else the one on the
    finer grid becomes Y.  The least node count n is the larger factor's
    node count, made odd so that direct sums get the midpoint of the summed
    supports as a node.
    When Y's grid is uniform with spacing h the nodes are Y's lattice points
    ``x_0 + y_0 + m h k``, with ``m`` the largest step that still gives at
    least n nodes (so between n and about 2n of them), and f_Z and F_Z at
    every node come from one FFT pass.  One rule lays the lattice out: its
    reference point is X's kink (Laplace), else X's first node, and the
    first output node is the last point at or below the summed supports'
    left end that lies a whole number of steps from reference + y_0, the
    step being 2h with a kink, else h (so x_0 is that left end exactly).
    With a kink ``m`` is also made even unless 1, so that the kink meets
    Y's grid on an even node at every output node (every other one if 1).

    A tabulated (non-uniform) Y gets n evenly spaced nodes.  Against a
    smooth analytic X (exact pdf, no kink, not a box) its node weights are
    spread onto a lattice of step delta / m, delta being the output step
    and m the least integer that gives 2048 steps across X's window, and
    summed by the same FFT pass (:func:`_spread`).  A kinked or
    interpolated X, or a spread lattice longer than an eighth of the
    n * n_Y points of the direct sums, keeps direct O(n^2) sums, and so
    does a uniform Y too coarse for n nodes or so fine that its lattice
    would hold more than a quarter of those points.

    A uniform factor's density is discontinuous, so sampling it inside the
    quadrature would cost a full order of accuracy; its f_Z is summed like
    any other and then replaced by the closed form from X's CDF.
    """
    gX, gY = _roles(gX, gY)
    n = max(len(gX), len(gY))
    xs, fs, Fs = _node_sums(gX, gY, n + 1 - n % 2)
    Fs = np.maximum.accumulate(np.clip(Fs, 0.0, 1.0))
    return GridDensity(xs=xs, fs=np.maximum(fs, 0.0), Fs=Fs,
                       label=f"conv[{gX.label},{gY.label}]")


def _lattice_origin(gX: GridDensity, h: float) -> tuple[float, float]:
    """Reference point and step of the points laid on Y's lattice (spacing h):
    X's kink with step 2h, so that it meets Y's grid on even nodes only, else
    X's first node with step h."""
    return (gX.kink_x, 2 * h) if gX.kink_x is not None else (gX.xs[0], h)


def _node_sums(gX: GridDensity, gY: GridDensity, n: int):
    """Nodes of X+Y with f_Z and F_Z there (unclipped).

    The factors come in their roles; ``n`` is the least node count.  Y's
    node weights ``quad_weights * f_Y`` are scaled to sum to 1, so Y enters
    as a unit-mass measure and Z does not inherit the quadrature error of
    Y's own mass.
    """
    wf = gY.quad_weights * gY.fs
    wf = wf / wf.sum()
    lo = gX.xs[0] + gY.xs[0]
    x_width = gX.xs[-1] - gX.xs[0]
    span = x_width + (gY.xs[-1] - gY.xs[0])
    h = _spacing(gY.xs)
    # the lattice must allow n nodes; past a quarter of the n * n_Y points of
    # the direct sums (a very fine Y) it is measured to be no faster: with a
    # mixture X at n = 1025 and n_Y = 1024 the banded direct sums take 50-73
    # ms, the lattice 9-11 ms at 0.07 of n * n_Y and 44-63 ms at 0.27 (the
    # 512-row sums of 89-133 ms met it between 0.37 and 0.52)
    lattice = h is not None and (n - 1) * h <= span < n * len(gY) * h / 4
    pdf_X, cdf_X = gX.functions()

    if lattice:
        # a kink must meet Y's grid on an even node of the parabolic rule at
        # every output node: the nodes step from kink + y_0 by 2h, m is even
        u_ref, step = _lattice_origin(gX, h)
        m = max(1, int(span / ((n - 1) * h)))
        if gX.kink_x is not None and m > 1:
            m -= m % 2
        anchor = u_ref + gY.xs[0]
        start = anchor + step * math.floor((lo - anchor) / step)
        n_out = int(math.ceil((lo + span - start) / (m * h) - 1e-9)) + 1
        xs = start + m * h * np.arange(n_out)
        fs, Fs = _lattice_sums((pdf_X, cdf_X), wf, gY.xs[0], h, u_ref, start, m, n_out)
    else:
        xs = np.linspace(lo, gX.xs[-1] + gY.xs[-1], n)
        # Y's weights are spread (:func:`_spread`) onto v_i = y_0 + eta (i - 4),
        # eta = delta / m, so every x_k - v_i is a whole number of steps from
        # X's first node.  A kink or an interpolated X would break the degree-7
        # interpolation.  A uniform Y here (too coarse or too fine for its own
        # lattice) stays direct: a Y within a few steps meets the kink that
        # clipping leaves in X's CDF at its window's ends (6e-13 in F_Z for a
        # Gaussian Y of sd 6.4e-5 at n = 257).  Past an eighth of the n * n_Y
        # cells a narrow X against a wide Y was measured slower than the banded
        # direct sums (Gaussian or mixture X of sd 0.02-0.4, n = 257-2049, sinh
        # logistic Y of 401-4001 points): at most 0.83 of their time up to
        # 0.12, 0.37-1.19 at 0.125-0.15, 0.63-1.49 at 0.21-0.24.
        delta = span / (n - 1)
        m = math.ceil(_SPREAD_STEPS * delta / x_width)
        eta = delta / m
        t = (gY.xs - gY.xs[0]) / eta + 4
        n_v = int(t[-1]) + 5
        spread = (h is None and gX.pdf_fn is not None and gX.kink_x is None
                  and gX.uniform_bounds is None)
        if spread and 8 * (m * (n - 1) + n_v) <= n * len(gY):
            fs, Fs = _lattice_sums((pdf_X, cdf_X), _spread(wf, t, n_v), gY.xs[0] - 4 * eta,
                                   eta, gX.xs[0], lo, m, n)
        else:
            fs, Fs = np.empty(n), np.empty(n)
            for rows, Fx, fx in _x_blocks(gX, xs, gY.xs):
                fs[rows], Fs[rows] = fx @ wf, Fx @ wf

    if gY.uniform_bounds is not None:  # a box Y on [a, b]: f_Z in closed form
        a, b = gY.uniform_bounds
        fs = (np.asarray(cdf_X(xs - a), float) - np.asarray(cdf_X(xs - b), float)) / (b - a)
    return xs, fs, Fs


class Verdict(str, enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ConvolutionCriterionReport:
    """Covariance values at each point for the two stability conditions."""

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


def _covariances(lower, upper, f_sums):
    """cov_lower, cov_upper and the usable mask from the criterion's sums.

    ``lower`` and ``upper`` hold, per point, the mass z = sum wf t and
    S_a = sum wf a t of the tilts t = F_X(x - .) and 1 - F_X(x - .);
    ``f_sums`` holds S_b = sum wf f_X and S_ab = sum wf a f_X, which both
    tilts share: the second argument +-f_X / t under the measure wf t is
    +-wf f_X where t > 0, and also where t = 0 in the limit from inside X's
    support.  cov = +-(S_ab/z - (S_a/z)(S_b/z)); a point is usable when both
    tilted measures carry more than ``MASS_TOL``.
    """
    s_b, s_ab = f_sums
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = [sign * (s_ab / z - (s_a / z) * (s_b / z))
               for sign, (z, s_a) in ((1.0, lower), (-1.0, upper))]
    return cov[0], cov[1], (MASS_TOL < lower[0]) & (MASS_TOL < upper[0])


def covariance_criterion(
    gX: GridDensity,
    gY: GridDensity,
    xs: Optional[Sequence[float]] = None,
    tolerance: float = 1e-6,
    gZ: Optional[GridDensity] = None,
) -> ConvolutionCriterionReport:
    """Evaluate both stability covariances over a set of points.

    By default (pass ``gZ`` to reuse an existing convolution) the points are
    41 quantiles of F_{X+Y} between 0.02 and 0.98.  When Y's grid is uniform
    with spacing h they are instead every point a whole step from X's kink
    (step 2h) or first node (step h) plus y_0, from the one nearest the
    0.02 quantile to the one nearest the 0.98 quantile, so the quantiles
    snapped to that lattice are among them.  The four sums of
    :func:`_covariances` at all of them are then correlations on the
    lattice of the differences x - y_j (:func:`_lattice_sums`).  Passed
    ``xs``, a non-uniform Y, or a lattice larger than a quarter of the
    41 * n_Y cells of the direct sums keep the given points or the
    quantiles and evaluate X on every cell (:func:`_x_blocks`).  Nodes where
    f_Y falls below 1e-12 times its maximum are excluded from the quadrature
    together with their (negligible) weight, which is reported; points
    whose tilted measures carry no mass are skipped.  ``tolerance`` must be
    finite and >= 0 (``SpecError``), the points finite (``DomainError``).
    """
    tolerance = CertifyOptions(tolerance).tolerance
    wq = gY.quad_weights
    alive = gY.fs > 1e-12 * gY.fs.max()
    excluded = float(np.sum((wq * gY.fs)[~alive]))
    a = np.where(alive, -gY.node_derivatives() / gY.fs, 0.0)  # a = (-log f_Y)'
    wf = np.where(alive, wq * gY.fs, 0.0)
    weights = np.stack([wf, wf * a])
    sums = None  # (wf, wf a) x (F_X, 1 - F_X, f_X) x points
    if xs is None:
        if gZ is None:
            gZ = convolve(gX, gY)
        xs = gZ.quantile(np.linspace(0.02, 0.98, 41))
        h = _spacing(gY.xs)
        if h is not None:
            u_ref, step = _lattice_origin(gX, h)
            ref, r = u_ref + gY.xs[0], round(step / h)
            s_lo, s_hi = r * np.rint((xs[[0, -1]] - ref) / step).astype(np.int64)
            if 4 * (s_hi - s_lo + len(gY)) <= len(xs) * len(gY):
                xs = ref + h * np.arange(s_lo, s_hi + 1, r)
                pdf_X, cdf_X = gX.functions()
                F, f = _lattice_sums((cdf_X, pdf_X), weights, gY.xs[0], h, u_ref,
                                     xs[0], r, len(xs)).swapaxes(0, 1)
                sums = np.stack([F, weights.sum(axis=1)[:, None] - F, f], axis=1)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise DomainError("points must be finite")
    if sums is None:
        sums = np.empty((2, 3, len(xs)))
        for rows, Fx, fx in _x_blocks(gX, xs, gY.xs):
            for k, t in enumerate((Fx, 1.0 - Fx, fx)):
                sums[:, k, rows] = weights @ t.T
    cov_lo, cov_up, ok = _covariances(*sums.swapaxes(0, 1))
    kept, cov_lo, cov_up = xs[ok], cov_lo[ok], cov_up[ok]

    if len(kept):
        cert = _verdict("covariance_criterion", np.minimum(cov_lo, cov_up), kept, tolerance)
        verdict = Verdict.STABLE if cert.certified else Verdict.UNSTABLE
        min_lo, min_up = float(cov_lo.min()), float(cov_up.min())
    else:  # no point carries mass
        verdict, min_lo, min_up = Verdict.INCONCLUSIVE, math.nan, math.nan
    return ConvolutionCriterionReport(
        xs=kept, cov_lower=cov_lo, cov_upper=cov_up,
        min_lower=min_lo, min_upper=min_up, verdict=verdict,
        tolerance=tolerance, skipped=tuple(xs[~ok].tolist()), excluded_mass=excluded,
    )


def check_convolution_blc_consistency(gX: GridDensity, gY: GridDensity) -> Certificate:
    """Cross-validate the covariance criterion against direct certification.

    Both inputs must certify as bi-log-concave.  The certificate is Certified
    when the criterion verdict (at its default points) and the direct
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

    ``test_g`` is a callable evaluated at the grid nodes or an array of node
    values, finite either way.  Returns the two quadrature values (lhs, rhs).
    The identity needs the boundary-decay hypothesis f(x) (g(x) - E[g]) -> 0
    at the grid edges, which is checked numerically (|f (g - E[g])| <= 1e-6
    there); densities vanishing at an interior node leave phi' undefined and
    are rejected.
    """
    gv = _node_values(nu, test_g)
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
    if not sigmas:
        raise SpecError("sigmas must not be empty")
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
