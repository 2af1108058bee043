"""Shape-constraint certificates for one-dimensional grid densities.

A distribution function F is bi-log-concave (both F and 1 - F log-concave)
exactly when F/f is nondecreasing and (1-F)/f nonincreasing, with f > 0.
:func:`certify_blc` checks this one condition, the derivative sandwich
-f^2/(1-F) <= f' <= f^2/F, through forward differences of F/f and
-(1-F)/f between grid nodes (:func:`check_derivative_sandwich`), so it reads
node values only and needs no density derivative.

Two cross-checks test the same property another way: hazard monotonicity
(f/(1-F) nondecreasing and f/F nonincreasing, :func:`check_hazards`) and
the CDF envelope -- exponential upper/lower envelopes of F around anchor
points, probed on a finite offset grid (:func:`check_envelope`).  Plain
log-concavity of the density itself is certified from second differences
of log f by :func:`check_log_concave`.  All of them read the nodes of the
grid's J(F), ``GridDensity.j_range`` (CDF at least ``BOUNDARY_TRIM *
MASS_TOL`` away from 0 and 1), and envelope anchors must lie in it.
Every check reports a signed, scale-free worst-case slack; :func:`_verdict`
turns margins into a verdict, Certified only when the worst one clears
``-tolerance`` (so a NaN margin fails).
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import MASS_TOL, DomainError, GridDensity, SpecError


# condition id of a bi-log-concavity certificate
_BLC_CONDITION = "blc:derivative_sandwich"


class Status(str, enum.Enum):
    CERTIFIED = "Certified"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a shape-constraint check.

    ``slack`` is the worst signed margin by which the tested inequality held
    (normalized to be scale-free); ``witness_x`` locates the worst violation
    when one exists.
    """

    status: Status
    slack: float
    condition_id: str
    tolerance_used: float
    witness_x: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.status is Status.CERTIFIED

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "slack": self.slack,
            "witness_x": self.witness_x,
            "condition_id": self.condition_id,
            "tolerance": self.tolerance_used,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class RequiresCertificateError(ValueError):
    """Raised when an operation valid only for certified-BLC input gets other input."""


def _verdict(condition_id: str, margins: np.ndarray, witnesses: np.ndarray,
             tolerance: float) -> Certificate:
    """The verdict on the worst of ``margins``, located at the matching witness.

    Certified only when the worst margin is at least ``-tolerance``, so a NaN
    margin fails; a certified verdict names a witness only for a negative slack.
    No margin at all (say a J(F) of two nodes for a second difference) is
    Inconclusive, with slack -inf and no witness.
    """
    if margins.size == 0:
        return Certificate(Status.INCONCLUSIVE, -math.inf, condition_id, tolerance)
    k = int(np.argmin(margins))
    slack, witness = float(margins.flat[k]), float(witnesses.flat[k])
    if slack >= -tolerance:
        return Certificate(Status.CERTIFIED, slack, condition_id, tolerance,
                           witness_x=witness if slack < 0 else None)
    return Certificate(Status.VIOLATED, slack, condition_id, tolerance, witness_x=witness)


def _normalized_steps(values: np.ndarray) -> np.ndarray:
    """Consecutive differences relative to the larger value; inf values give NaN steps."""
    tiny = np.finfo(float).tiny
    with np.errstate(invalid="ignore"):
        return np.diff(values) / np.maximum(np.maximum(values[1:], values[:-1]), tiny)


@dataclass(frozen=True)
class CertifyOptions:
    """Settings shared by the certification checks.

    A check reports a violation when its slack is below ``-tolerance``.
    """

    tolerance: float = 1e-7

    def __post_init__(self):
        if not 0 <= self.tolerance < math.inf:
            raise SpecError("tolerance must be finite and >= 0")


def check_hazards(g: GridDensity, opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Monotonicity of the hazard f/(1-F) and reverse hazard f/F.

    A cross-check of :func:`certify_blc`, which tests the same property.
    Both rates are evaluated at the grid nodes of J(F) (``g.j_range``) and
    compared on consecutive node pairs; each step margin is normalized by the
    larger of the two rate values, which makes the slack affine-invariant.
    """
    sl = g.j_range
    xs, fs, Fs = g.xs[sl], g.fs[sl], g.Fs[sl]
    steps = np.minimum(_normalized_steps(fs / (1.0 - Fs)), -_normalized_steps(fs / Fs))
    return _verdict("hazard_monotonicity", steps, 0.5 * (xs[:-1] + xs[1:]), opts.tolerance)


def check_derivative_sandwich(g: GridDensity,
                              opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Two-sided bound -f^2/(1-F) <= f' <= f^2/F on the J(F) nodes (``g.j_range``).

    Its two margins, 1 - f'F/f^2 and 1 + f'(1-F)/f^2, are the derivatives of
    F/f and -(1-F)/f, so each is taken as the forward difference of that
    ratio per unit x between consecutive nodes and located at the cell
    midpoint.  The margins are dimensionless, which makes the slack
    affine-invariant, and no density derivative is evaluated.  A node
    density at most MASS_TOL times the maximum breaks strict positivity and
    forces a violation outright.  This is the one-grid case of
    :func:`_sandwich_rows`.
    """
    sl = g.j_range
    return _sandwich_rows(g.xs[None], g.fs[None], g.Fs[None], [sl.start], [sl.stop],
                          opts.tolerance, "derivative_sandwich")[0]


def _sandwich_rows(xs: np.ndarray, fs: np.ndarray, Fs: np.ndarray, starts, stops,
                   tolerance: float, condition_id: str) -> list[Certificate]:
    """The derivative sandwich of each row of (R, n) node stacks, one verdict per row.

    Row r's J(F) is the node slice ``starts[r]:stops[r]``.  The margins are
    computed once for the block, on the columns from the least start to the
    greatest stop (a single grid's J(F) exactly); each row then gets its own
    dead-node test against its own ``fs.max()`` and :func:`_verdict` on its
    own cells, so a row's certificate does not depend on the other rows.
    """
    lo, hi = min(starts), max(stops)
    x, f, F = xs[:, lo:hi], fs[:, lo:hi], Fs[:, lo:hi]
    dead = f <= MASS_TOL * fs.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # off a row's J(F)
        up, down = F / f, (1.0 - F) / f
        # the differences of F/f and, negated, of (1-F)/f: a - b is -(b - a) exactly
        margins = np.minimum(up[:, 1:] - up[:, :-1], down[:, :-1] - down[:, 1:])
        margins /= x[:, 1:] - x[:, :-1]
    mids = 0.5 * (x[:, :-1] + x[:, 1:])
    certs = []
    for r, (a, b) in enumerate(zip(starts, stops)):
        a, b = a - lo, b - lo
        if dead[r, a:b].any():
            witness = float(x[r, a + int(dead[r, a:b].argmax())])
            certs.append(Certificate(Status.VIOLATED, -1.0, condition_id, tolerance,
                                     witness_x=witness))
        else:
            certs.append(_verdict(condition_id, margins[r, a:b - 1], mids[r, a:b - 1],
                                  tolerance))
    return certs


def check_envelope(g: GridDensity, anchors: Sequence[float],
                   opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Exponential CDF envelopes probed at anchor points and a finite offset grid.

    The offsets are 21 points spanning +-3 standard deviations of the tested
    distribution.  For every anchor x and offset t the two inequalities

        F(x+t) <= F(x) exp(f(x) t / F(x))
        1 - F(x+t) <= (1 - F(x)) exp(-f(x) t / (1 - F(x)))

    are evaluated on the log scale, so margins are dimensionless.  Anchors
    and targets x+t are snapped to the nearest grid nodes, where the
    interpolated CDF is exact; off-node evaluation would charge the
    piecewise-linear interpolation excess (~h^2/8) against families that
    attain the envelopes with equality.  The slack is the worst margin
    across the probe grid.
    """
    anchors = np.atleast_1d(np.asarray(anchors, dtype=float))
    first, last = g.xs[g.j_range][[0, -1]]
    if not np.all((first <= anchors) & (anchors <= last)):
        raise DomainError("outside J(F): envelope anchors must lie in J(F)")
    s = g.std()
    ts = np.linspace(-3.0 * s, 3.0 * s, 21)
    floor = np.finfo(float).tiny
    ai = np.searchsorted(g.xs, anchors)
    xa = g.xs[ai]
    ti = np.clip(np.searchsorted(g.xs, xa[:, None] + ts[None, :]), 0, len(g.xs) - 1)
    t_eff = g.xs[ti] - xa[:, None]
    Fx = g.Fs[ai][:, None]
    fx = g.fs[ai][:, None]
    Fxt = g.Fs[ti]
    with np.errstate(divide="ignore"):
        m_up = np.log(np.maximum(Fx, floor)) + fx * t_eff / Fx \
            - np.log(np.maximum(Fxt, floor))
        m_lo = np.log(np.maximum(1.0 - Fx, floor)) - fx * t_eff / (1.0 - Fx) \
            - np.log(np.maximum(1.0 - Fxt, floor))
    return _verdict("cdf_envelope", np.minimum(m_up, m_lo), xa[:, None] + t_eff,
                    opts.tolerance)


def check_log_concave(g: GridDensity,
                      opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Concavity of log f from three-point second differences.

    The slack is the most positive curvature estimate, negated, in units of
    (log f)''; nonpositive density nodes make the question ill-posed and the
    verdict Inconclusive, with the first of them as witness, and a J(F) of
    two nodes, which has no second difference, leaves :func:`_verdict` no
    margin, so it is Inconclusive too.
    """
    xs, fs = g.xs[g.j_range], g.fs[g.j_range]
    bad = fs <= 0.0
    if bad.any():
        return Certificate(Status.INCONCLUSIVE, -math.inf, "log_concavity",
                           opts.tolerance, witness_x=float(xs[int(np.argmax(bad))]))
    lf = np.log(fs)
    h = np.diff(xs)
    curv = 2.0 * (np.diff(lf[1:]) / h[1:] - np.diff(lf[:-1]) / h[:-1]) / (h[1:] + h[:-1])
    return _verdict("log_concavity", -curv, xs[1:-1], opts.tolerance)


def certify_blc(g: GridDensity, opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Bi-log-concavity, as the derivative sandwich (``blc:derivative_sandwich``)."""
    return replace(check_derivative_sandwich(g, opts), condition_id=_BLC_CONDITION)


def _require_blc(g: GridDensity, certificate: Optional[Certificate] = None) -> Certificate:
    """``certificate`` (else :func:`certify_blc` at the default tolerance), if Certified."""
    cert = certificate if certificate is not None else certify_blc(g, CertifyOptions())
    if cert.status is not Status.CERTIFIED:
        raise RequiresCertificateError(
            f"requires BLC certificate: input is {cert.status.value} "
            f"({cert.condition_id}, slack {cert.slack:.3g})"
        )
    return cert


def combined_status(certs: Sequence[Certificate]) -> Status:
    """Verdict of a conjunction: any Violated wins, then any Inconclusive."""
    statuses = {c.status for c in certs}
    for status in (Status.VIOLATED, Status.INCONCLUSIVE):
        if status in statuses:
            return status
    return Status.CERTIFIED
