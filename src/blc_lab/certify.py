"""Shape-constraint certificates for one-dimensional grid densities.

Bi-log-concavity of a distribution function F (log-concavity of both F and
1 - F) is certified by :func:`certify_blc` as the conjunction of two lenses:

* hazard monotonicity -- f/(1-F) nondecreasing and f/F nonincreasing;
* derivative sandwich -- -f^2/(1-F) <= f' <= f^2/F with f > 0.

The CDF envelope -- exponential upper/lower envelopes of F around anchor
points, probed on a finite offset grid -- is a separate cross-check,
:func:`check_envelope`.  Plain log-concavity of the density itself is
certified from second differences of log f by :func:`check_log_concave`.
Every check reports a signed, scale-free worst-case slack; a verdict is
Certified when the slack clears ``-tolerance``.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import MASS_TOL, DegenerateDensityError, DomainError, GridDensity, SpecError

BOUNDARY_TRIM = 10.0  # multiples of MASS_TOL excluded next to F=0 and F=1


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

    @property
    def violated(self) -> bool:
        return self.status is Status.VIOLATED

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


def _verdict(condition_id: str, slack: float, witness: Optional[float],
             tolerance: float) -> Certificate:
    if slack < -tolerance:
        return Certificate(Status.VIOLATED, float(slack), condition_id,
                           tolerance, witness_x=witness)
    return Certificate(Status.CERTIFIED, float(slack), condition_id,
                       tolerance, witness_x=witness if slack < 0 else None)


@dataclass(frozen=True)
class CertifyOptions:
    """Settings shared by the certification checks.

    A check reports a violation when its slack is below ``-tolerance``.
    """

    tolerance: float = 1e-7

    def __post_init__(self):
        if self.tolerance < 0:
            raise SpecError("tolerance must be >= 0")


def _trimmed_range(g: GridDensity) -> slice:
    """Node range where F is at least BOUNDARY_TRIM*MASS_TOL away from 0 and 1."""
    lo = BOUNDARY_TRIM * MASS_TOL
    inside = np.nonzero((g.Fs >= lo) & (g.Fs <= 1.0 - lo))[0]
    if len(inside) == 0:
        raise DegenerateDensityError("degenerate density: no nodes clear of the CDF boundary")
    return slice(int(inside[0]), int(inside[-1]) + 1)


def check_hazards(g: GridDensity, opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Monotonicity of the hazard f/(1-F) and reverse hazard f/F.

    Both rates are evaluated at grid nodes inside the trimmed J(F) range and
    compared on consecutive node pairs; each step margin is normalized by the
    larger of the two rate values, which makes the slack affine-invariant.
    """
    sl = _trimmed_range(g)
    xs, fs, Fs = g.xs[sl], g.fs[sl], g.Fs[sl]
    haz = fs / (1.0 - Fs)
    rev = fs / Fs
    tiny = np.finfo(float).tiny
    step_h = np.diff(haz) / np.maximum(np.maximum(haz[1:], haz[:-1]), tiny)
    step_r = -np.diff(rev) / np.maximum(np.maximum(rev[1:], rev[:-1]), tiny)
    steps = np.minimum(step_h, step_r)
    k = int(np.argmin(steps))
    slack = float(steps[k])
    witness = 0.5 * float(xs[k] + xs[k + 1])
    return _verdict("hazard_monotonicity", slack, witness, opts.tolerance)


def check_derivative_sandwich(g: GridDensity,
                              opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Two-sided bound -f^2/(1-F) <= f' <= f^2/F on the trimmed J(F) nodes.

    Margins are normalized by the bounding term, so the slack is the relative
    room each inequality had.  A node density at most MASS_TOL times the
    maximum breaks strict positivity and forces a violation outright.
    """
    sl = _trimmed_range(g)
    xs, fs, Fs = g.xs[sl], g.fs[sl], g.Fs[sl]
    dead = fs <= MASS_TOL * g.fs.max()
    if np.any(dead):
        witness = float(xs[int(np.argmax(dead))])
        return Certificate(Status.VIOLATED, -1.0, "derivative_sandwich",
                           opts.tolerance, witness_x=witness)
    if g.kink_x is not None:
        # the density is not differentiable at an isolated point; skip its cell
        keep = np.abs(xs - g.kink_x) > 1.5 * np.max(np.diff(g.xs))
        xs, fs, Fs = xs[keep], fs[keep], Fs[keep]
    fp = np.asarray(g.density_derivative(xs), dtype=float)
    lower_cap = fs**2 / (1.0 - Fs)
    upper_cap = fs**2 / Fs
    m_lo = (fp + lower_cap) / lower_cap
    m_hi = (upper_cap - fp) / upper_cap
    margins = np.minimum(m_lo, m_hi)
    k = int(np.argmin(margins))
    return _verdict("derivative_sandwich", float(margins[k]), float(xs[k]),
                    opts.tolerance)


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
    for x in anchors:
        if not g.in_J(x):
            raise DomainError("outside J(F): envelope anchors must lie in J(F)")
    s = g.std()
    ts = np.linspace(-3.0 * s, 3.0 * s, 21)
    floor = np.finfo(float).tiny
    ai = np.clip(np.searchsorted(g.xs, anchors), g.j_lo, g.j_hi)
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
    margins = np.minimum(m_up, m_lo)
    flat = int(np.argmin(margins))
    i, j = np.unravel_index(flat, margins.shape)
    witness = float(xa[i] + t_eff[i, j])
    return _verdict("cdf_envelope", float(margins[i, j]), witness, opts.tolerance)


def check_log_concave(g: GridDensity,
                      opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Concavity of log f from three-point second differences.

    The slack is the most positive curvature estimate, negated, in units of
    (log f)''; nonpositive density nodes make the question ill-posed and the
    verdict Inconclusive.
    """
    sl = _trimmed_range(g)
    xs, fs = g.xs[sl], g.fs[sl]
    bad = fs <= 0.0
    if np.any(bad):
        witness = float(xs[int(np.argmax(bad))])
        return Certificate(Status.INCONCLUSIVE, -math.inf, "log_concavity",
                           opts.tolerance, witness_x=witness)
    lf = np.log(fs)
    h = np.diff(xs)
    curv = 2.0 * (np.diff(lf[1:]) / h[1:] - np.diff(lf[:-1]) / h[:-1]) / (h[1:] + h[:-1])
    k = int(np.argmax(curv))
    slack = float(-curv[k])
    return _verdict("log_concavity", slack, float(xs[k + 1]), opts.tolerance)


def certify_blc(g: GridDensity, opts: CertifyOptions = CertifyOptions()) -> Certificate:
    """Bi-log-concavity as the conjunction of the hazard and sandwich checks.

    The returned certificate carries the worst slack of the two conditions
    and names the condition that produced it.
    """
    results = [check_hazards(g, opts), check_derivative_sandwich(g, opts)]
    worst = min(results, key=lambda c: c.slack)
    return Certificate(combined_status(results), worst.slack,
                       f"blc:{worst.condition_id}", opts.tolerance,
                       witness_x=worst.witness_x)


def combined_status(certs: Sequence[Certificate]) -> Status:
    """Verdict of a conjunction: any Violated wins, then any Inconclusive."""
    statuses = {c.status for c in certs}
    for status in (Status.VIOLATED, Status.INCONCLUSIVE):
        if status in statuses:
            return status
    return Status.CERTIFIED
