"""Isoperimetric profiles, Cheeger-type constants, and concentration bounds.

For a one-dimensional measure with CDF F and density f, the quantile profile
I(p) = f(F^{-1}(p)) carries all the isoperimetric information this module
needs: the isoperimetric (Cheeger) constant is the essential infimum of
f / min(F, 1-F) over J(F), which for a bi-log-concave measure collapses to
2 f(median).  Half-space restrictions, the ratio test I(p)/p used by the
multivariate extension, the Poincare lower bound f(median)^2, and the
exponential concentration bound exp(-r f(median)/3) all live here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence, Union

import numpy as np

from .certify import (
    Certificate,
    CertifyOptions,
    Status,
    _trimmed_range,
    _verdict,
    certify_blc,
)
from .core import GridDensity, SpecError, _write_csv


class RequiresCertificateError(ValueError):
    """Raised when an operation valid only for certified-BLC input gets other input."""


@dataclass(frozen=True)
class IsoProfile:
    """Tabulated p -> I(p) values on a probability grid."""

    ps: np.ndarray
    values: np.ndarray
    kind: str  # full_1d | halfspace_1d | halfspace_nd

    def __post_init__(self):
        ps = np.asarray(self.ps, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ps.shape != vals.shape:
            raise ValueError("ps and values must have the same shape")
        if np.any((ps <= 0.0) | (ps >= 1.0)):
            raise ValueError("profile grid must lie strictly inside (0, 1)")
        if np.any(np.diff(ps) <= 0.0):
            raise ValueError("profile grid must be increasing")
        if np.any(vals < 0.0):
            raise ValueError("profile values must be >= 0")
        if self.kind not in ("full_1d", "halfspace_1d", "halfspace_nd"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "values", vals)

    def to_csv(self, path):
        _write_csv(path, ("p", "I"), zip(self.ps, self.values))


@dataclass(frozen=True)
class ConcentrationReport:
    """Half-line tail masses against the exponential concentration bound.

    ``empirical[k]`` is max(1 - F(m + r_k), F(m - r_k)) for the median m --
    the concentration function evaluated on the two half-lines of mass 1/2 --
    and ``bound[k]`` is exp(-r_k f(m)/3).  The full concentration function
    takes a supremum over all sets of mass >= 1/2; restricting to half-lines
    makes this a necessary-condition check, which is all a grid can certify.
    A radius is within the bound when its excess is at most ``tolerance``.
    """

    rs: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    f_at_median: float
    tolerance: ClassVar[float] = 1e-9

    @property
    def all_within(self) -> bool:
        return bool(np.all(self.empirical <= self.bound + self.tolerance))

    @property
    def violations(self) -> np.ndarray:
        return self.rs[self.empirical > self.bound + self.tolerance]

    def to_csv(self, path):
        _write_csv(path, ("r", "empirical", "bound"), zip(self.rs, self.empirical, self.bound))


def _require_blc(g: GridDensity, certificate: Optional[Certificate] = None) -> Certificate:
    cert = certificate if certificate is not None else certify_blc(g, CertifyOptions())
    if cert.status is not Status.CERTIFIED:
        raise RequiresCertificateError(
            f"requires BLC certificate: input is {cert.status.value} "
            f"({cert.condition_id}, slack {cert.slack:.3g})"
        )
    return cert


def bobkov_houdre_constant(g: GridDensity) -> float:
    """Essential infimum of f / min(F, 1-F) over the trimmed J(F) nodes."""
    sl = _trimmed_range(g)
    fs, Fs = g.fs[sl], g.Fs[sl]
    return float(np.min(fs / np.minimum(Fs, 1.0 - Fs)))


def blc_isoperimetric_constant(g: GridDensity,
                               certificate: Optional[Certificate] = None) -> float:
    """Isoperimetric constant 2 f(median), valid for certified-BLC input.

    Pass a previously computed certificate to skip re-certification; inputs
    that do not certify at the default tolerance raise
    :class:`RequiresCertificateError`.
    """
    _require_blc(g, certificate)
    return 2.0 * float(g.pdf(g.median()))


def iso_profile(g: GridDensity, ps: Sequence[float]) -> IsoProfile:
    """Quantile profile I(p) = f(F^{-1}(p))."""
    ps = np.asarray(ps, dtype=float)
    values = np.asarray(g.pdf(g.quantile(ps)), dtype=float)
    return IsoProfile(ps=ps, values=values, kind="full_1d")


def halfspace_profile_1d(g: GridDensity, ps: Sequence[float]) -> IsoProfile:
    """Half-space profile min{f(F^{-1}(p)), f(F^{-1}(1-p))}."""
    ps = np.asarray(ps, dtype=float)
    lo = np.asarray(g.pdf(g.quantile(ps)), dtype=float)
    hi = np.asarray(g.pdf(g.quantile(1.0 - ps)), dtype=float)
    return IsoProfile(ps=ps, values=np.minimum(lo, hi), kind="halfspace_1d")


def weak_blc_ratio_check(profile: IsoProfile) -> Certificate:
    """Monotonicity certificate for p -> I(p)/p on a half-space profile.

    Nonincreasingness of this ratio is the defining inequality of the weak
    multivariate extension; consecutive-point step margins are normalized by
    the local ratio magnitude, mirroring the hazard check, and judged at the
    default certificate tolerance.
    """
    if profile.kind not in ("halfspace_1d", "halfspace_nd"):
        raise ValueError("ratio check applies to half-space profiles")
    ratio = profile.values / profile.ps
    tiny = np.finfo(float).tiny
    steps = -np.diff(ratio) / np.maximum(np.maximum(ratio[1:], ratio[:-1]), tiny)
    k = int(np.argmin(steps))
    witness = 0.5 * float(profile.ps[k] + profile.ps[k + 1])
    return _verdict("halfspace_ratio_monotonicity", float(steps[k]), witness,
                    CertifyOptions().tolerance)


def poincare_constant(g: GridDensity, certificate: Optional[Certificate] = None) -> float:
    """Spectral-gap lower bound f(median)^2 from Cheeger's inequality."""
    _require_blc(g, certificate)
    fm = float(g.pdf(g.median()))
    return fm * fm


def concentration_check(g: GridDensity, rs: Sequence[float],
                        certificate: Optional[Certificate] = None) -> ConcentrationReport:
    """Exponential concentration of half-line sets around the median."""
    _require_blc(g, certificate)
    rs = np.asarray(rs, dtype=float)
    if np.any(rs <= 0.0):
        raise SpecError("radii must be > 0")
    m = g.median()
    fm = float(g.pdf(m))
    upper = 1.0 - np.asarray(g.cdf(m + rs), dtype=float)
    lower = np.asarray(g.cdf(m - rs), dtype=float)
    empirical = np.maximum(upper, lower)
    bound = np.exp(-rs * fm / 3.0)
    return ConcentrationReport(rs=rs, empirical=empirical, bound=bound, f_at_median=fm)


def variance_functional(
    g: GridDensity,
    test_fn: Union[Callable, Sequence[float]],
) -> tuple[float, float]:
    """Quadrature estimates of Var(test_fn) and the Dirichlet energy of test_fn.

    ``test_fn`` is either a callable evaluated at the grid nodes or an array
    of node values; its derivative is taken by central finite differences.
    Used to validate poincare_constant * variance <= dirichlet.
    """
    if callable(test_fn):
        values = np.asarray(test_fn(g.xs), dtype=float)
    else:
        values = np.asarray(test_fn, dtype=float)
        if values.shape != g.xs.shape:
            raise ValueError("sampled test function must match the grid length")
    if not np.all(np.isfinite(values)):
        raise ValueError("test function must be finite at all grid nodes")
    w = g.quad_weights * g.fs
    mean = float(np.sum(w * values))
    variance = float(np.sum(w * (values - mean) ** 2))
    deriv = np.gradient(values, g.xs, edge_order=2)
    dirichlet = float(np.sum(w * deriv**2))
    return variance, dirichlet
