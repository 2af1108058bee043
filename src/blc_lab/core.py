"""Grid representations of one-dimensional distributions.

A distribution enters the toolkit either as an analytic family (Gaussian,
logistic, Laplace, Gaussian mixture, uniform) or as a tabulated density on
an arbitrary strictly increasing grid.  Either way it is materialized into a
:class:`GridDensity`: density and CDF values on a common abscissa grid, with
monotone piecewise-linear interpolation for CDF evaluation and quantile
inversion.  Analytic families keep closed-form CDFs and density derivatives
attached so that downstream shape checks are not polluted by quadrature
noise.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

MASS_TOL = 1e-6
DEFAULT_COVERAGE = 1.0 - 1e-9
MIN_COVERAGE = 1.0 - 1e-6

_SQRT2PI = math.sqrt(2.0 * math.pi)


class SpecError(ValueError):
    """Raised for malformed or inconsistent distribution specifications."""


class DegenerateDensityError(ValueError):
    """Raised when a density has no usable mass (J(F) empty or mass zero)."""


class DomainError(ValueError):
    """Raised when an evaluation point lies outside the operation's domain."""


# ---------------------------------------------------------------------------
# distribution specifications
# ---------------------------------------------------------------------------

_FAMILIES = ("gaussian", "logistic", "laplace", "gaussian_mixture", "grid", "uniform")


@dataclass(frozen=True)
class DistributionSpec:
    """Family tag plus parameters, as read from ``{"family": ..., "params": ...}``."""

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise SpecError(f"invalid spec: unknown family {self.family!r}")
        _validate_params(self.family, self.params)

    @staticmethod
    def gaussian(mean: float, sd: float) -> "DistributionSpec":
        return DistributionSpec("gaussian", {"mean": float(mean), "sd": float(sd)})

    @staticmethod
    def logistic(location: float, scale: float) -> "DistributionSpec":
        return DistributionSpec("logistic", {"location": float(location), "scale": float(scale)})

    @staticmethod
    def laplace(location: float, scale: float) -> "DistributionSpec":
        return DistributionSpec("laplace", {"location": float(location), "scale": float(scale)})

    @staticmethod
    def gaussian_mixture(weights, means, sds) -> "DistributionSpec":
        return DistributionSpec(
            "gaussian_mixture",
            {
                "weights": [float(w) for w in weights],
                "means": [float(m) for m in means],
                "sds": [float(s) for s in sds],
            },
        )

    @staticmethod
    def grid(abscissas, density_values) -> "DistributionSpec":
        return DistributionSpec(
            "grid",
            {
                "abscissas": [float(x) for x in abscissas],
                "density_values": [float(v) for v in density_values],
            },
        )

    @staticmethod
    def uniform(lo: float, hi: float) -> "DistributionSpec":
        return DistributionSpec("uniform", {"lo": float(lo), "hi": float(hi)})

    @staticmethod
    def from_json(source) -> "DistributionSpec":
        """Load a spec from a JSON file path, file object, or dict."""
        if isinstance(source, dict):
            doc = source
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        if not isinstance(doc, dict) or "family" not in doc:
            raise SpecError("invalid spec: missing 'family' field")
        return DistributionSpec(str(doc["family"]), dict(doc.get("params", {})))

    def to_json(self) -> str:
        return json.dumps({"family": self.family, "params": self.params}, sort_keys=True)

    def label(self) -> str:
        if self.family == "gaussian":
            return f"gaussian({self.params['mean']:g},{self.params['sd']:g})"
        if self.family in ("logistic", "laplace"):
            return f"{self.family}({self.params['location']:g},{self.params['scale']:g})"
        if self.family == "gaussian_mixture":
            return f"gaussian_mixture(k={len(self.params['weights'])})"
        if self.family == "uniform":
            return f"uniform({self.params['lo']:g},{self.params['hi']:g})"
        return f"grid(n={len(self.params['abscissas'])})"


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecError(f"invalid spec: {msg}")


def _validate_params(family: str, params: dict):
    if family == "gaussian":
        _require("mean" in params and "sd" in params, "gaussian needs mean, sd")
        _require(float(params["sd"]) > 0, "gaussian sd must be > 0")
    elif family in ("logistic", "laplace"):
        _require("location" in params and "scale" in params, f"{family} needs location, scale")
        _require(float(params["scale"]) > 0, f"{family} scale must be > 0")
    elif family == "uniform":
        _require("lo" in params and "hi" in params, "uniform needs lo, hi")
        _require(float(params["hi"]) > float(params["lo"]), "uniform needs hi > lo")
    elif family == "gaussian_mixture":
        for key in ("weights", "means", "sds"):
            _require(key in params, f"gaussian_mixture needs {key}")
        w = np.asarray(params["weights"], dtype=float)
        mu = np.asarray(params["means"], dtype=float)
        sd = np.asarray(params["sds"], dtype=float)
        _require(w.ndim == 1 and len(w) >= 1, "weights must be a nonempty vector")
        _require(len(w) == len(mu) == len(sd), "weights/means/sds lengths differ")
        _require(np.all(w >= 0), "mixture weights must be >= 0")
        _require(abs(w.sum() - 1.0) <= 1e-12, "mixture weights must sum to 1 within 1e-12")
        _require(np.all(sd > 0), "mixture sds must be > 0")
    elif family == "grid":
        for key in ("abscissas", "density_values"):
            _require(key in params, f"grid needs {key}")
        xs = np.asarray(params["abscissas"], dtype=float)
        fs = np.asarray(params["density_values"], dtype=float)
        _require(xs.ndim == 1 and len(xs) >= 8, "grid needs at least 8 points")
        _require(len(xs) == len(fs), "abscissas/density_values lengths differ")
        _require(np.all(np.isfinite(xs)) and np.all(np.isfinite(fs)),
                 "grid abscissas and density values must be finite")
        _require(np.all(np.diff(xs) > 0), "grid abscissas must be strictly increasing")
        _require(np.all(fs >= 0), "grid density values must be >= 0")


# ---------------------------------------------------------------------------
# analytic family adapters
# ---------------------------------------------------------------------------


class _Family:
    """pdf/cdf/ppf/density-derivative callables for one analytic family."""

    def __init__(self, pdf, cdf, ppf, dpdf, anchor):
        self.pdf = pdf
        self.cdf = cdf
        self.ppf = ppf
        self.dpdf = dpdf
        self.anchor = anchor


def _gaussian_family(mean, sd):
    def pdf(x):
        z = (np.asarray(x, float) - mean) / sd
        return np.exp(-0.5 * z * z) / (sd * _SQRT2PI)

    def cdf(x):
        return ndtr((np.asarray(x, float) - mean) / sd)

    def ppf(p):
        return mean + sd * ndtri(p)

    def dpdf(x):
        z = (np.asarray(x, float) - mean) / sd
        return -z / sd * pdf(x)

    return _Family(pdf, cdf, ppf, dpdf, mean)


def _logistic_family(loc, scale):
    def cdf(x):
        return 1.0 / (1.0 + np.exp(-(np.asarray(x, float) - loc) / scale))

    def pdf(x):
        F = cdf(x)
        return F * (1.0 - F) / scale

    def ppf(p):
        return loc + scale * np.log(p / (1.0 - p))

    def dpdf(x):
        F = cdf(x)
        return F * (1.0 - F) * (1.0 - 2.0 * F) / scale**2

    return _Family(pdf, cdf, ppf, dpdf, loc)


def _laplace_family(loc, scale):
    def pdf(x):
        return np.exp(-np.abs(np.asarray(x, float) - loc) / scale) / (2.0 * scale)

    def cdf(x):
        z = (np.asarray(x, float) - loc) / scale
        return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    def ppf(p):
        p = np.asarray(p, float)
        return loc + scale * np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))

    def dpdf(x):
        # sign convention at the kink: derivative 0 (single Lebesgue-null point)
        z = (np.asarray(x, float) - loc) / scale
        return -np.sign(z) * pdf(x) / scale

    return _Family(pdf, cdf, ppf, dpdf, loc)


def _mixture_family(weights, means, sds):
    w = np.asarray(weights, float)
    mu = np.asarray(means, float)
    sd = np.asarray(sds, float)

    def pdf(x):
        z = (np.asarray(x, float)[..., None] - mu) / sd
        return (w * np.exp(-0.5 * z * z) / (sd * _SQRT2PI)).sum(axis=-1)

    def cdf(x):
        z = (np.asarray(x, float)[..., None] - mu) / sd
        return (w * ndtr(z)).sum(axis=-1)

    def dpdf(x):
        z = (np.asarray(x, float)[..., None] - mu) / sd
        comp = w * np.exp(-0.5 * z * z) / (sd * _SQRT2PI)
        return (comp * (-z / sd)).sum(axis=-1)

    lo = float((mu - sd * 40.0).min())
    hi = float((mu + sd * 40.0).max())

    def ppf(p):
        return brentq(lambda x: cdf(x) - p, lo, hi, xtol=1e-13, rtol=8.9e-16)

    # symmetric mixtures get their center of symmetry as anchor, others the median
    center = float((w * mu).sum())
    if mirror_closed(w.tolist(), [(m - center,) for m in mu.tolist()],
                     [(s,) for s in sd.tolist()], tol=1e-12):
        anchor = center
    else:
        anchor = ppf(0.5)
    return _Family(pdf, cdf, ppf, dpdf, anchor)


def mirror_closed(weights, locations, shapes, tol, rtol=0.0) -> bool:
    """Whether components (w, a, b) pair up with mirror images (w, -a, b).

    Pairing is greedy: each unmatched component takes the first unused
    component (itself included) that matches.  Weights match within ``tol``;
    a location row must match the mirrored row, and a shape row the shape
    row, entrywise as ``numpy.isclose(x, y, atol=tol, rtol=rtol)`` matches x
    to y.  Locations are taken about the center of symmetry.
    """
    mirrors = [[-v for v in a] for a in locations]
    used = [False] * len(weights)
    for i, wi in enumerate(weights):
        if used[i]:
            continue
        for j, wj in enumerate(weights):
            if (not used[j] and abs(wj - wi) <= tol
                    and _isclose(locations[j], mirrors[i], tol, rtol)
                    and _isclose(shapes[j], shapes[i], tol, rtol)):
                used[i] = used[j] = True
                break
        else:
            return False
    return True


def _isclose(xs, ys, atol, rtol) -> bool:
    # numpy.isclose, scalar by scalar: a few components never pay for arrays
    return all(x == y or (abs(x - y) <= atol + rtol * abs(y) and math.isfinite(y))
               for x, y in zip(xs, ys))


def _uniform_family(lo, hi):
    width = hi - lo

    def pdf(x):
        x = np.asarray(x, float)
        return np.where((x >= lo) & (x <= hi), 1.0 / width, 0.0)

    def cdf(x):
        return np.clip((np.asarray(x, float) - lo) / width, 0.0, 1.0)

    def ppf(p):
        return lo + width * np.asarray(p, float)

    def dpdf(x):
        return np.zeros_like(np.asarray(x, float))

    return _Family(pdf, cdf, ppf, dpdf, 0.5 * (lo + hi))


def _make_family(spec: DistributionSpec) -> Optional[_Family]:
    p = spec.params
    if spec.family == "gaussian":
        return _gaussian_family(float(p["mean"]), float(p["sd"]))
    if spec.family == "logistic":
        return _logistic_family(float(p["location"]), float(p["scale"]))
    if spec.family == "laplace":
        return _laplace_family(float(p["location"]), float(p["scale"]))
    if spec.family == "gaussian_mixture":
        return _mixture_family(p["weights"], p["means"], p["sds"])
    if spec.family == "uniform":
        return _uniform_family(float(p["lo"]), float(p["hi"]))
    return None


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def trapezoid_weights(xs: np.ndarray) -> np.ndarray:
    """Composite-trapezoid quadrature weights for a (possibly non-uniform) grid."""
    dx = np.diff(xs)
    w = np.zeros_like(xs)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def _is_uniform(xs: np.ndarray) -> bool:
    h = np.diff(xs)
    return len(xs) >= 3 and (h.max() - h.min()) <= 1e-9 * h.mean()


def _parabolic_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell node triples and parabolic weights (in units of h/12).

    Cell i covers [x_i, x_{i+1}] and integrates the parabola through the
    triple starting at the even index ``base[i]`` (the last triple for the
    final cell of an even node count), so no parabola straddles an even-index
    pair boundary.  Returns ``base`` (n-1,) and ``coef`` (n-1, 3).
    """
    i = np.arange(n - 1)
    base = np.minimum(i - i % 2, n - 3)
    first = (i == base)[:, None]
    coef = np.where(first, [5.0, 8.0, -1.0], [-1.0, 8.0, 5.0])
    return base, coef


def quadrature_weights(xs: np.ndarray) -> np.ndarray:
    """Interpolatory quadrature weights: parabolic on uniform grids, else trapezoid.

    The parabolic weights reproduce composite Simpson on even cell counts and
    keep fourth-order accuracy on odd ones; cell parabolas never straddle an
    even-index pair boundary, matching the kink placement of materialized
    grids.
    """
    xs = np.asarray(xs, float)
    if not _is_uniform(xs):
        return trapezoid_weights(xs)
    n = len(xs)
    hh = float(np.diff(xs).mean())
    base, coef = _parabolic_cells(n)
    # bincount adds the cell contributions in cell order, node by node
    return np.bincount((base[:, None] + np.arange(3)).ravel(),
                       weights=(coef * hh / 12.0).ravel(), minlength=n)


def cumulative_parabolic(xs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Cumulative integral of tabulated values, fourth-order on uniform grids.

    Per-cell integrals use the parabola through the nearest node triple, never
    straddling an even-index pair boundary, so a kink placed on an even index
    does not degrade the rate.  Falls back to cumulative trapezoid when the
    grid is visibly non-uniform.
    """
    xs = np.asarray(xs, float)
    fs = np.asarray(fs, float)
    n = len(xs)
    h = np.diff(xs)
    out = np.zeros(n)
    if n < 3 or (h.max() - h.min()) > 1e-9 * h.mean():
        out[1:] = np.cumsum(0.5 * h * (fs[1:] + fs[:-1]))
        return out
    base, coef = _parabolic_cells(n)
    cell = coef[:, 0] * fs[base] + coef[:, 1] * fs[base + 1] + coef[:, 2] * fs[base + 2]
    out[1:] = np.cumsum(h.mean() * cell / 12.0)
    return out


# ---------------------------------------------------------------------------
# grid density
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Tabulated density/CDF pair with interpolation-based evaluation.

    ``xs`` is strictly increasing; ``fs`` holds density values and ``Fs`` CDF
    values at the nodes.  ``j_lo``/``j_hi`` bracket the nodes where the CDF is
    numerically inside (0, 1); all shape checks are restricted to that range.
    """

    xs: np.ndarray
    fs: np.ndarray
    Fs: np.ndarray
    j_lo: int
    j_hi: int
    total_mass: float
    mass_tol: float = MASS_TOL
    label: str = "grid"
    pdf_fn: Optional[Callable] = field(default=None, repr=False)
    cdf_fn: Optional[Callable] = field(default=None, repr=False)
    dpdf_fn: Optional[Callable] = field(default=None, repr=False)
    kink_x: Optional[float] = None
    uniform_bounds: Optional[tuple] = None  # set for the uniform family; its
    # density is discontinuous, which convolution must treat in closed form

    def __post_init__(self):
        xs, fs, Fs = self.xs, self.fs, self.Fs
        if not (len(xs) == len(fs) == len(Fs)):
            raise SpecError("invalid spec: xs/fs/Fs lengths differ")
        if np.any(np.diff(xs) <= 0):
            raise SpecError("invalid spec: abscissas must be strictly increasing")
        if np.any(fs < 0):
            raise SpecError("invalid spec: density values must be >= 0")
        if np.any(np.diff(Fs) < -1e-12):
            raise SpecError("invalid spec: CDF values must be nondecreasing")
        if abs(self.total_mass - 1.0) > self.mass_tol:
            raise DegenerateDensityError(
                f"degenerate density: total mass {self.total_mass:.6g} not within "
                f"{self.mass_tol:g} of 1"
            )
        if self.j_lo > self.j_hi:
            raise DegenerateDensityError("degenerate density: J(F) empty")

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    @cached_property
    def quad_weights(self) -> np.ndarray:
        return quadrature_weights(self.xs)

    @cached_property
    def _fd_derivs(self) -> np.ndarray:
        return np.gradient(self.fs, self.xs, edge_order=2)

    @cached_property
    def _quantile_table(self):
        # keep the first node of every flat CDF run so inversion is leftmost
        keep = np.concatenate(([True], np.diff(self.Fs) > 0))
        return self.Fs[keep], self.xs[keep]

    def cdf(self, x) -> np.ndarray | float:
        """Piecewise-linear CDF interpolation, clamped to [0, 1] off the grid."""
        return np.interp(x, self.xs, self.Fs)

    def pdf(self, x) -> np.ndarray | float:
        """Piecewise-linear density interpolation, zero off the grid."""
        return np.interp(x, self.xs, self.fs, left=0.0, right=0.0)

    def quantile(self, p) -> np.ndarray | float:
        p_arr = np.asarray(p, dtype=float)
        if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
            raise DomainError("quantile domain: p must lie strictly inside (0, 1)")
        Ftab, xtab = self._quantile_table
        out = np.interp(p_arr, Ftab, xtab)
        return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out

    def median(self) -> float:
        return float(self.quantile(0.5))

    def in_J(self, x) -> bool:
        return self.xs[self.j_lo] <= x <= self.xs[self.j_hi]

    def density_derivative(self, x, method: str = "auto") -> np.ndarray | float:
        """Derivative of the density, analytic when the family provides one.

        ``method`` is one of ``auto`` (analytic if available, else finite
        differences), ``analytic``, ``fd``.
        """
        x_arr = np.asarray(x, dtype=float)
        lo, hi = self.xs[self.j_lo], self.xs[self.j_hi]
        if np.any((x_arr < lo) | (x_arr > hi)):
            raise DomainError("outside J(F)")
        if method not in ("auto", "analytic", "fd"):
            raise ValueError(f"unknown method {method!r}")
        if method == "analytic" and self.dpdf_fn is None:
            raise ValueError("no analytic derivative available")
        if method in ("auto", "analytic") and self.dpdf_fn is not None:
            out = self.dpdf_fn(x_arr)
        else:
            out = np.interp(x_arr, self.xs, self._fd_derivs)
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

    def node_derivatives(self, method: str = "auto") -> np.ndarray:
        """Density derivative at every grid node."""
        if method in ("auto", "analytic") and self.dpdf_fn is not None:
            return np.asarray(self.dpdf_fn(self.xs), dtype=float)
        if method == "analytic":
            raise ValueError("no analytic derivative available")
        return self._fd_derivs

    # -- moments ------------------------------------------------------------

    def mean(self) -> float:
        return float(np.sum(self.quad_weights * self.xs * self.fs))

    def std(self) -> float:
        m = self.mean()
        var = float(np.sum(self.quad_weights * (self.xs - m) ** 2 * self.fs))
        return math.sqrt(max(var, 0.0))

    def quadrature_mass(self) -> float:
        """Mass of the tabulated density under ``quad_weights`` (diagnostic).

        The rule is parabolic on uniform grids and trapezoid otherwise.
        """
        return float(np.sum(self.quad_weights * self.fs))

    # -- export -------------------------------------------------------------

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,f,F\n")
            for x, f, F in zip(self.xs, self.fs, self.Fs):
                fh.write(f"{x:.12g},{f:.12g},{F:.12g}\n")


def _j_range(Fs: np.ndarray, mass_tol: float) -> tuple[int, int]:
    inside = np.nonzero((Fs > mass_tol) & (Fs < 1.0 - mass_tol))[0]
    if len(inside) == 0:
        raise DegenerateDensityError("degenerate density: J(F) empty")
    return int(inside[0]), int(inside[-1])


def materialize(
    spec: DistributionSpec,
    n_points: int = 2048,
    coverage: float = DEFAULT_COVERAGE,
    mass_tol: float = MASS_TOL,
) -> GridDensity:
    """Tabulate a distribution spec onto a grid.

    Analytic families are truncated to a window holding at least ``coverage``
    of their mass and renormalized; the window is laid out so that the family
    anchor (location parameter, center of symmetry, or median) falls exactly
    on an even-index node.  Grid specs keep their given abscissas.
    """
    if spec.family != "grid" and n_points < 64:
        raise SpecError("invalid spec: n_points must be >= 64")
    if not (MIN_COVERAGE <= coverage < 1.0):
        raise SpecError(f"invalid spec: coverage must lie in [{MIN_COVERAGE}, 1)")

    if spec.family == "grid":
        xs = np.asarray(spec.params["abscissas"], dtype=float)
        fs = np.asarray(spec.params["density_values"], dtype=float)
        w = trapezoid_weights(xs)
        mass = float(np.sum(w * fs))
        if mass <= 0.0:
            raise DegenerateDensityError("degenerate density: zero total mass")
        fs = fs / mass
        Fs = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(xs) * (fs[1:] + fs[:-1]))))
        Fs = np.clip(Fs / Fs[-1], 0.0, 1.0)
        j_lo, j_hi = _j_range(Fs, mass_tol)
        return GridDensity(
            xs=xs, fs=fs, Fs=Fs, j_lo=j_lo, j_hi=j_hi,
            total_mass=1.0, mass_tol=mass_tol, label=spec.label(),
        )

    fam = _make_family(spec)

    if spec.family == "uniform":
        lo, hi = float(spec.params["lo"]), float(spec.params["hi"])
        xs = np.linspace(lo, hi, n_points)
        fs = np.full(n_points, 1.0 / (hi - lo))
        Fs = (xs - lo) / (hi - lo)
        j_lo, j_hi = _j_range(Fs, mass_tol)
        return GridDensity(
            xs=xs, fs=fs, Fs=Fs, j_lo=j_lo, j_hi=j_hi,
            total_mass=1.0, mass_tol=mass_tol, label=spec.label(),
            pdf_fn=fam.pdf, cdf_fn=fam.cdf, dpdf_fn=fam.dpdf,
            uniform_bounds=(lo, hi),
        )

    tail = 0.5 * (1.0 - coverage)
    left = float(fam.ppf(tail))
    right = float(fam.ppf(1.0 - tail))
    anchor = float(fam.anchor)
    # anchor on an even node index so kinks never sit inside a parabolic pair
    i0 = n_points // 2
    if i0 % 2 == 1:
        i0 -= 1
    h = max((anchor - left) / i0, (right - anchor) / (n_points - 1 - i0))
    xs = anchor + (np.arange(n_points) - i0) * h

    F_raw = np.asarray(fam.cdf(xs), dtype=float)
    Z = F_raw[-1] - F_raw[0]
    if Z <= 0.0:
        raise DegenerateDensityError("degenerate density: window carries no mass")
    fs = np.asarray(fam.pdf(xs), dtype=float) / Z
    Fs = np.clip((F_raw - F_raw[0]) / Z, 0.0, 1.0)
    j_lo, j_hi = _j_range(Fs, mass_tol)

    def pdf_scaled(x, _pdf=fam.pdf, _Z=Z):
        return _pdf(x) / _Z

    def cdf_scaled(x, _cdf=fam.cdf, _F0=F_raw[0], _Z=Z):
        return np.clip((_cdf(x) - _F0) / _Z, 0.0, 1.0)

    def dpdf_scaled(x, _dpdf=fam.dpdf, _Z=Z):
        return _dpdf(x) / _Z

    kink = anchor if spec.family == "laplace" else None
    return GridDensity(
        xs=xs, fs=fs, Fs=Fs, j_lo=j_lo, j_hi=j_hi,
        total_mass=1.0, mass_tol=mass_tol, label=spec.label(),
        pdf_fn=pdf_scaled, cdf_fn=cdf_scaled, dpdf_fn=dpdf_scaled, kink_x=kink,
    )
