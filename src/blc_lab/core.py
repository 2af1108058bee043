"""Grid representations of one-dimensional distributions.

A distribution enters the toolkit either as an analytic family (Gaussian,
logistic, Laplace, Gaussian mixture, uniform) or as a tabulated density on
an arbitrary strictly increasing grid.  Either way it is materialized into a
:class:`GridDensity`: density and CDF values on a common abscissa grid, with
monotone piecewise-linear interpolation for CDF evaluation and quantile
inversion.  The grid derives its J(F) once, when it is built: the nodes
whose CDF clears a boundary trim of ``BOUNDARY_TRIM * MASS_TOL``, on which
every shape check runs.  Analytic families keep their closed-form pdf and
CDF attached, so that convolution sums evaluate a factor exactly off its
nodes.  The density derivative is read at the nodes only: in closed form
for an analytic family, else from finite differences.  Every sum over a
Gaussian mixture's components (pdf, CDF or survival function, f')
comes from one kernel, :func:`_mixture_sums`, one component at a time.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

MASS_TOL = 1e-6
BOUNDARY_TRIM = 10.0  # multiples of MASS_TOL excluded next to F=0 and F=1
DEFAULT_COVERAGE = 1.0 - 1e-9
_TAIL = 0.5 * (1.0 - DEFAULT_COVERAGE)  # mass left out on each side of a window
_XTOL, _RTOL = 1e-13, 8.9e-16  # absolute and relative tolerance of a mixture quantile
_MAXITER = 100
_NEWTON_STEPS = 20  # a mixture quantile not final after this many steps bisects
# cells (rows x columns) of one block of a row-blocked computation: a direct
# convolution sum or the covariance criterion (rows of anchors against Y's
# nodes), or a direction scan (rows of lines against their nodes); at most
# 64 KB per (rows, columns) array, whatever the sizes
_BLOCK_CELLS = 8192

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _block_rows(n_columns: int) -> int:
    """Rows per block of an O(rows * columns) computation: the largest power of
    two with rows * max(n_columns, 1) <= ``_BLOCK_CELLS`` (at least 1)."""
    return 1 << max(0, (_BLOCK_CELLS // max(n_columns, 1)).bit_length() - 1)


def _require_grid_size(n_points: int):
    """Refuse fewer than 64 nodes for a tabulated analytic law (``SpecError``)."""
    _require(n_points >= 64, "n_points must be >= 64")


class SpecError(ValueError):
    """Raised for malformed or inconsistent specifications and arguments."""


class DegenerateDensityError(ValueError):
    """Raised when a density has no usable mass (J(F) empty or mass zero)."""


class DomainError(ValueError):
    """Raised when an evaluation point lies outside the operation's domain."""


# ---------------------------------------------------------------------------
# distribution specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionSpec:
    """Family tag plus parameters, as read from ``{"family": ..., "params": ...}``."""

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise SpecError(f"invalid spec: unknown family {self.family!r}")
        object.__setattr__(self, "params", _convert_params(self.family, self.params))

    @staticmethod
    def _of(family: str, *values) -> "DistributionSpec":
        return DistributionSpec(family, dict(zip(_FAMILIES[family].keys, values)))

    @staticmethod
    def gaussian(mean: float, sd: float) -> "DistributionSpec":
        return DistributionSpec._of("gaussian", mean, sd)

    @staticmethod
    def logistic(location: float, scale: float) -> "DistributionSpec":
        return DistributionSpec._of("logistic", location, scale)

    @staticmethod
    def laplace(location: float, scale: float) -> "DistributionSpec":
        return DistributionSpec._of("laplace", location, scale)

    @staticmethod
    def gaussian_mixture(weights, means, sds) -> "DistributionSpec":
        return DistributionSpec._of("gaussian_mixture", weights, means, sds)

    @staticmethod
    def grid(abscissas, density_values) -> "DistributionSpec":
        return DistributionSpec._of("grid", abscissas, density_values)

    @staticmethod
    def uniform(lo: float, hi: float) -> "DistributionSpec":
        return DistributionSpec._of("uniform", lo, hi)

    @staticmethod
    def from_json(source) -> "DistributionSpec":
        """Load a spec from a JSON file path, file object, or dict."""
        doc = _read_json(source)
        if not isinstance(doc, dict) or "family" not in doc:
            raise SpecError("invalid spec: missing 'family' field")
        return DistributionSpec(str(doc["family"]), doc.get("params", {}))

    def to_json(self) -> str:
        return json.dumps({"family": self.family, "params": self.params}, sort_keys=True)

    def label(self) -> str:
        keys, _, count = _FAMILIES[self.family]
        if count:
            return f"{self.family}({count}={len(self.params[keys[0]])})"
        return f"{self.family}({','.join(f'{self.params[k]:g}' for k in keys)})"


def _read_json(source):
    """A JSON document given as a dict, a file object or a file path."""
    if isinstance(source, dict):
        return source
    if hasattr(source, "read"):
        return json.load(source)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]):
    """Write a CSV artifact in UTF-8: strings as-is, numbers to 12 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) + "\n")


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecError(f"invalid spec: {msg}")


def _json_numbers(value, ndim: int, what: str) -> np.ndarray:
    """A JSON number (``ndim`` 0) or a rectangular nested list of them, as floats.

    Strings, booleans (even in a list of numbers), nulls and ragged lists are
    refused, not converted, and so are non-finite values.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged list
        raise SpecError(f"invalid spec: {what} must be numbers") from exc
    _require(arr.dtype.kind in "iuf" and arr.ndim == ndim and not any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat),
        f"{what} must be numbers")
    arr = arr.astype(float)
    _require(np.isfinite(arr).all(), f"{what} must be finite")
    return arr


def _convert_params(family: str, params: dict) -> dict:
    """The family's parameters, validated, as floats (lists of floats for vectors).

    ``params`` must be a JSON object whose entries are read by
    :func:`_json_numbers`: a number, or for a vector family a flat list of them.
    """
    keys, _, count = _FAMILIES[family]
    _require(isinstance(params, dict), f"{family} parameters must be numbers in a JSON object")
    _require(all(key in params for key in keys), f"{family} needs {', '.join(keys)}")
    values = [_json_numbers(params[key], 1 if count else 0, f"{family} parameters")
              for key in keys]
    if family in ("gaussian", "logistic", "laplace"):
        _require(values[1] > 0, f"{family} {keys[1]} must be > 0")
    elif family == "uniform":
        lo, hi = values
        _require(hi > lo, "uniform needs hi > lo")
    elif family == "gaussian_mixture":
        w, mu, sd = values
        _require(len(w) >= 1, "weights must be a nonempty vector")
        _require(len(w) == len(mu) == len(sd), "weights/means/sds lengths differ")
        _require(np.all(w >= 0), "mixture weights must be >= 0")
        _require(abs(w.sum() - 1.0) <= 1e-12, "mixture weights must sum to 1 within 1e-12")
        _require(np.all(sd > 0), "mixture sds must be > 0")
    elif family == "grid":
        xs, fs = values
        _require(len(xs) >= 8, "grid needs at least 8 points")
        _require(len(xs) == len(fs), "abscissas/density_values lengths differ")
        _require(np.all(np.diff(xs) > 0), "grid abscissas must be strictly increasing")
        _require(np.all(fs >= 0), "grid density values must be >= 0")
    return dict(zip(keys, (v.tolist() for v in values)))


# ---------------------------------------------------------------------------
# analytic family adapters
# ---------------------------------------------------------------------------


# pdf/cdf/density-derivative callables of one analytic family; ``window`` is
# (left, anchor, right): the quantiles at _TAIL and 1 - _TAIL, and the point
# materialize lays on an even node; ``kink`` is where the density has one.
# A Gaussian is the one-component mixture, whose quantile bracket is exact.
_Family = namedtuple("_Family", "pdf cdf dpdf window kink", defaults=(None,))


def _logistic_family(loc, scale):
    def cdf(x):
        with np.errstate(over="ignore"):  # exp overflows to inf far left: F = 0
            return 1.0 / (1.0 + np.exp(-(np.asarray(x, float) - loc) / scale))

    def pdf(x):
        F = cdf(x)
        return F * (1.0 - F) / scale

    def ppf(p):
        return loc + scale * np.log(p / (1.0 - p))

    def dpdf(x):
        F = cdf(x)
        return F * (1.0 - F) * (1.0 - 2.0 * F) / scale**2

    return _Family(pdf, cdf, dpdf, (ppf(_TAIL), loc, ppf(1.0 - _TAIL)))


def _laplace_family(loc, scale):
    def pdf(x):
        return np.exp(-np.abs(np.asarray(x, float) - loc) / scale) / (2.0 * scale)

    def cdf(x):
        z = (np.asarray(x, float) - loc) / scale
        half_tail = 0.5 * np.exp(-np.abs(z))
        return np.where(z < 0, half_tail, 1.0 - half_tail)

    def ppf(p):
        return loc + scale * np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))

    def dpdf(x):
        # sign convention at the kink: derivative 0 (single Lebesgue-null point)
        z = (np.asarray(x, float) - loc) / scale
        return -np.sign(z) * pdf(x) / scale

    return _Family(pdf, cdf, dpdf, (ppf(_TAIL), loc, ppf(1.0 - _TAIL)), kink=loc)


# weighted component terms of a mixture's pdf, cdf, dpdf (as in _Family) at
# z = (x - mu) / sd; at sign -1 the cdf term is the survival function's
_TERMS = {
    "pdf": lambda w, z, sd, sign: w * np.exp(-0.5 * z * z) / (sd * _SQRT2PI),
    "cdf": lambda w, z, sd, sign: w * ndtr(sign * z),
    "dpdf": lambda w, z, sd, sign: _TERMS["pdf"](w, z, sd, sign) * (-z / sd),
}


def _mixture_sums(terms, w, mu, sd, x, sign=1.0):
    """Sums over the components of Gaussian mixtures at x, one per ``_TERMS`` name.

    ``w`` has shape (k,); ``mu`` and ``sd`` have shape (k,) for one mixture,
    or (k, R, 1) for a stack of R mixtures, mixture r on row r of an (R, n)
    x.  The components are walked once, one at a time, and each
    z = (x - mu_j) / sd_j is formed once for all the terms, so no temporary
    outgrows x.  Each sum has x's shape and adds its terms in component
    order from +0.0; ``sign`` (+1 or -1, a scalar or x's shape) turns the
    cdf sum into the survival function where it is -1.
    """
    x = np.asarray(x, float)
    sums = tuple(np.zeros(x.shape) for _ in terms)
    for wj, mj, sj in zip(w, mu, sd):
        z = (x - mj) / sj
        for total, term in zip(sums, terms):
            total += _TERMS[term](wj, z, sj, sign)
    return tuple(total[()] for total in sums)


def _mixture_family(weights, means, sds):
    """A Gaussian mixture, with its window solved here."""
    w, mu, sd = (np.asarray(a, float) for a in (weights, means, sds))
    window = tuple(float(v[0]) for v in _mixture_windows(w, mu[None], sd[None]))
    return _Family(*(lambda x, t=t: _mixture_sums((t,), w, mu, sd, x)[0] for t in _TERMS),
                   window)


def _mixture_windows(w, mu, sd):
    """(left, anchor, right) arrays of a stack of Gaussian mixtures.

    ``w`` has shape (k,), ``mu`` and ``sd`` (D, k).  Each mixture is anchored
    at its median; the window edges and the medians come from one solver call.
    """
    return tuple(_mixture_quantile(np.tile([_TAIL, 0.5, 1.0 - _TAIL], (len(mu), 1)),
                                   w, mu, sd).T)


def _mixture_quantile(p, w, mu, sd):
    """Quantiles of a stack of Gaussian mixtures with weights ``w`` (k,).

    ``mu`` and ``sd`` have shape (D, k); ``p`` has shape (D,) or (D, m) and
    so has the result.  Each root is bracketed by its component quantiles
    ``mu + sd * ndtri(p)`` and found by Newton steps on the log of the
    closed-form CDF, or of the survival function when p > 1/2 (on ``F - p``
    the root interval near p = 1 is some 1e-8 wide); a step that leaves the
    bracket becomes a bisection, and so does every step after the first
    ``_NEWTON_STEPS``, so Newton steps that cycle cannot stall.  A median
    starts from the mixture mean, so a mixture whose F rounds to 1/2 on a
    whole interval is anchored at its mean when that lies inside.  A root is
    final once a step moves it by at most ``_XTOL`` (plus ``_RTOL``
    relative), so it does not depend on the rest of the stack.  Raises
    ``RuntimeError`` after ``_MAXITER`` steps.
    """
    p = np.asarray(p, float)
    P, w = p.reshape(len(mu), -1), np.asarray(w, float)
    # the kernel's stack form: (k, D, 1) components against the (D, m) roots
    mu, sd = np.asarray(mu, float).T[..., None], np.asarray(sd, float).T[..., None]
    sign, target = np.where(P > 0.5, -1.0, 1.0), np.where(P > 0.5, 1.0 - P, P)
    comp = mu + sd * ndtri(P)
    lo, hi = comp.min(axis=0), comp.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # start where the component nearest the root alone holds the tail mass,
        # or for a median at the mean: the center of a mirror-symmetric mixture
        own = mu + sign * sd * ndtri(np.minimum(target / w[:, None, None], 1.0))
        x = np.where(sign > 0, own.min(axis=0), own.max(axis=0))
        x = np.clip(np.where(P == 0.5, (w[:, None, None] * mu).sum(axis=0), x), lo, hi)
        done = hi - lo <= 2.0 * (_XTOL + _RTOL * np.abs(x))
        for it in range(_MAXITER):
            if done.all():
                return x.reshape(p.shape)
            tail, dens = _mixture_sums(("cdf", "pdf"), w, mu, sd, x, sign)
            g = sign * np.log(tail / target)  # has the sign of F(x) - p
            step = x - g * tail / dens
            lo, hi = np.where(g < 0, x, lo), np.where(g > 0, x, hi)
            newton = (step >= lo) & (step <= hi) & (it < _NEWTON_STEPS)
            step = np.where(newton, step, 0.5 * (lo + hi))
            step = np.where(done, x, step)
            done |= np.abs(step - x) <= _XTOL + _RTOL * np.abs(step)
            x = step
    raise RuntimeError(f"mixture quantile: no convergence in {_MAXITER} steps")


def _uniform_family(lo, hi):
    width = hi - lo

    def pdf(x):
        x = np.asarray(x, float)
        return np.where((x >= lo) & (x <= hi), 1.0 / width, 0.0)

    def cdf(x):
        return np.clip((np.asarray(x, float) - lo) / width, 0.0, 1.0)

    def dpdf(x):
        return np.zeros_like(np.asarray(x, float))

    return _Family(pdf, cdf, dpdf, None)


# per family: its parameter names; the adapter building its _Family from
# them (None for a tabulated grid); for a family of vector parameters, the
# label's name for their length
_FamilyEntry = namedtuple("_FamilyEntry", "keys adapter count", defaults=(None,))
_FAMILIES = {
    "gaussian": _FamilyEntry(("mean", "sd"),
                             lambda mean, sd: _mixture_family([1.0], [mean], [sd])),
    "logistic": _FamilyEntry(("location", "scale"), _logistic_family),
    "laplace": _FamilyEntry(("location", "scale"), _laplace_family),
    "gaussian_mixture": _FamilyEntry(("weights", "means", "sds"), _mixture_family, "k"),
    "grid": _FamilyEntry(("abscissas", "density_values"), None, "n"),
    "uniform": _FamilyEntry(("lo", "hi"), _uniform_family),
}


def _make_family(spec: DistributionSpec) -> Optional[_Family]:
    keys, adapter, _ = _FAMILIES[spec.family]
    return adapter(*(spec.params[k] for k in keys)) if adapter else None


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _spacing(xs: np.ndarray) -> Optional[float]:
    """Mean node step of a uniform grid (at least 3 nodes); None for any other grid."""
    h = np.diff(xs)
    if len(xs) >= 3 and (h.max() - h.min()) <= 1e-9 * h.mean():
        return float(h.mean())
    return None


def quadrature_weights(xs: np.ndarray) -> np.ndarray:
    """Interpolatory quadrature weights: parabolic on uniform grids, else trapezoid.

    On a uniform grid, cell i ([x_i, x_{i+1}]) integrates the parabola
    through the node triple starting at ``base``, the even index at or below
    i (the last triple for the final cell of an even node count), so no
    parabola straddles an even-index pair boundary, matching the kink
    placement of materialized grids.  The weights reproduce composite Simpson on even
    cell counts and keep fourth-order accuracy on odd ones.  Every integral
    over a grid uses these weights, except a ``grid`` spec's normalization
    and node CDF, which are one cumulative trapezoid sum (:func:`materialize`).
    """
    xs = np.asarray(xs, float)
    h = _spacing(xs)
    if h is None:
        dx = np.diff(xs)
        w = np.zeros_like(xs)
        w[:-1] += 0.5 * dx
        w[1:] += 0.5 * dx
        return w
    n = len(xs)
    i = np.arange(n - 1)
    base = np.minimum(i - i % 2, n - 3)
    coef = np.where((i == base)[:, None], [5.0, 8.0, -1.0], [-1.0, 8.0, 5.0])  # units of h/12
    # bincount adds the cell contributions in cell order, node by node
    return np.bincount((base[:, None] + np.arange(3)).ravel(),
                       weights=(coef * h / 12.0).ravel(), minlength=n)


# ---------------------------------------------------------------------------
# grid density
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Tabulated density/CDF pair with interpolation-based evaluation.

    ``xs`` is strictly increasing; ``fs`` holds density values and ``Fs`` CDF
    values at the nodes.  ``j_range`` is derived from ``Fs``: it is the grid's
    J(F), the slice of nodes whose CDF clears the boundary trim, lying in
    [BOUNDARY_TRIM * MASS_TOL, 1 - BOUNDARY_TRIM * MASS_TOL]; every shape
    check reads that range, and one of fewer than two nodes is refused here.
    ``total_mass`` defaults to the :meth:`quadrature_mass` of the tabulated
    density.  The checks are :func:`_check_grids` on this one grid.
    """

    xs: np.ndarray
    fs: np.ndarray
    Fs: np.ndarray
    j_range: slice = field(init=False)
    total_mass: Optional[float] = None
    label: str = "grid"
    pdf_fn: Optional[Callable] = field(default=None, repr=False)
    cdf_fn: Optional[Callable] = field(default=None, repr=False)
    dpdf_fn: Optional[Callable] = field(default=None, repr=False)
    kink_x: Optional[float] = None
    uniform_bounds: Optional[tuple] = None  # set for the uniform family; its
    # density is discontinuous, which convolution must treat in closed form

    def __post_init__(self):
        if not (len(self.xs) == len(self.fs) == len(self.Fs)):
            raise SpecError("invalid spec: xs/fs/Fs lengths differ")
        if self.total_mass is None:  # NaN or inf for non-finite arrays, refused below
            with np.errstate(invalid="ignore", over="ignore"):
                object.__setattr__(self, "total_mass", self.quadrature_mass())
        start, stop = _check_grids(self.xs, self.fs, self.Fs, self.total_mass)
        object.__setattr__(self, "j_range", slice(int(start), int(stop)))

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
        if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
            raise DomainError("quantile domain: p must lie strictly inside (0, 1)")
        Ftab, xtab = self._quantile_table
        out = np.interp(p_arr, Ftab, xtab)
        return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out

    def median(self) -> float:
        return float(self.quantile(0.5))

    def functions(self) -> tuple[Callable, Callable]:
        """pdf and cdf: exact when the family has them, else interpolated at the nodes."""
        return (self.pdf_fn or self.pdf, self.cdf_fn or self.cdf)

    def node_derivatives(self) -> np.ndarray:
        """Density derivative at every grid node.

        The family's closed-form f' when it has one, else second-order finite
        differences of the node values (a tabulated or convolved density).
        """
        if self.dpdf_fn is not None:
            return np.asarray(self.dpdf_fn(self.xs), dtype=float)
        return np.gradient(self.fs, self.xs, edge_order=2)

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
        _write_csv(path, ("x", "f", "F"), zip(self.xs, self.fs, self.Fs))


def _check_grids(xs: np.ndarray, fs: np.ndarray, Fs: np.ndarray, total_mass):
    """Validate grids stacked along the leading axes, nodes on the last one.

    Refuses, in this order and for any grid of the stack: abscissas not
    strictly increasing and finite, a density value not >= 0 and finite,
    CDF values not nondecreasing (to -1e-12 per step) and finite, a J(F)
    (the nodes whose CDF lies in [BOUNDARY_TRIM * MASS_TOL,
    1 - BOUNDARY_TRIM * MASS_TOL]) of fewer than two nodes, and a
    ``total_mass`` (one per grid, or one for all) missing 1 by more than
    MASS_TOL.  Every test is stated as what must hold, so a NaN fails it.
    Returns the start and stop arrays of each grid's J(F) slice.
    """
    if not ((xs[..., 1:] > xs[..., :-1]).all() and np.isfinite(xs).all()):
        raise SpecError("invalid spec: abscissas must be strictly increasing and finite")
    if not ((fs >= 0) & (fs < np.inf)).all():
        raise SpecError("invalid spec: density values must be >= 0 and finite")
    if not ((Fs[..., 1:] - Fs[..., :-1] >= -1e-12).all() and np.isfinite(Fs).all()):
        raise SpecError("invalid spec: CDF values must be nondecreasing and finite")
    trim = BOUNDARY_TRIM * MASS_TOL
    inside = (Fs >= trim) & (Fs <= 1.0 - trim)
    if not inside.any(axis=-1).all():
        raise DegenerateDensityError("degenerate density: J(F) empty")
    start = inside.argmax(axis=-1)
    stop = inside.shape[-1] - inside[..., ::-1].argmax(axis=-1)
    if not (stop - start >= 2).all():
        raise DegenerateDensityError("degenerate density: J(F) has a single node")
    miss = np.asarray(total_mass, dtype=float) - 1.0
    bad = ~(np.abs(miss) <= MASS_TOL)
    if bad.any():
        raise DegenerateDensityError(
            f"degenerate density: total mass misses 1 by {miss.flat[bad.argmax()]:+.3g} "
            f"(tolerance {MASS_TOL:g})"
        )
    return start, stop


def _node_values(g: GridDensity, test_fn) -> np.ndarray:
    """A test function's values at the nodes of ``g``, all finite.

    ``test_fn`` is a callable, evaluated at ``g.xs``, or an array of node values.
    """
    values = np.asarray(test_fn(g.xs) if callable(test_fn) else test_fn, dtype=float)
    if values.shape != g.xs.shape:
        raise ValueError("test function must have one value per grid node")
    if not np.all(np.isfinite(values)):
        raise ValueError("test function must be finite at all grid nodes")
    return values


def materialize(spec: DistributionSpec, n_points: int = 2048) -> GridDensity:
    """Tabulate a distribution spec onto a grid.

    Analytic families are truncated to a window holding at least
    ``DEFAULT_COVERAGE`` of their mass and renormalized; the window is laid
    out so that the family anchor (location parameter, or a mixture's median
    solved from its mean) falls exactly on an even-index node.  Grid specs
    keep their given abscissas; their density and node CDF are divided by
    the mass, the last value of the cumulative trapezoid sum.
    """
    if spec.family == "grid":
        xs = np.asarray(spec.params["abscissas"], dtype=float)
        fs = np.asarray(spec.params["density_values"], dtype=float)
        # cumulative trapezoid, 0 at the first node: the mass is its last value
        Fs = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(xs) * (fs[1:] + fs[:-1]))))
        mass = Fs[-1]
        if mass <= 0.0:
            raise DegenerateDensityError("degenerate density: zero total mass")
        return GridDensity(xs=xs, fs=fs / mass, Fs=np.clip(Fs / mass, 0.0, 1.0),
                           total_mass=1.0, label=spec.label())

    _require_grid_size(n_points)
    fam = _make_family(spec)
    if spec.family == "uniform":
        lo, hi = spec.params["lo"], spec.params["hi"]
        xs = np.linspace(lo, hi, n_points)
        fs = np.full(n_points, 1.0 / (hi - lo))
        Fs = (xs - lo) / (hi - lo)
        return GridDensity(
            xs=xs, fs=fs, Fs=Fs, total_mass=1.0, label=spec.label(),
            pdf_fn=fam.pdf, cdf_fn=fam.cdf, dpdf_fn=fam.dpdf,
            uniform_bounds=(lo, hi),
        )

    return _tabulate(fam, n_points, spec.label())


def _tabulate_rows(windows, n_points: int, pdf_cdf: Callable):
    """Analytic densities on ``n_points`` nodes over their windows, renormalized.

    ``windows`` is (left, anchor, right), three arrays of shape (R,); row r
    gets evenly spaced nodes with its anchor on an even node index, so kinks
    never sit inside a parabolic pair.  ``pdf_cdf`` maps the (R, n) nodes to
    the unnormalized pdf and CDF there, row r being density r.  Returns the
    nodes, the pdf and the CDF divided by each row's window mass Z, the CDF
    counted from the first node, and each row's first CDF value and Z.
    """
    left, anchor, right = np.asarray(windows, dtype=float)[..., None]
    i0 = n_points // 2
    if i0 % 2 == 1:
        i0 -= 1
    h = np.maximum((anchor - left) / i0, (right - anchor) / (n_points - 1 - i0))
    xs = anchor + (np.arange(n_points) - i0) * h

    f_raw, F_raw = (np.asarray(v, dtype=float) for v in pdf_cdf(xs))
    F0 = F_raw[:, :1]
    Z = F_raw[:, -1:] - F0
    if not (Z > 0.0).all():
        raise DegenerateDensityError("degenerate density: window carries no mass")
    return xs, f_raw / Z, np.clip((F_raw - F0) / Z, 0.0, 1.0), F0[:, 0], Z[:, 0]


def _tabulate(fam: _Family, n_points: int, label: str) -> GridDensity:
    """An analytic family on ``n_points`` nodes over its window: the one-row
    case of :func:`_tabulate_rows`."""
    (xs,), (fs,), (Fs,), (F0,), (Z,) = _tabulate_rows(
        [[v] for v in fam.window], n_points, lambda x: (fam.pdf(x), fam.cdf(x)))
    return GridDensity(
        xs=xs, fs=fs, Fs=Fs, total_mass=1.0, label=label,
        pdf_fn=lambda x: fam.pdf(x) / Z,
        cdf_fn=lambda x: np.clip((fam.cdf(x) - F0) / Z, 0.0, 1.0),
        dpdf_fn=lambda x: fam.dpdf(x) / Z, kink_x=fam.kink,
    )
