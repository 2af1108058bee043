"""Gaussian-mixture measures on R^d and their line projections.

The measure class is the finite Gaussian mixtures, so every projection onto
a line through the origin is a one-dimensional Gaussian mixture in closed
form: direction u turns component (w, mu, Sigma) into (w, mu . u, u^T Sigma u).
That reduction carries the whole one-dimensional machinery — certification,
half-space profiles, convolution — to R^d through deterministic direction
scans on the half-sphere: certification tabulates and checks the lines in
row blocks of at most 8192 cells (``core._BLOCK_CELLS``), each line's
certificate equal bit for bit to that of its own :func:`project_to_line`
grid, while the half-space profile solves every line's quantiles in closed
form.  Both evaluate the projected mixtures with core's one mixture
kernel, :func:`core._mixture_sums`, on (k, R, 1) component stacks.
Antipodal directions are redundant: -u projects to the law of -Y.u, and BLC
and the half-space profile are invariant under that reflection; parallel
lines only translate the projected law.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .certify import (_BLC_CONDITION, Certificate, CertifyOptions, Status, _sandwich_rows,
                      combined_status)
from .core import (DomainError, GridDensity, SpecError, _block_rows, _check_grids,
                   _json_numbers, _mixture_family, _mixture_quantile, _mixture_sums,
                   _mixture_windows, _read_json, _tabulate, _tabulate_rows, _write_csv)
from .isoperimetry import IsoProfile, weak_blc_ratio_check

EIGENVALUE_FLOOR = 1e-10
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SymmetricMixtureNd:
    """Gaussian mixture on R^d, any finite one.

    The name is historical: the components need not be mirror-symmetric.
    Covariances must clear a positive-definiteness floor so every projection
    has a density.
    """

    dimension: int
    weights: np.ndarray
    means: np.ndarray        # (k, d)
    covariances: np.ndarray  # (k, d, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariances, dtype=float)
        d = int(self.dimension)
        if d < 1:
            raise SpecError("invalid spec: dimension must be >= 1")
        if mu.shape != (len(w), d):
            raise SpecError("invalid spec: means must be k x d, one row per weight")
        if cov.shape != (len(w), d, d):
            raise SpecError("invalid spec: covariances must be k x d x d")
        if not all(np.isfinite(a).all() for a in (w, mu, cov)):
            raise SpecError("invalid spec: weights, means and covariances must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise SpecError("invalid spec: weights must be a probability vector")
        for i, S in enumerate(cov):
            if not np.allclose(S, S.T, atol=1e-12):
                raise SpecError(f"invalid spec: covariance {i} not symmetric")
            if np.linalg.eigvalsh(S).min() <= EIGENVALUE_FLOOR:
                raise SpecError(
                    f"invalid spec: covariance {i} below the eigenvalue floor")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @staticmethod
    def from_json(source) -> "SymmetricMixtureNd":
        """Load a measure from a JSON file path, file object, or dict.

        Every entry must be a JSON number, as in one-dimensional specs, and
        ``dimension`` an integer one.
        """
        doc = _read_json(source)
        try:
            d = _json_numbers(doc["dimension"], 0, "dimension")
            comps = doc["components"]
            w = _json_numbers([c["weight"] for c in comps], 1, "weights")
            mu = _json_numbers([c["mean"] for c in comps], 2, "means")
            cov = _json_numbers([c["cov"] for c in comps], 3, "covariances")
        except (KeyError, TypeError) as exc:
            raise SpecError(f"invalid spec: {exc}") from exc
        if d != int(d):
            raise SpecError("invalid spec: dimension must be an integer")
        return SymmetricMixtureNd(int(d), w, mu, cov)

    def to_json(self) -> str:
        comps = [
            {"weight": float(w), "mean": list(map(float, m)), "cov": c.tolist()}
            for w, m, c in zip(self.weights, self.means, self.covariances)
        ]
        return json.dumps({"dimension": self.dimension, "components": comps},
                          sort_keys=True)


def direction_set(dimension: int, n_directions: int) -> np.ndarray:
    """Deterministic unit directions covering the half-sphere.

    d=1: the single axis; d=2: a uniform angular grid on [0, pi) that is
    nested under doubling and contains both axes; d=3: a golden-angle
    spiral on the upper hemisphere; d>3: a seeded Gaussian draw, sign-
    canonicalized.  A Violated scan verdict is conclusive; a Certified one
    holds up to this resolution.
    """
    d, n = int(dimension), int(n_directions)
    if d < 1 or n < 1:
        raise ValueError("dimension and n_directions must be >= 1")
    if d == 1:
        return np.array([[1.0]])
    if d == 2:
        theta = np.pi * np.arange(n) / n
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if d == 3:
        k = np.arange(n) + 0.5
        z = k / n
        phi = 2.0 * np.pi * k / _GOLDEN
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(0xB10C)
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    lead = np.argmax(np.abs(raw) > 1e-12, axis=1)
    signs = np.sign(raw[np.arange(n), lead])
    return raw * signs[:, None]


def project_to_line(m: SymmetricMixtureNd, u: Sequence[float],
                    n_grid: int = 2048) -> GridDensity:
    """Law of Y.u for Y ~ m: a 1-D Gaussian mixture, materialized at its median."""
    u = np.asarray(u, dtype=float)
    if u.shape != (m.dimension,):
        raise SpecError(f"invalid spec: direction must have {m.dimension} coordinates")
    if np.linalg.norm(u) == 0.0:
        raise SpecError("invalid spec: direction must be a nonzero vector")
    _require_grid_size(n_grid)
    (mu,), (sd,) = _projected_components(m, u[None])
    return _tabulate(_mixture_family(m.weights, mu, sd), n_grid,
                     f"gaussian_mixture(k={m.n_components})")


def _require_grid_size(n_grid: int):
    if n_grid < 64:
        raise SpecError("invalid spec: n_points must be >= 64")


def _projected_components(m: SymmetricMixtureNd, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k) component means and sds of m's projections on the lines of U's rows."""
    U = U / np.sqrt((U * U).sum(axis=1, keepdims=True))
    means = (U[:, None, :] * m.means).sum(axis=-1)
    variances = (U[:, None, :, None] * m.covariances * U[:, None, None, :]).sum(axis=(-2, -1))
    sds = np.sqrt(np.maximum(variances, EIGENVALUE_FLOOR))
    if not (np.isfinite(means).all() and np.isfinite(sds).all()):
        raise SpecError("invalid spec: gaussian_mixture parameters must be finite")
    return means, sds


def _scan_directions(m: SymmetricMixtureNd, n_directions: int) -> np.ndarray:
    if n_directions < 2 * m.dimension:
        raise SpecError("n_directions must be at least 2 * dimension")
    return direction_set(m.dimension, n_directions)


@dataclass(frozen=True)
class DirectionScan:
    """Per-direction certificates of a half-sphere scan."""

    directions: np.ndarray
    certificates: tuple[Certificate, ...]
    worst_direction: np.ndarray
    verdict: Status

    def slacks(self) -> np.ndarray:
        return np.array([c.slack for c in self.certificates])

    @property
    def resolution(self) -> float:
        """Half the largest angle from a scanned line to its nearest other one.

        Antipodal directions span the same line.  This is pi/(2n) for the
        planar grid, an estimate of the covering radius for d >= 3, and 0.0
        when a single line is scanned.
        """
        u = self.directions
        if len(u) < 2:
            return 0.0
        nearest = 1.0
        for lo in range(0, len(u), 256):  # bounded (256, n) blocks of |cos|
            cos = np.abs(u[lo:lo + 256] @ u.T)
            rows = np.arange(len(cos))
            cos[rows, lo + rows] = -1.0
            nearest = min(nearest, float(cos.max(axis=1).min()))
        return 0.5 * math.acos(nearest)

    def to_csv(self, path):
        d = self.directions.shape[1]
        header = [f"u_{i + 1}" for i in range(d)] + ["slack", "status"]
        _write_csv(path, header, ((*u, cert.slack, cert.status.value)
                                  for u, cert in zip(self.directions, self.certificates)))


def weak_star_check(
    m: SymmetricMixtureNd,
    n_directions: int,
    n_grid: int = 2048,
    opts: CertifyOptions = CertifyOptions(),
) -> DirectionScan:
    """Certify bi-log-concavity of every scanned line projection.

    The lines are tabulated and certified in blocks of ``_block_rows(n_grid)``
    rows (rows * n_grid <= 8192 cells, 64 KB per array): per block, one call
    of the mixture kernel evaluates each component once on the (rows,
    n_grid) nodes, pdf and CDF from one z, and the grid checks and
    derivative-sandwich margins run along the last axis with every row's own
    J(F).  No row depends on the others, so each certificate equals
    ``certify_blc(project_to_line(m, u, n_grid), opts)`` bit for bit.  The
    verdict aggregates the per-direction certificates (any violation wins,
    then any inconclusive); ``worst_direction`` minimizes the slack.
    """
    dirs = _scan_directions(m, n_directions)
    _require_grid_size(n_grid)
    means, sds = _projected_components(m, dirs)
    windows = np.array(_mixture_windows(m.weights, means, sds))
    rows, certs = _block_rows(n_grid), []
    for lo in range(0, len(dirs), rows):
        block = slice(lo, lo + rows)
        xs, fs, Fs, _, _ = _tabulate_rows(
            windows[:, block], n_grid,
            partial(_mixture_sums, ("pdf", "cdf"), m.weights,
                    means[block].T[..., None], sds[block].T[..., None]))
        starts, stops = _check_grids(xs, fs, Fs, 1.0)
        certs += _sandwich_rows(xs, fs, Fs, starts, stops, opts.tolerance, _BLC_CONDITION)
    worst = dirs[int(np.argmin([c.slack for c in certs]))]
    return DirectionScan(directions=dirs, certificates=tuple(certs),
                         worst_direction=worst, verdict=combined_status(certs))


def halfspace_profile_nd(
    m: SymmetricMixtureNd,
    ps: Sequence[float],
    n_directions: int,
    n_grid: int = 2048,
) -> IsoProfile:
    """Half-space profile as the directional infimum of projected profiles.

    Each line's min{f_u(F_u^{-1}(p)), f_u(F_u^{-1}(1-p))} is solved in closed
    form, to the mixture quantile solver's tolerance, for 256 lines per call;
    ``n_grid`` has no effect.  A p outside (0, 1) raises :class:`DomainError`.
    """
    ps = np.asarray(ps, dtype=float)
    if not np.all((ps > 0.0) & (ps < 1.0)):
        raise DomainError("quantile domain: p must lie strictly inside (0, 1)")
    U, values = _scan_directions(m, n_directions), np.inf
    for lo in range(0, len(U), 256):
        means, sds = _projected_components(m, U[lo:lo + 256])
        x = _mixture_quantile(np.tile(np.concatenate([ps, 1.0 - ps]), (len(means), 1)),
                              m.weights, means, sds)
        fs, = _mixture_sums(("pdf",), m.weights, means.T[..., None], sds.T[..., None], x)
        values = np.minimum(values, fs.reshape(len(means), 2, len(ps)).min(axis=(0, 1)))
    return IsoProfile(ps=ps, values=values, kind="halfspace_nd")


def weak_blc_check_nd(
    m: SymmetricMixtureNd,
    ps: Sequence[float],
    n_directions: int,
    n_grid: int = 2048,
) -> Certificate:
    """Ratio monotonicity of the scanned half-space profile (``n_grid`` has no effect)."""
    return weak_blc_ratio_check(halfspace_profile_nd(m, ps, n_directions, n_grid=n_grid))


def convolve_nd(m1: SymmetricMixtureNd, m2: SymmetricMixtureNd) -> SymmetricMixtureNd:
    """Closed-form mixture convolution: pairwise weights, summed means/covariances."""
    if m1.dimension != m2.dimension:
        raise SpecError("invalid spec: dimension mismatch")
    w = np.outer(m1.weights, m2.weights).ravel()
    mu = (m1.means[:, None, :] + m2.means[None, :, :]).reshape(-1, m1.dimension)
    cov = (m1.covariances[:, None] + m2.covariances[None, :]).reshape(
        -1, m1.dimension, m1.dimension)
    return SymmetricMixtureNd(m1.dimension, w, mu, cov)
