"""Symmetric Gaussian-mixture measures on R^d and their line projections.

The measure class is restricted to finite Gaussian mixtures whose component
set is closed under x -> -x, so every projection onto a line through the
origin is a symmetric one-dimensional Gaussian mixture in closed form:
direction u turns component (w, mu, Sigma) into (w, mu . u, u^T Sigma u).
That reduction carries the whole one-dimensional machinery — certification,
half-space profiles, convolution — to R^d through deterministic direction
scans on the half-sphere (antipodal directions are redundant for symmetric
measures, and parallel lines only translate the projected law).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .certify import (Certificate, CertifyOptions, Status, certify_blc,
                      combined_status)
from .core import (DistributionSpec, GridDensity, SpecError, materialize,
                   mirror_closed, _read_json, _write_csv)
from .isoperimetry import IsoProfile, halfspace_profile_1d, weak_blc_ratio_check

EIGENVALUE_FLOOR = 1e-10
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SymmetricMixtureNd:
    """Gaussian mixture on R^d, symmetric around the origin.

    Every component (w, mu, Sigma) must have a mirror (w, -mu, Sigma) in the
    component list (possibly itself when mu = 0); covariances must clear a
    positive-definiteness floor so every projection has a density.
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
        if not mirror_closed(w.tolist(), mu.tolist(),
                             cov.reshape(len(w), -1).tolist(), tol=1e-9, rtol=1e-5):
            raise SpecError(
                "invalid spec: component set is not closed under x -> -x")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @staticmethod
    def from_json(source) -> "SymmetricMixtureNd":
        doc = _read_json(source)
        try:
            d = int(doc["dimension"])
            comps = doc["components"]
            w = np.asarray([c["weight"] for c in comps], float)
            mu = np.asarray([c["mean"] for c in comps], float)
            cov = np.asarray([c["cov"] for c in comps], float)
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: ragged arrays
            raise SpecError(f"invalid spec: {exc}") from exc
        return SymmetricMixtureNd(d, w, mu, cov)

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
    """Law of Y.u for Y ~ m: a symmetric 1-D Gaussian mixture, materialized."""
    u = np.asarray(u, dtype=float)
    if u.shape != (m.dimension,):
        raise SpecError(f"invalid spec: direction must have {m.dimension} coordinates")
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise SpecError("invalid spec: direction must be a nonzero vector")
    u = u / norm
    means = m.means @ u
    variances = np.einsum("i,kij,j->k", u, m.covariances, u)
    spec = DistributionSpec.gaussian_mixture(
        m.weights, means, np.sqrt(np.maximum(variances, EIGENVALUE_FLOOR)))
    return materialize(spec, n_points=n_grid)


def _projections(m: SymmetricMixtureNd, n_directions: int,
                 n_grid: int) -> Iterator[tuple[np.ndarray, GridDensity]]:
    """Scanned directions with their projected laws, one grid alive at a time."""
    if n_directions < 2 * m.dimension:
        raise SpecError("n_directions must be at least 2 * dimension")
    for u in direction_set(m.dimension, n_directions):
        yield u, project_to_line(m, u, n_grid=n_grid)


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

    The verdict aggregates the per-direction certificates (any violation
    wins, then any inconclusive); ``worst_direction`` minimizes the slack.
    """
    dirs, certs = [], []
    for u, g in _projections(m, n_directions, n_grid):
        dirs.append(u)
        certs.append(certify_blc(g, opts))
    dirs = np.array(dirs)
    worst = dirs[int(np.argmin([c.slack for c in certs]))]
    return DirectionScan(directions=dirs, certificates=tuple(certs),
                         worst_direction=worst, verdict=combined_status(certs))


def halfspace_profile_nd(
    m: SymmetricMixtureNd,
    ps: Sequence[float],
    n_directions: int,
    n_grid: int = 2048,
) -> IsoProfile:
    """Half-space profile as the directional infimum of projected profiles."""
    ps = np.asarray(ps, dtype=float)
    stacked = np.array([halfspace_profile_1d(g, ps).values
                        for _, g in _projections(m, n_directions, n_grid)])
    return IsoProfile(ps=ps, values=stacked.min(axis=0), kind="halfspace_nd")


def weak_blc_check_nd(
    m: SymmetricMixtureNd,
    ps: Sequence[float],
    n_directions: int,
    n_grid: int = 2048,
) -> Certificate:
    """Ratio monotonicity of the scanned half-space profile."""
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
