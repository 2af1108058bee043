"""Reference computations the benchmark checks blc_lab against.

Nothing here imports blc_lab.  Densities are evaluated in log space with
``scipy.special`` (``log_ndtr`` and ``logsumexp``), so tail values of F and
1 - F keep their relative accuracy where the program works with plain
floats.  The families are the ones the benchmark feeds the program:

* Gaussian mixtures in any number of batched shapes (a single 1-D mixture,
  or one projected mixture per direction of a scan);
* the closed-form convolutions mixture * Gaussian, mixture * mixture and
  mixture * uniform box;
* the log-concave families Gaussian, logistic, Laplace and uniform, for
  their exact medians, moments and 2 f(median).

The bi-log-concavity margin is the relative room of the two inequalities

    f' F - f^2 <= 0        and        -f' (1 - F) - f^2 <= 0,

that is ``min(1 - f' F / f^2, 1 + f' (1 - F) / f^2)`` minimized over the
central quantile range [P_TRIM, 1 - P_TRIM].  It is negative exactly where
F or 1 - F fails to be log-concave, in the same scale-free units as the
program's derivative-sandwich slack.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

# boundary trim of the README's numerical conventions: 10 * mass_tol (1e-6)
P_TRIM = 1e-5
_LOG_SQRT2PI = 0.5 * math.log(2.0 * math.pi)


class Mixture:
    """Gaussian mixture sum_k w_k N(mu_k, sd_k^2), batched over leading axes.

    ``weights``, ``means`` and ``sds`` broadcast to a common shape (..., K);
    evaluation points have shape (..., M) with the same leading axes, and
    results have shape (..., M).
    """

    def __init__(self, weights, means, sds):
        w, mu, sd = np.broadcast_arrays(np.asarray(weights, float),
                                        np.asarray(means, float),
                                        np.asarray(sds, float))
        if np.any(sd <= 0) or np.any(w < 0):
            raise ValueError("mixture needs sds > 0 and weights >= 0")
        self.w, self.mu, self.sd = w, mu, sd
        with np.errstate(divide="ignore"):
            self._logw = np.log(w)

    def _z(self, x):
        x = np.asarray(x, float)
        return (x[..., None] - self.mu[..., None, :]) / self.sd[..., None, :]

    def _log_components(self, x):
        z = self._z(x)
        return (self._logw[..., None, :] - 0.5 * z * z
                - np.log(self.sd)[..., None, :] - _LOG_SQRT2PI)

    def logpdf(self, x):
        return special.logsumexp(self._log_components(x), axis=-1)

    def logcdf(self, x):
        return special.logsumexp(self._logw[..., None, :] + special.log_ndtr(self._z(x)),
                                 axis=-1)

    def logsf(self, x):
        return special.logsumexp(self._logw[..., None, :] + special.log_ndtr(-self._z(x)),
                                 axis=-1)

    def score(self, x):
        """f'/f, as a posterior-weighted average of the component scores."""
        lc = self._log_components(x)
        post = np.exp(lc - special.logsumexp(lc, axis=-1, keepdims=True))
        z = self._z(x)
        return np.sum(post * (-z / self.sd[..., None, :]), axis=-1)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def cdf(self, x):
        return np.exp(self.logcdf(x))

    def ppf(self, p):
        """Quantile by bisection on log F or log(1 - F), batched."""
        p = float(p)
        lo = np.min(self.mu - 40.0 * self.sd, axis=-1)
        hi = np.max(self.mu + 40.0 * self.sd, axis=-1)
        if p <= 0.5:
            target, fn, sign = math.log(p), self.logcdf, 1.0
        else:
            target, fn, sign = math.log1p(-p), self.logsf, -1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            above = sign * (fn(mid[..., None])[..., 0] - target) > 0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
            if np.all(hi - lo <= 1e-13 * np.maximum(1.0, np.abs(mid))):
                break
        return 0.5 * (lo + hi)

    def median(self):
        return self.ppf(0.5)

    def mean(self):
        return np.sum(self.w * self.mu, axis=-1)

    def var(self):
        m = self.mean()
        return np.sum(self.w * (self.sd**2 + (self.mu - m[..., None]) ** 2), axis=-1)

    def convolve(self, other: "Mixture") -> "Mixture":
        """Closed-form convolution with another (unbatched) mixture."""
        w = (self.w[..., :, None] * other.w).reshape(self.w.shape[:-1] + (-1,))
        mu = (self.mu[..., :, None] + other.mu).reshape(w.shape)
        sd = np.sqrt(self.sd[..., :, None] ** 2 + other.sd**2).reshape(w.shape)
        return Mixture(w, mu, sd)

    @staticmethod
    def gaussian(mean, sd) -> "Mixture":
        return Mixture([1.0], [mean], [sd])


def blc_margins(mix: Mixture, x):
    """Pointwise normalized margins of the two log-concavity inequalities."""
    lf = mix.logpdf(x)
    s = mix.score(x)
    upper = 1.0 - s * np.exp(mix.logcdf(x) - lf)   # sign of f' F - f^2, flipped
    lower = 1.0 + s * np.exp(mix.logsf(x) - lf)    # sign of -f'(1-F) - f^2, flipped
    return np.minimum(upper, lower)


def blc_margin(mix: Mixture, n: int = 4001, p_trim: float = P_TRIM):
    """Worst margin over [F^-1(p_trim), F^-1(1 - p_trim)] and where it occurs.

    A dense scan locates the minimum; a bounded scalar minimization between
    the neighbouring scan points then polishes it.  Unbatched mixtures only.
    """
    lo, hi = float(mix.ppf(p_trim)), float(mix.ppf(1.0 - p_trim))
    xs = np.linspace(lo, hi, n)
    m = blc_margins(mix, xs)
    k = int(np.argmin(m))
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, n - 1)]
    res = optimize.minimize_scalar(lambda t: float(blc_margins(mix, np.array([t]))[0]),
                                   bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-10})
    if res.fun < m[k]:
        return float(res.fun), float(res.x)
    return float(m[k]), float(xs[k])


def batched_blc_margins(mix: Mixture, n: int = 1201, chunk: int = 64) -> np.ndarray:
    """Dense-scan worst margin of every mixture in a batch of shape (D, K)."""
    out = np.empty(mix.w.shape[0])
    for a in range(0, len(out), chunk):
        part = Mixture(mix.w[a:a + chunk], mix.mu[a:a + chunk], mix.sd[a:a + chunk])
        lo, hi = part.ppf(P_TRIM), part.ppf(1.0 - P_TRIM)
        t = np.linspace(0.0, 1.0, n)
        xs = lo[:, None] + (hi - lo)[:, None] * t
        out[a:a + chunk] = blc_margins(part, xs).min(axis=-1)
    return out


# ---------------------------------------------------------------------------
# log-concave families: exact medians, moments, and 2 f(median)
# ---------------------------------------------------------------------------

def family_margin(family: str, params: dict) -> float:
    """Worst bi-log-concavity margin of a family over the central quantile range.

    Logistic tails meet the lower inequality with equality in the limit, so
    its margin is the trim level's odds; Laplace meets it exactly on each
    side of its kink; a uniform density has f' = 0 and margin 1.
    """
    if family == "gaussian_mixture":
        return blc_margin(mixture_of(params))[0]
    if family == "gaussian":
        return blc_margin(Mixture.gaussian(params["mean"], params["sd"]))[0]
    if family == "logistic":
        return P_TRIM / (1.0 - P_TRIM)
    if family == "laplace":
        return 0.0
    if family == "uniform":
        return 1.0
    raise ValueError(f"no margin for family {family!r}")


def family_facts(family: str, params: dict) -> dict:
    """Exact median, mean, variance and isoperimetric constant 2 f(median)."""
    if family == "gaussian":
        m, s = params["mean"], params["sd"]
        return {"median": m, "mean": m, "var": s * s,
                "two_f_median": 2.0 / (s * math.sqrt(2.0 * math.pi))}
    if family == "logistic":
        m, s = params["location"], params["scale"]
        return {"median": m, "mean": m, "var": (math.pi * s) ** 2 / 3.0,
                "two_f_median": 0.5 / s}
    if family == "laplace":
        m, s = params["location"], params["scale"]
        return {"median": m, "mean": m, "var": 2.0 * s * s, "two_f_median": 1.0 / s}
    if family == "uniform":
        lo, hi = params["lo"], params["hi"]
        return {"median": 0.5 * (lo + hi), "mean": 0.5 * (lo + hi),
                "var": (hi - lo) ** 2 / 12.0, "two_f_median": 2.0 / (hi - lo)}
    if family == "gaussian_mixture":
        mix = Mixture(params["weights"], params["means"], params["sds"])
        med = float(mix.median())
        return {"median": med, "mean": float(mix.mean()), "var": float(mix.var()),
                "two_f_median": 2.0 * float(mix.pdf(np.array([med]))[0])}
    raise ValueError(f"no closed form for family {family!r}")


def quantile_profile(family: str, params: dict, ps) -> np.ndarray:
    """I(p) = f(F^{-1}(p)) in closed form (mixtures: by bisection)."""
    ps = np.asarray(ps, float)
    if family == "gaussian":
        z = special.ndtri(ps)
        return np.exp(-0.5 * z * z) / (params["sd"] * math.sqrt(2.0 * math.pi))
    if family == "logistic":
        return ps * (1.0 - ps) / params["scale"]
    if family == "laplace":
        return np.minimum(ps, 1.0 - ps) / params["scale"]
    if family == "uniform":
        return np.full(ps.shape, 1.0 / (params["hi"] - params["lo"]))
    if family == "gaussian_mixture":
        mix = mixture_of(params)
        return np.array([float(mix.pdf(np.array([mix.ppf(p)]))[0]) for p in ps])
    raise ValueError(f"no closed form for family {family!r}")


def mixture_of(params: dict) -> Mixture:
    return Mixture(params["weights"], params["means"], params["sds"])


def mixture_box_pdf(mix: Mixture, lo: float, hi: float, x):
    """Density of X + U[lo, hi] for a mixture X: (F_X(x - lo) - F_X(x - hi)) / width."""
    x = np.asarray(x, float)
    z_a = (x[..., None] - lo - mix.mu) / mix.sd
    z_b = (x[..., None] - hi - mix.mu) / mix.sd
    return np.sum(mix.w * (special.ndtr(z_a) - special.ndtr(z_b)), axis=-1) / (hi - lo)


def mixture_box_cdf(mix: Mixture, lo: float, hi: float, x):
    """CDF of X + U[lo, hi] from the antiderivative G(z) = z Phi(z) + phi(z) of Phi."""
    def G(z):
        return z * special.ndtr(z) + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    x = np.asarray(x, float)
    z_a = (x[..., None] - lo - mix.mu) / mix.sd
    z_b = (x[..., None] - hi - mix.mu) / mix.sd
    return np.sum(mix.w * mix.sd * (G(z_a) - G(z_b)), axis=-1) / (hi - lo)


def smoothing_l1(mix: Mixture, sigma: float, n: int = 20001) -> float:
    """L1 distance between a mixture and its convolution with N(0, sigma^2)."""
    smooth = mix.convolve(Mixture.gaussian(0.0, sigma))
    lo = float(smooth.ppf(1e-12))
    hi = float(smooth.ppf(1.0 - 1e-12))
    xs = np.linspace(lo, hi, n)
    return float(np.trapezoid(np.abs(smooth.pdf(xs) - mix.pdf(xs)), xs))


# ---------------------------------------------------------------------------
# directions on the half-sphere
# ---------------------------------------------------------------------------

def fine_directions(dimension: int, count: int) -> np.ndarray:
    """Dense reference directions: an angular grid in 2-D, a Fibonacci cap in 3-D."""
    if dimension == 2:
        theta = np.pi * (np.arange(count) + 0.5) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dimension == 3:
        k = np.arange(count) + 0.5
        z = k / count
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        r = np.sqrt(1.0 - z * z)
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise ValueError("reference directions cover dimensions 2 and 3")


def line_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between the lines spanned by the rows of a and the rows of b."""
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    return np.arccos(np.clip(np.abs(a @ b.T), 0.0, 1.0))


def angular_step(directions: np.ndarray) -> float:
    """Largest angle from a scan direction to its nearest neighbouring line."""
    ang = line_angles(directions, directions)
    np.fill_diagonal(ang, np.inf)
    return float(ang.min(axis=1).max())


def projected_mixture(weights, means, covs, dirs) -> Mixture:
    """Law of Y.u for every row u of ``dirs``: a (D, K) batch of 1-D mixtures."""
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    mu = dirs @ np.asarray(means, float).T
    var = np.einsum("di,kij,dj->dk", dirs, np.asarray(covs, float), dirs)
    return Mixture(np.broadcast_to(weights, mu.shape), mu, np.sqrt(var))


def halfspace_profile(weights, means, covs, dirs, ps) -> np.ndarray:
    """Directional infimum of f_u(F_u^{-1}(p)) over the given directions.

    Projections of a mirror-closed mixture are symmetric, so the half-space
    profile of each direction is its quantile profile on p <= 1/2.
    """
    mix = projected_mixture(weights, means, covs, dirs)
    vals = np.empty((len(dirs), len(ps)))
    for j, p in enumerate(ps):
        q = mix.ppf(min(p, 1.0 - p))
        vals[:, j] = np.exp(mix.logpdf(q[:, None])[:, 0])
    return vals.min(axis=0)


def ratio_margin(ps, values) -> float:
    """Worst relative step of p -> I(p)/p (nonincreasing when nonnegative)."""
    r = np.asarray(values) / np.asarray(ps)
    return float(np.min(-np.diff(r) / np.maximum(r[1:], r[:-1])))
