"""The four seeded workloads: their inputs, one operation each, and its checks.

A workload draws one *pass* of inputs from its seed during set-up.  Every
run repeats whole passes, so each run performs the same mix of operations
whatever the speed of the program.  ``run`` is the timed operation and goes
through the public API of ``blc_lab`` (or its command line); ``check``
compares the output with ``reference`` or with a property the paper
guarantees and returns the list of disagreements.  Checks read only the
attributes of the program's results, never call back into the program, so
they add nothing to a traced run's layer figures.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as R

# verdicts are compared only where the reference margin clears this band;
# inside it the answer depends on grid resolution and tolerance
BAND = 0.01
CONV_TOL = 1e-5  # certificate tolerance the library uses for convolution output


def _rel_err(got, want) -> float:
    return abs(float(got) - float(want)) / max(abs(float(want)), 1e-300)


def _mixture(weights, means, sds) -> dict:
    return {"family": "gaussian_mixture",
            "params": {"weights": [float(w) for w in weights],
                       "means": [float(m) for m in means],
                       "sds": [float(s) for s in sds]}}


def _family(family: str, **params) -> dict:
    return {"family": family, "params": {k: float(v) for k, v in params.items()}}


def _sym_mixture(rng, lo, hi, center=(-3.0, 3.0), scale=(0.5, 2.0)) -> dict:
    """Two equal components at center +- a*s with sd s, a drawn from [lo, hi]."""
    c, s, a = rng.uniform(*center), rng.uniform(*scale), rng.uniform(lo, hi)
    return _mixture([0.5, 0.5], [c - a * s, c + a * s], [s, s])


def _tabulated(model: dict, half_width: float, n: int = 401) -> dict:
    """Values of a family's (unnormalized) density on sinh-spaced abscissas."""
    p = model["params"]
    if model["family"] == "gaussian_mixture":
        loc, scale = float(np.dot(p["weights"], p["means"])), p["sds"][0]
    elif model["family"] == "gaussian":
        loc, scale = p["mean"], p["sd"]
    else:
        loc, scale = p["location"], p["scale"]
    u = np.linspace(-1.0, 1.0, n)
    xs = loc + scale * half_width * np.sinh(2.5 * u) / math.sinh(2.5)
    if model["family"] == "logistic":
        fs = 1.0 / np.cosh((xs - loc) / (2.0 * scale)) ** 2
    else:
        mix = R.mixture_of(model["params"]) if model["family"] == "gaussian_mixture" \
            else R.Mixture.gaussian(p["mean"], p["sd"])
        fs = mix.pdf(xs)
    return {"family": "grid",
            "params": {"abscissas": xs.tolist(), "density_values": fs.tolist()}}


def _affine_lc(rng) -> list[dict]:
    c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)
    return [_family("gaussian", mean=c, sd=s), _family("logistic", location=c, scale=s),
            _family("laplace", location=c, scale=s), _family("uniform", lo=c - s, hi=c + s)]


class Item:
    """One input of a pass; ``ref`` caches its reference values for the run."""

    def __init__(self, kind: str, **fields):
        self.kind = kind
        self.ref = None
        self.known_fault = fields.pop("known_fault", False)
        self.__dict__.update(fields)


class Workload:
    name = ""
    tail_pct: float  # fixed per workload; see the README for how it was chosen
    # time each input by its mean over the run, for operations short enough that
    # host contention makes each one's time bimodal (see the README)
    per_input_mean = False

    def __init__(self, blc, seed: int, workdir: Path):
        self.blc = blc
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.items = self.make_items()

    def make_items(self) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def run_traced(self, item: Item):
        """The in-process form of an operation, used by the traced run."""
        return self.run(item)

    def before(self, item: Item):
        """Untimed preparation right before an operation."""

    def failed(self, item: Item, out) -> bool:
        return False

    def check(self, item: Item, out) -> list[str]:
        raise NotImplementedError

    def warm_up(self):
        """Run each operation once on a reduced input, outside the timed phase."""


# ---------------------------------------------------------------------------
# certify_1d
# ---------------------------------------------------------------------------

N_1D = 2048
PS_1D = np.linspace(0.05, 0.95, 19)
RS_UNIT = np.linspace(0.25, 8.0, 16)


class Certify1D(Workload):
    """Materialize, certify, profile and, when certified, compute the constants."""

    name = "certify_1d"
    tail_pct = 75.0
    per_input_mean = True

    def make_items(self):
        # two draws of the 21 kinds, so that ten of the 42 inputs lie beyond p75
        items = self._draw() + self._draw()
        for it in items:
            it.spec = self.blc.DistributionSpec.from_json(getattr(it, "grid", it.model))
            it.scale = _scale_of(it.model)
        return items

    def _draw(self):
        rng, items = self.rng, []
        for lo, hi in [(0.6, 1.25)] * 4 + [(1.45, 2.5)] * 4:
            items.append(Item("mixture", model=_sym_mixture(rng, lo, hi)))
        for a in (1.34, 1.36):  # the flagship pair on both sides of the boundary
            items.append(Item("mixture", model=_sym_mixture(rng, a, a)))
        for lo, hi in ((0.5, 1.5), (0.5, 1.5), (3.0, 4.5), (3.0, 4.5)):
            c, s, w, sep = (rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0),
                            rng.uniform(0.2, 0.45), rng.uniform(lo, hi))
            items.append(Item("mixture", model=_mixture(
                [w, 1.0 - w], [c - sep * s * (1.0 - w), c + sep * s * w],
                s * rng.uniform(0.7, 1.3, 2))))
        for model in _affine_lc(rng):
            items.append(Item("log_concave", model=model))
        c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)
        for model, width, n in ((_family("gaussian", mean=c, sd=s), 8.0, 4001),
                                (_family("logistic", location=c, scale=s), 18.0, 401),
                                (_mixture([0.5, 0.5], [c - 2 * s, c + 2 * s], [s, s]), 10.0, 4001)):
            items.append(Item("tabulated", model=model, grid=_tabulated(model, width, n)))
        return items

    def run(self, item, n=N_1D):
        b = self.blc
        g = b.materialize(item.spec, n_points=n)
        cert = b.certify_blc(g)
        out = {"cert": cert, "essinf": b.bobkov_houdre_constant(g),
               "iso": b.iso_profile(g, PS_1D).values,
               "half": b.halfspace_profile_1d(g, PS_1D).values}
        if cert.status is b.Status.CERTIFIED:
            out["two_fm"] = b.blc_isoperimetric_constant(g, certificate=cert)
            out["conc"] = b.concentration_check(g, item.scale * RS_UNIT, certificate=cert)
        return out

    def warm_up(self):
        for it in self.items:
            self.run(it, n=256)

    def reference(self, item):
        if item.ref is None:
            fam, p = item.model["family"], item.model["params"]
            iso = R.quantile_profile(fam, p, PS_1D)
            item.ref = {
                "margin": None if item.kind == "log_concave" else R.family_margin(fam, p),
                "two_fm": R.family_facts(fam, p)["two_f_median"],
                "iso": iso,
                "half": np.minimum(iso, R.quantile_profile(fam, p, 1.0 - PS_1D)),
            }
        return item.ref

    def check(self, item, out):
        ref, cert, errs = self.reference(item), out["cert"], []
        certified = cert.status is self.blc.Status.CERTIFIED
        if item.kind == "log_concave":
            if not certified:  # log-concave => bi-log-concave
                errs.append(f"log-concave input not certified: {cert.status.value}")
        elif abs(ref["margin"]) > BAND:
            if certified != (ref["margin"] > 0):
                errs.append(f"verdict {cert.status.value} vs reference margin {ref['margin']:.4g}")
            if item.kind == "mixture" and not certified and _rel_err(cert.slack, ref["margin"]) > 1e-3:
                errs.append(f"slack {cert.slack:.6g} vs reference margin {ref['margin']:.6g}")
        for key in ("iso", "half"):  # f(F^-1(p)) holds for any density
            worst = float(np.max(np.abs(out[key] - ref[key]) / ref[key]))
            if worst > 1e-3:
                errs.append(f"{key} profile off by {worst:.3g} relative")
        if certified:  # for BLC input the essential infimum is 2 f(median)
            for key in ("essinf", "two_fm"):
                if _rel_err(out[key], ref["two_fm"]) > 1e-3:
                    errs.append(f"{key} {out[key]:.6g} vs 2 f(median) {ref['two_fm']:.6g}")
            if not out["conc"].all_within:
                errs.append("concentration bound exp(-r f(m)/3) violated")
            if _rel_err(2.0 * out["conc"].f_at_median, ref["two_fm"]) > 1e-3:
                errs.append("concentration report f(median) off")
        return errs


def _scale_of(model: dict) -> float:
    p = model["params"]
    if model["family"] == "gaussian_mixture":
        return math.sqrt(float(R.mixture_of(p).var()))
    if model["family"] == "uniform":
        return p["hi"] - p["lo"]
    return p.get("sd", p.get("scale"))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

N_CONV = 1024
N_SMOOTH = 512
SMOOTH_SIGMAS = (1.0, 0.5)


class Convolution(Workload):
    """Convolve a factor pair, certify the result, run the covariance criterion."""

    name = "convolution"
    tail_pct = 75.0

    def make_items(self):
        rng, items = self.rng, []

        def blc_mixture():
            return _sym_mixture(rng, 0.5, 1.25, center=(-2.0, 2.0), scale=(0.6, 1.5))

        def lc(family):
            c, s = rng.uniform(-1.0, 1.0), rng.uniform(0.4, 1.2)
            if family == "uniform":
                return _family("uniform", lo=c - s, hi=c + s)
            key = ("mean", "sd") if family == "gaussian" else ("location", "scale")
            return _family(family, **{key[0]: c, key[1]: s})

        for family in ("gaussian", "logistic", "laplace", "uniform"):
            items.append(Item("blc_lc", x=blc_mixture(), y=lc(family)))
        y = lc("gaussian")
        items.append(Item("blc_lc", x=blc_mixture(), y=y, y_grid=_tabulated(y, 8.0, n=1001)))
        items.append(Item("blc_lc", x=lc("gaussian"), y=blc_mixture()))
        items.append(Item("mixture_pair", x=blc_mixture(), y=blc_mixture()))
        # no pair of bi-log-concave Gaussian mixtures with a refuted sum turned up
        # in a random search, so the unstable pair uses factors beyond the boundary
        s = rng.uniform(0.6, 1.5)
        a1, a2 = rng.uniform(1.9, 2.6, 2)
        items.append(Item("mixture_pair", x=_mixture([0.5, 0.5], [-a1 * s, a1 * s], [s, s]),
                          y=_mixture([0.5, 0.5], [-a2 * s, a2 * s], [s, s])))
        items.append(Item("smooth", x=blc_mixture()))
        for it in items:
            it.x_spec = self.blc.DistributionSpec.from_json(it.x)
            if hasattr(it, "y"):
                it.y_spec = self.blc.DistributionSpec.from_json(getattr(it, "y_grid", it.y))
        return items

    def run(self, item, n=N_CONV, n_smooth=N_SMOOTH):
        b = self.blc
        if item.kind == "smooth":
            g = b.materialize(item.x_spec, n_points=n_smooth)
            return {"steps": b.smooth_sequence(g, SMOOTH_SIGMAS)}
        gX = b.materialize(item.x_spec, n_points=n)
        gY = b.materialize(item.y_spec, n_points=n)
        gZ = b.convolve(gX, gY)
        cert = b.certify_blc(gZ, b.CertifyOptions(tolerance=CONV_TOL))
        report = b.covariance_criterion(gX, gY, gZ=gZ)
        return {"gZ": gZ, "cert": cert, "report": report}

    def warm_up(self):
        # below n=384 the mixture * Laplace quadrature misses the mass tolerance
        for it in self.items:
            self.run(it, n=384, n_smooth=384)

    def reference(self, item):
        if item.ref is not None:
            return item.ref
        ref = {}
        if item.kind == "smooth":
            ref["l1"] = [R.smoothing_l1(R.mixture_of(item.x["params"]), s) for s in SMOOTH_SIGMAS]
        else:
            fx = R.family_facts(item.x["family"], item.x["params"])
            fy = R.family_facts(item.y["family"], item.y["params"])
            ref["mean"], ref["var"] = fx["mean"] + fy["mean"], fx["var"] + fy["var"]
            z = _closed_form_sum(item.x, item.y)
            if z is not None:
                ref["sum"] = z
            if item.kind == "mixture_pair":
                zmix = R.mixture_of(item.x["params"]).convolve(R.mixture_of(item.y["params"]))
                ref["margin"] = R.blc_margin(zmix)[0]
        item.ref = ref
        return ref

    def check(self, item, out):
        ref, errs, b = self.reference(item), [], self.blc
        if item.kind == "smooth":
            l1 = [st.distances["1"] for st in out["steps"]]
            if any(st.certificate.status is not b.Status.CERTIFIED for st in out["steps"]):
                errs.append("a Gaussian smoothing of a BLC density did not certify")
            if any(_rel_err(got, want) > 1e-2 for got, want in zip(l1, ref["l1"])):
                errs.append(f"smoothing L1 distances {l1} vs reference {ref['l1']}")
            if any(later >= earlier for earlier, later in zip(l1, l1[1:])):
                errs.append("smoothing L1 distances do not decrease")
            return errs
        gZ, cert, report = out["gZ"], out["cert"], out["report"]
        xs, fs = gZ.xs, gZ.fs
        mass = float(np.trapezoid(fs, xs))
        mean = float(np.trapezoid(xs * fs, xs)) / mass
        var = float(np.trapezoid((xs - mean) ** 2 * fs, xs)) / mass
        if abs(mass - 1.0) > 1e-6 or abs(mean - ref["mean"]) > 1e-4 * math.sqrt(ref["var"]) \
                or _rel_err(var, ref["var"]) > 1e-4:
            errs.append(f"moments (mass {mass:.8g}, mean {mean:.6g}, var {var:.6g}) vs "
                        f"(1, {ref['mean']:.6g}, {ref['var']:.6g})")
        if "sum" in ref:
            f_ref, F_ref = ref["sum"].pdf(xs), ref["sum"].cdf(xs)
            if np.max(np.abs(fs - f_ref)) > 1e-6 * np.max(f_ref) or np.max(np.abs(gZ.Fs - F_ref)) > 1e-6:
                errs.append("convolution differs from its closed form")
        certified = cert.status is b.Status.CERTIFIED
        stable = report.verdict is b.Verdict.STABLE
        if item.kind == "blc_lc":  # BLC * log-concave => BLC, and the criterion agrees
            if not (certified and stable):
                errs.append(f"BLC * log-concave gave {cert.status.value}/{report.verdict.value}")
        elif abs(ref["margin"]) > BAND:
            want = ref["margin"] > 0
            if certified != want or stable != want:
                errs.append(f"{cert.status.value}/{report.verdict.value} vs reference "
                            f"margin {ref['margin']:.4g} of the closed-form sum")
        return errs


class _ClosedFormSum:
    """Density and CDF of X + Y: a mixture, or a mixture plus a uniform box."""

    def __init__(self, mix: R.Mixture, box=None):
        self.mix, self.box = mix, box

    def pdf(self, x):
        return self.mix.pdf(x) if self.box is None else R.mixture_box_pdf(self.mix, *self.box, x)

    def cdf(self, x):
        return self.mix.cdf(x) if self.box is None else R.mixture_box_cdf(self.mix, *self.box, x)


def _closed_form_sum(x: dict, y: dict):
    """X + Y in closed form when one factor is a mixture and the other a
    Gaussian, a mixture or a uniform box; else None."""
    fams = (x["family"], y["family"])
    if "gaussian_mixture" not in fams:
        return None
    mix, other = (x, y) if fams[0] == "gaussian_mixture" else (y, x)
    m = R.mixture_of(mix["params"])
    p = other["params"]
    if other["family"] == "uniform":
        return _ClosedFormSum(m, (p["lo"], p["hi"]))
    if other["family"] == "gaussian":
        return _ClosedFormSum(m.convolve(R.Mixture.gaussian(p["mean"], p["sd"])))
    if other["family"] == "gaussian_mixture":
        return _ClosedFormSum(m.convolve(R.mixture_of(p)))
    return None


# ---------------------------------------------------------------------------
# scan_nd
# ---------------------------------------------------------------------------

N_DIRECTIONS = 64
N_GRID_ND = 2048
PS_ND = np.linspace(0.02, 0.5, 25)


def _mirror_mixture(rng, dim: int, ratios) -> dict:
    """Mirror-closed mixture: a +-mu pair per ratio, all with one covariance.

    A pair's Mahalanobis half-separation is its ratio, which is the largest
    separation (in projected standard deviations) over all directions.
    """
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = q @ np.diag(rng.uniform(0.5, 1.5, dim)) @ q.T
    chol = np.linalg.cholesky(cov)
    comps = []
    for r in ratios:
        v = rng.standard_normal(dim)
        mu = r * chol @ (v / np.linalg.norm(v))
        for sign in (1.0, -1.0):
            comps.append({"weight": 0.5 / len(ratios), "mean": (sign * mu).tolist(),
                          "cov": cov.tolist()})
    return {"dimension": dim, "components": comps}


def _nd_arrays(doc: dict):
    comps = doc["components"]
    return (np.array([c["weight"] for c in comps]), np.array([c["mean"] for c in comps]),
            np.array([c["cov"] for c in comps]))


def worst_lines(doc: dict) -> tuple[np.ndarray, float]:
    """Reference worst lines of a dense direction set, and that set's spacing."""
    w, mu, cov = _nd_arrays(doc)
    fine = R.fine_directions(doc["dimension"], 512 if doc["dimension"] == 2 else 1024)
    margins = R.batched_blc_margins(R.projected_mixture(w, mu, cov, fine))
    return fine[margins <= margins.min() + 1e-3 * abs(margins.min())], R.angular_step(fine)


def worst_direction_error(worst, lines, slack_angle: float) -> str | None:
    """None when ``worst`` lies within ``slack_angle`` of a reference worst line."""
    angle = float(R.line_angles(np.atleast_2d(worst), lines).min())
    if angle > slack_angle:
        return f"worst direction {angle:.3g} rad from the reference (allowed {slack_angle:.3g})"
    return None


class ScanND(Workload):
    """Half-sphere direction scan and weak BLC check of a mirror-closed mixture."""

    name = "scan_nd"
    tail_pct = 85.0

    def make_items(self):
        rng = self.rng
        docs = [
            _mirror_mixture(rng, 2, [rng.uniform(1.7, 2.5)]),
            _mirror_mixture(rng, 2, [rng.uniform(1.7, 2.5)]),
            _mirror_mixture(rng, 2, [rng.uniform(0.4, 1.0)]),
            _mirror_mixture(rng, 2, rng.uniform(0.2, 0.6, 2)),
            _mirror_mixture(rng, 3, [rng.uniform(1.7, 2.5)]),
            _mirror_mixture(rng, 3, [rng.uniform(0.4, 1.0)]),
            _mirror_mixture(rng, 3, rng.uniform(0.2, 0.6, 2)),
        ]
        return [Item("mirror_mixture", doc=d, m=self.blc.SymmetricMixtureNd.from_json(d))
                for d in docs]

    def run(self, item, n_grid=N_GRID_ND, n_dir=N_DIRECTIONS):
        b = self.blc
        scan = b.weak_star_check(item.m, n_dir, n_grid=n_grid)
        weak = b.weak_blc_check_nd(item.m, PS_ND, n_dir, n_grid=n_grid)
        return {"scan": scan, "weak": weak}

    def warm_up(self):
        for it in self.items:
            self.run(it, n_grid=256, n_dir=8)

    def reference(self, item, directions):
        if item.ref is None:
            w, mu, cov = _nd_arrays(item.doc)
            margins = R.batched_blc_margins(R.projected_mixture(w, mu, cov, directions))
            prof = R.halfspace_profile(w, mu, cov, directions, PS_ND)
            item.ref = {"margins": margins, "ratio": R.ratio_margin(PS_ND, prof)}
            if margins.min() < -BAND:
                lines, fine_step = worst_lines(item.doc)
                item.ref["worst_lines"] = lines
                item.ref["worst_slack"] = R.angular_step(directions) + fine_step
        return item.ref

    def check(self, item, out):
        b, scan, weak, errs = self.blc, out["scan"], out["weak"], []
        ref = self.reference(item, scan.directions)
        m = ref["margins"]
        status = np.array([c.status is b.Status.CERTIFIED for c in scan.certificates])
        clear = np.abs(m) > BAND
        if np.any(status[clear] != (m[clear] > 0)):
            errs.append(f"{int(np.sum(status[clear] != (m[clear] > 0)))} direction verdicts "
                        "disagree with the reference margins")
        if m.min() < -BAND:
            if scan.verdict is not b.Status.VIOLATED:
                errs.append("scan not refuted although a direction is")
            err = worst_direction_error(scan.worst_direction, ref["worst_lines"],
                                        ref["worst_slack"])
            if err:
                errs.append(err)
        elif m.min() > BAND and scan.verdict is not b.Status.CERTIFIED:
            errs.append(f"scan {scan.verdict.value} although every direction is BLC")
        weak_ok = weak.status is b.Status.CERTIFIED
        if abs(ref["ratio"]) > BAND and weak_ok != (ref["ratio"] > 0):
            errs.append(f"weak check {weak.status.value} vs reference ratio margin {ref['ratio']:.4g}")
        if scan.verdict is b.Status.CERTIFIED and not weak_ok:
            errs.append("every direction BLC but the weak check failed")
        return errs


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

N_CLI = 512
CLI_DIRECTIONS = 16
CLI_SIGMAS = (1.0, 0.5)
_EXIT = {"Certified": 0, "Violated": 1, "Inconclusive": 2}


class Cli(Workload):
    """One ``python -m blc_lab.cli`` process per operation, over all subcommands.

    Sizes are small (n=512, 16 scan directions), so interpreter start-up,
    ``import blc_lab`` and artifact writing stay a large share of each call.
    Two operations hit known faults and are counted as failed until fixed:
    ``smooth`` on a non-BLC spec should exit 1 and exits 4, and ``certify``
    on a grid spec holding an infinite density value should exit 3 and
    exits 4.  Their inputs do not depend on the seed.
    """

    name = "cli"
    tail_pct = 75.0

    def make_items(self):
        rng = self.rng
        spec_dir = self.workdir / "specs"
        spec_dir.mkdir(parents=True, exist_ok=True)

        def path(name, doc):
            p = spec_dir / f"{name}.json"
            p.write_text(json.dumps(doc), encoding="utf-8")
            return str(p)

        c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)
        logistic = _family("logistic", location=c, scale=s)
        certify_mix = _sym_mixture(rng, 0.6, 2.5)
        conv_x, conv_y = _sym_mixture(rng, 0.5, 1.25), _affine_lc(rng)[0]
        crit_x, crit_y = _sym_mixture(rng, 0.5, 2.6), _sym_mixture(rng, 0.5, 2.6)
        smooth_mix = _sym_mixture(rng, 0.5, 1.25)
        nd = _mirror_mixture(rng, 2, [rng.uniform(1.7, 2.4)])
        theta = rng.uniform(0.0, math.pi)
        u = [math.cos(theta), math.sin(theta)]
        non_blc = _mixture([0.5, 0.5], [-2.0, 2.0], [1.0, 1.0])
        infinite = {"family": "grid", "params": {
            "abscissas": list(range(10)),
            "density_values": [1.0, 1.0, 1.0, math.inf, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]}}
        items = [
            Item("certify", argv=["certify", "--spec", path("certify", certify_mix)],
                 model=certify_mix),
            Item("iso", argv=["iso", "--spec", path("iso_logistic", logistic)], model=logistic),
            Item("convolve", argv=["convolve", "--x", path("conv_x", conv_x),
                                   "--y", path("conv_y", conv_y)], x=conv_x, y=conv_y),
            Item("criterion", argv=["criterion", "--x", path("crit_x", crit_x),
                                    "--y", path("crit_y", crit_y)], x=crit_x, y=crit_y),
            Item("smooth", argv=["smooth", "--spec", path("smooth", smooth_mix),
                                 "--sigmas", ",".join(map(str, CLI_SIGMAS))], model=smooth_mix),
            Item("project", argv=["project", "--spec", path("nd", nd),
                                  "--u=" + ",".join(repr(v) for v in u)], doc=nd, u=u),
            Item("scan", argv=["scan-nd", "--spec", path("nd", nd),
                               "--directions", str(CLI_DIRECTIONS)], doc=nd),
            Item("smooth_non_blc", argv=["smooth", "--spec", path("non_blc", non_blc)],
                 known_fault=True, expect=1),
            Item("certify_infinite", argv=["certify", "--spec", path("infinite", infinite)],
                 known_fault=True, expect=3),
        ]
        for i, it in enumerate(items):
            it.out = self.workdir / "out" / f"{i:02d}-{it.kind}"
            it.argv = it.argv + ["-o", str(it.out), "--n", str(N_CLI)]
        env = dict(os.environ)
        env.pop("BLC_LAB_THREADS", None)  # scans run the library default
        src = str(Path(self.blc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.env = env
        return items

    def before(self, item):
        if item.out.exists():
            for f in item.out.iterdir():
                f.unlink()

    def run(self, item):
        proc = subprocess.run([sys.executable, "-m", "blc_lab.cli", *item.argv],
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        return {"rc": proc.returncode}

    def run_traced(self, item):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return {"rc": self.blc.cli.main(list(item.argv))}

    def artifact_bytes(self, item) -> int:
        return sum(f.stat().st_size for f in item.out.iterdir()) if item.out.exists() else 0

    def failed(self, item, out):
        if item.known_fault:
            return out["rc"] != item.expect
        return out["rc"] not in (0, 1, 2)

    def _json(self, item, name):
        return json.loads((item.out / name).read_text(encoding="utf-8"))

    def _csv(self, item, name, ncols) -> np.ndarray:
        """The first ``ncols`` columns of a CSV artifact's data rows, as floats."""
        with open(item.out / name, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        return np.array([[float(v) for v in row[:ncols]] for row in rows])

    def reference(self, item):
        if item.ref is not None:
            return item.ref
        ref = {}
        if item.kind in ("certify", "iso", "smooth"):
            fam, p = item.model["family"], item.model["params"]
            ref["margin"] = R.family_margin(fam, p)
            ref["two_fm"] = R.family_facts(fam, p)["two_f_median"]
            if item.kind == "smooth":
                ref["l1"] = [R.smoothing_l1(R.mixture_of(p), s) for s in CLI_SIGMAS]
        elif item.kind in ("convolve", "criterion"):
            ref["sum"] = _closed_form_sum(item.x, item.y)
            if item.kind == "criterion":
                z = R.mixture_of(item.x["params"]).convolve(R.mixture_of(item.y["params"]))
                ref["margin"] = R.blc_margin(z)[0]
        elif item.kind in ("project", "scan"):
            w, mu, cov = _nd_arrays(item.doc)
            if item.kind == "project":
                ref["mixture"] = R.projected_mixture(w, mu, cov, np.array([item.u]))
                ref["margin"] = float(R.batched_blc_margins(ref["mixture"], n=4001)[0])
            else:
                ref["lines"], ref["fine_step"] = worst_lines(item.doc)
        item.ref = ref
        return ref

    def check(self, item, out):
        rc, errs = out["rc"], []
        if item.known_fault:
            return errs
        ref = self.reference(item)

        def verdict_matches(margin, status):
            if abs(margin) > BAND and status != ("Certified" if margin > 0 else "Violated"):
                errs.append(f"{item.kind}: {status} vs reference margin {margin:.4g}")

        if item.kind == "certify":
            status = self._json(item, "certify.json")["status"]
            verdict_matches(ref["margin"], status)
        elif item.kind == "iso":
            doc = self._json(item, "constants.json")
            status = doc["certificate"]["status"]
            verdict_matches(ref["margin"], status)
            if status == "Certified":
                for key in ("isoperimetric_2fm", "isoperimetric_essinf"):
                    if _rel_err(doc[key], ref["two_fm"]) > 1e-3:
                        errs.append(f"iso {key} {doc[key]:.6g} vs {ref['two_fm']:.6g}")
                if _rel_err(doc["poincare"], (ref["two_fm"] / 2) ** 2) > 2e-3:
                    errs.append("iso poincare constant off")
                if not doc["concentration_all_within"]:
                    errs.append("iso concentration bound violated")
                ps, vals = self._csv(item, "profile.csv", 2).T
                want = R.quantile_profile(item.model["family"], item.model["params"], ps)
                if np.max(np.abs(vals - want) / want) > 1e-3:
                    errs.append("iso profile.csv differs from the reference profile")
        elif item.kind == "convolve":
            status = self._json(item, "convolution_certificate.json")["status"]
            verdict_matches(1.0, status)  # BLC * log-concave
            xs, fs, Fs = self._csv(item, "convolution.csv", 3).T
            f_ref = ref["sum"].pdf(xs)
            if np.max(np.abs(fs - f_ref)) > 1e-6 * f_ref.max() or \
                    np.max(np.abs(Fs - ref["sum"].cdf(xs))) > 1e-6:
                errs.append("convolution.csv differs from the closed form")
        elif item.kind == "criterion":
            verdict = self._json(item, "criterion.json")["verdict"]
            status = {"Stable": "Certified", "Unstable": "Violated"}.get(verdict, verdict)
            verdict_matches(ref["margin"], status)
        elif item.kind == "smooth":
            doc = self._json(item, "smooth.json")
            status = "Certified" if doc["all_certified"] else "Violated"
            if not doc["all_certified"]:
                errs.append("smooth: a Gaussian smoothing of a BLC density did not certify")
            if any(_rel_err(a, b) > 1e-2 for a, b in zip(doc["l1"], ref["l1"])):
                errs.append(f"smooth L1 {doc['l1']} vs reference {ref['l1']}")
        elif item.kind == "project":
            status = self._json(item, "projection_certificate.json")["status"]
            verdict_matches(ref["margin"], status)
            xs, fs = self._csv(item, "projection.csv", 2).T
            f_ref = ref["mixture"].pdf(xs[None, :])[0]
            if np.max(np.abs(fs - f_ref)) > 1e-6 * f_ref.max():
                errs.append("projection.csv differs from the projected mixture")
        elif item.kind == "scan":
            doc = self._json(item, "scan.json")
            status = doc["verdict"]
            dirs = self._csv(item, "scan.csv", 2)
            if doc["n_directions"] != CLI_DIRECTIONS or len(dirs) != CLI_DIRECTIONS:
                errs.append("scan: wrong number of directions")
            w, mu, cov = _nd_arrays(item.doc)
            margins = R.batched_blc_margins(R.projected_mixture(w, mu, cov, dirs))
            verdict_matches(float(margins.min()), status)
            if margins.min() < -BAND:
                err = worst_direction_error(np.array(doc["worst_direction"]), ref["lines"],
                                            R.angular_step(dirs) + ref["fine_step"])
                if err:
                    errs.append("scan: " + err)
        if _EXIT.get(status) != rc:
            errs.append(f"{item.kind}: exit {rc} does not match {status}")
        return errs


WORKLOADS = {w.name: w for w in (Certify1D, Convolution, ScanND, Cli)}
