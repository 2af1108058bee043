"""Command-line front end.

One subcommand per analysis: certify a spec, tabulate isoperimetric
profiles and constants, convolve two specs, run the convolution stability
criterion, smooth through shrinking Gaussians, project a multivariate
measure onto a line, and scan directions in R^d.  Artifacts are CSV files
(12 significant digits) plus JSON summaries; the JSON summary also goes to
stdout.  Exit status: 0 certified/stable, 1 violated/unstable (also a
BLC-only command given a non-BLC input), 2 inconclusive, 3 usage or input
errors, 4 runtime failures.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .certify import CertifyOptions, Status, certify_blc
from .convolution import (
    Verdict,
    convolve,
    covariance_criterion,
    smooth_sequence,
)
from .core import (
    DegenerateDensityError,
    DistributionSpec,
    DomainError,
    SpecError,
    materialize,
    _write_csv,
)
from .isoperimetry import (
    RequiresCertificateError,
    blc_isoperimetric_constant,
    bobkov_houdre_constant,
    concentration_check,
    iso_profile,
    poincare_constant,
)
from .multivariate import SymmetricMixtureNd, project_to_line, weak_star_check

_STATUS_EXIT = {Status.CERTIFIED: 0, Status.VIOLATED: 1, Status.INCONCLUSIVE: 2}
_VERDICT_EXIT = {Verdict.STABLE: 0, Verdict.UNSTABLE: 1, Verdict.INCONCLUSIVE: 2}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must not collide with exit code 2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> np.ndarray:
    """Parse 'start:stop:count' into a linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"invalid spec: range {text!r} is not start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2 or not stop > start:
        raise SpecError(f"invalid spec: bad range {text!r}")
    return np.linspace(start, stop, count)


def _parse_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SpecError(f"invalid spec: bad list {text!r}") from exc


def _emit(out_dir: Path, name: str, payload: dict) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    (out_dir / name).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return payload


def _load_1d(path: str, n: int, tol: float):
    opts = CertifyOptions(tolerance=tol)
    return materialize(DistributionSpec.from_json(path), n_points=n), opts


def _cmd_certify(args) -> int:
    g, opts = _load_1d(args.spec, args.n, args.tol)
    cert = certify_blc(g, opts)
    _emit(Path(args.out), "certify.json", cert.to_dict())
    return _STATUS_EXIT[cert.status]


def _cmd_iso(args) -> int:
    g, opts = _load_1d(args.spec, args.n, args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ps = _parse_range(args.pgrid)
    iso_profile(g, ps).to_csv(out / "profile.csv")
    cert = certify_blc(g, opts)
    constants = {
        "certificate": cert.to_dict(),
        "isoperimetric_essinf": bobkov_houdre_constant(g),
    }
    if cert.status is Status.CERTIFIED:
        constants["isoperimetric_2fm"] = blc_isoperimetric_constant(g, certificate=cert)
        constants["poincare"] = poincare_constant(g, certificate=cert)
        rs = _parse_range(args.rgrid)
        report = concentration_check(g, rs, certificate=cert)
        report.to_csv(out / "concentration.csv")
        constants["concentration_all_within"] = report.all_within
        constants["f_at_median"] = report.f_at_median
    _emit(out, "constants.json", constants)
    return _STATUS_EXIT[cert.status]


def _cmd_convolve(args) -> int:
    gX, opts = _load_1d(args.x, args.n, args.tol)
    gY, _ = _load_1d(args.y, args.n, args.tol)
    gZ = convolve(gX, gY)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gZ.to_csv(out / "convolution.csv")
    cert = certify_blc(gZ, opts)
    _emit(out, "convolution_certificate.json", cert.to_dict())
    return _STATUS_EXIT[cert.status]


def _cmd_criterion(args) -> int:
    gX, _ = _load_1d(args.x, args.n, args.tol)
    gY, _ = _load_1d(args.y, args.n, args.tol)
    report = covariance_criterion(gX, gY, tolerance=args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "criterion.csv")
    _emit(out, "criterion.json", report.summary())
    return _VERDICT_EXIT[report.verdict]


def _cmd_smooth(args) -> int:
    g, opts = _load_1d(args.spec, args.n, args.tol)
    sigmas = _parse_list(args.sigmas)
    steps = smooth_sequence(g, sigmas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "smooth.csv", ("sigma", "L1", "L2", "Linf", "status"),
               ((st.sigma, st.distances["1"], st.distances["2"], st.distances["inf"],
                 st.certificate.status.value) for st in steps))
    worst = min((st.certificate for st in steps), key=lambda c: c.slack)
    summary = {
        "sigmas": sigmas,
        "l1": [st.distances["1"] for st in steps],
        "all_certified": all(st.certificate.certified for st in steps),
    }
    _emit(out, "smooth.json", summary)
    return _STATUS_EXIT[worst.status]


def _cmd_project(args) -> int:
    opts = CertifyOptions(tolerance=args.tol)
    m = SymmetricMixtureNd.from_json(args.spec)
    u = _parse_list(args.u)
    g = project_to_line(m, u, n_grid=args.n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    g.to_csv(out / "projection.csv")
    cert = certify_blc(g, opts)
    _emit(out, "projection_certificate.json", cert.to_dict())
    return _STATUS_EXIT[cert.status]


def _cmd_scan_nd(args) -> int:
    m = SymmetricMixtureNd.from_json(args.spec)
    scan = weak_star_check(m, args.directions, n_grid=args.n,
                           opts=CertifyOptions(tolerance=args.tol))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scan.to_csv(out / "scan.csv")
    summary = {
        "verdict": scan.verdict.value,
        "worst_direction": [float(c) for c in scan.worst_direction],
        "worst_slack": float(scan.slacks().min()),
        "n_directions": int(len(scan.directions)),
        "resolution_rad": scan.resolution,
    }
    _emit(out, "scan.json", summary)
    return _STATUS_EXIT[scan.verdict]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blc-lab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_flags=("--spec", "-s")):
        if spec_flags:
            p.add_argument(*spec_flags, required=True, help="distribution spec JSON")
        p.add_argument("--out", "-o", default=".", help="output directory")
        p.add_argument("--n", type=int, default=2048, help="grid resolution")
        p.add_argument("--tol", type=float, default=1e-7, help="certificate tolerance")

    p = sub.add_parser("certify", help="certify bi-log-concavity of a spec")
    common(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("iso", help="isoperimetric profile and constants")
    common(p)
    p.add_argument("--pgrid", default="0.01:0.99:99", help="profile grid start:stop:count")
    p.add_argument("--rgrid", default="0.5:6:12", help="concentration radii start:stop:count")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("convolve", help="numerical convolution of two specs")
    common(p, spec_flags=None)
    p.add_argument("--x", required=True, help="first factor spec JSON")
    p.add_argument("--y", required=True, help="second factor spec JSON")
    p.set_defaults(fn=_cmd_convolve)

    p = sub.add_parser("criterion", help="convolution stability covariance criterion")
    common(p, spec_flags=None)
    p.add_argument("--x", required=True, help="first factor spec JSON")
    p.add_argument("--y", required=True, help="second factor spec JSON")
    p.set_defaults(fn=_cmd_criterion)

    p = sub.add_parser("smooth", help="Gaussian smoothing sequence with L_p distances")
    common(p)
    p.add_argument("--sigmas", default="1,0.5,0.25,0.1", help="decreasing bandwidths")
    p.set_defaults(fn=_cmd_smooth)

    p = sub.add_parser("project", help="project a symmetric R^d mixture onto a line")
    common(p)
    p.add_argument("--u", required=True, help="direction vector, comma separated")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("scan-nd", help="certify all line projections of an R^d mixture")
    common(p)
    p.add_argument("--directions", type=int, default=64, help="half-sphere scan size")
    p.set_defaults(fn=_cmd_scan_nd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, DomainError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"blc-lab: error: {exc}", file=sys.stderr)
        return 3
    except RequiresCertificateError as exc:  # a BLC-only command on a non-BLC input
        print(f"blc-lab: error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateDensityError, ValueError) as exc:
        print(f"blc-lab: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
