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
import math
import sys
from pathlib import Path

import numpy as np

from .certify import (CertifyOptions, RequiresCertificateError, Status, certify_blc,
                      combined_status)
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
    GridDensity,
    SpecError,
    materialize,
    _write_csv,
)
from .isoperimetry import (
    blc_isoperimetric_constant,
    bobkov_houdre_constant,
    concentration_check,
    iso_profile,
    poincare_constant,
)
from .multivariate import SymmetricMixtureNd, project_to_line, weak_star_check

# both enums are str-valued, so Verdict.INCONCLUSIVE finds Status.INCONCLUSIVE
_EXIT = {Status.CERTIFIED: 0, Status.VIOLATED: 1, Status.INCONCLUSIVE: 2,
         Verdict.STABLE: 0, Verdict.UNSTABLE: 1}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must not collide with exit code 2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> np.ndarray:
    """Parse 'start:stop:count' (finite start < stop, integer count >= 2) into a linspace."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:  # not three parts, or not numbers
        raise SpecError(f"invalid spec: range {text!r} is not start:stop:count") from exc
    if count < 2 or not -math.inf < start < stop < math.inf:
        raise SpecError(f"invalid spec: bad range {text!r}")
    return np.linspace(start, stop, count)


def _parse_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SpecError(f"invalid spec: bad list {text!r}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid(path: str, n: int) -> GridDensity:
    return materialize(DistributionSpec.from_json(path), n_points=n)


# Each subcommand returns (Status or Verdict, JSON summary file name, summary);
# main writes the summary and maps the outcome to the exit status.


def _cmd_certify(args, opts):
    cert = certify_blc(_grid(args.spec, args.n), opts)
    return cert.status, "certify.json", cert.to_dict()


def _cmd_iso(args, opts):
    ps, rs = _parse_range(args.pgrid), _parse_range(args.rgrid)
    # both checked before anything is written
    if not (0.0 < ps[0] and ps[-1] < 1.0):
        raise SpecError("invalid spec: profile points must lie strictly inside (0, 1)")
    if rs[0] <= 0.0:
        raise SpecError("invalid spec: radii must be > 0")
    g = _grid(args.spec, args.n)
    out = _out_dir(args)
    iso_profile(g, ps).to_csv(out / "profile.csv")
    cert = certify_blc(g, opts)
    constants = {
        "certificate": cert.to_dict(),
        "isoperimetric_essinf": bobkov_houdre_constant(g),
    }
    if cert.status is Status.CERTIFIED:
        constants["isoperimetric_2fm"] = blc_isoperimetric_constant(g, certificate=cert)
        constants["poincare"] = poincare_constant(g, certificate=cert)
        report = concentration_check(g, rs, certificate=cert)
        report.to_csv(out / "concentration.csv")
        constants["concentration_all_within"] = report.all_within
        constants["f_at_median"] = report.f_at_median
    return cert.status, "constants.json", constants


def _cmd_convolve(args, opts):
    gZ = convolve(_grid(args.x, args.n), _grid(args.y, args.n))
    gZ.to_csv(_out_dir(args) / "convolution.csv")
    cert = certify_blc(gZ, opts)
    return cert.status, "convolution_certificate.json", cert.to_dict()


def _cmd_criterion(args, opts):
    report = covariance_criterion(_grid(args.x, args.n), _grid(args.y, args.n),
                                  tolerance=opts.tolerance)
    report.to_csv(_out_dir(args) / "criterion.csv")
    return report.verdict, "criterion.json", report.summary()


def _cmd_smooth(args, opts):
    g = _grid(args.spec, args.n)
    sigmas = _parse_list(args.sigmas)
    steps = smooth_sequence(g, sigmas)
    _write_csv(_out_dir(args) / "smooth.csv", ("sigma", "L1", "L2", "Linf", "status"),
               ((st.sigma, st.distances["1"], st.distances["2"], st.distances["inf"],
                 st.certificate.status.value) for st in steps))
    summary = {
        "sigmas": sigmas,
        "l1": [st.distances["1"] for st in steps],
        "all_certified": all(st.certificate.certified for st in steps),
    }
    return combined_status([st.certificate for st in steps]), "smooth.json", summary


def _cmd_project(args, opts):
    m = SymmetricMixtureNd.from_json(args.spec)
    g = project_to_line(m, _parse_list(args.u), n_grid=args.n)
    g.to_csv(_out_dir(args) / "projection.csv")
    cert = certify_blc(g, opts)
    return cert.status, "projection_certificate.json", cert.to_dict()


def _cmd_scan_nd(args, opts):
    m = SymmetricMixtureNd.from_json(args.spec)
    scan = weak_star_check(m, args.directions, n_grid=args.n, opts=opts)
    scan.to_csv(_out_dir(args) / "scan.csv")
    summary = {
        "verdict": scan.verdict.value,
        "worst_direction": [float(c) for c in scan.worst_direction],
        "worst_slack": float(scan.slacks().min()),
        "n_directions": int(len(scan.directions)),
        "resolution_rad": scan.resolution,
    }
    return scan.verdict, "scan.json", summary


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blc-lab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_flags=("--spec", "-s"), tol=True):
        if spec_flags:
            p.add_argument(*spec_flags, required=True, help="distribution spec JSON")
        p.add_argument("--out", "-o", default=".", help="output directory")
        p.add_argument("--n", type=int, default=2048, help="grid resolution")
        if tol:
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
    common(p, tol=False)  # each smoothed density is certified at CONV_CERTIFY_TOL
    p.add_argument("--sigmas", default="1,0.5,0.25,0.1", help="decreasing bandwidths")
    p.set_defaults(fn=_cmd_smooth)

    p = sub.add_parser("project", help="project an R^d Gaussian mixture onto a line and certify it")
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
        opts = CertifyOptions(tolerance=args.tol) if "tol" in args else None
        outcome, name, summary = args.fn(args, opts)
    except (SpecError, DomainError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"blc-lab: error: {exc}", file=sys.stderr)
        return 3
    except RequiresCertificateError as exc:  # a BLC-only command on a non-BLC input
        print(f"blc-lab: error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateDensityError, ValueError) as exc:
        print(f"blc-lab: error: {exc}", file=sys.stderr)
        return 4
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    (_out_dir(args) / name).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return _EXIT[outcome]


if __name__ == "__main__":
    sys.exit(main())
