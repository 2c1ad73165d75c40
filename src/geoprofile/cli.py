"""Command-line front end: analyze, check, synthesize, verify, demo,
calibrate.

Reports are JSON with floats at 17 significant digits; identical inputs
and seeds produce byte-identical files.  Exit codes: 0 success, 1 a
checker or verification failed, 2 malformed input or a path that
cannot be read or written.
"""

import argparse
import math
import sys

from .calibration import (default_constants, load_constants, save_constants,
                          calibrate_constants)
from .profiles import read_profile_csv, ProfileError
from .profile_analysis import (analyze, twelve_point_configurations,
                               finiteness_check, kappa)
from .special_functions import DomainError
from .synthesis import (synthesize, verify_synthesis, verify_grid,
                        SynthesisError)
from .geodesy import load_metric_json, save_metric_json
from .report import dumps_deterministic
from . import surfaces


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _nonnegative_int(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return int(text)


def _positive_float(text):
    if not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0, got {text}")
    return float(text)


def _alpha(text):
    if not 0 < float(text) <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return float(text)


def _offset(text):
    if not 0 <= float(text) < 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text}")
    return float(text)


def _constants(args):
    if not args.constants:
        consts = default_constants()
    else:
        try:
            consts = load_constants(args.constants)
        except (OSError, ValueError) as exc:
            # an unreadable file, undecodable JSON, or a value that
            # CheckerConstants rejects
            print(f"malformed input: cannot read constants "
                  f"{args.constants!r}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    if args.h_bound is not None:
        consts.H = args.h_bound
    if args.alpha is not None:
        consts.alpha = args.alpha
    return consts


def _load_profile(path):
    try:
        return read_profile_csv(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read profile {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _load_grid(path):
    try:
        return load_metric_json(path)
    except (ValueError, KeyError, TypeError) as exc:
        # undecodable JSON, a missing key, or arrays MetricGrid rejects
        print(f"malformed input: cannot read grid {path!r}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_analyze(args):
    p = _load_profile(args.input)
    consts = _constants(args)
    s = analyze(p, alpha=consts.alpha)
    kap = kappa(p, p.t_nodes)
    payload = {
        "t0": s.t0, "m": s.m, "K0": s.K0, "alpha": s.alpha, "H": consts.H,
        "K0_clamped": s.K0_clamped,
        "max_abs_kappa": float(abs(kap).max()),
        "max_abs_phi0": float(abs(s.phi0).max()),
        "max_abs_f0": float(abs(s.f0).max()),
        "constants_version": consts.version,
    }
    _write(args.out, dumps_deterministic(payload))
    if args.plot_csv:
        with open(args.plot_csv, "w") as fh:
            fh.write("t,rho,kappa,phi0,f0\n")
            for row in zip(p.t_nodes, p.rho, kap, s.phi0, s.f0):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return 0


def cmd_check(args):
    p = _load_profile(args.input)
    consts = _constants(args)
    configs = twelve_point_configurations(p.interval, args.budget,
                                          seed=args.seed)
    report = finiteness_check(p, consts, configs)
    _write(args.out, report.to_json())
    if args.out not in (None, "-"):
        print("\n".join(report.summary_lines()))
    return 0 if report.verdict else 1


def cmd_synthesize(args):
    p = _load_profile(args.input)
    consts = _constants(args)
    configs = twelve_point_configurations(p.interval, args.budget,
                                          seed=args.seed)
    check = finiteness_check(p, consts, configs)
    if not check.verdict and not args.force:
        print("finiteness check failed; not synthesizing "
              "(--force to override)")
        print("\n".join(check.summary_lines()))
        return 1
    try:
        result = synthesize(p, consts)
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}")
        return 1
    save_metric_json(result.metric, args.grid_out)
    report = verify_synthesis(result, p, consts)
    _write(args.out, report.to_json())
    if args.plot_csv:
        # K = K0 - the curvature term, formed at the plotted nodes only
        grid, K0 = result.metric, result.summary.K0
        r_nodes = grid.r_nodes[::max(1, grid.r_nodes.size // 128)]
        thetas = grid.theta_nodes[::max(1, grid.theta_nodes.size // 32)]
        K = K0 - result.correction.curvature_term(
            K0, r_nodes, result.theta_map.inverse(thetas))
        with open(args.plot_csv, "w") as fh:
            fh.write("r,theta,K\n")
            for theta, row in zip(thetas, K):
                for r, k in zip(r_nodes, row):
                    fh.write(f"{r:.17g},{theta:.17g},{k:.17g}\n")
    print("\n".join(report.summary_lines()))
    return 0 if report.verdict else 1


def cmd_verify(args):
    """Re-verify an existing grid against a profile."""
    p = _load_profile(args.input)
    consts = _constants(args)
    grid = _load_grid(args.grid)
    report = verify_grid(grid, p, consts)
    _write(args.out, report.to_json())
    print("\n".join(report.summary_lines()))
    return 0 if report.verdict else 1


def cmd_demo(args):
    consts = _constants(args)
    if args.which == "euclid-offset":
        c = args.c
        p = surfaces.offset_hyperbola_profile(c)
        print(f"profile sqrt(1+t^2) - {c} on [-0.2, 0.2]")
        k0 = float(kappa(p, 0.0))
        print(f"curvature proxy at the minimum: kappa(0) = {k0:.6g}")
        print("kappa blow-up as the offset approaches 1:")
        print("  c        kappa(0)")
        for cc in (0.0, 0.5, 0.9, 0.99, 0.999):
            pc = surfaces.offset_hyperbola_profile(cc)
            print(f"  {cc:<8g} {float(kappa(pc, 0.0)):.6g}")
    else:  # eps-bump, the other choice argparse allows
        p = surfaces.perturbed_cone_profile(args.eps, args.beta)
        print(f"profile sqrt({args.eps}^2 + t^2) + {args.eps}^(3+{args.beta})"
              " on [-0.2, 0.2]")
    configs = twelve_point_configurations(p.interval, args.budget,
                                          seed=args.seed)
    report = finiteness_check(p, consts, configs)
    print("\n".join(report.summary_lines()))
    if args.out:
        _write(args.out, report.to_json())
    return 0 if report.verdict else 1


def cmd_calibrate(args):
    consts = calibrate_constants(alpha=args.alpha or 0.5,
                                 H=args.h_bound or 1.0,
                                 seed=args.seed, version=args.version,
                                 verbose=True)
    save_constants(consts, args.out or "calibration.json")
    print(f"wrote {args.out or 'calibration.json'} "
          f"(version {consts.version})")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="geoprofile",
        description="Analyze distance profiles of geodesics, check the "
                    "finiteness conditions, and synthesize realizing "
                    "metrics.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True, checks=True):
        """Options of the subcommands that read a profile: ``checks``
        adds the checker's sampling."""
        if with_input:
            sp.add_argument("--input", required=True,
                            help="profile CSV (header 't,rho')")
        sp.add_argument("--constants", help="calibration JSON")
        sp.add_argument("--out", help="output JSON path (default stdout)")
        sp.add_argument("--h-bound", type=_positive_float, default=None)
        sp.add_argument("--alpha", type=_alpha, default=None)
        if checks:
            sp.add_argument("--seed", type=_nonnegative_int, default=0)
            sp.add_argument("--budget", type=_positive_int, default=240)

    sp = sub.add_parser("analyze", help="derived curves of a profile")
    common(sp, checks=False)
    sp.add_argument("--plot-csv", help="write t,rho,kappa,phi0,f0 samples")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("check", help="finiteness checker")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("synthesize", help="build and verify a metric")
    common(sp)
    sp.add_argument("--grid-out", required=True, help="metric grid JSON")
    sp.add_argument("--force", action="store_true",
                    help="synthesize even if the checker fails")
    sp.add_argument("--plot-csv", help="write r,theta,K samples of the grid")
    sp.set_defaults(fn=cmd_synthesize)

    sp = sub.add_parser("verify", help="verify an existing grid + profile")
    # --seed and --budget are read by nothing, but the bench passes them
    common(sp)
    sp.add_argument("--grid", required=True, help="metric grid JSON")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("demo", help="built-in example profiles")
    sp.add_argument("which", choices=["euclid-offset", "eps-bump"])
    sp.add_argument("--c", type=_offset, default=0.99)
    sp.add_argument("--eps", type=_positive_float, default=1e-2)
    sp.add_argument("--beta", type=_alpha, default=0.25)
    common(sp, with_input=False)
    sp.set_defaults(fn=cmd_demo)

    sp = sub.add_parser("calibrate", help="regenerate the constants file")
    sp.add_argument("--out", help="output JSON (default calibration.json)")
    sp.add_argument("--seed", type=_nonnegative_int, default=1729)
    sp.add_argument("--version", default=None)
    sp.add_argument("--h-bound", type=_positive_float, default=None)
    sp.add_argument("--alpha", type=_alpha, default=None)
    sp.set_defaults(fn=cmd_calibrate)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ProfileError, DomainError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a path that cannot be read or written: missing, a directory,
        # no permission
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
