"""Command-line front end.

Subcommands evaluate theta series, space modes and kernels, run the
Bargmann transform forward and backward on serialized elements, apply the
Landau operator and its ladder shifts, and execute the acceptance suite.
Output is JSON by default or CSV with --format csv (complex values flatten
into paired _re/_im columns).  Complex literals on the command line use
the form a+bi, spaced from their option or joined to it with '='.  Output
is always plain text, so NO_COLOR needs no special handling.  Exit codes:
0 success, 1 domain or numerical error, 2 verification failure, 64 usage
error.

Each subcommand imports the library modules it runs when it runs, so one
process loads only those (`theta eval`: core and theta).
"""

import argparse
import cmath
import json
import math
import sys

from .core import DEFAULT_BUDGET, DomainError, EvaluationError, TruncationBudget, TruncationError

PI = math.pi


class UsageError(Exception):
    """Bad invocation or malformed input; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_COMPLEX_OPTIONS = ("--tau", "--z", "--w")


def _join_complex_values(argv):
    """Join a complex-valued option to a following '-'-led value (--z -1+2i
    becomes --z=-1+2i), which argparse would otherwise read as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _COMPLEX_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def parse_complex(text):
    """Parse a command-line complex literal of the form a+bi; nan parts are rejected."""
    s = str(text).strip().replace(" ", "").replace("I", "i")
    try:
        value = complex(s.replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse complex literal {text!r}; expected the form a+bi") from None
    if cmath.isnan(value):
        raise UsageError(f"complex literal {text!r} has a nan part")
    return value


def _finite_float(text):
    """argparse type of a real option that must be a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text):
    """argparse type of a tolerance: a finite number > 0."""
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _cnum(value):
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from None


def _load_element(path, cls):
    try:
        return cls.from_dict(_load_json(path))
    except DomainError as exc:
        raise UsageError(f"malformed element in {path}: {exc}") from None


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _flatten(record):
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict) and set(value) == {"re", "im"}:
            flat[f"{key}_re"] = value["re"]
            flat[f"{key}_im"] = value["im"]
        else:
            flat[key] = value
    return flat


def _to_csv(rows):
    import csv
    import io

    if not rows:
        return ""
    flat = [_flatten(r) for r in rows]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat)
    return buf.getvalue().rstrip("\n")


def _format(payload, rows, fmt):
    if fmt == "csv":
        return _to_csv(rows)
    return json.dumps(payload, indent=2)


def _cmd_theta_eval(args):
    from .theta import ThetaArgs, riemann_theta

    budget = TruncationBudget(tol=args.tol) if args.tol is not None else DEFAULT_BUDGET
    value = riemann_theta(ThetaArgs(args.alpha, args.beta, parse_complex(args.tau)), parse_complex(args.z), budget)
    payload = _cnum(value)
    return 0, payload, [{"value": payload}]


def _cmd_fock_psi(args):
    from .fock import SpaceParams, basis_psi

    params = SpaceParams(args.nu, args.alpha)
    value = basis_psi(args.n, parse_complex(args.z), params)
    payload = _cnum(value)
    return 0, payload, [{"value": payload}]


def _cmd_fock_gram(args):
    from .fock import SpaceParams
    from .landau import basis_psi_mn
    from .quadrature import strip_gram

    params = SpaceParams(args.nu, args.alpha)
    if args.nmax < args.nmin:
        raise UsageError(f"--nmax must be >= --nmin, got {args.nmin}..{args.nmax}")
    if args.mlevels < 0:
        raise UsageError(f"--mlevels must be >= 0, got {args.mlevels}")
    modes = [(m, n) for m in range(0, args.mlevels + 1) for n in range(args.nmin, args.nmax + 1)]
    fs = [(n, lambda z, m=m, n=n: basis_psi_mn(m, n, z, params)) for m, n in modes]
    entries = []
    for (m1, n1), row in zip(modes, strip_gram(fs, params.nu, params.alpha).tolist()):
        for (m2, n2), ip in zip(modes, row):
            entries.append({"row_m": m1, "row_n": n1, "col_m": m2, "col_n": n2, "re": ip.real, "im": ip.imag})
    payload = {"nu": params.nu, "alpha": params.alpha, "entries": entries}
    return 0, payload, entries


def _cmd_fock_kernel(args):
    from .fock import SpaceParams, reproducing_kernel

    params = SpaceParams(args.nu, args.alpha)
    value = reproducing_kernel(parse_complex(args.z), parse_complex(args.w), params, path=args.path)
    payload = _cnum(value)
    return 0, payload, [{"value": payload}]


def _cmd_fock_member(args):
    from .fock import SpaceParams, theta_membership
    from .theta import ThetaArgs

    params = SpaceParams(args.nu, args.alpha)
    result = theta_membership(ThetaArgs(args.alpha, args.beta, parse_complex(args.tau)), params)
    payload = {"in_space": result.in_space, "norm": result.norm}
    return 0, payload, [payload]


def _cmd_bargmann_forward(args):
    from .bargmann import LineElement, bargmann_transform_coeffs

    line_elem = _load_element(args.infile, LineElement)
    fock_elem = bargmann_transform_coeffs(line_elem, args.nu)
    if args.z is not None:
        value = fock_elem.evaluate(parse_complex(args.z))
        payload = _cnum(value)
        return 0, payload, [{"value": payload}]
    payload = fock_elem.to_dict()
    if args.out is not None:
        _write_json(args.out, payload)
    return 0, payload, [dict(c) for c in payload["coeffs"]]


def _cmd_bargmann_inverse(args):
    from .bargmann import bargmann_inverse
    from .fock import FockElement

    fock_elem = _load_element(args.infile, FockElement)
    value = bargmann_inverse(fock_elem, args.q)
    payload = _cnum(value)
    return 0, payload, [{"value": payload}]


def _cmd_landau_apply(args):
    from .landau import LandauElement, landau_apply

    elem = _load_element(args.infile, LandauElement)
    value = landau_apply(elem.evaluate, parse_complex(args.z), elem.params)
    payload = _cnum(value)
    return 0, payload, [{"value": payload}]


def _cmd_landau_shift(args):
    from .landau import LandauElement

    elem = _load_element(args.infile, LandauElement)
    shifted = elem.raised() if args.direction == "raise" else elem.lowered()
    payload = shifted.to_dict()
    _write_json(args.out, payload)
    return 0, payload, [dict(c) for c in payload["coeffs"]]


def _cmd_landau_eigres(args):
    from .fock import SpaceParams
    from .landau import SAMPLE_Z, eigen_residual

    params = SpaceParams(args.nu, args.alpha)
    residual = eigen_residual(args.m, args.n, params, SAMPLE_Z)
    payload = {"m": args.m, "n": args.n, "eigenvalue": params.nu * args.m, "residual": residual}
    return 0, payload, [payload]


def _cmd_verify_all(args):
    from .verify import run_acceptance

    report = run_acceptance(args.tol)
    payload = report.to_dict()
    code = 0 if report.all_passed else 2
    return code, payload, [c.to_dict() for c in report.cases]


def build_parser():
    parser = _Parser(
        prog="thetafock",
        description="Quasi-periodic theta function spaces: evaluation, transforms, verification.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def leaf(group, name, handler, **defaults):
        sub = group.add_parser(name)
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.set_defaults(handler=handler, **defaults)
        return sub

    theta_group = top.add_parser("theta").add_subparsers(dest="command", required=True)
    sub = leaf(theta_group, "eval", _cmd_theta_eval)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--beta", type=float, required=True)
    sub.add_argument("--tau", required=True)
    sub.add_argument("--z", required=True)
    sub.add_argument("--tol", type=_tolerance, default=None)

    fock_group = top.add_parser("fock").add_subparsers(dest="command", required=True)
    sub = leaf(fock_group, "psi", _cmd_fock_psi)
    sub.add_argument("--nu", type=float, required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--z", required=True)
    sub = leaf(fock_group, "gram", _cmd_fock_gram)
    sub.add_argument("--nu", type=float, required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--nmin", type=int, required=True)
    sub.add_argument("--nmax", type=int, required=True)
    sub.add_argument("--mlevels", type=int, default=0)
    sub = leaf(fock_group, "kernel", _cmd_fock_kernel)
    sub.add_argument("--nu", type=float, required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--z", required=True)
    sub.add_argument("--w", required=True)
    sub.add_argument("--path", choices=("theta", "sum"), default="theta")
    sub = leaf(fock_group, "member", _cmd_fock_member)
    sub.add_argument("--nu", type=float, required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--beta", type=float, required=True)
    sub.add_argument("--tau", required=True)

    bargmann_group = top.add_parser("bargmann").add_subparsers(dest="command", required=True)
    sub = leaf(bargmann_group, "forward", _cmd_bargmann_forward)
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--nu", type=float, default=PI)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--z", default=None)
    group.add_argument("--out", default=None)
    sub = leaf(bargmann_group, "inverse", _cmd_bargmann_inverse)
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--q", type=_finite_float, required=True)

    landau_group = top.add_parser("landau").add_subparsers(dest="command", required=True)
    sub = leaf(landau_group, "apply", _cmd_landau_apply)
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--z", required=True)
    sub = leaf(landau_group, "raise", _cmd_landau_shift, direction="raise")
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--out", required=True)
    sub = leaf(landau_group, "lower", _cmd_landau_shift, direction="lower")
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--out", required=True)
    sub = leaf(landau_group, "eigres", _cmd_landau_eigres)
    sub.add_argument("--nu", type=float, required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)

    verify_group = top.add_parser("verify").add_subparsers(dest="command", required=True)
    sub = leaf(verify_group, "all", _cmd_verify_all)
    sub.add_argument("--tol", type=_tolerance, default=None)

    return parser


def run_command(argv):
    """Execute one subcommand; returns (exit code, textual output)."""
    parser = build_parser()
    try:
        args = parser.parse_args(_join_complex_values(argv))
        code, payload, rows = args.handler(args)
        return code, _format(payload, rows, args.format)
    except UsageError as exc:
        return 64, f"usage error: {exc}"
    except (DomainError, TruncationError, EvaluationError, OverflowError) as exc:
        return 1, f"error: {exc}"


def main(argv=None):
    code, text = run_command(sys.argv[1:] if argv is None else list(argv))
    print(text, file=sys.stderr if code in (1, 64) else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
