"""Command-line front end.

Subcommands evaluate theta series, space modes and kernels, run the
Bargmann transform forward and backward on serialized elements, apply the
Landau operator and its ladder shifts, and execute the acceptance suite.
Output is JSON by default or CSV with --format csv (complex values flatten
into paired _re/_im columns).  Complex literals (a+bi) and negative reals
(-1e-3) are spaced from their option or joined to it with '='.  Output
is always plain text, so NO_COLOR needs no special handling.  Exit codes:
0 success, 1 domain or numerical error, 2 verification failure, 64 usage
error.

Handlers reach the library as tf.<name>, through the package's lazy names
(PEP 562), which import a module on its first use: one process loads only the
modules its subcommand runs (`theta eval`: core and theta).
"""

import argparse
import cmath
import json
import math
import os
import sys

import thetafock as tf

from .core import DEFAULT_BUDGET, DomainError, EvaluationError, TruncationBudget, TruncationError


class UsageError(Exception):
    """Bad invocation or malformed input; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_NUMBER_OPTIONS = ("--alpha", "--beta", "--nu", "--q", "--tol", "--tau", "--z", "--w")


def _join_number_values(argv):
    """Join a number-valued option to a following '-'-led value (--z -1+2i becomes
    --z=-1+2i, --alpha -1e-3 --alpha=-1e-3), which argparse would read as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _NUMBER_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def parse_complex(text):
    """Parse a command-line complex literal of the form a+bi; a nan part, or one beyond the double range, is
    rejected."""
    s = str(text).strip().replace(" ", "").replace("I", "i")
    try:
        value = complex(s.replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse complex literal {text!r}; expected the form a+bi") from None
    if cmath.isnan(value):
        raise UsageError(f"complex literal {text!r} has a nan part")
    if cmath.isinf(value):
        raise UsageError(f"complex literal {text!r} has a part beyond the double range")
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


def _value(value):
    """Result of a leaf that prints one complex number."""
    value = complex(value)
    payload = {"re": value.real, "im": value.imag}
    return 0, payload, [{"value": payload}]


def _element_out(elem, out):
    """Result of a leaf that prints an element, and writes it to the path `out` unless that is None;
    a path that cannot be written is a usage error."""
    payload = elem.to_dict()
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write output file {out}: {exc}") from None
    return 0, payload, [dict(c) for c in payload["coeffs"]]


def _load_element(path, cls):
    """The cls element stored as JSON at path; a missing, unreadable or malformed file is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, a file without read access, bytes not in UTF-8
        raise UsageError(f"cannot read input file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from None
    except DomainError as exc:
        raise UsageError(f"malformed element in {path}: {exc}") from None


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


def _cmd_theta_eval(args):
    targs = tf.ThetaArgs(args.alpha, args.beta, parse_complex(args.tau))
    budget = TruncationBudget(tol=args.tol) if args.tol is not None else DEFAULT_BUDGET
    return _value(tf.riemann_theta(targs, parse_complex(args.z), budget))


def _cmd_fock_psi(args):
    params = tf.SpaceParams(args.nu, args.alpha)
    return _value(tf.basis_psi(args.n, parse_complex(args.z), params))


def _cmd_fock_gram(args):
    params = tf.SpaceParams(args.nu, args.alpha)
    if args.nmax < args.nmin:
        raise UsageError(f"--nmax must be >= --nmin, got {args.nmin}..{args.nmax}")
    if args.mlevels < 0:
        raise UsageError(f"--mlevels must be >= 0, got {args.mlevels}")
    modes = [(m, n) for m in range(0, args.mlevels + 1) for n in range(args.nmin, args.nmax + 1)]
    fs = [(n, lambda z, m=m, n=n: tf.basis_psi_mn(m, n, z, params)) for m, n in modes]
    entries = []
    for (m1, n1), row in zip(modes, tf.strip_gram(fs, params.nu, params.alpha).tolist()):
        for (m2, n2), ip in zip(modes, row):
            entries.append({"row_m": m1, "row_n": n1, "col_m": m2, "col_n": n2, "re": ip.real, "im": ip.imag})
    payload = {"nu": params.nu, "alpha": params.alpha, "entries": entries}
    return 0, payload, entries


def _cmd_fock_kernel(args):
    params = tf.SpaceParams(args.nu, args.alpha)
    return _value(tf.reproducing_kernel(parse_complex(args.z), parse_complex(args.w), params, path=args.path))


def _cmd_fock_member(args):
    params = tf.SpaceParams(args.nu, args.alpha)
    result = tf.theta_membership(tf.ThetaArgs(args.alpha, args.beta, parse_complex(args.tau)), params)
    payload = {"in_space": result.in_space, "norm": result.norm}
    return 0, payload, [payload]


def _cmd_bargmann_forward(args):
    fock_elem = tf.bargmann_transform_coeffs(_load_element(args.infile, tf.LineElement), args.nu)
    if args.z is not None:
        return _value(fock_elem.evaluate(parse_complex(args.z)))
    return _element_out(fock_elem, args.out)


def _cmd_bargmann_inverse(args):
    return _value(tf.bargmann_inverse(_load_element(args.infile, tf.FockElement), args.q))


def _cmd_landau_apply(args):
    elem = _load_element(args.infile, tf.LandauElement)
    return _value(tf.landau_apply(elem.evaluate, parse_complex(args.z), elem.params))


def _cmd_landau_shift(args):
    elem = _load_element(args.infile, tf.LandauElement)
    return _element_out(elem.raised() if args.direction == "raise" else elem.lowered(), args.out)


def _cmd_landau_eigres(args):
    params = tf.SpaceParams(args.nu, args.alpha)
    residual = tf.eigen_residual(args.m, args.n, params, tf.landau.SAMPLE_Z)
    payload = {"m": args.m, "n": args.n, "eigenvalue": params.nu * args.m, "residual": residual}
    return 0, payload, [payload]


def _cmd_verify_all(args):
    report = tf.run_acceptance(args.tol)
    code = 0 if report.all_passed else 2
    return code, report.to_dict(), [c.to_dict() for c in report.cases]


# Every option, declared once as its add_argument keywords; bargmann forward adds its optional --nu, --z and --out.
_OPTIONS = {
    "--alpha": {"type": _finite_float, "required": True},
    "--beta": {"type": _finite_float, "required": True},
    "--nu": {"type": _finite_float, "required": True},
    "--tau": {"required": True},
    "--z": {"required": True},
    "--w": {"required": True},
    "--n": {"type": int, "required": True},
    "--m": {"type": int, "required": True},
    "--nmin": {"type": int, "required": True},
    "--nmax": {"type": int, "required": True},
    "--mlevels": {"type": int, "default": 0},
    "--path": {"choices": ("theta", "sum"), "default": "theta"},
    "--in": {"dest": "infile", "required": True},
    "--out": {"required": True},
    "--q": {"type": _finite_float, "required": True},
    "--tol": {"type": _tolerance, "default": None},
}

# (group, leaf, handler, options in help order, fixed defaults); groups appear in first-use order.
_LEAVES = (
    ("theta", "eval", _cmd_theta_eval, ("--alpha", "--beta", "--tau", "--z", "--tol"), {}),
    ("fock", "psi", _cmd_fock_psi, ("--nu", "--alpha", "--n", "--z"), {}),
    ("fock", "gram", _cmd_fock_gram, ("--nu", "--alpha", "--nmin", "--nmax", "--mlevels"), {}),
    ("fock", "kernel", _cmd_fock_kernel, ("--nu", "--alpha", "--z", "--w", "--path"), {}),
    ("fock", "member", _cmd_fock_member, ("--nu", "--alpha", "--beta", "--tau"), {}),
    ("bargmann", "forward", _cmd_bargmann_forward, ("--in",), {}),
    ("bargmann", "inverse", _cmd_bargmann_inverse, ("--in", "--q"), {}),
    ("landau", "apply", _cmd_landau_apply, ("--in", "--z"), {}),
    ("landau", "raise", _cmd_landau_shift, ("--in", "--out"), {"direction": "raise"}),
    ("landau", "lower", _cmd_landau_shift, ("--in", "--out"), {"direction": "lower"}),
    ("landau", "eigres", _cmd_landau_eigres, ("--nu", "--alpha", "--m", "--n"), {}),
    ("verify", "all", _cmd_verify_all, ("--tol",), {}),
)


def build_parser(argv=()):
    """The parser of the one leaf whose group and name begin argv, or of every leaf if argv names none."""
    parser = _Parser(
        prog="thetafock",
        description="Quasi-periodic theta function spaces: evaluation, transforms, verification.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups, named = {}, [leaf for leaf in _LEAVES if leaf[:2] == tuple(argv[:2])]
    for group, name, handler, options, defaults in named or _LEAVES:
        if group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(dest="command", required=True)
        sub = groups[group].add_parser(name)
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.set_defaults(handler=handler, **defaults)
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
        if handler is _cmd_bargmann_forward:  # evaluates at --z, or writes --out, or prints; --nu defaults to pi
            sub.add_argument("--nu", type=_finite_float, default=math.pi)
            exclusive = sub.add_mutually_exclusive_group()
            exclusive.add_argument("--z", default=None)
            exclusive.add_argument("--out", default=None)
    return parser


def run_command(argv):
    """Execute one subcommand; returns (exit code, textual output)."""
    argv = _join_number_values(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        code, payload, rows = args.handler(args)
        return code, _to_csv(rows) if args.format == "csv" else json.dumps(payload, indent=2)
    except UsageError as exc:
        return 64, f"usage error: {exc}"
    except (DomainError, TruncationError, EvaluationError, OverflowError) as exc:
        return 1, f"error: {exc}"


def main(argv=None):
    code, text = run_command(sys.argv[1:] if argv is None else list(argv))
    try:
        print(text, file=sys.stderr if code in (1, 64) else sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`| head`): exit 1 as for EPIPE, with stdout on devnull so that the
        # flush at exit raises nothing more (Python's note on SIGPIPE in the signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
