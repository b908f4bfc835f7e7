"""Command-line interface: grammar, formats, determinism, exit codes."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import thetafock
from thetafock.cli import parse_complex, run_command
from thetafock.fock import FockElement, SpaceParams, basis_psi, reproducing_kernel
from thetafock.landau import LandauElement, basis_psi_mn
from thetafock.theta import ThetaArgs, riemann_theta


def run_ok(argv):
    code, text = run_command(argv)
    assert code == 0, text
    return text


def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("1.5-2i") == 1.5 - 2j
    assert parse_complex("-2i") == -2j
    assert parse_complex("3") == 3.0
    assert parse_complex("1e-3+2.5e-1i") == complex(1e-3, 0.25)


def test_parse_complex_rejects_garbage():
    from thetafock.cli import UsageError

    for bad in ("zzz", "1+;2i", ""):
        with pytest.raises(UsageError):
            parse_complex(bad)


def test_negative_complex_values_spaced_or_joined():
    theta = ["theta", "eval", "--alpha", "0", "--beta", "0"]
    spaced = run_ok(theta + ["--tau", "-0.1+1i", "--z", "-0.5+0.1i"])
    assert spaced == run_ok(theta + ["--tau=-0.1+1i", "--z=-0.5+0.1i"])
    kernel = ["fock", "kernel", "--nu", "3.14", "--alpha", "0.3", "--z", "0.5"]
    assert run_ok(kernel + ["--w", "-2i"]) == run_ok(kernel + ["--w=-2i"])
    psi = ["fock", "psi", "--nu", "2", "--alpha", "0.3", "--z", "0.1"]
    assert run_ok(psi + ["--n", "-3"]) == run_ok(psi + ["--n=-3"])


_THETA = ["theta", "eval", "--alpha", "0.3", "--beta", "0.1", "--tau", "0.2+0.7i", "--z", "0.3+0.2i"]
# option -> (its leaf's argv without it, a '-'-led value in exponent form)
_NEGATIVE_VALUES = {
    "--alpha": (_THETA[:2] + _THETA[4:], "-1e-3"),
    "--beta": (_THETA[:4] + _THETA[6:], "-2.5e-1"),
    "--nu": (["fock", "psi", "--alpha", "0.3", "--n", "1", "--z", "0.1"], "-inf"),
    "--q": (["bargmann", "inverse", "--in", "{fock}"], "-1e-1"),
    "--tol": (_THETA, "-1e-3"),
    "--tau": (_THETA[:6] + _THETA[8:], "-1e-1+7e-1i"),
    "--z": (["fock", "psi", "--nu", "2", "--alpha", "0.3", "--n", "1"], "-1e-3-2e-1i"),
    "--w": (["fock", "kernel", "--nu", "2", "--alpha", "0.3", "--z", "0.1"], "-1e-3+2e-1i"),
}


@pytest.mark.parametrize("option", sorted(_NEGATIVE_VALUES))
def test_negative_numbers_spaced_or_joined(option, tmp_path):
    fock = tmp_path / "fock.json"
    fock.write_text(FockElement.from_psi_coeffs(SpaceParams(2.0, 0.3), {0: 1.0, 1: 0.5j}).to_json())
    argv, value = _NEGATIVE_VALUES[option]
    argv = [a.format(fock=fock) for a in argv]
    spaced, joined = run_command(argv + [option, value]), run_command(argv + [f"{option}={value}"])
    assert spaced == joined
    assert "expected one argument" not in spaced[1]
    if option in ("--nu", "--tol"):
        assert spaced[0] == 64  # -inf and a negative tolerance are usage errors, read as values


def test_theta_eval_known_value():
    text = run_ok(["theta", "eval", "--alpha", "0", "--beta", "0", "--tau", "0+1i", "--z", "0+0i"])
    payload = json.loads(text)
    assert payload["re"] == pytest.approx(1.0864348112133080, rel=1e-12)
    assert payload["im"] == pytest.approx(0.0, abs=1e-15)


def test_theta_eval_matches_library():
    text = run_ok(
        ["theta", "eval", "--alpha", "0.3", "--beta", "0.1", "--tau", "0+2i", "--z", "0.1+0.1i"]
    )
    payload = json.loads(text)
    ref = riemann_theta(ThetaArgs(0.3, 0.1, 2j), 0.1 + 0.1j)
    assert complex(payload["re"], payload["im"]) == pytest.approx(ref, rel=1e-14)


def test_output_determinism():
    argv = ["fock", "kernel", "--nu", "3.14159265", "--alpha", "0.3", "--z", "0.2+0.1i", "--w", "0.4-0.3i"]
    assert run_ok(argv) == run_ok(argv)


def test_fock_psi_value():
    text = run_ok(["fock", "psi", "--nu", "3.14159265", "--alpha", "0.3", "--n", "1", "--z", "0.2+0.1i"])
    payload = json.loads(text)
    ref = basis_psi(1, 0.2 + 0.1j, SpaceParams(3.14159265, 0.3))
    assert complex(payload["re"], payload["im"]) == pytest.approx(ref, rel=1e-14)


def test_fock_gram_identity():
    text = run_ok(["fock", "gram", "--nu", "3.14159265", "--alpha", "0.3", "--nmin", "-2", "--nmax", "2"])
    payload = json.loads(text)
    entries = payload["entries"]
    assert len(entries) == 25
    for entry in entries:
        expect = 1.0 if entry["row_n"] == entry["col_n"] else 0.0
        assert abs(complex(entry["re"], entry["im"]) - expect) <= 1e-8


def test_fock_kernel_paths_agree():
    base = ["fock", "kernel", "--nu", "3.14159265", "--alpha", "0.3", "--z", "0.2+0.1i", "--w", "0.4-0.3i"]
    a = json.loads(run_ok(base))
    b = json.loads(run_ok(base + ["--path", "sum"]))
    assert complex(a["re"], a["im"]) == pytest.approx(complex(b["re"], b["im"]), rel=1e-9)


def test_fock_member_payload():
    text = run_ok(["fock", "member", "--nu", "3.141592653589793", "--alpha", "0.3", "--beta", "0.1", "--tau", "0+2i"])
    payload = json.loads(text)
    assert payload["in_space"] is True
    assert payload["norm"] == pytest.approx(0.6589775957622392, rel=1e-10)
    text = run_ok(["fock", "member", "--nu", "3.141592653589793", "--alpha", "0.3", "--beta", "0.1", "--tau", "0+0.5i"])
    payload = json.loads(text)
    assert payload["in_space"] is False
    assert payload["norm"] is None


def test_bargmann_forward_and_inverse(tmp_path):
    line_path = tmp_path / "line.json"
    line_path.write_text(
        json.dumps({"alpha": 0.3, "coeffs": [{"n": 0, "re": 1.0, "im": 0.0}, {"n": 2, "re": 0.5, "im": -0.3}]})
    )
    out_path = tmp_path / "fock.json"
    run_ok(["bargmann", "forward", "--in", str(line_path), "--out", str(out_path)])
    elem = FockElement.from_json(out_path.read_text())
    assert elem.params.nu == pytest.approx(math.pi)
    psi_coeffs = elem.psi_coeffs()
    assert psi_coeffs[0] == pytest.approx(1.0, rel=1e-12)
    assert psi_coeffs[2] == pytest.approx(0.5 - 0.3j, rel=1e-12)

    text = run_ok(["bargmann", "forward", "--in", str(line_path), "--z", "0.2+0.1i"])
    payload = json.loads(text)
    ref = elem.evaluate(0.2 + 0.1j)
    assert complex(payload["re"], payload["im"]) == pytest.approx(ref, rel=1e-12)

    text = run_ok(["bargmann", "inverse", "--in", str(out_path), "--q", "0.7"])
    payload = json.loads(text)
    ref = (phi(0, 0.7) + (0.5 - 0.3j) * phi(2, 0.7))
    assert complex(payload["re"], payload["im"]) == pytest.approx(ref, rel=1e-8)


def phi(n, q):
    from thetafock.bargmann import phi_basis

    return phi_basis(n, q, 0.3)


def test_landau_commands(tmp_path):
    elem = LandauElement(SpaceParams(math.pi, 0.3), {(1, 0): 1.0, (0, 1): 0.5j})
    in_path = tmp_path / "elem.json"
    in_path.write_text(elem.to_json())

    text = run_ok(["landau", "apply", "--in", str(in_path), "--z", "0.2+0.1i"])
    payload = json.loads(text)
    ref = math.pi * basis_psi_mn(1, 0, 0.2 + 0.1j, elem.params)
    assert abs(complex(payload["re"], payload["im"]) - ref) <= 1e-5 * abs(ref)

    up_path = tmp_path / "up.json"
    run_ok(["landau", "raise", "--in", str(in_path), "--out", str(up_path)])
    up = LandauElement.from_json(up_path.read_text())
    assert up.coeff_dict() == {(2, 0): 1.0, (1, 1): 0.5j}

    down_path = tmp_path / "down.json"
    run_ok(["landau", "lower", "--in", str(in_path), "--out", str(down_path)])
    down = LandauElement.from_json(down_path.read_text())
    assert down.coeff_dict() == {(0, 0): 1.0}

    text = run_ok(["landau", "eigres", "--nu", "3.14159265", "--alpha", "0.3", "--m", "2", "--n", "0"])
    payload = json.loads(text)
    assert payload["residual"] <= 1e-5
    assert payload["eigenvalue"] == pytest.approx(2 * 3.14159265)


def test_verify_all_passes():
    code, text = run_command(["verify", "all"])
    assert code == 0
    payload = json.loads(text)
    assert payload["suite"] == "acceptance"
    assert all(case["pass"] for case in payload["cases"])
    # report round-trips through its own schema
    assert json.loads(json.dumps(payload)) == payload


def test_verify_tolerance_sensitivity_split():
    code, text = run_command(["verify", "all", "--tol", "1e-15"])
    assert code == 2
    payload = json.loads(text)
    by_name = {case["name"]: case["pass"] for case in payload["cases"]}
    # quadrature-backed cases cannot reach 1e-15; exact bookkeeping can
    assert not by_name["01-orthonormal-basis"]
    assert by_name["11-ladder-coefficients"]
    assert by_name["07-membership-decisions"]
    # the override keeps every case and its measured value; only the tolerance changes
    plain = json.loads(run_ok(["verify", "all"]))["cases"]
    assert [(c["name"], c["actual"]) for c in payload["cases"]] == [(c["name"], c["actual"]) for c in plain]
    assert {c["tolerance"] for c in payload["cases"]} == {1e-15}


def test_verify_csv_format():
    code, text = run_command(["verify", "all", "--format", "csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "name,expected,actual,tolerance,pass"
    assert len(lines) == 20  # header + 19 cases
    assert "wall_time" not in text


def test_csv_flattens_complex():
    code, text = run_command(
        ["theta", "eval", "--alpha", "0", "--beta", "0", "--tau", "0+1i", "--z", "0+0i", "--format", "csv"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "value_re,value_im"
    re_str, im_str = lines[1].split(",")
    assert float(re_str) == pytest.approx(1.0864348112133080, rel=1e-12)
    assert float(im_str) == 0.0


def test_exit_codes():
    code, _ = run_command(["theta", "eval", "--alpha", "0", "--beta", "0", "--tau", "0-1i", "--z", "0"])
    assert code == 1  # domain error
    code, _ = run_command(["theta", "eval", "--alpha", "0", "--beta", "0", "--tau", "xx", "--z", "0"])
    assert code == 64  # bad literal
    code, _ = run_command(["nonsense"])
    assert code == 64
    code, _ = run_command(["fock", "gram", "--nu", "3.14", "--alpha", "0.3", "--nmin", "2", "--nmax", "-2"])
    assert code == 64
    code, _ = run_command(["bargmann", "inverse", "--in", "/does/not/exist.json", "--q", "0.1"])
    assert code == 64


def test_inverse_names_the_coefficient_that_overflowed(tmp_path):
    # a_6 = 1 is stored, but c_6 = a_6 ||e_6|| ~ e^783 at nu = 0.5 is past the double range
    elem = tmp_path / "fock.json"
    elem.write_text(FockElement(SpaceParams(0.5, 0.3), {6: 1.0}).to_json())
    code, text = run_command(["bargmann", "inverse", "--in", str(elem), "--q", "0.4"])
    assert (code, text) == (1, "error: psi coefficient c_6 overflowed the double range")


def test_non_finite_numbers_are_usage_errors(tmp_path):
    elem = tmp_path / "fock.json"
    elem.write_text(FockElement.from_psi_coeffs(SpaceParams(math.pi, 0.3), {0: 1.0}).to_json())
    for q in ("nan", "inf", "abc"):
        code, text = run_command(["bargmann", "inverse", "--in", str(elem), "--q", q])
        assert code == 64, text
    theta = ["theta", "eval", "--alpha", "0", "--beta", "0", "--tau", "0+1i"]
    for z in ("nan", "1+nani", "nan-2i"):
        code, text = run_command(theta + ["--z", z])
        assert code == 64, text
    bad_reals = (
        ("--nu", ["fock", "psi", "--nu", "{}", "--alpha", "0.3", "--n", "1", "--z", "0.2"]),
        ("--nu", ["bargmann", "forward", "--in", str(elem), "--nu", "{}"]),
        ("--alpha", ["theta", "eval", "--alpha", "{}", "--beta", "0", "--tau", "2i", "--z", "0.2"]),
        ("--beta", ["fock", "member", "--nu", "3.14", "--alpha", "0.3", "--beta", "{}", "--tau", "2i"]),
    )
    for option, argv in bad_reals:
        for bad in ("nan", "inf"):
            code, text = run_command([a.format(bad) for a in argv])
            assert code == 64 and text.startswith(f"usage error: argument {option}: expected a finite number"), text


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(thetafock.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "thetafock.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=120)

    ok = run("fock", "psi", "--nu", "3.14159265", "--alpha", "0.3", "--n", "1", "--z", "0.2+0.1i")
    assert ok.returncode == 0 and ok.stderr == ""
    assert json.loads(ok.stdout) == json.loads(run_ok(["fock", "psi", "--nu", "3.14159265", "--alpha", "0.3",
                                                       "--n", "1", "--z", "0.2+0.1i"]))
    bad = run("nonsense")
    assert bad.returncode == 64 and bad.stdout == ""
    assert bad.stderr.startswith("usage error:")


def test_malformed_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, text = run_command(["bargmann", "forward", "--in", str(bad)])
    assert code == 64
    bad.write_text(json.dumps({"alpha": 0.3}))  # missing coeffs
    code, text = run_command(["bargmann", "forward", "--in", str(bad)])
    assert code == 64


def test_bad_coefficient_or_fractional_index_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    for row in ({"n": 0, "re": "x", "im": 0}, {"n": 0.5, "re": 1, "im": 0}):
        bad.write_text(json.dumps({"alpha": 0.3, "coeffs": [row]}))
        code, text = run_command(["bargmann", "forward", "--in", str(bad), "--z", "0.1"])
        assert code == 64, text


@pytest.mark.parametrize("tol", ("inf", "nan", "0", "-1"))
def test_tol_must_be_finite_and_positive(tol):
    theta = ["theta", "eval", "--alpha", "0", "--beta", "0", "--tau", "0+1i", "--z", "0"]
    for argv in (theta, ["verify", "all"]):
        code, text = run_command(argv + ["--tol", tol])
        assert code == 64 and text.startswith("usage error: argument --tol:"), text


def test_fock_gram_negative_mlevels_is_usage_error():
    gram = ["fock", "gram", "--nu", "3.14", "--alpha", "0.3", "--nmin", "0", "--nmax", "1", "--mlevels", "-1"]
    for fmt in ("json", "csv"):
        code, text = run_command(gram + ["--format", fmt])
        assert code == 64 and "--mlevels" in text, text


def _parser_leaves():
    """{(group, leaf): set of --options other than --format and --help} of build_parser's parser."""
    import argparse

    from thetafock.cli import build_parser

    def choices(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def options(leaf):
        return {o for a in leaf._actions for o in a.option_strings if o.startswith("--")} - {"--format", "--help"}

    return {(group, name): options(leaf) for group, sub in choices(build_parser()).items()
            for name, leaf in choices(sub).items()}


def test_readme_synopsis_lists_every_leaf_and_option():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    synopsis = {}
    for line in readme.splitlines():
        if line.startswith("thetafock "):
            _, group, name, rest = line.split(None, 3)
            synopsis[group, name] = set(re.findall(r"--[a-z]+", rest))
    assert synopsis == _parser_leaves()
