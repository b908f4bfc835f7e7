"""The timed process: runs one workload's rounds against thetafock.

    python perfbench/worker.py --workload W --seed N --seconds S --trace T --out DIR
    python perfbench/worker.py --setup W --seed N

run.py starts it with PYTHONPATH=src and every BLAS thread count at 1;
the cli children inherit the thread counts, not PYTHONPATH.  It imports
thetafock (never mpmath), builds the seeded round from workloads.py, makes
one warm-up call per operation family, then runs whole rounds while the next
one fits in S seconds (at least one; three for cli, two with --trace 1).
Only the public call is inside each operation's timer.  The outputs of round 1 go to
DIR/outputs.npz for run.py to check; every later round is compared with
round 1 and the operations that differ are listed per round.

For the cli workload each operation is a `python -m thetafock.cli` process
run from src; the process wall times are the latencies.  With --trace 1 the
same argv list goes through thetafock.cli.run_command in this process.

With --trace 1, untraced and traced rounds alternate; the per-layer metrics
are the medians over traced rounds and the spans of the first traced round
are written to DIR/trace.json.  --setup makes only the imports and the
warm-up calls, for run.py's set-up timing.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _params(tf, a):
    return tf.fock.SpaceParams(a["nu"], a["alpha"])


def make_call(tf, op):
    """A zero-argument callable making the op's public call.  Library
    functions are looked up at call time, so the tracer's patches apply."""
    a, fam = op.args, op.family
    fock, theta, bargmann, landau, quad = tf.fock, tf.theta, tf.bargmann, tf.landau, tf.quadrature
    if fam in ("theta", "grid_theta"):
        args = theta.ThetaArgs(a["alpha"], a["beta"], a["tau"])
        z = workloads.grid_points(*a["points"]) if fam == "grid_theta" else a["z"]
        return lambda: theta.riemann_theta(args, z)
    if fam == "theta3":
        return lambda: theta.jacobi_theta3(a["z"], a["tau"])
    if fam in ("kernel", "grid_kernel_theta", "grid_kernel_sum"):
        p = _params(tf, a)
        z = workloads.grid_points(*a["points"]) if fam != "kernel" else a["z"]
        return lambda: fock.reproducing_kernel(z, a["w"], p, path=a["path"])
    if fam in ("gen_G", "gen_A", "gen_sum", "grid_gen_G"):
        p = _params(tf, a)
        z = workloads.grid_points(*a["points"]) if fam == "grid_gen_G" else a["z"]
        name = {"gen_A": "bargmann_kernel_A", "gen_sum": "generating_kernel_sum"}.get(fam, "generating_kernel_G")
        return lambda: getattr(bargmann, name)(z, a["q"], p)
    if fam == "member":
        p = _params(tf, a)
        targs = theta.ThetaArgs(a["theta_alpha"], a["beta"], a["tau"])
        return lambda: fock.theta_membership(targs, p)
    if fam == "psi_mn":
        p = _params(tf, a)
        return lambda: landau.basis_psi_mn(a["m"], a["n"], a["z"], p)
    if fam in ("landau", "creation", "annihilation"):
        p = _params(tf, a)
        m, n = a["m"], a["n"]

        def f(w):
            return landau.basis_psi_mn(m, n, w, p)

        if fam == "landau":
            return lambda: landau.landau_apply(f, a["z"], p)
        if fam == "creation":
            return lambda: landau.creation_apply(f, a["z"], p)
        return lambda: landau.annihilation_apply(f, a["z"])
    if fam == "bpoint":
        p = _params(tf, a)
        n, al = a["n"], a["alpha"]
        return lambda: bargmann.bargmann_pointwise(lambda q: bargmann.phi_basis(n, q, al), a["z"], p)
    if fam == "eval_fock":
        elem = fock.FockElement.from_psi_coeffs(_params(tf, a), dict(a["coeffs"]))
        z = workloads.grid_points(*a["points"])
        return lambda: elem.evaluate(z)
    if fam == "eval_line":
        elem = bargmann.LineElement(a["alpha"], dict(a["coeffs"]))
        q = workloads.line_points(*a["qpoints"])
        return lambda: elem.evaluate(q)
    if fam == "eval_landau":
        elem = landau.LandauElement(_params(tf, a), dict(a["coeffs"]))
        z = workloads.grid_points(*a["points"])
        return lambda: elem.evaluate(z)
    if fam in ("gram_psi", "gram_psi_mn"):
        p = _params(tf, a)
        (m1, n1), (m2, n2) = a["row"], a["col"]
        scheme = quad.StripScheme.centered(p.nu, p.alpha, (n1 + n2) / 2.0)
        return lambda: quad.strip_inner_product(
            lambda z: landau.basis_psi_mn(m1, n1, z, p), lambda z: landau.basis_psi_mn(m2, n2, z, p), p.nu, scheme)
    if fam == "member_norm":
        p = _params(tf, a)
        elem = fock.FockElement.from_psi_coeffs(p, dict(a["coeffs"]))
        scheme = quad.StripScheme.centered(p.nu, p.alpha, elem.dominant_index())
        return lambda: quad.strip_inner_product(elem, elem, p.nu, scheme)
    if fam == "inverse":
        elem = fock.FockElement.from_psi_coeffs(_params(tf, a), dict(a["coeffs"]))
        q = np.array(a["q"])
        return lambda: bargmann.bargmann_inverse(elem, q)
    if fam == "line_ip":
        e1 = bargmann.LineElement(a["alpha"], dict(a["a"]))
        e2 = bargmann.LineElement(a["alpha"], dict(a["b"]))
        return lambda: quad.line_inner_product(e1, e2)
    raise ValueError(f"unknown family {fam!r}")


def as_output(value):
    """Library result as an ndarray (membership: [in_space, norm or nan])."""
    if hasattr(value, "in_space"):
        return np.array([float(value.in_space), np.nan if value.norm is None else value.norm])
    return np.asarray(value, dtype=complex)


def _stable(rec):
    """A CLI record without the wall time that `verify all` reports."""
    if '"wall_time"' not in rec["stdout"]:
        return rec
    payload = json.loads(rec["stdout"])
    payload.pop("wall_time", None)
    return dict(rec, stdout=payload)


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, dict):
        return _stable(a) == _stable(b)
    return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))


def run_calls(calls, tracer=None):
    """One round; returns (latencies in s, outputs, wall seconds)."""
    lat, outs = [], []
    clock = time.perf_counter
    start = clock()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            value = call()
            t1 = clock()
        except Exception as exc:  # the check counts it; the round goes on
            t1 = clock()
            value = type(exc).__name__
        lat.append(t1 - t0)
        outs.append(value)
    wall = clock() - start
    return lat, [v if isinstance(v, str) else as_output(v) for v in outs], wall


def warm_up(ops, calls):
    seen = set()
    for op, call in zip(ops, calls):
        if op.family not in seen:
            seen.add(op.family)
            try:
                call()
            except Exception:  # fault-slice calls raise; warming is all we want
                pass


# ------------------------------------------------------------------ cli mode


def cli_argv(op, workdir):
    """argv with input and output file names made absolute in workdir."""
    local = set(op.files) | {op.args.get("out")}
    return [os.path.join(workdir, a) if a in local else a for a in op.argv]


def cli_warm_argv(ops):
    """The first theta evaluation of the round: a warm-up that reads no file."""
    return next(op.argv for op in ops if op.family == "theta")


def cli_env():
    """This process's environment (thread counts set by run.py) without
    PYTHONPATH: the children import thetafock from their cwd, src."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def run_process(argv, src):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=src, env=cli_env(), capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - t0, proc


def cli_output(op, workdir, code, text):
    rec = {"code": code, "stdout": text}
    out = op.args.get("out")
    if out is not None and code == 0:
        with open(os.path.join(workdir, out), encoding="utf-8") as fh:
            rec["file"] = fh.read()
    return rec


def cli_round(ops, workdir, src):
    lat, outs = [], []
    for op in ops:
        dt, proc = run_process(["-m", "thetafock.cli", *cli_argv(op, workdir)], src)
        lat.append(dt)
        text = proc.stdout if proc.returncode not in (1, 64) else proc.stderr
        outs.append(cli_output(op, workdir, proc.returncode, text.rstrip("\n")))
    return lat, outs, sum(lat)


def cli_inprocess_round(tf, ops, workdir, tracer=None):
    lat, outs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        argv = cli_argv(op, workdir)
        t0 = time.perf_counter()
        code, text = tf.cli.run_command(argv)
        lat.append(time.perf_counter() - t0)
        outs.append(cli_output(op, workdir, code, text))
    return lat, outs, time.perf_counter() - start


def fresh_ms(code, src, count=5):
    """Median wall time (ms) of `python -c code` from src; when the code
    prints a number, the median of that number instead (seconds -> ms)."""
    vals = []
    for _ in range(count):
        dt, proc = run_process(["-c", code], src)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr)
        vals.append(float(proc.stdout) if proc.stdout.strip() else dt)
    return 1e3 * statistics.median(vals)


# ---------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--setup")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ns = ap.parse_args()
    src = os.path.join(os.getcwd(), "src")

    if ns.setup:
        ops = workloads.build(ns.setup, ns.seed)
        if ns.setup == "cli":
            import thetafock.cli as cli

            cli.run_command(cli_warm_argv(ops))
            return 0
        import thetafock as tf

        warm_up(ops, [make_call(tf, op) for op in ops])
        return 0

    name, workdir = ns.workload, ns.out
    ops = workloads.build(name, ns.seed)
    result = {"rounds": [], "latencies": [], "mismatch": []}
    deadline = time.perf_counter() + ns.seconds
    tracer = None
    layer_rounds = []
    traced_walls, plain_walls = [], []

    if name == "cli" and not ns.trace:
        def one_round(_traced):
            return cli_round(ops, workdir, src)
    else:
        import thetafock as tf
        from tracing import Tracer

        tracer = Tracer(tf) if ns.trace else None
        if name == "cli":
            import thetafock.cli  # noqa: F401

            def one_round(traced):
                return cli_inprocess_round(tf, ops, workdir, tracer if traced else None)
            tf.cli.run_command(cli_warm_argv(ops))
        else:
            calls = [make_call(tf, op) for op in ops]
            warm_up(ops, calls)

            def one_round(traced):
                return run_calls(calls, tracer if traced else None)

    first = None
    k = 0
    while True:
        traced = bool(ns.trace) and k % 2 == 1
        if traced:
            tracer.install()
        try:
            lat, outs, wall = one_round(traced)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = tracer.take()
            if not layer_rounds:
                first_spans = spans
            layer_rounds.append(Tracer.summary(spans, [c.__name__ for c in tf.verify.CRITERIA]))
            traced_walls.append(wall)
        else:
            plain_walls.append(wall)
        if first is None:
            first = outs
            result["mismatch"].append([])
        else:
            result["mismatch"].append([i for i, (a, b) in enumerate(zip(first, outs)) if not _same(a, b)])
        result["rounds"].append(wall)
        result["latencies"].append(lat)
        k += 1
        remaining = deadline - time.perf_counter()
        # A cli round (~100 processes, ~20 s) fills a run by itself.  The
        # host has slow spells about as long as a round, so three rounds give
        # each process a best of three that one spell cannot cover.  A
        # traced run needs an untraced and a traced round.
        need_more = k < (2 if ns.trace else 3 if name == "cli" else 1)
        if not need_more and remaining < wall:
            break

    if name == "cli":
        result["outputs"] = first
    else:
        arrays = {f"o{i}": v for i, v in enumerate(first) if not isinstance(v, str)}
        np.savez(os.path.join(workdir, "outputs.npz"), **arrays)
        result["errors"] = {str(i): v for i, v in enumerate(first) if isinstance(v, str)}

    if ns.trace:
        tracer.dump(first_spans, os.path.join(workdir, "trace.json"))
        layers = {key: statistics.median(r[key] for r in layer_rounds) for key in layer_rounds[0]}
        # Rounds alternate, so each traced round is paired with the untraced
        # one before it; the median ratio is immune to drifts of the host.
        ratios = [t / p for p, t in zip(plain_walls, traced_walls)]
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
        if name == "cli":
            layers["cli.interpreter_ms"] = fresh_ms("pass", src)
            layers["cli.import_ms"] = fresh_ms(
                "import time; t = time.perf_counter(); import thetafock.cli; print(time.perf_counter() - t)", src)
        else:
            layers["cli.interpreter_ms"] = layers["cli.import_ms"] = 0.0
        result["layers"] = layers
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" and not ns.trace else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(os.path.join(workdir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
