"""Benchmark of thetafock, end to end and per module.

    python3 perfbench/run.py --workload {pointwise,grid,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the directory that holds src/thetafock).
Steps:

1. build the seeded round of the workload (workloads.py);
2. run worker.py, the timed process, for S seconds of whole rounds, with
   PYTHONPATH=src and OMP/OPENBLAS/MKL_NUM_THREADS=1;
3. with --trace 0, time the set-up twelve times, six before and six after
   the timed process: a fresh interpreter that imports thetafock and makes
   the warm-up calls (worker.py --setup);
4. after the worker has ended, build the references with mpmath
   (oracles.py) and check round 1's outputs; later rounds were compared
   with round 1 by the worker;
5. print one summary line per metric and, as the last line, the JSON
   result {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(tracing.py; names and units from BENCHMARK.json).  `attempted` is the
number of operations in a round and `failed` the number of them that
failed in any round, so both are fixed for a given workload and program,
however many rounds fit in S seconds.  `correct` is false when an
operation outside the fault slices failed.  Outputs of the run are written
under perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Set-up samples per run, half before and half after the timed process, so
# that their median spans the run rather than one moment of the host.
SETUP_SAMPLES = 12


def thread_env(root):
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    return env


def run_worker(root, argv, timeout):
    """Run worker.py to its end; raise if it fails or outlives `timeout`."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, argv)]
    proc = subprocess.run(cmd, cwd=root, env=thread_env(root), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc


def setup_seconds(root, name, seed, count):
    """Wall times of `count` fresh-interpreter set-ups."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        run_worker(root, ["--setup", name, "--seed", seed], 120)
        times.append(time.perf_counter() - t0)
    return times


def per_layer_metrics(layers):
    """The traced run's layers as metrics, named and ordered as in
    BENCHMARK.json; a name missing on either side is an error."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    unknown = set(layers) ^ {name for name, _ in spec}
    if unknown:
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {sorted(unknown)}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in spec}


def fock_record(nu, alpha, coeffs):
    """FockElement record of psi-coefficients c_n: the file holds the
    coefficients against e_n, a_n = c_n / ||e_n||, with ||e_n|| from mpmath."""
    rows = []
    for n, c in coeffs:
        a = c / complex(oracles.e_norm(n, nu, alpha))
        rows.append({"n": n, "re": a.real, "im": a.imag})
    return {"nu": nu, "alpha": alpha, "coeffs": rows}


def write_cli_inputs(ops, workdir):
    for op in ops:
        for name, rec in op.files.items():
            if isinstance(rec, tuple):
                rec = fock_record(*rec[1:])
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(rec, fh)


def load_outputs(name, ops, workdir, result):
    """Round-1 outputs in the form oracles.check takes."""
    if name == "cli":
        return [cli_value(op, rec) for op, rec in zip(ops, result["outputs"])]
    with np.load(os.path.join(workdir, "outputs.npz")) as data:
        arrays = {k: data[k] for k in data.files}
    outs = []
    for i, op in enumerate(ops):
        if str(i) in result["errors"]:
            outs.append(result["errors"][str(i)])
            continue
        v = arrays[f"o{i}"]
        if op.family == "member":
            outs.append({"in_space": bool(v[0]), "norm": None if np.isnan(v[1]) else float(v[1])})
        else:
            outs.append(v if v.ndim else complex(v))
    return outs


def cli_value(op, rec):
    """Decode one CLI output; an exit code other than 0 is an error name."""
    if rec["code"] != 0:
        return f"exit {rec['code']}: {rec['stdout'][:200]}"
    payload = json.loads(rec["stdout"])
    fam = op.family
    if fam in ("theta", "psi", "kernel", "forward_z", "inverse", "landau_apply"):
        return complex(payload["re"], payload["im"])
    if fam == "member":
        return payload
    if fam == "forward_out":
        file_payload = json.loads(rec["file"])
        return file_payload if file_payload == payload else "file differs from stdout"
    return {"payload": payload, "file": rec.get("file")}


def cli_check(op, out):
    """Checks of the CLI families that have no library counterpart."""
    a, fam = op.args, op.family
    if isinstance(out, str):
        return False
    if fam == "gram":
        tol = oracles.TOLERANCES["gram_psi_mn" if a["levels"] else "gram_psi"]
        return all(abs(complex(e["re"], e["im"]) - (1.0 if (e["row_m"], e["row_n"]) == (e["col_m"], e["col_n"]) else 0.0))
                   <= tol for e in out["payload"]["entries"])
    if fam in ("raise", "lower"):
        step = 1 if fam == "raise" else -1
        want = {(m + step, n): c for (m, n), c in a["coeffs"] if m + step >= 0}
        got = json.loads(out["file"])
        have = {(c["m"], c["n"]): complex(c["re"], c["im"]) for c in got["coeffs"]}
        return have == want and got["nu"] == a["nu"] and got["alpha"] == a["alpha"]
    if fam == "eigres":
        p = out["payload"]
        return p["eigenvalue"] == a["nu"] * a["m"] and p["residual"] <= oracles.TOLERANCES["fd"]
    if fam == "verify":
        return all(c["pass"] for c in out["payload"]["cases"])
    raise ValueError(fam)


def failed_ops(ops, outs, seed, alpha_shift=0.0):
    """Indices of the round-1 operations whose output fails its check."""
    failed = set()
    for i, (op, out) in enumerate(zip(ops, outs)):
        if op.family in ("gram", "raise", "lower", "eigres", "verify"):
            ok = cli_check(op, out)
        else:
            op_ref = op
            if op.family == "inverse" and op.files:
                op_ref = workloads.Op("inverse", dict(op.args, coeffs=cli_inverse_coeffs(op)))
            ok = not isinstance(out, str) and oracles.check(op, out, oracles.reference(op_ref, (seed, i), alpha_shift))
        if not ok:
            failed.add(i)
    return oracles.check_groups(ops, outs, failed)


def cli_inverse_coeffs(op):
    """psi-coefficients of the element file of a CLI inverse: the doubles
    a_n it holds times ||e_n|| (mpmath)."""
    _, nu, alpha, coeffs = next(iter(op.files.values()))
    rows = fock_record(nu, alpha, coeffs)["coeffs"]
    return tuple((r["n"], complex(mp.mpc(r["re"], r["im"]) * oracles.e_norm(r["n"], nu, alpha))) for r in rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thetafock", "__init__.py")):
        print("error: run from the root of a thetafock checkout (src/thetafock not found)", file=sys.stderr)
        return 2

    name, seed = ns.workload, ns.seed
    ops = workloads.build(name, seed)
    workdir = os.path.join(HERE, "out", f"{name}-{seed}-t{ns.trace}")
    os.makedirs(workdir, exist_ok=True)
    if name == "cli":
        write_cli_inputs(ops, workdir)

    setups = [] if ns.trace else setup_seconds(root, name, seed, SETUP_SAMPLES // 2)
    run_worker(root, ["--workload", name, "--seed", seed, "--seconds", ns.seconds, "--trace", ns.trace,
                      "--out", workdir], ns.seconds + 150)
    with open(os.path.join(workdir, "worker.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    if not ns.trace:
        setups += setup_seconds(root, name, seed, SETUP_SAMPLES - len(setups))

    outs = load_outputs(name, ops, workdir, result)
    bad = failed_ops(ops, outs, seed)
    faults = {i for i, op in enumerate(ops) if op.fault}
    rounds = len(result["rounds"])
    # Every round makes the same operations and later rounds are compared
    # with round 1, so an operation counts once: failed if its round-1
    # output fails its check or a later round's output differs.
    attempted, failed = len(ops), len(bad.union(*result["mismatch"]))
    correct = not (bad - faults) and not any(result["mismatch"])

    if ns.trace:
        metrics = per_layer_metrics(result["layers"])
    else:
        # Each operation's best repetition (timeit's convention): on a
        # shared host the slower repeats measure the neighbours, and the
        # best ones repeat from run to run.  The round is their sum.
        best_ms = [1e3 * min(column) for column in zip(*result["latencies"])]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": sum(best_ms) / 1e3, "unit": "s"},
            "op_p50_ms": {"value": float(np.percentile(best_ms, 50)), "unit": "ms"},
            "op_p90_ms": {"value": float(np.percentile(best_ms, 90)), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for i in sorted(bad):
        op = ops[i]
        label = f"fault slice '{op.fault}'" if op.fault else "UNEXPECTED"
        print(f"failed op {i}: {op.family} {label} {json.dumps(op.args, default=str)[:160]}")
    for key, m in metrics.items():
        print(f"{name:9s} {key:48s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:9s} rounds {rounds}, attempted {attempted} (operations per round), failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
