"""Run workloads repeatedly and summarise, or compare two sets of runs.

    python3 perfbench/repeat.py                       # every workload once
    python3 perfbench/repeat.py --workload grid --runs 10 --save out/grid-a.json
    python3 perfbench/repeat.py --compare out/grid-a.json out/grid-b.json

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace X` from the current directory (the root of a checkout), with T the
run_seconds of BENCHMARK.json and seeds first_seed, first_seed + 1, ...  For every metric the summary gives the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json, and for
every workload the attempted and failed counts and the failed share.

--compare reads two saved sets and, per workload and end-to-end metric,
reports the change of the median against the bound (a worse median beyond
the bound is a REGRESSION), each set's spread against the bound, and
whether the failed shares agree exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def summarise(sets, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in sets.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
              f"failed {[r['failed'] for r in runs]}, failed shares {sorted(shares)}, "
              f"correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            bound = bounds.get(name)
            note = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:48s} median {statistics.median(vals):12.6g} {unit:5s} "
                  f"q1 {q[0]:12.6g} q3 {q[2]:12.6g} spread {spread(vals):6.3f} {note}")


def compare(path_a, path_b, spec):
    with open(path_a, encoding="utf-8") as fh:
        a_sets = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b_sets = json.load(fh)
    ok = True
    for workload in sorted(set(a_sets) & set(b_sets)):
        a_runs, b_runs = a_sets[workload], b_sets[workload]
        share_a = {r["failed"] / r["attempted"] for r in a_runs}
        share_b = {r["failed"] / r["attempted"] for r in b_runs}
        same = len(share_a | share_b) == 1
        ok &= same
        print(f"\n{workload}: failed shares {sorted(share_a)} vs {sorted(share_b)} -> {'same' if same else 'DIFFER'}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a_runs]
            vb = [r["metrics"][name]["value"] for r in b_runs]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "REGRESSION" if change > bound else "ok"
            sa, sb = spread(va), spread(vb)
            wide = max(sa, sb) > bound
            ok &= verdict == "ok" and not wide
            print(f"  {name:12s} {ma:12.6g} -> {mb:12.6g} worse by {change:+7.3f} (bound {bound:.2f}) {verdict:10s}"
                  f" spreads {sa:.3f} / {sb:.3f}{'  WIDER THAN BOUND' if wide else ''}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    ns = ap.parse_args()
    spec = load_spec()
    if ns.compare:
        return compare(*ns.compare, spec)
    workloads = ns.workload or [w["name"] for w in spec["workloads"]]
    sets = {}
    for workload in workloads:
        sets[workload] = []
        for k in range(ns.runs):
            result = one_run(workload, ns.first_seed + k, spec["run_seconds"], ns.trace)
            sets[workload].append(result)
            print(f"{workload} seed {ns.first_seed + k}: attempted {result['attempted']} failed {result['failed']}",
                  flush=True)
    if ns.save:
        os.makedirs(os.path.dirname(os.path.abspath(ns.save)), exist_ok=True)
        with open(ns.save, "w", encoding="utf-8") as fh:
            json.dump(sets, fh, indent=1)
    summarise(sets, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
