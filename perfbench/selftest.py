"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py      # from the root of a checkout

1. The mpmath series oracle agrees with mpmath's own jtheta.
2. One round of `pointwise` and of `grid` fails exactly on the fault slices.
3. Checked against references built for alpha + 0.01, every operation whose
   answer moves by more than its tolerance is reported as failed, and such
   operations are at least 70% of those whose answer depends on alpha.
4. An output moved by one part in 10^6 is reported as failed.

Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
# Families whose reference does not depend on alpha: Gram entries are 0 or 1,
# Parseval norms and line pairings come from the coefficients alone.
ALPHA_FREE = {"gram_psi", "gram_psi_mn", "member_norm", "line_ip"}


def one_round(name):
    ops = workloads.build(name, SEED)
    workdir = os.path.join(HERE, "out", f"selftest-{name}")
    os.makedirs(workdir, exist_ok=True)
    run.run_worker(os.getcwd(), ["--workload", name, "--seed", SEED, "--seconds", 0, "--trace", 0,
                                 "--out", workdir], 170)
    with open(os.path.join(workdir, "worker.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    return ops, run.load_outputs(name, ops, workdir, result)


def main():
    problems = []

    for z, tau in ((0.3 + 0.2j, 1.1j), (0.5 + 0j, 0.02j), (0.1 - 0.4j, 0.3 + 0.7j)):
        with mp.workdps(60):
            ref = complex(mp.jtheta(3, mp.pi * mp.mpc(z.real, z.imag), mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))))
        ours = oracles.theta(0.0, 0.0, tau, z)
        if abs(ours - ref) > 1e-25 + 1e-25 * abs(ref):
            problems.append(f"series oracle {ours} vs jtheta {ref} at z={z}, tau={tau}")

    for name in ("pointwise", "grid"):
        ops, outs = one_round(name)
        faults = {i for i, op in enumerate(ops) if op.fault}
        failed = run.failed_ops(ops, outs, SEED)
        if failed != faults:
            problems.append(f"{name}: failed {sorted(failed)} but the fault slices are {sorted(faults)}")

        shifted = run.failed_ops(ops, outs, SEED, alpha_shift=0.01)
        dependent = detectable = 0
        for i, op in enumerate(ops):
            if op.family in ALPHA_FREE or (op.family == "member" and not outs[i]["in_space"]):
                continue
            dependent += 1
            if name == "pointwise":
                # A scaled check cannot see a shift smaller than its
                # tolerance (|psi| << 1): require a failure only where the
                # shifted reference itself would fail against the true one.
                ref0 = oracles.reference(op, (SEED, i))
                ref1 = oracles.reference(op, (SEED, i), alpha_shift=0.01)
                if oracles.check(op, ref1["value"] if isinstance(ref1, dict) and "value" in ref1 else ref1, ref0):
                    continue
            detectable += 1
            if i not in shifted:
                problems.append(f"{name}: op {i} ({op.family}) passed against the reference for alpha + 0.01")
        if detectable < 0.7 * dependent:
            problems.append(f"{name}: only {detectable} of {dependent} operations can see a shift of alpha")

        target = next(i for i, op in enumerate(ops) if not op.fault and not isinstance(outs[i], (str, dict)))
        moved = list(outs)
        moved[target] = outs[target] * (1 + 1e-6)
        if target not in run.failed_ops(ops, moved, SEED):
            problems.append(f"{name}: op {target} ({ops[target].family}) moved by 1e-6 still passed")
        print(f"{name}: {len(ops)} operations, {len(failed)} failed (fault slices {len(faults)}), "
              f"{len(shifted)} failed against alpha + 0.01 ({detectable} of {dependent} required to)")

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
