"""Seeded operation lists of the three benchmark workloads.

build(name, seed) returns the round of one workload: a list of Op records,
each one public thetafock call described by plain data (numbers, complex
numbers, tuples).  The same seed always gives the same list.  This module
imports only numpy, so the runner (which builds references with mpmath) and
the worker (which times the library) materialize identical inputs.

Parameters are drawn by stratified sampling: a family of k operations
splits each parameter range into k equal slices and draws one value per
slice, with the slices paired at random across parameters.  Every seed then
covers the ranges evenly, which keeps round times and latency percentiles
steady from seed to seed while the inputs themselves change.

Fault slices are fixed inputs, independent of the seed, on which the library
is known to return a wrong value or to raise; they are counted as failed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)
WORKLOADS = ("pointwise", "grid", "cli")


@dataclass
class Op:
    """One public call: family name, its arguments, and, for CLI processes,
    the argv and the files it reads."""

    family: str
    args: dict
    group: int = -1
    fault: str = ""
    argv: list = field(default_factory=list)
    files: dict = field(default_factory=dict)


class _Draw:
    """Stratified draws from one numpy generator."""

    def __init__(self, seed, salt):
        self.rng = np.random.default_rng([int(seed), salt])

    def uniform(self, k, lo, hi):
        slots = (self.rng.permutation(k) + self.rng.random(k)) / k
        return [float(lo + (hi - lo) * s) for s in slots]

    def ints(self, k, lo, hi):
        """Stratified integers in [lo, hi]."""
        return [min(hi, int(math.floor(v))) for v in self.uniform(k, lo, hi + 1)]

    def points(self, k, re_lo, re_hi, im_lo, im_hi):
        return [complex(a, b) for a, b in zip(self.uniform(k, re_lo, re_hi), self.uniform(k, im_lo, im_hi))]

    def signs(self, k):
        out = [1 if i % 2 == 0 else -1 for i in range(k)]
        return [int(s) for s in self.rng.permutation(out)]

    def order(self, values):
        """The values in a seeded order."""
        return [values[i] for i in self.rng.permutation(len(values))]

    def coeffs(self, k):
        re, im = self.rng.standard_normal((2, k))
        return [complex(a, b) for a, b in zip(re, im)]


def grid_points(seed, salt, size, re_lo, re_hi, im_lo, im_hi):
    """Stratified complex points for array calls (a size = s*s lattice of
    jittered cells)."""
    rng = np.random.default_rng([int(seed), salt])
    s = int(round(math.sqrt(size)))
    cells = (np.arange(s)[:, None] + rng.random((s, s))) / s
    rows = (np.arange(s)[None, :] + rng.random((s, s))) / s
    return (re_lo + (re_hi - re_lo) * cells) + 1j * (im_lo + (im_hi - im_lo) * rows)


def line_points(seed, salt, size):
    rng = np.random.default_rng([int(seed), salt])
    return SQRT2 * (np.arange(size) + rng.random(size)) / size


# ---------------------------------------------------------------- pointwise

POINTWISE_FAULTS = (
    # Cancellation: both kernel paths sum O(e^{nu/8}) terms to a value of
    # size O(nu).  True value 65.98 + 90.82i.
    Op("kernel", {"z": 0.5 + 0j, "w": 0j, "nu": 300.0, "alpha": 0.3, "path": "theta"}, fault="cancellation"),
    Op("kernel", {"z": 0.5 + 0j, "w": 0j, "nu": 300.0, "alpha": 0.3, "path": "sum"}, fault="cancellation"),
    # |K| = 1.4e-38 from terms of size ~1e-22; the theta path is right.
    Op("kernel", {"z": 0.423 + 1.670j, "w": 0.856 - 1.116j, "nu": 60.0, "alpha": 0.057, "path": "sum"},
       fault="cancellation"),
    # G at nu = 100 by the theta form and by the mode sum; A is right.
    Op("gen_G", {"z": 0.3 + 1.71j, "q": 1.11, "nu": 100.0, "alpha": -0.46}, fault="cancellation"),
    Op("gen_sum", {"z": 0.3 + 1.71j, "q": 1.11, "nu": 100.0, "alpha": -0.46}, fault="cancellation"),
    # theta3(1/2 | 0.02i) = 1.2e-16 from O(1) terms; returns -3.2e-16.
    Op("theta3", {"z": 0.5 + 0j, "tau": 0.02j}, fault="cancellation"),
) + tuple(
    # exp((nu/2)(z^2 + conj(z)^2)) and theta are formed apart and overflow,
    # though K(z, z) ~ e^{nu (Im z)^2} is finite (1.4e165 at Im z = 11).
    Op("kernel", {"z": 0.3 + y * 1j, "w": 0.3 + y * 1j, "nu": math.pi, "alpha": 0.0, "path": "theta"},
       fault="overflow")
    for y in (11.0, 12.0, 13.0, 14.0)
)


def _pointwise(seed):
    d = _Draw(seed, 1)
    ops = []

    k = 40
    for a, b, tr, ti, z in zip(d.uniform(k, -0.5, 0.5), d.uniform(k, -0.5, 0.5), d.uniform(k, -0.5, 0.5),
                               d.uniform(k, 0.2, 2.0), d.points(k, 0.0, 1.0, -1.0, 1.0)):
        ops.append(Op("theta", {"alpha": a, "beta": b, "tau": complex(tr, ti), "z": z}))
    k = 20
    for tr, ti, z in zip(d.uniform(k, -0.5, 0.5), d.uniform(k, 0.2, 2.0), d.points(k, 0.0, 1.0, -1.0, 1.0)):
        ops.append(Op("theta3", {"tau": complex(tr, ti), "z": z}))

    # Kernel groups K(z,w), K(w,z), K(z,z), K(w,w) for the Hermitian and
    # Cauchy-Schwarz checks, on each path.  bilateral_sum stops on an
    # absolute term size of 1e-13, so the sum paths go wrong once |K| is
    # below ~1e-11 (the fault slice at nu = 60 shows it); |Im z| <= 1 with
    # nu <= 10 keeps |K| above e^-10.
    group = 0
    for path in ("theta", "sum"):
        k = 10
        for nu, al, z, w in zip(d.uniform(k, 0.5, 10.0), d.uniform(k, -0.5, 0.5),
                                d.points(k, 0.0, 1.0, -1.0, 1.0), d.points(k, 0.0, 1.0, -1.0, 1.0)):
            for role, (zz, ww) in enumerate(((z, w), (w, z), (z, z), (w, w))):
                ops.append(Op("kernel", {"z": zz, "w": ww, "nu": nu, "alpha": al, "path": path, "role": role},
                              group=group))
            group += 1

    # G, A and the generating sum at one point, for the A == G check.
    k = 15
    for nu, al, z, q in zip(d.uniform(k, 0.5, 10.0), d.uniform(k, -0.5, 0.5),
                            d.points(k, 0.0, 1.0, -1.0, 1.0), d.uniform(k, 0.0, SQRT2)):
        for fam in ("gen_G", "gen_A", "gen_sum"):
            ops.append(Op(fam, {"z": z, "q": q, "nu": nu, "alpha": al}, group=group))
        group += 1

    # Membership on both sides of Im tau = pi/nu.
    k = 20
    for nu, al, be, tr, r, s, shift in zip(d.uniform(k, 0.5, 10.0), d.uniform(k, -0.5, 0.5),
                                            d.uniform(k, -0.5, 0.5), d.uniform(k, -0.5, 0.5),
                                            d.uniform(k, 0.0, 1.0), d.signs(k), d.ints(k, -1, 1)):
        ratio = 1.1 + 1.9 * r if s > 0 else 0.2 + 0.7 * r
        ops.append(Op("member", {"nu": nu, "alpha": al, "theta_alpha": al + shift, "beta": be,
                                 "tau": complex(tr, ratio * math.pi / nu)}))

    # Landau modes are sampled within two widths of their Gaussian bump,
    # where |psi_{m,n}| is not negligible, so the scaled checks can see an
    # error: Im z = -pi (n + alpha) / nu + u / sqrt(nu), |u| <= 2.
    def near_bump(x, u, n, al, nu):
        return complex(x, -math.pi * (n + al) / nu + u / math.sqrt(nu))

    # psi_{m,n} at z and z + 1 for the quasi-periodicity check.
    k = 20
    for m, n, nu, al, x, u in zip(d.ints(k, 0, 40), d.ints(k, -5, 5), d.uniform(k, 0.5, 30.0),
                                  d.uniform(k, -0.5, 0.5), d.uniform(k, -0.5, 0.5), d.uniform(k, -2.0, 2.0)):
        z = near_bump(x, u, n, al, nu)
        for role, zz in enumerate((z, z + 1.0)):
            ops.append(Op("psi_mn", {"m": m, "n": n, "z": zz, "nu": nu, "alpha": al, "role": role}, group=group))
        group += 1

    # Ladder operators near the bump, over m <= 40 and nu <= 30.
    for fam, k, mlo, mhi in (("creation", 15, 0, 39), ("annihilation", 15, 1, 40)):
        for m, n, nu, al, x, u in zip(d.ints(k, mlo, mhi), d.ints(k, -5, 5), d.uniform(k, 0.5, 30.0),
                                      d.uniform(k, -0.5, 0.5), d.uniform(k, 0.0, 1.0), d.uniform(k, -2.0, 2.0)):
            ops.append(Op(fam, {"m": m, "n": n, "z": near_bump(x, u, n, al, nu), "nu": nu, "alpha": al}))

    # L by the 9-point stencil meets criterion 10's 1e-5 * max(1, |psi|)
    # only at low levels and rates (see CHANGES.md): m <= 5, nu <= 4 on the
    # unit box keeps the worst of 4000 samples at a quarter of it.
    k = 20
    for m, n, nu, al, z in zip(d.ints(k, 0, 5), d.ints(k, -2, 2), d.uniform(k, 0.5, 4.0),
                               d.uniform(k, -0.5, 0.5), d.points(k, 0.0, 1.0, -1.0, 1.0)):
        ops.append(Op("landau", {"m": m, "n": n, "z": z, "nu": nu, "alpha": al}))

    # bargmann_pointwise stops on an absolute 1e-12, so |B phi(z)| must stay
    # small (see CHANGES.md): the unit box, as in criterion 08.
    k = 10
    for n, nu, al, z in zip(d.ints(k, -3, 3), d.uniform(k, 1.0, 6.0), d.uniform(k, -0.5, 0.5),
                            d.points(k, 0.0, 1.0, -1.0, 1.0)):
        ops.append(Op("bpoint", {"n": n, "z": z, "nu": nu, "alpha": al}))

    ops.extend(Op(o.family, dict(o.args), fault=o.fault) for o in POINTWISE_FAULTS)
    return ops


# --------------------------------------------------------------------- grid

GRID_SIZE = 10_000
# Elements are evaluated on 2500 points: long enough to amortise the
# per-mode Python loop, short enough that each repetition often runs
# undisturbed on a shared host.
ELEMENT_SIZE = 2_500

GRID_FAULTS = (
    # The default scheme is centred on the dominant mode 0; psi_3's bump at
    # y = -20.7 lies outside the Gauss-Hermite nodes and its part is lost.
    Op("inverse", {"nu": 0.5, "alpha": 0.3, "coeffs": ((0, 1.0 + 0j), (3, 0.5 + 0j)), "q": (0.4,)},
       fault="inverse"),
)


def _grid(seed):
    d = _Draw(seed, 2)
    ops = []
    salt = 100

    # Array calls on 10^4-point grids.  These, the element evaluations and
    # the inverse transforms make the slowest tenth of the round, where
    # op_p90_ms falls; what sets their cost (nu and Im tau, which fix the
    # series length, and the number of modes) takes fixed values in a seeded
    # order, and the seed draws everything else.
    k = 2
    for fam in ("theta", "kernel_theta", "kernel_sum", "gen_G"):
        for nu, al, be, ti, w, q in zip(d.order((1.0, 6.0)), d.uniform(k, -0.5, 0.5),
                                        d.uniform(k, -0.5, 0.5), d.order((0.5, 1.5)),
                                        d.points(k, 0.0, 1.0, -1.0, 1.0), d.uniform(k, 0.0, SQRT2)):
            salt += 1
            args = {"points": (seed, salt, GRID_SIZE, 0.0, 1.0, -1.0, 1.0), "nu": nu, "alpha": al}
            if fam == "theta":
                args.update(beta=be, tau=complex(0.0, ti))
            elif fam == "gen_G":
                args.update(q=q)
            else:
                args.update(w=w, path=fam.split("_")[1])
            ops.append(Op("grid_" + fam, args))

    # Element evaluation with 10-40 modes.
    ladder = (10, 16, 22, 28, 34, 40)
    k = 6
    for nmodes, nu, al in zip(d.order(ladder), d.uniform(k, 6.0, 12.0), d.uniform(k, -0.5, 0.5)):
        salt += 1
        lo = -(nmodes // 2)
        coeffs = tuple(zip(range(lo, lo + nmodes), d.coeffs(nmodes)))
        ops.append(Op("eval_fock", {"nu": nu, "alpha": al, "coeffs": coeffs,
                                    "points": (seed, salt, ELEMENT_SIZE, 0.0, 1.0, -1.0, 1.0)}))
    for nmodes, al in zip(d.order(ladder), d.uniform(k, -0.5, 0.5)):
        salt += 1
        lo = -(nmodes // 2)
        coeffs = tuple(zip(range(lo, lo + nmodes), d.coeffs(nmodes)))
        ops.append(Op("eval_line", {"alpha": al, "coeffs": coeffs, "qpoints": (seed, salt, ELEMENT_SIZE)}))
    for nmodes, nu, al in zip(d.order(ladder), d.uniform(k, 0.5, 4.0), d.uniform(k, -0.5, 0.5)):
        salt += 1
        modes = [(m, n) for m in range(0, 8) for n in range(-3, 2)][:nmodes]
        coeffs = tuple(zip(modes, d.coeffs(nmodes)))
        ops.append(Op("eval_landau", {"nu": nu, "alpha": al, "coeffs": coeffs,
                                      "points": (seed, salt, ELEMENT_SIZE, 0.0, 1.0, -1.0, 1.0)}))

    # Gram matrices by strip quadrature: psi_n on 6 modes, psi_{m,n} on 6.
    (nu, al), = zip(d.uniform(1, 0.7, 4.0), d.uniform(1, -0.5, 0.5))
    n0 = d.ints(1, -2, 2)[0]
    modes = [(0, n) for n in range(n0 - 3, n0 + 3)]
    for i, a in enumerate(modes):
        for j, b in enumerate(modes):
            ops.append(Op("gram_psi", {"nu": nu, "alpha": al, "row": a, "col": b}, group=0))
    (nu, al), = zip(d.uniform(1, 0.7, 4.0), d.uniform(1, -0.5, 0.5))
    n0 = d.ints(1, -2, 2)[0]
    modes = [(m, n) for m in range(0, 3) for n in (n0, n0 + 1)]
    for a in modes:
        for b in modes:
            ops.append(Op("gram_psi_mn", {"nu": nu, "alpha": al, "row": a, "col": b}, group=1))

    # Member norms by quadrature (Parseval) on the scheme centred at the
    # dominant mode; modes stay within 2 of it.
    k = 4
    for nu, al, n0 in zip(d.uniform(k, 2.0, 4.0), d.uniform(k, -0.5, 0.5), d.ints(k, -2, 2)):
        coeffs = tuple(zip(range(n0 - 1, n0 + 2), d.coeffs(3)))
        coeffs = tuple((n, c * (3.0 if n == n0 else 1.0)) for n, c in coeffs)
        ops.append(Op("member_norm", {"nu": nu, "alpha": al, "coeffs": coeffs}))

    # Inverse transform over a vector of q.
    k = 3
    for nu, al, n0 in zip(d.order((2.0, 3.5, 5.0)), d.uniform(k, -0.5, 0.5), d.ints(k, -2, 2)):
        coeffs = tuple(zip(range(n0 - 1, n0 + 2), d.coeffs(3)))
        coeffs = tuple((n, c * (3.0 if n == n0 else 1.0)) for n, c in coeffs)
        ops.append(Op("inverse", {"nu": nu, "alpha": al, "coeffs": coeffs, "q": tuple(d.uniform(4, 0.0, SQRT2))}))

    # Line inner products (Parseval on the line).
    k = 8
    for nmodes, al in zip(d.ints(k, 4, 20), d.uniform(k, -0.5, 0.5)):
        lo = d.ints(1, -10, 0)[0]
        a = tuple(zip(range(lo, lo + nmodes), d.coeffs(nmodes)))
        b = tuple(zip(range(lo + 1, lo + 1 + nmodes), d.coeffs(nmodes)))
        ops.append(Op("line_ip", {"alpha": al, "a": a, "b": b}))

    ops.extend(Op(o.family, dict(o.args), fault=o.fault) for o in GRID_FAULTS)
    return ops


# ---------------------------------------------------------------------- cli


def cnum(z):
    """A complex number as a CLI literal a+bi with every digit kept."""
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 or math.isnan(z.imag) else ''}{z.imag!r}i"


def _cli(seed):
    d = _Draw(seed, 3)
    ops = []

    def add(family, argv, args, files=None):
        ops.append(Op(family, args, argv=[str(a) for a in argv], files=files or {}))

    k = 14
    for a, b, tr, ti, z in zip(d.uniform(k, -0.5, 0.5), d.uniform(k, -0.5, 0.5), d.uniform(k, -0.5, 0.5),
                               d.uniform(k, 0.2, 2.0), d.points(k, 0.0, 1.0, -1.0, 1.0)):
        tau = complex(tr, ti)
        add("theta", ["theta", "eval", "--alpha", a, "--beta", b, "--tau=" + cnum(tau), "--z=" + cnum(z)],
            {"alpha": a, "beta": b, "tau": tau, "z": z})
    k = 11
    for n, nu, al, z in zip(d.ints(k, -5, 5), d.uniform(k, 0.5, 10.0), d.uniform(k, -0.5, 0.5),
                            d.points(k, 0.0, 1.0, -2.0, 2.0)):
        add("psi", ["fock", "psi", "--nu", nu, "--alpha", al, "--n", n, "--z=" + cnum(z)],
            {"m": 0, "n": n, "z": z, "nu": nu, "alpha": al})
    k = 6
    for nu, al, n0, levels in zip(d.uniform(k, 0.7, 4.0), d.uniform(k, -0.5, 0.5), d.ints(k, -2, 2),
                                  [0, 1, 0, 1, 0, 1]):
        argv = ["fock", "gram", "--nu", nu, "--alpha", al, "--nmin", n0 - 1, "--nmax", n0 + 1]
        if levels:
            argv += ["--mlevels", levels]
        add("gram", argv, {"nu": nu, "alpha": al, "levels": levels})
    k = 14
    for i, (nu, al, z, w) in enumerate(zip(d.uniform(k, 0.5, 10.0), d.uniform(k, -0.5, 0.5),
                                           d.points(k, 0.0, 1.0, -1.0, 1.0), d.points(k, 0.0, 1.0, -1.0, 1.0))):
        path = ("theta", "sum")[i % 2]
        add("kernel", ["fock", "kernel", "--nu", nu, "--alpha", al, "--z=" + cnum(z), "--w=" + cnum(w), "--path", path],
            {"z": z, "w": w, "nu": nu, "alpha": al, "path": path})
    k = 8
    for nu, al, be, tr, r, s in zip(d.uniform(k, 0.5, 10.0), d.uniform(k, -0.5, 0.5), d.uniform(k, -0.5, 0.5),
                                    d.uniform(k, -0.5, 0.5), d.uniform(k, 0.0, 1.0), d.signs(k)):
        ratio = 1.1 + 1.9 * r if s > 0 else 0.2 + 0.7 * r
        tau = complex(tr, ratio * math.pi / nu)
        add("member", ["fock", "member", "--nu", nu, "--alpha", al, "--beta", be, "--tau=" + cnum(tau)],
            {"nu": nu, "alpha": al, "theta_alpha": al, "beta": be, "tau": tau})
    k = 8
    for i, (nu, al, n0, z) in enumerate(zip(d.uniform(k, 2.0, 6.0), d.uniform(k, -0.5, 0.5), d.ints(k, -2, 2),
                                            d.points(k, 0.0, 1.0, -1.0, 1.0))):
        coeffs = tuple(zip(range(n0 - 1, n0 + 2), d.coeffs(3)))
        line = {"alpha": al, "coeffs": [{"n": n, "re": c.real, "im": c.imag} for n, c in coeffs]}
        name = f"line{i}.json"
        if i % 2 == 0:
            argv = ["bargmann", "forward", "--in", name, "--nu", nu, "--z=" + cnum(z)]
            add("forward_z", argv, {"nu": nu, "alpha": al, "coeffs": coeffs, "z": z}, {name: line})
        else:
            out = f"fock{i}.json"
            argv = ["bargmann", "forward", "--in", name, "--nu", nu, "--out", out]
            add("forward_out", argv, {"nu": nu, "alpha": al, "coeffs": coeffs, "out": out}, {name: line})
    k = 8
    for i, (nu, al, n0, q) in enumerate(zip(d.uniform(k, 2.0, 5.0), d.uniform(k, -0.5, 0.5), d.ints(k, -2, 2),
                                            d.uniform(k, 0.0, SQRT2))):
        coeffs = tuple(zip(range(n0 - 1, n0 + 2), d.coeffs(3)))
        coeffs = tuple((n, c * (3.0 if n == n0 else 1.0)) for n, c in coeffs)
        name = f"inv{i}.json"
        add("inverse", ["bargmann", "inverse", "--in", name, "--q", q],
            {"nu": nu, "alpha": al, "coeffs": coeffs, "q": (q,)}, {name: ("psi", nu, al, coeffs)})
    k = 10
    for i, (m, n, nu, al, z, c) in enumerate(zip(d.ints(k, 0, 10), d.ints(k, -3, 3), d.uniform(k, 0.5, 10.0),
                                                 d.uniform(k, -0.5, 0.5), d.points(k, 0.0, 1.0, -1.0, 1.0),
                                                 d.coeffs(k))):
        name = f"lan{i}.json"
        rec = {"nu": nu, "alpha": al, "coeffs": [{"m": m, "n": n, "re": c.real, "im": c.imag}]}
        add("landau_apply", ["landau", "apply", "--in", name, "--z=" + cnum(z)],
            {"m": m, "n": n, "z": z, "nu": nu, "alpha": al, "c": c}, {name: rec})
    for direction in ("raise", "lower"):
        k = 6
        for i, (nu, al) in enumerate(zip(d.uniform(k, 0.5, 10.0), d.uniform(k, -0.5, 0.5))):
            ms, ns = d.ints(3, 0, 6), d.ints(3, -3, 3)
            coeffs = dict(zip(zip(ms, ns), d.coeffs(3)))
            rec = {"nu": nu, "alpha": al,
                   "coeffs": [{"m": m, "n": n, "re": c.real, "im": c.imag} for (m, n), c in coeffs.items()]}
            name, out = f"{direction}{i}.json", f"{direction}{i}_out.json"
            add(direction, ["landau", direction, "--in", name, "--out", out],
                {"nu": nu, "alpha": al, "coeffs": tuple(coeffs.items()), "out": out}, {name: rec})
    k = 8
    for m, n, nu, al in zip(d.ints(k, 0, 8), d.ints(k, -3, 3), d.uniform(k, 0.5, 6.0), d.uniform(k, -0.5, 0.5)):
        add("eigres", ["landau", "eigres", "--nu", nu, "--alpha", al, "--m", m, "--n", n],
            {"m": m, "n": n, "nu": nu, "alpha": al})
    for _ in range(3):
        add("verify", ["verify", "all"], {})
    return ops


def build(name, seed):
    """The round of workload `name` for `seed`, in a seeded order."""
    ops = {"pointwise": _pointwise, "grid": _grid, "cli": _cli}[name](seed)
    order = np.random.default_rng([int(seed), 9]).permutation(len(ops))
    return [ops[i] for i in order]
