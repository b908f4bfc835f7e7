"""References and checks, computed apart from thetafock.

Series references are summed with mpmath at 40 digits or more; when the
terms cancel, the sum is redone with enough extra digits to keep 30
significant ones.  Closed forms (psi_{m,n} with mpmath's Hermite
polynomials, phi_n, ||e_n||) are evaluated at the same precision.  Where a
property of the paper's theorems pins the answer (Gram = identity,
Parseval, A == G, K Hermitian, Cauchy-Schwarz, quasi-periodicity, the
Landau eigen-equation and ladder), the check uses it.

Tolerances are those that src/thetafock/verify.py pins for the same
identity (tests/ where verify has none); see TOLERANCES.

Nothing here imports thetafock.
"""

import math

import mpmath as mp
import numpy as np

from workloads import grid_points, line_points

BASE_DPS = 40
TOLERANCES = {
    "series": 1e-9,        # criteria 04 and 09: kernel two-path, A == G
    "budget": 1e-12,       # DEFAULT_BUDGET.tol, series of positive terms
    "coeff": 1e-9,         # criterion 11 ladder coefficients, closed forms
    "quasi": 1e-10,        # tests/test_fock.py quasi-periodicity residual
    "fd": 1e-5,            # criteria 10 and 11 finite differences
    "transport": 1e-8,     # criterion 08, B phi_n = psi_n; B^-1 in tests/
    "gram_psi": 1e-8,      # criterion 01
    "gram_psi_mn": 1e-7,   # criterion 12
    "parseval": 1e-6,      # criterion 03
    "line": 1e-10,         # criterion 14 line quadrature
}
SAMPLES_PER_ARRAY = 24


def _series(logterm, center):
    """Sum exp(logterm(n)) over all integers n, outward from center, to 30
    significant digits after cancellation."""
    dps = BASE_DPS
    while True:
        with mp.workdps(dps):
            total = mp.exp(logterm(center))
            big = abs(total)
            cut = mp.mpf(10) ** (-(dps + 5))
            for side in (1, -1):
                k = 1
                while True:
                    t = mp.exp(logterm(center + side * k))
                    total += t
                    a = abs(t)
                    big = max(big, a)
                    if a < big * cut and k > 2:
                        break
                    k += 1
                    if k > 200000:
                        raise RuntimeError("reference series did not converge")
            lost = math.inf if total == 0 else float(mp.log10(big / abs(total)))
            if lost < dps - 32:
                return complex(total)
        dps = int(lost) + 45


def _c(x):
    return mp.mpc(complex(x).real, complex(x).imag)


def theta(alpha, beta, tau, z):
    """theta_{alpha,beta}(z | tau) = sum exp(i pi c^2 tau + 2 i pi c (z + beta)), c = n + alpha."""
    tau, zb = _c(tau), _c(z) + mp.mpf(beta)
    a = mp.mpf(alpha)

    def lt(n):
        c = n + a
        return 1j * mp.pi * c * c * tau + 2j * mp.pi * c * zb

    return _series(lt, round(-alpha - complex(z).imag / complex(tau).imag))


def _log_psi(c, z, nu):
    return (mp.log(2 * nu / mp.pi) / 4 + nu * z * z / 2 + 2j * mp.pi * c * z - mp.pi ** 2 * c * c / nu)


def kernel(z, w, nu, alpha):
    """K(z, w) = sum psi_n(z) conj(psi_n(w))."""
    zz, ww, nu_, a = _c(z), _c(w), mp.mpf(nu), mp.mpf(alpha)

    def lt(n):
        c = n + a
        return _log_psi(c, zz, nu_) + mp.conj(_log_psi(c, ww, nu_))

    center = -nu * (complex(z).imag + complex(w).imag) / (2 * math.pi) - alpha
    return _series(lt, round(center))


def generating(z, q, nu, alpha):
    """G(z; q) = sum psi_n(z) conj(phi_n(q))."""
    zz, qq, nu_, a = _c(z), mp.mpf(q), mp.mpf(nu), mp.mpf(alpha)
    root2 = mp.sqrt(2)

    def lt(n):
        c = n + a
        return _log_psi(c, zz, nu_) - mp.log(2) / 4 - 1j * root2 * mp.pi * c * qq

    return _series(lt, round(-nu * complex(z).imag / math.pi - alpha))


def member_norm(nu, theta_alpha, tau):
    """sqrt(sqrt(pi/(2 nu)) sum exp(-2 pi (n+alpha)^2 (Im tau - pi/nu)))."""
    with mp.workdps(BASE_DPS):
        gap = mp.mpf(complex(tau).imag) - mp.pi / mp.mpf(nu)
        a = mp.mpf(theta_alpha)
        total = _series(lambda n: -2 * mp.pi * (n + a) ** 2 * gap, round(-theta_alpha))
        return float(mp.sqrt(mp.sqrt(mp.pi / (2 * mp.mpf(nu))) * mp.mpf(total.real)))


def psi_mn(m, n, z, nu, alpha):
    """Landau mode psi_{m,n}(z) in closed form (m = 0 gives psi_n)."""
    with mp.workdps(BASE_DPS):
        zz, nu_ = _c(z), mp.mpf(nu)
        c = n + mp.mpf(alpha)
        xi = mp.sqrt(2 * nu_) * zz.imag + mp.sqrt(2 / nu_) * mp.pi * c
        norm = 1 / mp.sqrt(mp.mpf(2) ** m * mp.factorial(m))
        return complex(norm * mp.exp(_log_psi(c, zz, nu_)) * mp.hermite(m, xi))


def phi(n, q, alpha):
    with mp.workdps(BASE_DPS):
        return complex(mp.mpf(2) ** (-0.25) * mp.exp(1j * mp.sqrt(2) * mp.pi * (n + mp.mpf(alpha)) * mp.mpf(q)))


def e_norm(n, nu, alpha):
    with mp.workdps(BASE_DPS):
        c = n + mp.mpf(alpha)
        return (mp.pi / (2 * mp.mpf(nu))) ** 0.25 * mp.exp(mp.pi ** 2 * c * c / mp.mpf(nu))


def chi_factor(z, nu, alpha):
    """chi_alpha(1) * exp(nu (z + 1/2)), the automorphy factor of the step 1."""
    with mp.workdps(BASE_DPS):
        return complex(mp.exp(2j * mp.pi * mp.mpf(alpha) + mp.mpf(nu) * (_c(z) + mp.mpf(0.5))))


# ------------------------------------------------------------------- checks


def _rel(out, ref, tol):
    return bool(np.isfinite(out)) and abs(out - ref) <= tol * abs(ref)


def _scaled(out, ref, tol):
    return bool(np.isfinite(out)) and abs(out - ref) <= tol * max(1.0, abs(ref))


def sample_index(size, key):
    rng = np.random.default_rng([int(k) for k in key])
    return rng.choice(size, size=min(size, SAMPLES_PER_ARRAY), replace=False)


def points_of(args):
    return grid_points(*args["points"]).ravel()


def reference(op, key, alpha_shift=0.0):
    """Reference of one operation, as a complex number, an array of
    (index, value) pairs for array calls, or a dict.  alpha_shift perturbs
    every character exponent; the self-test uses it to build a wrong
    reference."""
    a = op.args
    fam = op.family
    al = a.get("alpha", 0.0) + alpha_shift
    if fam == "theta":
        return theta(al, a["beta"], a["tau"], a["z"])
    if fam == "theta3":
        return theta(alpha_shift, 0.0, a["tau"], a["z"])
    if fam == "kernel":
        return kernel(a["z"], a["w"], a["nu"], al)
    if fam in ("gen_G", "gen_A", "gen_sum"):
        return generating(a["z"], a["q"], a["nu"], al)
    if fam == "member":
        gap = complex(a["tau"]).imag - math.pi / a["nu"]
        norm = member_norm(a["nu"], a["theta_alpha"] + alpha_shift, a["tau"]) if gap > 0 else None
        return {"in_space": gap > 0, "norm": norm}
    if fam in ("psi_mn", "psi"):
        return psi_mn(a["m"], a["n"], a["z"], a["nu"], al)
    if fam in ("landau", "landau_apply"):
        # L f = nu m f for f = c psi_{m,n}; criterion 10 scales by |f(z)|.
        f = a.get("c", 1.0) * psi_mn(a["m"], a["n"], a["z"], a["nu"], al)
        return {"value": a["nu"] * a["m"] * f, "scale": abs(f)}
    if fam == "creation":
        return -1j * math.sqrt(a["nu"] * (a["m"] + 1)) * psi_mn(a["m"] + 1, a["n"], a["z"], a["nu"], al)
    if fam == "annihilation":
        return 1j * math.sqrt(a["nu"] * a["m"]) * psi_mn(a["m"] - 1, a["n"], a["z"], a["nu"], al)
    if fam == "bpoint":
        return psi_mn(0, a["n"], a["z"], a["nu"], al)
    if fam.startswith("grid_"):
        pts = points_of(a)
        idx = sample_index(pts.size, key)
        if fam == "grid_theta":
            vals = [theta(al, a["beta"], a["tau"], pts[i]) for i in idx]
        elif fam == "grid_gen_G":
            vals = [generating(pts[i], a["q"], a["nu"], al) for i in idx]
        else:
            vals = [kernel(pts[i], a["w"], a["nu"], al) for i in idx]
        return list(zip(idx, vals))
    if fam in ("eval_fock", "eval_landau"):
        pts = points_of(a)
        idx = sample_index(pts.size, key)
        modes = [((0, k) if fam == "eval_fock" else k, c) for k, c in a["coeffs"]]
        return [(i, sum(c * psi_mn(m, n, pts[i], a["nu"], al) for (m, n), c in modes)) for i in idx]
    if fam == "eval_line":
        qs = line_points(*a["qpoints"])
        idx = sample_index(qs.size, key)
        return [(i, sum(c * phi(n, qs[i], al) for n, c in a["coeffs"])) for i in idx]
    if fam == "inverse":
        return [sum(c * phi(n, q, al) for n, c in a["coeffs"]) for q in a["q"]]
    if fam == "forward_z":
        return sum(c * psi_mn(0, n, a["z"], a["nu"], al) for n, c in a["coeffs"])
    if fam == "forward_out":
        return {n: c / complex(e_norm(n, a["nu"], al)) for n, c in a["coeffs"]}
    if fam == "member_norm":
        return math.sqrt(math.fsum(abs(c) ** 2 for _, c in a["coeffs"]))
    if fam == "line_ip":
        b = dict(a["b"])
        return sum(c * b[n].conjugate() for n, c in a["a"] if n in b)
    if fam in ("gram_psi", "gram_psi_mn"):
        return 1.0 if a["row"] == a["col"] else 0.0
    return None


def check(op, out, ref):
    """True when the output of one operation passes its check.  `out` is a
    complex number, an ndarray, a dict (membership, CLI records) or an
    exception name (str)."""
    if isinstance(out, str):
        return False
    fam, t = op.family, TOLERANCES
    if fam in ("theta", "theta3", "kernel", "gen_G", "gen_A", "gen_sum"):
        return _rel(complex(out), ref, t["series"])
    if fam == "member":
        if bool(out["in_space"]) != ref["in_space"]:
            return False
        if not ref["in_space"]:
            return out["norm"] is None
        return abs(out["norm"] - ref["norm"]) <= t["budget"] * max(1.0, ref["norm"])
    if fam in ("psi_mn", "psi", "forward_z"):
        return _scaled(complex(out), ref, t["coeff"])
    if fam in ("landau", "landau_apply"):
        out = complex(out)
        return bool(np.isfinite(out)) and abs(out - ref["value"]) <= t["fd"] * max(1.0, ref["scale"])
    if fam in ("creation", "annihilation"):
        return _scaled(complex(out), ref, t["fd"])
    if fam == "bpoint":
        return _scaled(complex(out), ref, t["transport"])
    if fam in ("grid_theta", "grid_kernel_theta", "grid_kernel_sum", "grid_gen_G"):
        flat = np.asarray(out).ravel()
        return bool(np.all(np.isfinite(flat))) and all(_rel(flat[i], v, t["series"]) for i, v in ref)
    if fam in ("eval_fock", "eval_line", "eval_landau"):
        flat = np.asarray(out).ravel()
        return bool(np.all(np.isfinite(flat))) and all(_scaled(flat[i], v, t["coeff"]) for i, v in ref)
    if fam == "inverse":
        vals = np.atleast_1d(np.asarray(out))
        return len(vals) == len(ref) and all(_scaled(v, r, t["transport"]) for v, r in zip(vals, ref))
    if fam == "forward_out":
        got = {c["n"]: complex(c["re"], c["im"]) for c in out["coeffs"]}
        return set(got) == set(ref) and all(_rel(got[n], ref[n], t["coeff"]) for n in ref)
    if fam == "member_norm":
        return abs(math.sqrt(complex(out).real) - ref) <= t["parseval"] * ref
    if fam == "line_ip":
        return _scaled(complex(out), ref, t["line"])
    if fam in ("gram_psi", "gram_psi_mn"):
        return abs(complex(out) - ref) <= t[fam]
    raise ValueError(f"no check for family {fam!r}")


def check_groups(ops, outs, failed):
    """Property checks across operations of one group; adds the index of
    the operation that breaks a property to `failed`."""
    groups = {}
    for i, op in enumerate(ops):
        if op.group >= 0:
            groups.setdefault(op.group, []).append(i)
    t = TOLERANCES
    for idx in groups.values():
        idx.sort(key=lambda i: ops[i].args.get("role", 0))
        fams = [ops[i].family for i in idx]
        vals = [outs[i] for i in idx]
        if any(isinstance(v, str) for v in vals):
            continue  # already failed individually
        if fams[0] == "kernel":
            # Order: K(z,w), K(w,z), K(z,z), K(w,w).
            kzw, kwz, kzz, kww = (complex(v) for v in vals)
            if abs(kwz - kzw.conjugate()) > t["series"] * abs(kzw):
                failed.add(idx[1])
            if abs(kzz.imag) > t["series"] * abs(kzz) or abs(kww.imag) > t["series"] * abs(kww):
                failed.add(idx[2])
            if kzz.real <= 0 or kww.real <= 0 or abs(kzw) / math.sqrt(kzz.real * kww.real) - 1.0 > t["series"]:
                failed.add(idx[0])
        elif fams[0] in ("gen_G", "gen_A", "gen_sum"):
            g = complex(vals[fams.index("gen_G")])
            a = complex(vals[fams.index("gen_A")])
            if abs(a - g) > t["series"] * abs(g):
                failed.add(idx[fams.index("gen_A")])
        elif fams[0] == "psi_mn":
            # f(z + 1) = chi_alpha(1) e^{nu (z + 1/2)} f(z), relative to f(z + 1).
            first, second = idx
            a = ops[first].args
            factor = chi_factor(a["z"], a["nu"], a["alpha"])
            fz, fz1 = complex(outs[first]), complex(outs[second])
            if abs(fz1 - factor * fz) > t["quasi"] * max(abs(fz1), 1e-300):
                failed.add(second)
        elif fams[0] in ("gram_psi", "gram_psi_mn"):
            # Gram matrix Hermitian: <f_a, f_b> = conj <f_b, f_a>.
            cell = {(ops[i].args["row"], ops[i].args["col"]): i for i in idx}
            for (r, c), i in cell.items():
                j = cell.get((c, r))
                if j is not None and abs(complex(outs[i]) - complex(outs[j]).conjugate()) > t[fams[0]]:
                    failed.add(i)
    return failed
