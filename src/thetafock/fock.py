"""The Gaussian-weighted space of quasi-periodic entire functions.

For nu > 0 and a real character exponent alpha, the space consists of the
entire functions satisfying

    f(z + m) = exp(2*i*pi*alpha*m) * exp(nu*(z + m/2)*m) * f(z),  m in Z,

that are square integrable against exp(-nu*|z|^2) on the strip
S = [0,1] x R.  quasiperiod_factor is the factor of that law and
quasiperiod_residual a callable's defect from it at one point, which the
acceptance suite measures on every kind of member.  An orthogonal basis is

    e_n(z) = exp((nu/2)*z^2 + 2*i*pi*(alpha+n)*z),  n in Z,

with closed-form norms

    ||e_n||^2 = sqrt(pi/(2*nu)) * exp((2*pi^2/nu) * (n+alpha)^2),

and psi_n = e_n / ||e_n|| is an orthonormal basis.  The reproducing kernel
has both a basis expansion and a theta closed form:

    K(z, w) = sum over n of psi_n(z) * conj(psi_n(w))
            = sqrt(2*nu/pi) * exp((nu/2)*(z^2 + conj(w)^2))
              * theta_{alpha,0}(z - conj(w) | 2*i*pi/nu),

and |f(z)| <= ||f|| * K(z,z)^(1/2) for every member f.

A theta series with matching character embeds into the space through
f(z) = exp((nu/2)*z^2) * theta_{alpha,beta}(z | tau), which is a member
exactly when Im tau > pi/nu, with

    ||f||^2 = sqrt(pi/(2*nu)) * sum over n of exp(-2*pi*(n+alpha)^2 * gap)
            = sqrt(pi/(2*nu)) * theta_{alpha,0}(0 | 2*i*gap),  gap = Im tau - pi/nu.

The theta forms of K, of the members and of that norm pass their Gaussian
prefactor to theta._theta_exp as a log, to cancel inside one exponent: K(z,z)
~ e^{nu |z|^2} is finite wherever a double holds it, at any nu.  The mode sum
of K, through core.bilateral_sum, stays the independent oracle.  A mode
builds its normalization inside one exp call, a member sum (_psi_sum) takes
one exp per point for all its modes.
"""

import math
from collections import namedtuple

from .core import DEFAULT_BUDGET, DomainError, _as_complex, _exp, _finite, _finite_exp, _index, _mul, _quiet, _real
from .core import _reduce, bilateral_sum, character, np
from .theta import _theta_value


class SpaceParams(namedtuple("SpaceParams", "nu alpha")):
    """Gaussian weight rate nu > 0 and character exponent alpha."""

    __slots__ = ()

    def __new__(cls, nu, alpha):
        return super().__new__(cls, float(_real(nu, "nu", positive=True)), float(_real(alpha, "alpha")))


class _Expansion:
    """Finite expansion sum c_k b_k over one family of modes b_k.

    An instance is immutable.  Its fields are the space (a SpaceParams under "params", or the bare alpha of the
    line, named by SPACE), the sorted tuple `coeffs` of (key, complex coefficient) pairs and what a subclass derives
    from them once; equality and hashing go by the class and every field.  Each subclass supplies `_parts(z)`, the
    sum at z as a few partial sums, its key fields KEYS and the record header (`_header` / `_space_from`, nu and
    alpha by default).  The norm is math.hypot over `_orthonormal()`, the coefficients against orthonormal b_k.
    Records are {header..., "coeffs": [{key fields..., "re", "im"}]}, one row per key.
    """

    SPACE = "params"
    KEYS = ("n",)

    def __init__(self, space, coeffs):
        object.__setattr__(self, self.SPACE, space)
        cleaned = {}
        for k, c in coeffs.items() if hasattr(coeffs, "keys") else coeffs:  # a mapping or (key, coeff) pairs
            key = self._clean_key(k)
            if key in cleaned:  # a key given twice is not a choice of the last one
                raise DomainError(f"duplicate key {key}")
            cleaned[key] = complex(c)
        object.__setattr__(self, "coeffs", tuple(sorted(cleaned.items())))

    _clean_key = staticmethod(_index)

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({self.SPACE}={getattr(self, self.SPACE)!r}, coeffs={self.coeffs!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def coeff_dict(self):
        return dict(self.coeffs)

    _orthonormal = coeff_dict

    def evaluate(self, z):
        z = _as_complex(z)
        zero = 0j if isinstance(z, complex) else np.zeros(z.shape, dtype=complex)
        with _quiet(z):  # a value that left the double range is reported by _finite
            return _finite(sum(self._parts(z) if self.coeffs else (), zero), "element value")

    __call__ = evaluate

    def norm(self):
        """Parseval norm sqrt(sum |c_k|^2) over the coefficients against the orthonormal b_k."""
        return _finite(math.hypot(*map(abs, self._orthonormal().values())), "norm").real

    def _header(self):
        return {"nu": self.params.nu, "alpha": self.params.alpha}

    @staticmethod
    def _space_from(data):
        return SpaceParams(float(data["nu"]), float(data["alpha"]))

    def to_dict(self):
        rows = []
        for key, c in self.coeffs:
            fields = key if len(self.KEYS) > 1 else (key,)
            rows.append({**dict(zip(self.KEYS, fields)), "re": c.real, "im": c.imag})
        return {**self._header(), "coeffs": rows}

    @classmethod
    def from_dict(cls, data):
        try:
            space = cls._space_from(data)
            pairs = []
            for row in data["coeffs"]:
                key = tuple(_index(row[f]) for f in cls.KEYS)
                re, im = float(row["re"]), float(row["im"])
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise ValueError(f"non-finite coefficient in row {row}")
                pairs.append((key if len(key) > 1 else key[0], complex(re, im)))
            return cls(space, pairs)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed element record: {exc}") from exc


def basis_e(n, z, params):
    """Quasi-periodic Gaussian mode e_n(z) = exp((nu/2) z^2 + 2 i pi (alpha+n) z)."""
    n, z = n if type(n) is int else _index(n), _as_complex(z)
    if type(z) is not complex:  # an array's points are checked at entry, before any arithmetic can warn
        z = _finite(z, f"e_{n}")
    return _finite_exp(1.0, _mul(0.5 * params.nu * z, z) + 2j * math.pi * (params.alpha + n) * z, f"e_{n}")


def e_norm(n, params):
    """Closed-form norm ||e_n|| = (pi/(2 nu))^(1/4) exp((pi^2/nu)(n+alpha)^2)."""
    n = n if type(n) is int else _index(n)
    expo = (math.pi**2 / params.nu) * (n + params.alpha) * (n + params.alpha)
    return _finite_exp((math.pi / (2.0 * params.nu)) ** 0.25, complex(expo), f"norm of e_{n}").real


def basis_psi(n, z, params):
    """Orthonormal mode psi_n = e_n / ||e_n||, assembled in a single exponential."""
    n, z = n if type(n) is int else _index(n), _as_complex(z)
    if type(z) is not complex:  # as in basis_e
        z = _finite(z, f"psi_{n}")
    c = params.alpha + n
    expo = _mul(0.5 * params.nu * z, z) + 2j * math.pi * c * z - (math.pi**2 / params.nu) * c * c
    return _finite_exp((2.0 * params.nu / math.pi) ** 0.25, expo, f"psi_{n}")


def _psi_sum(params, keys, z, coeff, scale):
    """sum over the ascending `keys` of coeff(n, z) e^scale psi_n(z), coeff(n, z) a number or an array over z.

    A point anchors on the key nearest its peak mode -nu Im z/pi - alpha, takes psi there from one exp
    and walks outward: by f = psi_{n+-1}/psi_n from one exp, f q (q = exp(-2 pi^2/nu)) at each further
    index, one exp across a gap.  Each factor has modulus <= 1, so each intermediate is a true term.  The
    walk runs at e^scale |psi| on the anchor clamped into [e^-100, e^400]: with |coeff| in (e^-300, 1], a term
    within e^-300 of the largest stays normal and none overflows.  An ndarray is sorted by anchor, so that the
    upward sweep works on a prefix and the downward one on a suffix; each point takes the scalar route's steps.
    """
    (nu, alpha), scalar, count = params, isinstance(z, complex), len(keys)
    a2, mids = math.pi**2 / nu, [(a + b) / 2.0 for a, b in zip(keys, keys[1:])]
    cut = (lambda x, a, b: x) if scalar else (lambda x, a, b: x[a:b])  # a Python complex is its one point
    put = (lambda x, a, b, v: v) if scalar else (lambda x, a, b, v: x.__setitem__(slice(a, b), v) or x)
    if scalar:
        at = sum(m < -nu * z.imag / math.pi - alpha for m in mids)
        ends, size, c = [int(at <= k) for k in range(count)], 1, keys[at] + alpha
    else:
        shape, z = z.shape, z.ravel()
        at = np.searchsorted(mids, -nu * z.imag / math.pi - alpha)
        order = np.argsort(at.astype(np.min_scalar_type(count)), kind="stable")  # a radix sort
        z, at, size = z[order], at[order], z.size
        ends, c = np.searchsorted(at, range(count), side="right").tolist(), np.asarray(keys, float)[at] + alpha
    expo = _mul(0.5 * nu * z + 2j * math.pi * c, z) - a2 * c * c + (0.25 * math.log(2.0 * nu / math.pi) + scale)
    over = expo.real - (max(-100.0, min(400.0, expo.real)) if scalar else np.clip(expo.real, -100.0, 400.0))
    anchor, q, base = _exp(expo - over), math.exp(-2.0 * a2), 2j * math.pi * z
    total = 0j if scalar else np.zeros_like(anchor)
    for sgn, log_w in ((1, base), (-1, -base)):  # log_w - shift = log psi_{n+-1}/psi_n
        t, f, fresh = anchor if scalar or sgn < 0 else anchor.copy(), 0j if scalar else np.empty_like(anchor), True
        for k in range(count)[::sgn]:
            lo, hi = ends[k - 1] if k else 0, ends[k]  # the points anchored at key k
            a, b, s = (0, hi, 0) if sgn > 0 else (lo, size, hi)  # walked to key k; from s on, add its term
            if s < b:
                total = put(total, s, b, cut(total, s, b) + _mul(coeff(keys[k], cut(z, s, b)), cut(t, s, b)))
            if a == b or not 0 <= k + sgn < count:
                continue
            d, shift = abs(keys[k + sgn] - keys[k]), sgn * 2.0 * a2 * (keys[k] + alpha) + a2
            if d == 1 and (fresh or lo < hi):  # f from one exp on a point's anchor and after a gap
                lo, hi = (a, b) if fresh else (lo, hi)
                f = put(f, lo, hi, _exp(cut(log_w, lo, hi) - shift))
            step = cut(f, a, b) if d == 1 else _exp(d * (cut(log_w, a, b) - shift) - a2 * d * (d - 1))
            t, f, fresh = put(t, a, b, _mul(cut(t, a, b), step)), put(f, a, b, step * q) if d == 1 else f, d > 1
    if (over != 0.0) if scalar else np.any(over):
        total = _mul(total, _exp(over + 0j))  # the clamped part of e^scale |psi| on the anchor
    if scalar:
        return total
    out = np.empty_like(total)
    out[order] = total
    return out.reshape(shape)


class FockElement(_Expansion):
    """Finite linear combination sum a_n e_n = sum c_n psi_n in the quasi-periodic space, c_n = a_n ||e_n||.

    `coeffs` holds the a_n, `_psi` the view read by evaluation and the psi side: per mode (n, w, s), c_n = w e^s, as
    (n, a_n/|a_n|, log|c_n|) or (n, c_n, 0), built without ||e_n|| so that neither c_n nor a_n need fit a double.
    """

    def __init__(self, params, coeffs):
        super().__init__(params, coeffs)
        object.__setattr__(self, "_psi", tuple(self._scaled(self.coeffs, 1)))

    def _scaled(self, pairs, sign):
        """(n, x/|x|, log|x| + sign log||e_n||) per (n, x), (n, 0, 0) for x = 0: e^log need not fit a double."""
        nu, alpha = self.params
        log_k, a2 = 0.25 * math.log(math.pi / (2.0 * nu)), math.pi**2 / nu
        for n, x in pairs:
            yield (n, x / abs(x), math.log(abs(x)) + sign * log_k + sign * a2 * (n + alpha) ** 2) if x else (n, 0j, 0.0)

    def _parts(self, z):
        """sum c_n psi_n(z) by bands: a band holds the modes whose log|c_n| lies within 300 of its largest, top."""
        polar = {n: (w, s) if s else (w / abs(w), math.log(abs(w))) for n, w, s in self._psi if w}  # s = 0: w is c_n
        while polar:
            top = max(log for _, log in polar.values())
            band = {n: u * math.exp(log - top)  # never empty: the largest is in, nan and inf too
                    for n, (u, log) in polar.items() if not log < top - 300.0}
            polar = {n: v for n, v in polar.items() if n not in band}
            yield _psi_sum(self.params, sorted(band), z, lambda n, z, band=band: band[n], top)

    @classmethod
    def from_psi_coeffs(cls, params, coeffs):
        """Build from coefficients c_n against psi_n: the view keeps them as given, a_n = c_n/||e_n|| in log space."""
        elem = cls.__new__(cls)
        _Expansion.__init__(elem, params, coeffs)
        object.__setattr__(elem, "_psi", tuple((n, c, 0.0) for n, c in elem.coeffs))
        object.__setattr__(elem, "coeffs", tuple((n, _finite(u * _exp(complex(log)), f"e_n coefficient a_{n}"))
                                                 for n, u, log in elem._scaled(elem.coeffs, -1)))
        return elem

    def psi_coeffs(self):
        """Coefficients against psi_n, c_n = w e^s from the view."""
        return {n: _finite(w * _exp(complex(s)), f"psi coefficient c_{n}") for n, w, s in self._psi}

    _orthonormal = psi_coeffs

    def dominant_index(self):
        """Mode index carrying the largest orthonormal coefficient, the smaller |n| on a tie."""
        return max(((math.log(abs(w)) + s, -abs(n), n) for n, w, s in self._psi if w), default=(0, 0, 0))[2]

    def to_dict(self):
        for (n, a), (_, w, _) in zip(self.coeffs, self._psi):
            if w and abs(a) < 2.0**-1022:  # c_n != 0 whose a_n is zero or subnormal: a record cannot carry it
                raise OverflowError(f"e_n coefficient a_{n} underflowed the double range")
        return super().to_dict()


def quasiperiod_factor(z, m, params):
    """Automorphy factor chi_alpha(m) * exp(nu*(z + m/2)*m) of the lattice step m."""
    m, z = _index(m, "lattice step"), _as_complex(z)
    with _quiet(z):  # a factor that left the double range is raised by _finite
        return _finite(_mul(character(params.alpha, m), _exp(params.nu * (z + m / 2.0) * m)), f"factor of step {m}")


def quasiperiod_residual(f, z, m, params):
    """Defect of the quasi-periodicity law at one point, |f(z+m)/F - f(z)| / max(1, |f(z)|) with F the factor of
    the step m: dividing by |F| keeps the rounding of a large f(z+m) out of the defect."""
    factor = quasiperiod_factor(z, m, params)  # a fractional m raises before f runs
    fz = complex(f(z))
    return abs(complex(f(z + int(m))) - factor * fz) / (abs(factor) * max(1.0, abs(fz)))


def reproducing_kernel(z, w, params, budget=DEFAULT_BUDGET, path="theta"):
    """Reproducing kernel K(z, w), by the theta closed form or the mode sum.

    path="theta" evaluates sqrt(2 nu/pi) exp((nu/2)(z^2 + conj(w)^2))
    theta_{alpha,0}(z - conj(w) | 2 i pi/nu); path="sum" sums
    psi_n(z) conj(psi_n(w)) directly under the truncation budget.
    """
    nu, alpha = params.nu, params.alpha
    z, w = _finite(_as_complex(z), "reproducing kernel"), _finite(_as_complex(w), "reproducing kernel")
    if path == "theta":
        cw = w.conjugate()
        logpref = 0.5 * math.log(2.0 * nu / math.pi) + 0.5 * nu * (_mul(z, z) + _mul(cw, cw))
        return _theta_value("reproducing kernel", alpha, 0.0, 2j * math.pi / nu, z - cw, budget, logpref)
    if path != "sum":
        raise DomainError(f"unknown kernel path {path!r}; expected 'theta' or 'sum'")
    center = -alpha - nu * (_reduce("mean", z.imag) + _reduce("mean", w.imag)) / (2.0 * math.pi)

    def term(n):
        return _mul(basis_psi(n, z, params), basis_psi(n, w, params).conjugate())

    return _finite(bilateral_sum(term, round(center), budget), "reproducing kernel")


def pointwise_bound(z, params, budget=DEFAULT_BUDGET):
    """Growth envelope K(z,z)^(1/2): |f(z)| <= ||f|| * pointwise_bound(z)."""
    kzz = reproducing_kernel(z, z, params, budget).real
    return math.sqrt(max(kzz, 0.0)) if isinstance(kzz, float) else np.sqrt(np.maximum(kzz, 0.0))


class MembershipResult(namedtuple("MembershipResult", "in_space norm")):
    """Outcome of the theta membership test: the decision and, when the
    member exists, its space norm (None otherwise)."""

    __slots__ = ()


def theta_member(targs, params, budget=DEFAULT_BUDGET):
    """Callable w -> exp((nu/2) w^2) * theta_{alpha,beta}(w | tau), the
    candidate member built from a theta series."""
    _check_character(targs, params)

    def f(w):
        w = _finite(_as_complex(w), "theta member")
        return _theta_value("theta member", targs.alpha, targs.beta, targs.tau, w, budget, _mul(0.5 * params.nu * w, w))

    return f


def theta_membership(targs, params, budget=DEFAULT_BUDGET):
    """Decide whether exp((nu/2) z^2) theta_{alpha,beta}(z | tau) lies in the
    space, and return its norm when it does.

    Membership holds exactly when Im tau > pi/nu (strict); the norm series
    sum exp(-2 pi (n+alpha)^2 gap), gap = Im tau - pi/nu, is the theta value
    theta_{alpha,0}(0 | 2 i gap), which the inversion law keeps finite and
    cheap as gap -> 0+.
    """
    _check_character(targs, params)
    gap = complex(targs.tau).imag - math.pi / params.nu
    if gap <= 0.0:
        return MembershipResult(False, None)
    logpref = 0.5 * math.log(math.pi / (2.0 * params.nu))
    total = _theta_value("membership norm", targs.alpha, 0.0, 2j * gap, 0j, budget, logpref)
    return MembershipResult(True, math.sqrt(total.real))


def _check_character(targs, params):
    diff = targs.alpha - params.alpha
    if abs(diff - round(diff)) > 1e-12:
        raise DomainError(
            "theta characteristic alpha must match the space character mod 1;"
            f" got {targs.alpha} vs {params.alpha}"
        )
