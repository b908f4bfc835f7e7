"""Spans and counters around thetafock's public functions.

Tracer.install() wraps the functions named in WRAPPED and patches each
wrapper into every thetafock module that imported the name (for example
both thetafock.theta.bilateral_sum and thetafock.fock.bilateral_sum), and
into the element classes' evaluate/__call__.  Tracer.uninstall() puts the
originals back, so untraced rounds run the library exactly as shipped.

Each call records a span [name, start_ns, end_ns, parent, op, counters].
Children of one thread nest strictly, so a span's self time is its
duration minus the durations of its direct children.  Counters are taken
at the same boundaries:

- terms: calls of the `term` callable handed to bilateral_sum;
- values: points per riemann_theta call;
- nodes: x_points * y_order of the scheme of a strip_inner_product;
- refinements: bargmann_kernel_A calls inside one bargmann_pointwise;
- evals: calls of `f` inside one landau/creation/annihilation apply;
- mode_points: modes x points of one element evaluate;
- q: points of one bargmann_inverse.

Spans stay in memory; `summary` turns one round of spans into the
per-layer metrics (run.py checks their names against BENCHMARK.json) and
`dump` writes them out when the run ends.
"""

import inspect
import json
import sys
import time

import numpy as np

# (module, function) pairs whose calls become spans.
WRAPPED = (
    ("core", "bilateral_sum"),
    ("core", "hermite_poly"),
    ("theta", "riemann_theta"),
    ("fock", "reproducing_kernel"),
    ("fock", "theta_membership"),
    ("quadrature", "strip_inner_product"),
    ("quadrature", "line_inner_product"),
    ("bargmann", "bargmann_kernel_A"),
    ("bargmann", "generating_kernel_G"),
    ("bargmann", "generating_kernel_sum"),
    ("bargmann", "bargmann_pointwise"),
    ("bargmann", "bargmann_inverse"),
    ("landau", "basis_psi_mn"),
    ("landau", "landau_apply"),
    ("landau", "creation_apply"),
    ("landau", "annihilation_apply"),
    ("landau", "eigen_residual"),
    ("verify", "run_acceptance"),
    ("cli", "run_command"),
)
ELEMENTS = (("fock", "FockElement"), ("bargmann", "LineElement"), ("landau", "LandauElement"))
APPLIES = ("landau_apply", "creation_apply", "annihilation_apply")


def _size(x):
    return int(np.size(x))


class Tracer:
    def __init__(self, tf):
        self.tf = tf
        self.spans = []
        self.stack = []
        self.op = -1
        self.saved = []

    # -- recording

    def _open(self, name, counters=None):
        span = [name, time.perf_counter_ns(), 0, self.stack[-1][6] if self.stack else -1, self.op, counters, len(self.spans)]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter_ns()
        self.stack.pop()

    def _nearest(self, name):
        for span in reversed(self.stack):
            if span[0] == name:
                return span
        return None

    def _wrap(self, label, fn, before=None):
        """Wrapper recording a span named `label`; `before(span, args,
        kwargs)` may count or replace arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(label, {})
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_callable(self, label, fn, span, key):
        """A callable that counts its calls in span[5][key] and, with a
        label, records a child span per call."""
        tracer = self

        def inner(*a, **k):
            span[5][key] = span[5].get(key, 0) + 1
            if label is None:
                return fn(*a, **k)
            child = tracer._open(label)
            try:
                return fn(*a, **k)
            finally:
                tracer._close(child)

        return inner

    # -- argument hooks

    def _bilateral(self, span, args, kwargs):
        args = list(args)
        args[0] = self._timed_callable("core.term", args[0], span, "terms")
        return tuple(args), kwargs

    def _theta(self, span, args, kwargs):
        z = args[1] if len(args) > 1 else kwargs["z"]
        span[5]["values"] = _size(z)
        return args, kwargs

    def _kernel(self, span, args, kwargs):
        bound = self.sigs["reproducing_kernel"].bind(*args, **kwargs)
        bound.apply_defaults()
        span[0] = "fock.reproducing_kernel." + str(bound.arguments["path"])
        return args, kwargs

    def _strip(self, span, args, kwargs):
        bound = self.sigs["strip_inner_product"].bind(*args, **kwargs)
        bound.apply_defaults()
        scheme = bound.arguments["scheme"]
        span[5]["nodes"] = scheme.x_points * scheme.y_order
        bound.arguments["f"] = self._timed_callable("quadrature.integrand", bound.arguments["f"], span, "f")
        bound.arguments["g"] = self._timed_callable("quadrature.integrand", bound.arguments["g"], span, "g")
        return bound.args, bound.kwargs

    def _kernel_a(self, span, args, kwargs):
        outer = self._nearest("bargmann.bargmann_pointwise")
        if outer is not None:
            outer[5]["refinements"] = outer[5].get("refinements", 0) + 1
        return args, kwargs

    def _apply(self, span, args, kwargs):
        args = list(args)
        args[0] = self._timed_callable(None, args[0], span, "evals")
        return tuple(args), kwargs

    def _inverse(self, span, args, kwargs):
        q = args[1] if len(args) > 1 else kwargs["q"]
        span[5]["q"] = _size(q)
        return args, kwargs

    def _element(self, span, args, kwargs):
        span[5]["mode_points"] = len(args[0].coeffs) * _size(args[1])
        return args, kwargs

    # -- patching

    def _patch(self, fn, wrapper):
        for name, mod in list(sys.modules.items()):
            if name == "thetafock" or name.startswith("thetafock."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self.saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def install(self):
        tf = self.tf
        hooks = {
            "bilateral_sum": self._bilateral,
            "riemann_theta": self._theta,
            "reproducing_kernel": self._kernel,
            "strip_inner_product": self._strip,
            "bargmann_kernel_A": self._kernel_a,
            "bargmann_inverse": self._inverse,
        }
        hooks.update({name: self._apply for name in APPLIES})
        self.sigs = {}
        for mod_name, fn_name in WRAPPED:
            mod = sys.modules.get(f"thetafock.{mod_name}")
            if mod is None:  # thetafock.cli is imported by the cli workload only
                continue
            fn = getattr(mod, fn_name)
            self.sigs[fn_name] = inspect.signature(fn)
            self._patch(fn, self._wrap(f"{mod_name}.{fn_name}", fn, hooks.get(fn_name)))
        verify = tf.verify
        wrapped = []
        for crit in verify.CRITERIA:
            w = self._wrap(f"verify.{crit.__name__}", crit)
            self._patch(crit, w)
            wrapped.append(w)
        self.saved.append((verify, "CRITERIA", verify.CRITERIA))
        verify.CRITERIA = tuple(wrapped)
        for mod_name, cls_name in ELEMENTS:
            cls = getattr(getattr(tf, mod_name), cls_name)
            fn = cls.evaluate
            w = self._wrap("fock.element_evaluate", fn, self._element)
            for attr in ("evaluate", "__call__"):
                self.saved.append((cls, attr, getattr(cls, attr)))
                setattr(cls, attr, w)

    def uninstall(self):
        for target, attr, original in reversed(self.saved):
            setattr(target, attr, original)
        self.saved = []

    # -- reporting

    def take(self):
        """Spans recorded since the last take, as a new list."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def summary(spans, criteria):
        """Per-layer metrics of one round of spans (zeros where idle)."""
        child = [0] * len(spans)  # span ids restart at 0 with each take()
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        incl, self_ns, calls, counts = {}, {}, {}, {}
        for s, c in zip(spans, child):
            name = s[0]
            incl[name] = incl.get(name, 0) + s[2] - s[1]
            self_ns[name] = self_ns.get(name, 0) + s[2] - s[1] - c
            calls[name] = calls.get(name, 0) + 1
            for k, v in (s[5] or {}).items():
                counts[(name, k)] = counts.get((name, k), 0) + v

        def ms(table, name):
            return table.get(name, 0) / 1e6

        def ratio(a, b):
            return a / b if b else 0.0

        n_bs = calls.get("core.bilateral_sum", 0)
        values = counts.get(("theta.riemann_theta", "values"), 0)
        applies = sum(calls.get(f"landau.{a}", 0) for a in APPLIES)
        evals = sum(counts.get((f"landau.{a}", "evals"), 0) for a in APPLIES)
        out = {
            "core.bilateral_sum.calls": n_bs,
            "core.bilateral_sum.terms_per_call": ratio(counts.get(("core.bilateral_sum", "terms"), 0), n_bs),
            "core.bilateral_sum.self_ms": ms(self_ns, "core.bilateral_sum"),
            "core.bilateral_sum.term_ms": ms(incl, "core.term"),
            "core.hermite_poly.ms": ms(incl, "core.hermite_poly"),
            "theta.riemann_theta.values": values,
            "theta.riemann_theta.self_ms": ms(self_ns, "theta.riemann_theta"),
            "theta.riemann_theta.us_per_value": ratio(incl.get("theta.riemann_theta", 0) / 1e3, values),
            "fock.reproducing_kernel.theta_ms": ms(incl, "fock.reproducing_kernel.theta"),
            "fock.reproducing_kernel.sum_ms": ms(incl, "fock.reproducing_kernel.sum"),
            "fock.element_evaluate.ms": ms(incl, "fock.element_evaluate"),
            "fock.element_evaluate.mode_points": counts.get(("fock.element_evaluate", "mode_points"), 0),
            "fock.theta_membership.ms": ms(incl, "fock.theta_membership"),
            "quadrature.strip_inner_product.calls": calls.get("quadrature.strip_inner_product", 0),
            "quadrature.strip_inner_product.nodes": counts.get(("quadrature.strip_inner_product", "nodes"), 0),
            "quadrature.strip_inner_product.self_ms": ms(self_ns, "quadrature.strip_inner_product"),
            "quadrature.strip_inner_product.integrand_ms": ms(incl, "quadrature.integrand"),
            "quadrature.line_inner_product.ms": ms(incl, "quadrature.line_inner_product"),
            "bargmann.bargmann_kernel_A.ms": ms(incl, "bargmann.bargmann_kernel_A"),
            "bargmann.generating_kernel_G.ms": ms(incl, "bargmann.generating_kernel_G"),
            "bargmann.generating_kernel_sum.ms": ms(incl, "bargmann.generating_kernel_sum"),
            "bargmann.bargmann_pointwise.refinements": ratio(
                counts.get(("bargmann.bargmann_pointwise", "refinements"), 0),
                calls.get("bargmann.bargmann_pointwise", 0)),
            "bargmann.bargmann_inverse.ms_per_q": ratio(
                ms(incl, "bargmann.bargmann_inverse"), counts.get(("bargmann.bargmann_inverse", "q"), 0)),
            "landau.basis_psi_mn.calls": calls.get("landau.basis_psi_mn", 0),
            "landau.basis_psi_mn.ms": ms(incl, "landau.basis_psi_mn"),
            "landau.stencil.evals_per_apply": ratio(evals, applies),
            "landau.landau_apply.ms": ms(incl, "landau.landau_apply"),
            "landau.eigen_residual.ms": ms(incl, "landau.eigen_residual"),
        }
        for c in criteria:
            out[f"verify.{c}.ms"] = ms(incl, f"verify.{c}")
        out["verify.run_acceptance.ms"] = ms(incl, "verify.run_acceptance")
        out["cli.run_command_ms"] = ratio(ms(incl, "cli.run_command"), calls.get("cli.run_command", 0))
        return out

    @staticmethod
    def dump(spans, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "counters", "id"],
                       "spans": spans}, fh)
