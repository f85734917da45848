"""Per-layer tracing of isosharp from outside the package.

``Tracer.install()`` replaces selected functions of the layer modules, and
every other isosharp module's binding of them (``from .x import f``), with
wrappers.  Three kinds of wrapper:

    span     records (id, name, start, end, parent, op) in memory and keeps
             inclusive and self time; self time is the duration minus the
             time of instrumented calls beneath it
    timed    keeps calls and time like a span but stores no record; for
             hot leaves called thousands of times per operation
    count    a plain call counter, no clock; its time stays in the caller's
             self time

Wrappers record only while an operation runs (``Tracer.operation``), so the
benchmark's own checks, which call the program too, are not counted.
``uninstall()`` restores every binding.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

# (module, attribute) -> kind; a dotted attribute names a method
TARGETS = {
    "specfun": {"omega": "count", "log_gamma": "count", "gamma": "count",
                "bessel_j": "timed", "bessel_j_prime": "count",
                "bessel_first_zero": "span"},
    "constants": dict.fromkeys(
        ("aubin_talenti", "gn_theta", "gn_constant", "sobolev_constant",
         "gn_sharp_constant", "fk_constant", "rayleigh_constant",
         "isoperimetric_constant", "noncollapse_lower_bound",
         "sharp_constants"), "span"),
    "quadrature": {"integrate": "span", "gauss_on_segments": "span"},
    "spaces": {"vol_ball": "timed", "minkowski_content_ball": "count",
               "avr": "count", **dict.fromkeys(
                   ("avr_numeric", "bishop_gromov_check", "curvature_check",
                    "isoperimetric_deficit", "isoperimetric_sharpness_sweep",
                    "space_from_descriptor", "weighted_avr_lambda"), "span")},
    "rearrange": {"RadialFunction.value": "count",
                  "RadialFunction.deriv": "count", **dict.fromkeys(
                      ("volume_function", "distribution",
                       "euclidean_rearrangement", "lq_norm", "grad_lp_norm",
                       "polya_szego_check", "coarea_derivative_check",
                       "layer_cake_radial_integral"), "span")},
    "verify": dict.fromkeys(
        ("truncated_extremal", "sobolev_quotient", "gn_quotient",
         "fk_eigenvalue", "fk_check", "bessel_level_integrals",
         "bessel_test_profile", "fk_sharpness_sweep", "curated_profiles",
         "run_suite"), "span"),
    "sandbox": dict.fromkeys(
        ("from_edges", "path_graph", "grid_graph", "random_space",
         "interpolant_set", "eps_neighborhood", "z_inclusion_check",
         "seeded_z_inclusion", "brunn_minkowski_report"), "span"),
    "cli": {"main": "span"},
}

# metric names that differ from "<module>.<attribute>"
ALIASES = {"rearrange.RadialFunction.value": "radial.value",
           "rearrange.RadialFunction.deriv": "radial.deriv"}

MODULES = tuple(TARGETS)
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(int)     # integrate retries/evals, shoots
        self.spans = []
        self.dropped = 0
        self._next_id = 0
        self._stack = []
        self._restore = []
        self.missing = []

    # -- recording ---------------------------------------------------------

    def operation(self, op_id, fn):
        """Run fn() as operation op_id with recording on."""
        self.op_id = op_id
        self.active = True
        try:
            return fn()
        finally:
            self.active = False

    def _enter(self, record):
        # frame: [start, time of instrumented calls beneath, id that
        # children report as parent, parent id]; a timed leaf passes its
        # parent's id through, so spans link to the nearest recorded span
        parent = self._stack[-1][2] if self._stack else -1
        sid = parent
        if record:
            sid = self._next_id
            self._next_id += 1
        frame = [time.perf_counter(), 0.0, sid, parent]
        self._stack.append(frame)
        return frame

    def _leave(self, name, frame, record):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if record:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[2], name, frame[0], end, frame[3],
                                   self.op_id))
            else:
                self.dropped += 1

    def _wrap(self, name, kind, fn):
        tracer = self
        if kind == "count":
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        record = kind == "span"
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(record)
            try:
                if hook is not None:
                    return hook(tracer, fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, record)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, callers=()):
        """Wrap the targets in every isosharp module and in ``callers``."""
        pkg = importlib.import_module("isosharp")
        mods = {m: importlib.import_module(f"isosharp.{m}") for m in MODULES}
        all_mods = [mod for mod in vars(pkg).values() if inspect.ismodule(mod)]
        all_mods += list(mods.values()) + list(callers)
        for mod_name, attrs in TARGETS.items():
            mod = mods[mod_name]
            for attr, kind in attrs.items():
                name = ALIASES.get(f"{mod_name}.{attr}", f"{mod_name}.{attr}")
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(mod, owner) if owner else mod
                orig = vars(holder).get(leaf)
                if orig is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, kind, orig)
                if owner:
                    self._set(holder, leaf, wrapper, orig)
                    continue
                for other in set(all_mods):
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._set(other, key, wrapper, orig)

    def _set(self, holder, key, new, old):
        setattr(holder, key, new)
        self._restore.append((holder, key, old))

    def uninstall(self):
        for holder, key, old in reversed(self._restore):
            setattr(holder, key, old)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def snapshot(self):
        """Totals so far, for differencing passes."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "extra": dict(self.extra)}

    def write(self, path, meta):
        names = sorted(self.calls)
        doc = {"meta": meta, "missing": self.missing,
               "dropped_spans": self.dropped,
               "totals": {n: {"calls": self.calls.get(n, 0),
                              "ms": 1e3 * self.total.get(n, 0.0),
                              "self_ms": 1e3 * self.self_time.get(n, 0.0)}
                          for n in names},
               "extra": dict(self.extra),
               "span_fields": ["id", "name", "start_s", "end_s", "parent",
                               "op"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _integrate_hook(tracer, fn, args, kwargs):
    """Counts retries (calls at depth > 0) and integrand evaluations."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return fn(*args, **kwargs)
    depth = bound.arguments.get("_depth", 0)
    if depth:
        tracer.extra["quadrature.integrate.retries"] += 1
        return fn(*args, **kwargs)
    key = next(iter(bound.arguments))
    f = bound.arguments[key]

    def counted(*a, **k):
        tracer.extra["quadrature.integrate.evals"] += 1
        return f(*a, **k)

    bound.arguments[key] = counted
    return fn(*bound.args, **bound.kwargs)


def _eigen_hook(tracer, fn, args, kwargs):
    res = fn(*args, **kwargs)
    tracer.extra["verify.fk_eigenvalue.shoots"] += int(res.iterations)
    return res


_HOOKS = {"quadrature.integrate": _integrate_hook,
          "verify.fk_eigenvalue": _eigen_hook}
EXTRA_COUNTERS = ("quadrature.integrate.retries", "quadrature.integrate.evals",
                  "verify.fk_eigenvalue.shoots")


def layer_metrics(before, after, passes, names):
    """Per-pass values of the requested per-layer metric names.

    A name is '<function>.calls', '.ms' (inclusive), '.self_ms', or a
    counter kept in ``extra`` such as 'quadrature.integrate.evals'.
    """
    def diff(kind, key):
        return after[kind].get(key, 0) - before[kind].get(key, 0)

    out = {}
    for metric in names:
        base, _, field = metric.rpartition(".")
        if metric in EXTRA_COUNTERS:
            out[metric] = diff("extra", metric) / passes
        elif field == "calls":
            out[metric] = diff("calls", base) / passes
        elif field == "ms":
            out[metric] = 1e3 * diff("total", base) / passes
        elif field == "self_ms":
            out[metric] = 1e3 * diff("self", base) / passes
    return out

