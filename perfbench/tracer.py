"""Layer tracing for the qladder benchmark.

`Tracer.install()` wraps every public function of each qladder module at every
binding site (modules import names with ``from .x import y``, so patching only
the defining module would miss calls), every public method and property of
the classes those modules define, the private stencil helper
``ladder._apply_scaled``, and ``numpy.polynomial.legendre.leggauss``.  The
callables handed to the orthogonality routines (integrands and densities) are
wrapped per call so their evaluations are counted.  `Tracer.uninstall()`
puts every original back.

Spans are aggregated in memory by name (calls, total and self time); the
config-level spans and the suite-level spans (``checks.run_suite`` and
``orthogonality.gram_matrix``) are kept in full with their config id.  A
layer is the qladder module a function is defined in; its self time is the
time its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

import numpy.polynomial.legendre as _legendre

LAYERS = ("qkernel", "lattice", "hypergeometric_core", "families", "ladder",
          "orthogonality", "checks", "report", "cli")
_FULL_SPANS = ("checks.run_suite", "orthogonality.gram_matrix")
# private helpers that carry a layer's work and are wrapped as well
_PRIVATE = (("ladder", "_apply_scaled"),)
# distinct-argument keys: span name -> (key group, key function of the args)
_DISTINCT = {
    "lattice.Lattice.x": ("lattice.x", lambda a, k: (id(a[0]), complex(_arg(a, k, 1, "s")))),
    "families.FamilySpec.pn": (
        "families.pn",
        lambda a, k: (id(a[0]), _arg(a, k, 1, "n"), complex(_arg(a, k, 2, "s")),
                      _arg(a, k, 3, "route", "ttrr")),
    ),
    "hypergeometric_core.sigma_eval": (
        "hypergeometric_core.sigma_theta",
        lambda a, k: ("sigma", id(a[0]), complex(_arg(a, k, 1, "s"))),
    ),
    "hypergeometric_core.theta_eval": (
        "hypergeometric_core.sigma_theta",
        lambda a, k: ("theta", id(a[0]), complex(_arg(a, k, 1, "s"))),
    ),
    "hypergeometric_core.tau_k_coeffs": (
        "hypergeometric_core.tau_k_coeffs", lambda a, k: (id(a[0]), _arg(a, k, 1, "k")),
    ),
    "hypergeometric_core.lam_ratio": (
        "hypergeometric_core.lam_ratio", lambda a, k: (id(a[0]), _arg(a, k, 1, "n")),
    ),
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Installs span-recording wrappers into qladder and aggregates them."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.layer_of = {}  # span name -> layer
        self.counters = {}  # counter name -> value
        self.spans = []  # full spans: [config_id, name, detail, start_s, end_s]
        self.distinct = {group: 0 for group, _ in _DISTINCT.values()}
        self.distinct_calls = dict(self.distinct)
        self._seen = {group: set() for group in self.distinct}
        self._stack = [0.0]  # child time accumulated by each open span
        self._patches = []  # (owner, attribute, original value)
        self._config = None
        self._t0 = time.perf_counter()

    # -- counters ---------------------------------------------------------
    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- config spans -----------------------------------------------------
    def begin_config(self, config_id: int, label: str):
        self._config = [config_id, "config", label, time.perf_counter() - self._t0, None]

    def end_config(self):
        self._config[4] = time.perf_counter() - self._t0
        self.spans.append(self._config)
        self._config = None
        # distinct keys are scoped to one config: ids of freed objects recur
        for group, seen in self._seen.items():
            self.distinct[group] += len(seen)
            seen.clear()

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        stack = self._stack
        perf = time.perf_counter
        full = name in _FULL_SPANS
        prepare = self._prepare(name)
        distinct = _DISTINCT.get(name)
        if distinct is not None:
            group, key = distinct
            seen = self._seen[group]
            calls = self.distinct_calls

        def wrapper(*args, **kwargs):
            if distinct is not None:
                seen.add(hash(key(args, kwargs)))
                calls[group] += 1
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            t0 = perf()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                stack[-1] += dt
                if full:
                    detail = args[1] if len(args) > 1 else kwargs.get("suite", kwargs.get("N"))
                    self.spans.append([self._config and self._config[0], name, detail,
                                       t0 - self._t0, t1 - self._t0])

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _counted(self, fn, counter: str, extra: str | None = None):
        """Per-evaluation counter around a callable passed into orthogonality."""
        counters = self.counters

        def counted(*args):
            counters[counter] = counters.get(counter, 0) + 1
            if extra is not None:
                counters[extra] = counters.get(extra, 0) + 1
            return fn(*args)

        return counted

    def _density(self, fn):
        """Density evaluations are family code: a span in the families layer."""
        return self._wrap(self._counted(fn, "orthogonality.density_evals"),
                          "families.weight_density", "families")

    def _prepare(self, name):
        """Argument hook of a span: counts work and wraps the callables that
        the orthogonality routines evaluate per node."""
        ev = "orthogonality.integrand_evals"
        if name == "orthogonality.continuous_inner_aw":
            def prepare(args, kwargs):
                self.count("orthogonality.quadrature_passes")
                self.count("orthogonality.quadrature_nodes", _arg(args, kwargs, 3, "nodes", 2000))
                f, g, dens = args[:3]
                return (self._counted(f, ev), self._counted(g, ev), self._density(dens),
                        *args[3:]), kwargs
            return prepare
        if name == "orthogonality.jackson_integral":
            def prepare(args, kwargs):
                return (self._counted(args[0], ev, "orthogonality.jackson_nodes"),
                        *args[1:]), kwargs
            return prepare
        if name == "orthogonality.discrete_inner":
            def prepare(args, kwargs):
                self.count("orthogonality.discrete_nodes", len(args[0].nodes))
                return (args[0], self._counted(args[1], ev), self._counted(args[2], ev),
                        *args[3:]), kwargs
            return prepare
        if name == "orthogonality.gram_matrix":
            def prepare(args, kwargs):
                n = _arg(args, kwargs, 1, "N")
                self.count("orthogonality.gram_entries", (n + 1) * (n + 2) // 2)
                return args, kwargs
            return prepare
        if name == "families.FamilySpec.pn_ttrr_x":
            def prepare(args, kwargs):
                self.count("families.recurrence_steps", max(_arg(args, kwargs, 1, "n"), 0))
                return args, kwargs
            return prepare
        return None

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap qladder's public functions and methods at every binding site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("qladder")
        modules = {layer: importlib.import_module(f"qladder.{layer}") for layer in LAYERS}
        wrapped = {}  # original function -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ \
                        and (not name.startswith("_") or (layer, name) in _PRIVATE):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        self._patch(_legendre, "leggauss",
                    self._wrap(_legendre.leggauss, "orthogonality.leggauss", "orthogonality"))

    def _wrap_class(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, types.FunctionType):
                self._patch(cls, attr, self._wrap(val, name, layer))
            elif isinstance(val, property) and val.fget is not None:
                self._patch(cls, attr, property(self._wrap(val.fget, name, layer),
                                                val.fset, val.fdel, val.__doc__))

    def uninstall(self):
        """Restore every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ------------------------------------------------------
    def layer_totals(self) -> dict:
        """layer -> (calls, self_s)."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, (calls, _, self_s) in self.stats.items():
            acc = out[self.layer_of[name]]
            acc[0] += calls
            acc[1] += self_s
        return out

    def calls(self, *names) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def total_s(self, *names) -> float:
        return sum(self.stats.get(n, (0, 0.0))[1] for n in names)

    def distinct_ratio(self, group: str) -> tuple:
        """(distinct argument keys / calls, calls)."""
        calls = self.distinct_calls[group]
        return (self.distinct[group] / calls if calls else 0.0), calls

    def suite_seconds(self) -> dict:
        out = {}
        for _, name, detail, start, end in self.spans:
            if name == "checks.run_suite":
                out[detail] = out.get(detail, 0.0) + (end - start)
        return out
