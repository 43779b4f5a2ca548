"""Span tracer that instruments the ``cdwork`` package from outside.

``Tracer.install()`` wraps every public function and every public class
method defined in the traced layers (the ``cdwork`` modules listed in
``LAYERS``) and swaps the wrapper into every ``cdwork.*`` namespace,
module-level dict and class that holds the original, so callers that
imported a function by name are traced too.  Callables handed to the
quadrature (the integrand) and to ``propagate`` (``h_at``) get spans of
their own, so their time is not booked as quadrature or propagation
self time.

A span's self time is its duration minus the durations of its child
spans.  Counters are derived from span edges: an eigensolve whose
parent span is ``spectrum0_at``/``spectrum_cd_at`` is a spectrum-cache
miss, a ``fast_eigh`` call under ``propagate`` is a propagation
eigensolve, and every integrand call is one quadrature node.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "figures", "verify", "workstats", "geometry", "quadrature",
          "spectral", "models", "oscillator", "ising")

EIGENSOLVERS = ("oscillator.fast_eigh", "spectral.spectrum")
PATH_LENGTH_SPANS = ("geometry.path_lengths", "geometry.metric_length",
                     "geometry.eta_length")


class Tracer:
    """Collects per-span call counts, inclusive and self times, and
    parent-to-child call counts."""

    def __init__(self):
        self._stack = []                      # [name, child seconds]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)         # (parent, child) -> calls
        self.quadrature_calls = 0             # outermost quadrature spans
        self.substeps = 0                     # StateTrajectory.substeps
        self._originals = {}                  # id(original) -> wrapper

    # -- spans -------------------------------------------------------------
    def span(self, name, fn, hook=None):
        """Wrap ``fn`` in a span called ``name``; ``hook(parent, args,
        kwargs)`` may rewrite the arguments once the span is entered."""
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self.edges[(parent[0] if parent else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            if hook is not None:
                args, kwargs = hook(parent, args, kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _quadrature_hook(self, parent, args, kwargs):
        # only the outermost quadrature call wraps the integrand; the
        # scalar front end's inner lambda stays quadrature self time
        if parent is not None and parent[0].startswith("quadrature."):
            return args, kwargs
        self.quadrature_calls += 1
        owner = parent[0].split(".")[0] if parent is not None else "top"
        integrand = self.span(f"{owner}.integrand", args[0])
        return (integrand,) + tuple(args[1:]), kwargs

    def _propagate_hook(self, parent, args, kwargs):
        return (self.span("spectral.h_at", args[0]),) + tuple(args[1:]), kwargs

    def _wrap(self, name, fn):
        if name.startswith("quadrature.adaptive_simpson"):
            return self.span(name, fn, self._quadrature_hook)
        if name == "spectral.propagate":
            inner = self.span(name, fn, self._propagate_hook)

            def propagate(*args, **kwargs):
                trajectory = inner(*args, **kwargs)
                self.substeps += int(trajectory.substeps)
                return trajectory

            propagate.__wrapped__ = fn
            return propagate
        return self.span(name, fn)

    # -- installation ------------------------------------------------------
    def install(self):
        """Instrument the imported ``cdwork`` package in place."""
        modules = {layer: importlib.import_module(f"cdwork.{layer}")
                   for layer in LAYERS}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{layer}.{meth}", fn))
        for name, module in list(sys.modules.items()):
            if name == "cdwork" or name.startswith("cdwork."):
                self._swap_refs(module)

    def _swap_refs(self, module):
        space = vars(module)
        for attr, obj in list(space.items()):
            if id(obj) in self._originals:
                space[attr] = self._originals[id(obj)]
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in list(obj.items()):
                    if id(value) in self._originals:
                        obj[key] = self._originals[id(value)]

    # -- derived metrics ---------------------------------------------------
    def _edge_sum(self, parents, children):
        return sum(n for (p, c), n in self.edges.items()
                   if p in parents and c in children)

    def metrics(self) -> dict:
        """Per-layer metrics by name, as (value, unit) pairs."""
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def per_call_ms(span):
            n = self.calls[span]
            return 1e3 * self.self_s[span] / n if n else 0.0

        for layer in LAYERS:
            put(f"{layer}.self_s", sum((v for k, v in self.self_s.items()
                                        if k.split(".")[0] == layer), 0.0), "s")

        put("oscillator.fast_eigh.calls", self.calls["oscillator.fast_eigh"], "count")
        put("oscillator.fast_eigh.self_s", self.self_s["oscillator.fast_eigh"], "s")
        put("oscillator.fast_eigh.per_call_ms", per_call_ms("oscillator.fast_eigh"), "ms")

        solves = 0
        calls = 0
        for kind in ("spectrum0_at", "spectrum_cd_at"):
            span = f"models.{kind}"
            n_calls = self.calls[span]
            n_solves = self._edge_sum((span,), EIGENSOLVERS)
            put(f"{span}.calls", n_calls, "count")
            put(f"{span}.eigensolves", n_solves, "count")
            put(f"{span}.hit_ratio", 1.0 - n_solves / n_calls if n_calls else 0.0, "1")
            solves += n_solves
            calls += n_calls
        put("models.eigensolves", solves, "count")
        put("models.cache_hit_ratio", 1.0 - solves / calls if calls else 0.0, "1")

        put("workstats.work_distribution.calls",
            self.calls["workstats.work_distribution"], "count")
        for fn in ("work_distribution", "transition_matrix", "basis_leakage",
                   "ensemble_energy_variance", "excess_variance_geometric"):
            put(f"workstats.{fn}.self_s", self.self_s[f"workstats.{fn}"], "s")

        put("geometry.path_lengths.calls",
            sum(self.calls[s] for s in PATH_LENGTH_SPANS), "count")
        put("geometry.path_lengths.total_s",
            sum(self.total_s[s] for s in PATH_LENGTH_SPANS), "s")
        put("geometry.integrand.calls", self.calls["geometry.integrand"], "count")
        put("geometry.integrand.self_s", self.self_s["geometry.integrand"], "s")
        put("geometry.integrand.per_call_ms", per_call_ms("geometry.integrand"), "ms")
        put("geometry.qgt_levels.self_s", self.self_s["geometry.qgt_levels"], "s")
        put("geometry.bures_length.self_s", self.self_s["geometry.bures_length"], "s")

        put("quadrature.calls", self.quadrature_calls, "count")
        put("quadrature.nodes", sum(n for k, n in self.calls.items()
                                    if k.endswith(".integrand")), "count")

        put("spectral.propagate.calls", self.calls["spectral.propagate"], "count")
        put("spectral.propagate.eigensolves",
            self._edge_sum(("spectral.propagate",), EIGENSOLVERS), "count")
        put("spectral.propagate.substeps", self.substeps, "count")
        put("spectral.propagate.h_evals",
            self._edge_sum(("spectral.propagate",), ("spectral.h_at",)), "count")
        put("spectral.propagate.self_s", self.self_s["spectral.propagate"], "s")

        put("ising.ground_metric.calls", self.calls["ising.ground_metric"], "count")
        put("ising.ground_metric.self_s", self.self_s["ising.ground_metric"], "s")
        put("cli.write_csv.self_s", self.self_s["cli.write_csv"], "s")
        put("cli.write_json.self_s", self.self_s["cli.write_json"], "s")
        return out
