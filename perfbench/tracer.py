"""Span recorder that wraps gausslink's public functions from outside the library.

`Tracer.install` replaces every public function of the layer modules at every
name in the loaded ``gausslink`` modules that binds it (``stability_check`` is
bound in both ``gausslink.transducer`` and ``gausslink.sweeps``, and
re-exported by the package), and replaces each entry of
``gausslink.sweeps.EXPERIMENTS`` by a copy whose ``evaluate`` records one
``sweeps.point`` span per grid point.  `Tracer.restore` puts every original
binding back.

A span is (id, parent, name, start, end, sweep id), kept in memory and written
out by `Tracer.save`.  Times are ``time.perf_counter`` readings.
"""

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = (
    "gaussian",
    "transducer",
    "capacity",
    "entanglement",
    "teleport",
    "swap",
    "sweeps",
    "heatmap",
)

POINT_SPAN = "sweeps.point"


class Tracer:
    def __init__(self, sweep_id: int = 0):
        self.sweep_id = sweep_id
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []

    # --- recording ------------------------------------------------------------

    def _open(self) -> tuple:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, self.sweep_id))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)

        return functools.wraps(fn)(traced)

    def _wrap_spectra(self, name, fn):
        traced = self._wrap(name, fn)

        def counted(p, omegas, *args, **kwargs):
            self.counts[f"{name}.nodes"] += np.size(omegas)
            return traced(p, omegas, *args, **kwargs)

        return functools.wraps(fn)(counted)

    def _wrap_integrate(self, name, fn):
        traced = self._wrap(name, fn)

        def counted(integrand, *args, **kwargs):
            passes = 0
            # the integrand's own work belongs to the module that defines it
            layer = integrand.__module__.rpartition(".")[2]
            traced_integrand = self._wrap(f"{layer}.integrand", integrand)

            def pass_counted(omegas):
                nonlocal passes
                passes += 1
                nodes = np.size(omegas)
                self.counts[f"{name}.nodes_total"] += nodes
                key = f"{name}.nodes_max"
                self.maxima[key] = max(self.maxima.get(key, 0), nodes)
                return traced_integrand(omegas)

            try:
                return traced(pass_counted, *args, **kwargs)
            finally:
                self.counts[f"{name}.passes"] += passes
                quad = kwargs.get("quad", args[1] if len(args) > 1 else None)
                capped = passes == getattr(quad, "max_doublings", -2) + 1
                self.counts[f"{name}.capped"] += int(capped)

        return functools.wraps(fn)(counted)

    def _wrap_point(self, fn):
        traced = self._wrap(POINT_SPAN, fn)

        def evaluate(point):
            try:
                metrics = traced(point)
            except Exception:
                # run_sweep maps its private unstable-point exception to a
                # stable=0 row; any other exception fails the sweep
                self.counts["sweeps.points.unstable"] += 1
                raise
            self.counts["sweeps.points.stable"] += 1
            return metrics

        return evaluate

    # --- patching -------------------------------------------------------------

    def install(self):
        """Wrap every public layer function at every gausslink name binding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"gausslink.{layer}")
        owners = [
            vars(mod)
            for name, mod in sorted(sys.modules.items())
            if name == "gausslink" or name.startswith("gausslink.")
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"gausslink.{layer}"]
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                if name == "transducer.mo_standard_form_spectra":
                    wrappers[id(fn)] = self._wrap_spectra(name, fn)
                elif name == "capacity.integrate_spectrum":
                    wrappers[id(fn)] = self._wrap_integrate(name, fn)
                else:
                    wrappers[id(fn)] = self._wrap(name, fn)
        for ns in owners:
            for attr, value in list(ns.items()):
                if id(value) in wrappers:
                    self._patch(ns, attr, wrappers[id(value)])

        experiments = sys.modules["gausslink.sweeps"].EXPERIMENTS
        for key, spec in list(experiments.items()):
            traced = dataclasses.replace(spec, evaluate=self._wrap_point(spec.evaluate))
            self._patch(experiments, key, traced)

    def _patch(self, namespace: dict, key, value):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def restore(self):
        """Put back every binding `install` replaced."""
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    # --- output ---------------------------------------------------------------

    def save(self, path):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        n = len(self.spans)
        np.savez(
            path,
            ids=np.fromiter((s[0] for s in self.spans), np.int64, n),
            parents=np.fromiter((s[1] for s in self.spans), np.int64, n),
            names=np.fromiter((index[s[2]] for s in self.spans), np.int32, n),
            starts=np.fromiter((s[3] for s in self.spans), np.float64, n),
            ends=np.fromiter((s[4] for s in self.spans), np.float64, n),
            sweeps=np.fromiter((s[5] for s in self.spans), np.int32, n),
            name_table=np.array(names, dtype=str),
            counters=np.array(json.dumps({"counts": self.counts, "maxima": self.maxima})),
        )
