"""Span tracer that instruments dynheat from outside its source tree.

``Tracer.install`` rebinds the module-level functions of every dynheat
layer, and every ``from ... import`` alias of them in the other modules
(``dynamic._adaptive``, ``solutions.tan_conv``, ``verification.solve_grid``
and so on), to wrappers that record one span per call: name, start, end
and parent.  It also wraps the quadrature core ``_adaptive`` /
``_eval_panel``, the integrand passed into each panel, the exchange-kernel
batch ``dynamic._exchange_core``, ``fdsolver._assemble`` and the sparse LU
used by ``fd_solve``.  ``uninstall`` restores every binding.  No source
file changes; the untraced benchmark run never imports this module.

Spans live in memory (four int64 arrays) and are written out by ``save``.
A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("quadrature", "kernels", "data", "dynamic", "solutions",
          "verification", "fdsolver", "cli")
# private functions that are layer boundaries in their own right
PRIVATE_BOUNDARIES = {
    "quadrature": ("_adaptive", "_eval_panel"),
    "dynamic": ("_exchange_core",),
    "fdsolver": ("_assemble",),
}
# limit-kernel batches -> position of the argument holding their components
LIMIT_BATCHES = {"hdn_batch": 3, "gauss_layer_batch": 1, "dirichlet_layer_batch": 2}
# tags that the rates and oracle workloads pass to solve_grid
SOLVE_TAGS = ("HDD", "HD", "LDD", "LDpsi", "HDN", "HhN", "HD0", "HDpsi", "HDPsi")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []          # indices of open spans
        self._child_ns = []       # time covered by children, per open span
        self.self_ns = defaultdict(int)    # span name -> summed self time
        self.calls = defaultdict(int)      # span name -> number of spans
        self.count = defaultdict(int)      # named counters
        self.incl_ns = defaultdict(int)    # named inclusive-time accumulators
        self._frames = []         # panel counters of the open _adaptive calls
        self._solve_depth = 0
        self._bindings = []       # (module, attribute, original) to restore

    # -- spans ---------------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self._child_ns.append(0)
        self.span_start.append(perf_counter_ns())
        return idx

    def _end(self, idx):
        t = perf_counter_ns()
        self.span_end[idx] = t
        self._stack.pop()
        dur = t - self.span_start[idx]
        nid = self.span_name[idx]
        self.self_ns[nid] += dur - self._child_ns.pop()
        self.calls[nid] += 1
        if self._child_ns:
            self._child_ns[-1] += dur
        return dur

    def _spanned(self, name, fn):
        nid = self._id(name)
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    # -- boundaries with counts ----------------------------------------------

    def _adaptive(self, fn):
        nid = self._id("quadrature._adaptive")

        @functools.wraps(fn)
        def traced(f, segments, spec):
            idx = self._begin(nid)
            self._frames.append([0])
            try:
                value, error, nsub, converged = fn(f, segments, spec)
            finally:
                panels = self._frames.pop()[0]
                self._end(idx)
            c = self.count
            c["quadrature.calls"] += 1
            c["quadrature.bisections"] += nsub
            c["quadrature.nonconverged"] += not converged
            c["quadrature.panel_mismatches"] += panels != len(segments) + 2 * nsub
            return value, error, nsub, converged

        return traced

    def _eval_panel(self, fn):
        nid = self._id("quadrature._eval_panel")
        count, frames = self.count, self._frames

        @functools.wraps(fn)
        def traced(f, a, b):
            module = getattr(f, "__module__", None) or "other"
            inid = self._id(module.rpartition(".")[2] + ".integrand")

            def integrand(x):
                j = self._begin(inid)
                try:
                    fx = f(x)
                finally:
                    self._end(j)
                count["quadrature.component_evals"] += fx.shape[1] if np.ndim(fx) == 2 else 1
                return fx

            count["quadrature.panels"] += 1
            if frames:
                frames[-1][0] += 1
            idx = self._begin(nid)
            try:
                return fn(integrand, a, b)
            finally:
                self._end(idx)

        return traced

    def _exchange_core(self, fn):
        ids = {path: self._id(f"dynamic._exchange_core.{path}")
               for path in ("xi", "tau", "split")}

        @functools.wraps(fn)
        def traced(eps, delta, kappa, s, t, spec, tan_fn, log_shift, path):
            s_arr = np.asarray(s, dtype=float)
            resolved = path
            if path == "auto":
                # the documented rule: xi where eps (s + t/delta)^2 >= 6 t
                z = s_arr + t / delta
                use_xi = eps * z * z >= 6.0 * t
                resolved = "xi" if use_xi.all() else "tau" if not use_xi.any() else "split"
            idx = self._begin(ids[resolved])
            try:
                return fn(eps, delta, kappa, s, t, spec, tan_fn, log_shift, path)
            finally:
                dur = self._end(idx)
                if resolved != "split":   # split batches recurse into xi and tau
                    self.count[f"dynamic.exchange.{resolved}.components"] += s_arr.size
                    self.incl_ns[f"dynamic.exchange.{resolved}"] += dur

        return traced

    def _limit_batch(self, name, fn, arg_index):
        nid = self._id(f"dynamic.{name}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self._end(idx)
                self.count["dynamic.limit_batch.components"] += np.size(args[arg_index])
                self.incl_ns["dynamic.limit_batch"] += dur

        return traced

    def _solve_grid(self, fn):
        nid = self._id("solutions.solve_grid")

        @functools.wraps(fn)
        def traced(tag, p, data, xp, *args, **kwargs):
            outer = self._solve_depth == 0
            self._solve_depth += 1
            idx = self._begin(nid)
            try:
                out = fn(tag, p, data, xp, *args, **kwargs)
            finally:
                self._solve_depth -= 1
                dur = self._end(idx)
            if outer:   # HD recurses into HDD; count the probes once
                n = np.size(xp)
                self.count["solutions.solve_grid.probes"] += n
                self.count[f"solutions.solve_grid.{tag}.probes"] += n
                self.incl_ns[f"solutions.solve_grid.{tag}"] += dur
                self.count["solutions.nonconverged"] += not out[2]
            return out

        return traced

    def _assemble(self, fn):
        nid = self._id("fdsolver._assemble")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(nid)
            try:
                L, mdiag = fn(*args, **kwargs)
            finally:
                self.incl_ns["fdsolver.assemble"] += self._end(idx)
            self.count["fdsolver.operator_nnz"] = L.nnz
            self.count["fdsolver.unknowns"] = mdiag.size
            return L, mdiag

        return traced

    def _spla_proxy(self, spla):
        tracer = self
        factor_id = self._id("fdsolver.splu")
        solve_id = self._id("fdsolver.lu_solve")

        class LU:
            def __init__(self, lu):
                self._lu = lu

            def __getattr__(self, name):
                return getattr(self._lu, name)

            def solve(self, rhs, *args, **kwargs):
                idx = tracer._begin(solve_id)
                try:
                    return self._lu.solve(rhs, *args, **kwargs)
                finally:
                    tracer._end(idx)
                    tracer.count["fdsolver.steps"] += 1

        class Spla:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, A, *args, **kwargs):
                idx = tracer._begin(factor_id)
                try:
                    lu = spla.splu(A, *args, **kwargs)
                finally:
                    tracer.incl_ns["fdsolver.factor"] += tracer._end(idx)
                tracer.count["fdsolver.lu_nnz"] = lu.L.nnz + lu.U.nnz
                return LU(lu)

        return Spla()

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Rebind every traced function of the dynheat modules."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        import dynheat
        import dynheat.cli  # noqa: F401  (layer module; not imported by dynheat)

        modules = {layer: sys.modules[f"dynheat.{layer}"] for layer in LAYERS}
        wrapped = {}   # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if name.startswith("_") and name not in PRIVATE_BOUNDARIES.get(layer, ()):
                    continue
                wrapped[id(obj)] = self._wrapper(layer, name, obj)
        for mod in [dynheat, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._rebind(mod, name, wrapper)
        fdsolver = modules["fdsolver"]
        self._rebind(fdsolver, "spla", self._spla_proxy(fdsolver.spla))

    def _wrapper(self, layer, name, fn):
        if layer == "quadrature" and name == "_adaptive":
            return self._adaptive(fn)
        if layer == "quadrature" and name == "_eval_panel":
            return self._eval_panel(fn)
        if layer == "dynamic" and name == "_exchange_core":
            return self._exchange_core(fn)
        if layer == "dynamic" and name in LIMIT_BATCHES:
            return self._limit_batch(name, fn, LIMIT_BATCHES[name])
        if layer == "solutions" and name == "solve_grid":
            return self._solve_grid(fn)
        if layer == "fdsolver" and name == "_assemble":
            return self._assemble(fn)
        return self._spanned(f"{layer}.{name}", fn)

    def _rebind(self, mod, name, value):
        self._bindings.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self):
        for mod, name, original in reversed(self._bindings):
            setattr(mod, name, original)
        self._bindings.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        c, incl = self.count, self.incl_ns
        calls = {self.names[nid]: n for nid, n in self.calls.items()}
        self_s = {self.names[nid]: ns * 1e-9 for nid, ns in self.self_ns.items()}
        layer_s = defaultdict(float)
        for name, seconds in self_s.items():
            layer_s[name.partition(".")[0]] += seconds

        def per(num_ns, den):   # ns in total -> us per item
            return num_ns * 1e-3 / den if den else 0.0

        m = {}
        for layer in LAYERS[:-1]:
            m[f"{layer}.self_s"] = (layer_s[layer], "s")
        panels = c["quadrature.panels"]
        m.update({
            "quadrature.calls": (c["quadrature.calls"], "count"),
            "quadrature.panels": (panels, "count"),
            "quadrature.component_evals": (c["quadrature.component_evals"], "count"),
            "quadrature.bisections": (c["quadrature.bisections"], "count"),
            "quadrature.nonconverged": (c["quadrature.nonconverged"], "count"),
            "quadrature.us_per_panel": (per(layer_s["quadrature"] * 1e9, panels), "us"),
            "quadrature.mean_batch_width": (
                c["quadrature.component_evals"] / panels if panels else 0.0, "components"),
        })
        xi, tau = c["dynamic.exchange.xi.components"], c["dynamic.exchange.tau.components"]
        m.update({
            "dynamic.exchange.components": (xi + tau, "count"),
            "dynamic.exchange.xi.components": (xi, "count"),
            "dynamic.exchange.tau.components": (tau, "count"),
            "dynamic.exchange.xi.us_per_component": (per(incl["dynamic.exchange.xi"], xi), "us"),
            "dynamic.exchange.tau.us_per_component": (
                per(incl["dynamic.exchange.tau"], tau), "us"),
            "dynamic.limit_batch.components": (c["dynamic.limit_batch.components"], "count"),
            "dynamic.limit_batch.us_per_component": (
                per(incl["dynamic.limit_batch"], c["dynamic.limit_batch.components"]), "us"),
            "dynamic.integrand.self_s": (self_s.get("dynamic.integrand", 0.0), "s"),
            "kernels.exp_flush.calls": (calls.get("kernels.exp_flush", 0), "count"),
            "data.tan_conv.calls": (calls.get("data.tan_conv", 0), "count"),
            "data.tan_conv.self_s": (self_s.get("data.tan_conv", 0.0), "s"),
            "solutions.solve_grid.probes": (c["solutions.solve_grid.probes"], "count"),
            "solutions.nonconverged": (c["solutions.nonconverged"], "count"),
        })
        for tag in SOLVE_TAGS:
            m[f"solutions.solve_grid.{tag}.us_per_probe"] = (
                per(incl[f"solutions.solve_grid.{tag}"], c[f"solutions.solve_grid.{tag}.probes"]),
                "us")
        steps, nnz = c["fdsolver.steps"], c["fdsolver.lu_nnz"]
        march_ns = self._incl_of("fdsolver.fd_solve") - incl["fdsolver.assemble"] \
            - incl["fdsolver.factor"]
        n = c["fdsolver.unknowns"]
        # computed, not measured: one step streams the L and U factors and the
        # CSR right-hand-side operator (8-byte values, 4-byte indices), their
        # index pointers, and reads and writes two n-vectors (matvec, solve)
        step_bytes = 12 * (nnz + c["fdsolver.operator_nnz"]) + 12 * (n + 1) + 32 * n \
            if steps else 0
        m.update({
            "fdsolver.assemble_s": (incl["fdsolver.assemble"] * 1e-9, "s"),
            "fdsolver.factor_s": (incl["fdsolver.factor"] * 1e-9, "s"),
            "fdsolver.steps": (steps, "count"),
            "fdsolver.us_per_step": (per(march_ns, steps), "us"),
            "fdsolver.lu_nnz": (nnz, "count"),
            "fdsolver.bytes_per_step_computed": (step_bytes, "B"),
            "trace.spans": (len(self.span_start), "count"),
        })
        return m

    def _incl_of(self, name):
        nid = self._ids.get(name)
        if nid is None:
            return 0
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        sel = np.frombuffer(self.span_name, dtype=np.int64) == nid
        return int(np.sum(end[sel] - start[sel]))

    def save(self, path):
        """Write every span (name, start, end, parent) to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.int64),
                 end=np.frombuffer(self.span_end, dtype=np.int64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64))
