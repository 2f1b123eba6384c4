"""Span tracer installed on majorantlab from outside the package.

Each public function and method of the layer modules is replaced by a
wrapper that records a span (layer, name, start, end, parent).  The
wrapper is installed on every name the function is bound to: module
attributes imported by name (`cli.build_frac_set`, `expsum.frac_pair`,
the package namespace, ...) and class attributes, including aliases such
as `InverseFn.__call__ = invert`.  `numpy.fft.ifft` is wrapped too; each
FFT is charged to the innermost open span.  `uninstall` puts every
original object back, and `unpatched` lists any binding that is not the
original.

Self time of a span is its duration minus the part of it covered by the
union of its child spans.  Spans opened on pool threads with no open
span of their own become children of the current CLI step, so a fan-out
over threads is covered once, not once per thread.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np
import numpy.fft

PACKAGE = "majorantlab"
LAYERS = ("rvfunc", "sparseset", "compensated", "expsum", "trigpoly",
          "majorant", "sweeps")
# private functions wrapped as counters only (no span)
COUNTER_ONLY = ("InverseFn._newton", "RegVaryFn._deriv_raw")


class Span:
    __slots__ = ("layer", "name", "parent", "t0", "t1", "fft_calls",
                 "fft_points", "fft_s", "fft_flops")

    def __init__(self, layer, name, parent):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_s = 0.0
        self.fft_flops = 0.0


def _size(x) -> int:
    return int(np.size(x))


def _modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))}


def targets() -> dict:
    """Original function -> (layer, qualname) for everything the tracer wraps."""
    mods = _modules()
    out = {}
    for layer in LAYERS:
        mod = mods[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out[obj] = (layer, obj.__qualname__)
            elif inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    if not inspect.isfunction(val):
                        continue
                    qual = f"{obj.__name__}.{attr}"
                    if not attr.startswith("_") or qual in COUNTER_ONLY:
                        out[val] = (layer, val.__qualname__)
    return out


def bindings(originals) -> list:
    """Every (owner, attribute, original) binding of the wrapped functions
    in the package's modules and classes, plus numpy.fft.ifft."""
    found = [(numpy.fft, "ifft", numpy.fft.ifft)]
    owners = {}
    for mod in _modules().values():
        owners[id(mod)] = mod
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                owners[id(obj)] = obj
    for owner in owners.values():
        for attr, val in list(vars(owner).items()):
            if inspect.isfunction(val) and val in originals:
                found.append((owner, attr, val))
    return found


def unpatched(binds) -> list:
    """Bindings whose current value is not the recorded original."""
    return [f"{getattr(o, '__name__', o)}.{a}" for o, a, f in binds
            if vars(o).get(a) is not f]


class Tracer:
    def __init__(self):
        self.spans = []
        self.root = None
        self.counts = defaultdict(float)
        self.max_fft = defaultdict(int)     # layer -> longest FFT
        self._local = threading.local()
        self._binds = []

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else self.root

    def open_root(self, name):
        self.root = Span("cli", name, None)
        self.root.t0 = perf_counter()

    def close_root(self):
        self.root.t1 = perf_counter()
        self.spans.append(self.root)
        self.root = None

    def _span(self, layer, name, fn, hook):
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(layer, name, stack[-1] if stack else self.root)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                spans.append(span)
            if hook is not None:
                hook(self, span, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        if name == "InverseFn._newton":
            def wrapper(inv, y):
                counts["rvfunc.points_solved"] += _size(y)
                return fn(inv, y)
        else:
            def wrapper(h, x, order):
                cur = self._current()
                if order in (0, 1) and cur is not None \
                        and cur.name.startswith("InverseFn."):
                    counts["rvfunc.h_evals"] += _size(x)
                return fn(h, x, order)
        wrapper.__wrapped__ = fn
        return wrapper

    def _ifft(self, fn):
        def ifft(a, n=None, axis=-1, norm=None, out=None):
            t0 = perf_counter()
            res = fn(a, n, axis, norm, out)
            dt = perf_counter() - t0
            k = res.shape[axis]
            span = self._current()
            if span is not None:
                span.fft_calls += 1
                span.fft_points += res.size
                span.fft_s += dt
                span.fft_flops += (res.size // k) * 5.0 * k * math.log2(k)
                self.max_fft[span.layer] = max(self.max_fft[span.layer], k)
            return res

        ifft.__wrapped__ = fn
        return ifft

    # ------------------------------------------------------ install

    def install(self):
        originals = targets()
        self._binds = bindings(originals)
        wrappers = {}
        for f, (layer, qual) in originals.items():
            if qual in COUNTER_ONLY:
                wrappers[f] = self._counter(qual, f)
            else:
                hook = _HOOKS.get(qual, _compensated if layer == "compensated"
                                  else None)
                wrappers[f] = self._span(layer, qual, f, hook)
        wrappers[numpy.fft.ifft] = self._ifft(numpy.fft.ifft)
        for owner, attr, f in self._binds:
            setattr(owner, attr, wrappers[f])
        return self._binds

    def uninstall(self):
        for owner, attr, f in reversed(self._binds):
            setattr(owner, attr, f)

    # ------------------------------------------------------ metrics

    def metrics(self, wall_s: float, rows) -> dict:
        """Per-layer metrics of the spans recorded so far."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        self_s = defaultdict(float)     # by layer
        own = defaultdict(float)        # self time by span name
        incl = defaultdict(float)       # inclusive time by span name
        fft = defaultdict(lambda: [0, 0, 0.0, 0.0])
        quad_all = 0
        for s in self.spans:
            dur = s.t1 - s.t0
            excl = dur - _covered(s, children[id(s)])
            self_s[s.layer] += excl
            own[s.name] += excl
            incl[s.name] += dur
            f = fft[s.layer]
            f[0] += s.fft_calls
            f[1] += s.fft_points
            f[2] += s.fft_s
            f[3] += s.fft_flops
            if s.name == "lp_norm":
                quad_all += _subtree_fft_points(s, children)
        c = self.counts
        quad_final = c["trigpoly.quad_points"]
        rows_major = [r for r in rows if r["experiment"] == "majorant"]
        phase_wins = sum(r["method"] == "phase_gradient" for r in rows_major)
        m = {
            "rvfunc.pair_points": c["rvfunc.pair_points"],
            "rvfunc.pair_s": incl["InverseFn.pair"],
            "rvfunc.psi_points": c["rvfunc.psi_points"],
            "rvfunc.psi_self_s": own["PsiFn.value"],
            "rvfunc.solve_calls": c["rvfunc.solve_calls"],
            "rvfunc.solve_s": sum(incl[f"InverseFn.{n}"]
                                  for n in ("invert", "deriv", "sigma1_hat")),
            "rvfunc.h_evals_per_point": (c["rvfunc.h_evals"]
                                         / max(c["rvfunc.points_solved"], 1)),
            "rvfunc.self_s": self_s["rvfunc"],
            "sparseset.builds": c["sparseset.builds"],
            "sparseset.points_scanned": c["sparseset.points_scanned"],
            "sparseset.borderline": c["sparseset.borderline"],
            "sparseset.self_s": self_s["sparseset"],
            "compensated.elements": c["compensated.elements"],
            "compensated.self_s": self_s["compensated"],
            "expsum.terms": c["expsum.terms"],
            "expsum.self_s": self_s["expsum"],
            "trigpoly.lp_norm_calls": c["trigpoly.lp_norm_calls"],
            "trigpoly.quad_points": quad_final,
            "trigpoly.quad_waste_frac": ((quad_all - quad_final) / quad_all
                                         if quad_all else 0.0),
        }
        for layer in ("trigpoly", "majorant"):
            calls, points, secs, flops = fft[layer]
            m[f"{layer}.fft_calls"] = calls
            m[f"{layer}.fft_points"] = points
            m[f"{layer}.fft_s"] = secs
            m[f"{layer}.fft_gflop"] = flops / 1e9
            m[f"{layer}.fft_gbytes"] = 32.0 * points / 1e9
        m["trigpoly.self_s"] = self_s["trigpoly"]
        m["majorant.estimates"] = c["majorant.estimates"]
        m["majorant.self_s"] = self_s["majorant"]
        m["majorant.envelope_s"] = incl["hy_envelope"]
        m["majorant.phase_win_ratio"] = (phase_wins / len(rows_major)
                                         if rows_major else 0.0)
        m["cli.self_s"] = self_s["cli"]
        m["sweeps.emit_s"] = incl["write_csv"] + incl["write_jsonl"]
        m["sweeps.emit_bytes"] = c["sweeps.emit_bytes"]
        m["trace.wall_s"] = wall_s
        return {k: float(v) for k, v in m.items()}


def _covered(span, kids) -> float:
    """Length of the union of the children's intervals inside the span."""
    total = 0.0
    end = span.t0
    for k in sorted(kids, key=lambda s: s.t0):
        a, b = max(k.t0, end), min(k.t1, span.t1)
        if b > a:
            total += b - a
            end = b
    return total


def _subtree_fft_points(span, children) -> int:
    total = span.fft_points
    for k in children[id(span)]:
        total += _subtree_fft_points(k, children)
    return total


# --------------------------------------------------- counters at span exit


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _outermost(span, layer) -> bool:
    return span.parent is None or span.parent.layer != layer


def _pair(t, span, fn, args, kwargs, result):
    t.counts["rvfunc.pair_points"] += _size(args[1])


def _psi(t, span, fn, args, kwargs, result):
    t.counts["rvfunc.psi_points"] += _size(args[1])


def _solve(t, span, fn, args, kwargs, result):
    t.counts["rvfunc.solve_calls"] += 1


def _frac_build(t, span, fn, args, kwargs, result):
    t.counts["sparseset.builds"] += 1
    t.counts["sparseset.points_scanned"] += max(result.spec.N - result.n_min + 1, 0)
    t.counts["sparseset.borderline"] += result.borderline_count


def _floor_build(t, span, fn, args, kwargs, result):
    t.counts["sparseset.builds"] += 1
    t.counts["sparseset.borderline"] += result.borderline_count


def _value_longdouble(t, span, fn, args, kwargs, result):
    # build_floor_set scans n through 1-d chunks of this call;
    # its scalar calls are endpoint probes
    if np.ndim(args[1]) >= 1 and span.parent is not None \
            and span.parent.name == "build_floor_set":
        t.counts["sparseset.points_scanned"] += _size(args[1])


def _compensated(t, span, fn, args, kwargs, result):
    if _outermost(span, "compensated"):
        first = result[0] if isinstance(result, tuple) else result
        t.counts["compensated.elements"] += _size(first)


def _exp_sum(t, span, fn, args, kwargs, result):
    t.counts["expsum.terms"] += len(args[0].set.members)


def _model_sum(t, span, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if a["weight"] == "psi":
        t.counts["expsum.terms"] += max(a["N"] - a["psi"].n_min + 1, 0)


def _vdc_sum(t, span, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    t.counts["expsum.terms"] += max(math.floor(a["X2"]) - math.ceil(a["X"]) + 1, 0)


def _vdc_ratio_sweep(t, span, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    indices = max(max(int(N) for N in a["levels"]) - a["psi"].n_min + 1, 0)
    t.counts["expsum.terms"] += (indices * len(list(a["xi_list"]))
                                 * a["m_max"] * len(a["l_values"]))


def _decompose_I(t, span, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    bset = a["bset"]
    N = bset.spec.N if a["N"] is None else a["N"]
    t.counts["expsum.terms"] += max(N - bset.n_min + 1, 0) * a["M"]


def _lp_norm(t, span, fn, args, kwargs, result):
    t.counts["trigpoly.lp_norm_calls"] += 1
    t.counts["trigpoly.quad_points"] += result.grid_size


def _estimate(t, span, fn, args, kwargs, result):
    t.counts["majorant.estimates"] += 1


def _emit(t, span, fn, args, kwargs, result):
    t.counts["sweeps.emit_bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "InverseFn.pair": _pair,
    "PsiFn.value": _psi,
    "InverseFn.invert": _solve,
    "InverseFn.deriv": _solve,
    "InverseFn.sigma1_hat": _solve,
    "build_frac_set": _frac_build,
    "build_floor_set": _floor_build,
    "RegVaryFn.value_longdouble": _value_longdouble,
    "exp_sum": _exp_sum,
    "model_sum": _model_sum,
    "vdc_sum": _vdc_sum,
    "vdc_ratio_sweep": _vdc_ratio_sweep,
    "decompose_I": _decompose_I,
    "lp_norm": _lp_norm,
    "estimate_constant": _estimate,
    "write_csv": _emit,
    "write_jsonl": _emit,
}
