"""In-memory span tracer that wraps relsemi's layers from the outside.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
every public function and method of each package module with a timing
wrapper, rebinds every module attribute that held the original (so
``from .spectral import resolvent`` bindings inside other modules are
traced too, and intra-package calls are counted), and wraps the NumPy and
SciPy entry points the package calls as the ``kernel`` pseudo-layer.
:meth:`Tracer.uninstall` restores everything.

A span is ``(name, start, end, parent, item)``.  Spans are kept in
preallocated arrays (the first ``max_spans`` of them; counts and times are
aggregated over all spans) and written once, by :meth:`Tracer.write`.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

#: Layer name -> package modules that make it up.  ``sampling`` only
#: generates inputs (set-up) and ``errors`` holds exception classes.
LAYERS = {
    "subspace": ("subspace",),
    "relation": ("relation",),
    "spectral": ("spectral",),
    "dissipative": ("dissipative",),
    "semigroup": ("semigroup", "quadrature"),
    "converge": ("converge",),
    "grids": ("grids",),
    "heatlab": ("heatlab",),
    "report": ("report",),
    "cli": ("cli",),
}
KERNELS = ("svd", "eigh", "lstsq", "expm", "expm_multiply", "splu", "lu_solve")


def _relsemi_error():
    return importlib.import_module("relsemi.errors").RelsemiError


class _Frame:
    __slots__ = ("index", "child")

    def __init__(self, index):
        self.index = index
        self.child = 0.0


class _TracedLU:
    """Proxy for a SuperLU factor whose ``solve`` is traced."""

    __slots__ = ("_lu", "solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, max_spans: int = 250_000):
        self.max_spans = max_spans
        self.item = -1
        self.n_spans = 0
        self._stack = []
        self._names = []
        self._name_ids = {}
        self._span_name = np.zeros(max_spans, dtype=np.int32)
        self._span_parent = np.zeros(max_spans, dtype=np.int32)
        self._span_item = np.zeros(max_spans, dtype=np.int32)
        self._span_start = np.zeros(max_spans)
        self._span_end = np.zeros(max_spans)
        self.calls = defaultdict(int)        # function name -> calls
        self.self_s = defaultdict(float)     # function name -> self seconds
        self.raised = defaultdict(int)       # function name -> RelsemiError escapes
        self.counts = defaultdict(int)       # named work counters
        self._keys = defaultdict(list)       # function name -> argument keys
        self._fingerprints = {}              # id(obj) -> (obj, digest)
        self._undo = []
        self._error_type = ()

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name, fn, key=None, after=None):
        """Timing wrapper for ``fn``; ``name`` is ``layer.function``.

        ``key(args, kwargs)`` records an argument key (for distinct ratios);
        ``after(args, kwargs, result)`` updates work counters.
        """
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        error_type = self._error_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.n_spans
            self.n_spans = index + 1
            parent = stack[-1].index if stack else -1
            frame = _Frame(index)
            stack.append(frame)
            if key is not None:
                self._keys[name].append(key(args, kwargs))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1].child += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame.child
                if index < self.max_spans:
                    self._span_name[index] = nid
                    self._span_parent[index] = parent
                    self._span_item[index] = self.item
                    self._span_start[index] = start
                    self._span_end[index] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- argument fingerprints ----------------------------------------------------

    def fingerprint(self, obj):
        """Content digest of a relation or grid evaluator, cached per object.

        The object is held so that its ``id`` cannot be reused while traced.
        """
        hit = self._fingerprints.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        h = hashlib.blake2b(digest_size=12)
        graph = getattr(obj, "graph", None)
        if graph is not None:
            h.update(np.ascontiguousarray(graph.basis).tobytes())
        else:
            h.update(np.ascontiguousarray(obj.omega).tobytes())
            op = obj.op
            for part in (op.data, op.indices, op.indptr):
                h.update(np.ascontiguousarray(part).tobytes())
        digest = h.digest()
        self._fingerprints[id(obj)] = (obj, digest)
        return digest

    @staticmethod
    def array_digest(arr):
        arr = np.ascontiguousarray(arr)
        return hashlib.blake2b(arr.tobytes(), digest_size=12).digest() + \
            str(arr.shape).encode()

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the package layers and kernel entry points."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._error_type = _relsemi_error()
        specials = self._special_hooks()
        replaced = {}   # id(original function) -> wrapper
        modules = []
        for layer, names in LAYERS.items():
            for short in names:
                mod = importlib.import_module(f"relsemi.{short}")
                modules.append(mod)
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                        name = f"{layer}.{attr}"
                        key, after = specials.get(name, (None, None))
                        replaced[id(obj)] = self.wrap(name, obj, key, after)
                    elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                        self._wrap_class(layer, obj, specials)
        # rebind every module-level reference to a wrapped function
        package = importlib.import_module("relsemi")
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._set(mod, attr, wrapper)
        self._install_kernels()

    def _wrap_class(self, layer, cls, specials):
        is_dataclass = hasattr(cls, "__dataclass_fields__")
        for attr, obj in list(cls.__dict__.items()):
            if attr.startswith("_") and not (attr == "__init__" and not is_dataclass):
                continue
            name = f"{layer}.{attr}" if attr != "__init__" else f"{layer}.{cls.__name__}"
            key, after = specials.get(name, (None, None))
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(name, obj, key, after))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, functools.cached_property):
                prop = functools.cached_property(self.wrap(name, obj.func))
                prop.__set_name__(cls, attr)
                self._set(cls, attr, prop)

    def _special_hooks(self):
        """Argument keys (distinct ratios) and work counters for chosen functions."""
        fp = self.fingerprint
        dig = self.array_digest

        def rel_lam(args, kwargs):
            lam = args[1] if len(args) > 1 else kwargs["lam"]
            return fp(args[0]), complex(lam)

        def rel_only(args, kwargs):
            return fp(args[0])

        def trajectory(args, kwargs):
            ts = args[1] if len(args) > 1 else kwargs["ts"]
            fs = args[2] if len(args) > 2 else kwargs["fs"]
            return fp(args[0]), dig(np.asarray(ts, dtype=float)), dig(fs)

        def contraction(args, kwargs, result):
            self.counts[f"heatlab.supnorm_contraction.{result.method}"] += 1

        def written(args, kwargs, result):
            text = args[1] if len(args) > 1 else kwargs["text"]
            self.counts["report.bytes_written"] += len(text.encode())

        return {
            "spectral.resolvent": (rel_lam, None),
            "dissipative.is_m_dissipative": (rel_only, None),
            "heatlab.integrated_trajectory": (trajectory, None),
            "heatlab.supnorm_contraction": (None, contraction),
            "report.atomic_write": (None, written),
        }

    def _install_kernels(self):
        import scipy.linalg
        import scipy.sparse.linalg

        la = np.linalg
        self._set(la, "svd", self.wrap("kernel.svd", la.svd))
        self._set(la, "eigh", self.wrap("kernel.eigh", la.eigh))
        self._set(la, "eigvalsh", self.wrap("kernel.eigh", la.eigvalsh))
        self._set(la, "lstsq", self.wrap("kernel.lstsq", la.lstsq))
        self._set(scipy.linalg, "expm", self.wrap("kernel.expm", scipy.linalg.expm))
        self._set(scipy.sparse.linalg, "expm_multiply",
                  self.wrap("kernel.expm_multiply", scipy.sparse.linalg.expm_multiply))

        # the matrix 2-norm is one SVD; every other norm passes through untraced
        plain_norm = la.norm
        svd_norm = self.wrap("kernel.svd", plain_norm)

        def norm(x, ord=None, axis=None, keepdims=False):
            if ord in (2, -2) and axis is None and np.ndim(x) == 2:
                return svd_norm(x, ord, axis, keepdims)
            return plain_norm(x, ord, axis, keepdims)

        self._set(la, "norm", norm)

        def columns(args, kwargs, result):
            b = np.asarray(args[0] if args else kwargs["rhs"])
            self.counts["kernel.lu_solve.columns"] += b.shape[1] if b.ndim == 2 else 1

        plain_splu = scipy.sparse.linalg.splu
        traced_splu = self.wrap("kernel.splu", plain_splu)

        def splu(*args, **kwargs):
            lu = traced_splu(*args, **kwargs)
            return _TracedLU(lu, self.wrap("kernel.lu_solve", lu.solve, after=columns))

        self._set(scipy.sparse.linalg, "splu", splu)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self._fingerprints.clear()

    # -- results ---------------------------------------------------------------

    def distinct_ratio(self, name):
        keys = self._keys.get(name, [])
        return len(set(keys)) / len(keys) if keys else 0.0

    def layer_totals(self):
        totals = {}
        for layer in (*LAYERS, "kernel"):
            prefix = layer + "."
            fns = [n for n in self.calls if n.startswith(prefix)]
            totals[layer] = {
                "calls": sum(self.calls[n] for n in fns),
                "self_s": sum(self.self_s[n] for n in fns),
                "raised": sum(self.raised[n] for n in fns),
            }
        return totals

    def write(self, path):
        """Write the recorded spans and the per-function table once."""
        kept = min(self.n_spans, self.max_spans)
        # span k sits at index k (indices are taken on entry); parents are indices
        np.savez_compressed(
            path,
            name=self._span_name[:kept], parent=self._span_parent[:kept],
            item=self._span_item[:kept], start=self._span_start[:kept],
            end=self._span_end[:kept], names=np.array(self._names),
            table=np.array(json.dumps({
                "calls": dict(self.calls), "self_s": dict(self.self_s),
                "raised": dict(self.raised), "counts": dict(self.counts),
                "spans": self.n_spans, "spans_kept": kept})))
