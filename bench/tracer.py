"""Span tracing of splitsea from outside the library.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent span, operation id,
whether it raised) while an operation is active.  A name is patched wherever
it is looked up: ``from .kernel import kernel_eval`` leaves a second binding
in ``sampler``, so every ``splitsea.*`` module's globals are scanned for the
original function object.  ``Tracer.restore`` puts every original back.

Spans stay in flat in-memory arrays until ``save`` writes them out.  Self
time is a span's duration minus the union of its children's intervals; the
union matters for ``converge``, whose pool runs children side by side.
``ThreadPoolExecutor`` does not copy contextvars into its workers, so the
wrapper of ``cli._pool_map`` hands the operation id and parent span to each
task explicitly.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "potential", "kernel", "airy", "edge", "sampler", "unitary")

_OP = contextvars.ContextVar("bench_op", default=None)
_SPAN = contextvars.ContextVar("bench_span", default=-1)

_FIELDS = 7  # sid, name id, parent sid, op id, start, end, raised


def _public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Records spans and per-call quantities for the layers in LAYERS."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._spans = array("d")
        self._lock = threading.Lock()
        self.quantities = {}
        self._patched = []          # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, qname):
        if qname not in self._name_ids:
            self._name_ids[qname] = len(self.names)
            self.names.append(qname)
        return self._name_ids[qname]

    def add(self, key, value):
        with self._lock:
            self.quantities[key] = self.quantities.get(key, 0.0) + float(value)

    def _wrap(self, qname, fn, body=None):
        nid = self._name_id(qname)
        hook = _HOOKS.get(qname)
        body = body or fn
        spans, ids = self._spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = _OP.get()
            if op is None:
                return body(*args, **kwargs)
            sid, parent = next(ids), _SPAN.get()
            token = _SPAN.set(sid)
            raised = 1.0
            t0 = perf_counter()
            try:
                result = body(*args, **kwargs)
                raised = 0.0
            finally:
                t1 = perf_counter()
                _SPAN.reset(token)
                spans.extend((sid, nid, parent, op, t0, t1, raised))
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _pool_body(pool_map):
        def body(fn, items, threads):
            op, parent = _OP.get(), _SPAN.get()

            def task(item):
                op_token, span_token = _OP.set(op), _SPAN.set(parent)
                try:
                    return fn(item)
                finally:
                    _SPAN.reset(span_token)
                    _OP.reset(op_token)

            return pool_map(task, items, threads)
        return body

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every binding of every public layer function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "splitsea" or name.startswith("splitsea.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"splitsea.{layer}"]
            for name, fn in _public_functions(mod).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
            pool_map = vars(mod).get("_pool_map")
            if pool_map is not None:
                wrappers[id(pool_map)] = self._wrap(
                    f"{layer}._pool_map", pool_map, self._pool_body(pool_map))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def restore(self):
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    @staticmethod
    @contextlib.contextmanager
    def operation(op_id):
        """Mark the calls inside the block as operation ``op_id``."""
        token = _OP.set(int(op_id))
        try:
            yield
        finally:
            _OP.reset(token)

    # -- analysis ----------------------------------------------------------

    def span_table(self):
        """Spans as an (n, 7) array ordered by span id."""
        table = np.frombuffer(self._spans, dtype=float).reshape(-1, _FIELDS)
        return table[np.argsort(table[:, 0], kind="stable")]

    def save(self, path, table, own):
        """Write ``table`` (from span_table) and its self times."""
        np.savez(path, spans=table, names=np.array(self.names), self_s=own,
                 columns=np.array(["sid", "name", "parent", "op", "start",
                                   "end", "raised"]))


def self_times(table):
    """Self time of each span: duration minus the union of its children.

    ``table`` must be ordered by span id (ids are 0..n-1).  Children that
    run one after another are summed; only a parent whose children overlap
    (the thread pool's) has its intervals merged one by one.
    """
    start, end = table[:, 4], table[:, 5]
    parent = table[:, 2].astype(np.int64)
    kids = np.nonzero(parent >= 0)[0]
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    p = parent[kids]
    lo = np.maximum(start[kids], start[p])
    hi = np.minimum(end[kids], end[p])
    covered = np.bincount(p, weights=hi - lo, minlength=len(table))
    overlap = (p[1:] == p[:-1]) & (lo[1:] < hi[:-1])
    for q in np.unique(p[1:][overlap]):
        merged, run_lo, run_hi = 0.0, None, None
        for a, b in zip(lo[p == q].tolist(), hi[p == q].tolist()):
            if run_hi is None or a > run_hi:
                merged += 0.0 if run_hi is None else run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        covered[q] = merged + (run_hi - run_lo)
    return (end - start) - covered


# -- per-call quantities ------------------------------------------------------

def _entries(tracer, fn, args, kwargs, result):
    tracer.add(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}.entries",
               result.size)


def _windowed_kernel(tracer, fn, args, kwargs, result):
    tracer.add("sampler.windowed_kernel.sites", len(result.eigenvalues))
    tracer.add("sampler.windowed_kernel.rank", float(np.sum(result.eigenvalues)))
    tracer.add("sampler.windowed_kernel.leakage", result.leakage)


def _metropolis_chain(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    tracer.add("unitary.proposals", int(bound["sweeps"]) * int(bound["ell"]))
    tracer.add("unitary.acceptance_rate", result.acceptance_rate)


_HOOKS = {
    "kernel.kernel_matrix": _entries,
    "airy.airy_kernel_matrix": _entries,
    "sampler.windowed_kernel": _windowed_kernel,
    "unitary.metropolis_chain": _metropolis_chain,
}
