"""Spans around the calls into each nmk_sim layer, and their arithmetic.

The tracer wraps, from outside the library, every function that a layer
module binds: its own functions and classes' methods, the nmk_sim functions it
imports from other layers (``dynamics.chain_error_single``), and the numpy /
scipy / mpmath routines it calls (``dynamics.expm_multiply``).  A span is named
after the layer that defines the code: nmk_sim functions by their defining
module and qualified name, foreign routines by the namespace that binds them.
Calls are sequential, so a span's self time is its duration minus the union
of its children's intervals, and every layer's self time is also its blocking
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import namedtuple

LAYERS = ("kernels", "chain", "fock", "dynamics", "oracle", "cli")
_FOREIGN = ("numpy", "scipy", "mpmath")

Span = namedtuple("Span", "name start end parent op")


def _chain_key(coupling, omega_c, n):
    # (key, object to keep alive): the coupling's identity, as one pipeline
    # run passes one coupling object to every consumer of its chain.
    return (id(coupling), float(omega_c), int(n)), coupling


class Tracer:
    """Records one span per wrapped call; keeps everything in memory."""

    KEYED = {"chain._refined_jacobi": _chain_key}

    def __init__(self, op: str):
        self.op = op
        self.spans = []            # [name, start, end, parent]
        self.keys = {}             # span name -> list of argument keys
        self._alive = []           # keyed objects, so their ids stay unique
        self._stack = [-1]

    def call(self, name, fn, args, kwargs):
        keyer = self.KEYED.get(name)
        if keyer is not None:
            key, keep = keyer(*args, **kwargs)
            self.keys.setdefault(name, []).append(key)
            self._alive.append(keep)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1]]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def to_json(self):
        return {"op": self.op, "spans": self.spans,
                "keys": {k: [list(v) for v in vals]
                         for k, vals in self.keys.items()}}


def _span_name(obj, layer, attr):
    """Span name for a module attribute, or None when it is not traced."""
    if not callable(obj):
        return None
    target = getattr(obj, "__wrapped__", obj)
    module = getattr(target, "__module__", None) or ""
    if module.startswith("nmk_sim."):
        home = module.split(".", 1)[1]
        return f"{home}.{target.__qualname__}" if home in LAYERS else None
    # numpy ufuncs such as scipy.special.fresnel carry no __module__
    if module.split(".", 1)[0] in _FOREIGN or type(obj).__name__ == "ufunc":
        return f"{layer}.{attr}"
    return None


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def install(tracer: Tracer):
    """Wrap every traced binding of every layer module in place."""
    wrappers = {}   # id(original) -> wrapper; originals stay bound, ids stay valid

    def wrapper_for(name, fn):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = _wrap(tracer, name, fn)
        return wrappers[id(fn)]

    for layer in LAYERS:
        mod = importlib.import_module(f"nmk_sim.{layer}")
        for attr, obj in list(vars(mod).items()):
            if inspect.isclass(obj):
                if obj.__module__ == mod.__name__:
                    _install_methods(obj, layer, wrapper_for)
                continue
            name = _span_name(obj, layer, attr)
            if name is not None:
                setattr(mod, attr, wrapper_for(name, obj))


def _install_methods(cls, layer, wrapper_for):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("__"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            fn = member.__func__
            kind = type(member)
        elif inspect.isfunction(member):
            fn, kind = member, None
        else:
            continue                # properties and data stay untouched
        w = wrapper_for(f"{layer}.{cls.__qualname__}.{attr}", fn)
        setattr(cls, attr, kind(w) if kind else w)


def install_size_probe(sizes: dict):
    """Record the largest Hamiltonian's dimension, stored nnz and CSR bytes.

    Wraps ``fock.build_hamiltonian_parts`` (bound in fock and dynamics) and
    ``oracle._star_hamiltonian``; it costs microseconds per call, so it runs
    in untraced ops too.
    """
    fock = importlib.import_module("nmk_sim.fock")
    dynamics = importlib.import_module("nmk_sim.dynamics")
    oracle = importlib.import_module("nmk_sim.oracle")

    def record(mats):
        sizes["dim"] = max(sizes.get("dim", 0), int(mats[0].shape[0]))
        sizes["nnz"] = max(sizes.get("nnz", 0), sum(int(m.nnz) for m in mats))
        nbytes = sum(int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
                     for m in mats)
        sizes["h_bytes"] = max(sizes.get("h_bytes", 0), nbytes)

    parts_fn = fock.build_hamiltonian_parts

    @functools.wraps(parts_fn)
    def parts(*args, **kwargs):
        h_const, profiled = parts_fn(*args, **kwargs)
        record([h_const.tocsr()] + [term.tocsr() for term, _ in profiled])
        return h_const, profiled

    star_fn = oracle._star_hamiltonian

    @functools.wraps(star_fn)
    def star(*args, **kwargs):
        h = star_fn(*args, **kwargs)
        record([h.tocsr()])
        return h

    fock.build_hamiltonian_parts = parts
    dynamics.build_hamiltonian_parts = parts
    oracle._star_hamiltonian = star


# -- arithmetic on recorded spans ---------------------------------------------

def load(doc):
    """Spans from a tracer's JSON document."""
    return [Span(n, s, e, p, doc["op"]) for n, s, e, p in doc["spans"]]


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = {}
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(i)
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp.start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[j].start, reach)
            hi = min(spans[j].end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((sp.end - sp.start) - covered)
    return out


def layer_self(spans, selfs=None):
    """Self time summed per layer (the span name's first component)."""
    selfs = self_times(spans) if selfs is None else selfs
    out = {layer: 0.0 for layer in LAYERS}
    for sp, st in zip(spans, selfs):
        layer = sp.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st
    return out


def unspanned(spans, wall):
    """Wall time outside every root span."""
    return wall - sum(sp.end - sp.start for sp in spans if sp.parent < 0)


def outermost(spans, name):
    """Indices of spans with this name and no ancestor of the same name."""
    out = []
    for i, sp in enumerate(spans):
        if sp.name != name:
            continue
        p = sp.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def total(spans, name):
    """(calls, inclusive seconds) of a span name, nested repeats counted once."""
    calls = sum(1 for sp in spans if sp.name == name)
    return calls, sum(spans[i].end - spans[i].start
                      for i in outermost(spans, name))


def minus_children(spans, name, child_names):
    """Inclusive time of `name` minus its direct children named in child_names."""
    keep = set(outermost(spans, name))
    out = sum(spans[i].end - spans[i].start for i in keep)
    for sp in spans:
        if sp.parent in keep and sp.name in child_names:
            out -= sp.end - sp.start
    return out
