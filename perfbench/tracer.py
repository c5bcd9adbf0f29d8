"""In-process span tracer for the avgrank package.

The tracer wraps every public function of the package at each
``avgrank.*`` module attribute that binds it.  Calls across modules
(``cli -> families.average_rank_experiment``), within a module
(``curves.ap -> curves.is_minimal``) and through imported names
(``families.sigma_p_batch``) are therefore all timed, without editing any
file of the package.  The wrappers are installed when the tracer is
entered and the original bindings are restored when it exits.

Spans are kept in memory as parallel lists and reduced once, by
``aggregate``, into per-function and per-layer counts, inclusive times
and self times.  A layer is a module of the package.  Work done by the
tracer itself to compute counters (``HOOKS``) is excluded from every
span by shifting the tracer's clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter

import numpy as np


def package_modules(package) -> list:
    """The package and every module directly inside it."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def clear_caches(modules) -> None:
    """Empty every functools cache bound in the modules, as in a fresh process."""
    for mod in modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _traceable(value) -> bool:
    """A public function (or functools-cached function) defined in the package."""
    if not (inspect.isfunction(value) or hasattr(value, "cache_clear")):
        return False
    name = getattr(value, "__name__", "_")
    return not name.startswith("_") and getattr(value, "__module__", "").startswith("avgrank.")


def aggregate(keys, starts, ends, parents) -> tuple[dict, dict]:
    """Reduce spans to inclusive and self times per function and per layer.

    Span i has the name keys[i] ("layer.function"), runs from starts[i]
    to ends[i] and was opened while span parents[i] was open (-1 for a
    root).  A parent is always opened before its children, so parents[i]
    < i.  Children of one span never overlap in a single-threaded run,
    so a span's self time is its duration minus its children's
    durations.  Inclusive time counts only spans with no ancestor of the
    same name (for a function) or the same layer (for a layer), so
    nesting is never counted twice.

    Returns ({key: {"s", "self_s"}}, {layer: {"s", "self_s"}}).
    """
    n = len(keys)
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    bits: dict[str, int] = {}
    key_mask = [0] * n
    layer_mask = [0] * n
    funcs: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for i in range(n):
        key = keys[i]
        layer = key.split(".", 1)[0]
        kb = bits.setdefault(key, 1 << len(bits))
        lb = bits.setdefault("layer:" + layer, 1 << len(bits))
        p = parents[i]
        pk = key_mask[p] if p >= 0 else 0
        pl = layer_mask[p] if p >= 0 else 0
        key_mask[i] = pk | kb
        layer_mask[i] = pl | lb
        dur = ends[i] - starts[i]
        own = dur - child[i]
        f = funcs.setdefault(key, {"s": 0.0, "self_s": 0.0})
        g = layers.setdefault(layer, {"s": 0.0, "self_s": 0.0})
        f["self_s"] += own
        g["self_s"] += own
        if not pk & kb:
            f["s"] += dur
        if not pl & lb:
            g["s"] += dur
    return funcs, layers


def _count_batch(tr, args, kwargs, result):
    r, s, p = args
    codes = (np.asarray(r, dtype=np.int64) % p) * p + np.asarray(s, dtype=np.int64) % p
    tr.counters["curves.sigma_p_batch.rows"] += len(codes)
    tr.counters["curves.sigma_p_batch.classes"] += len(np.unique(codes))


def _count_limits(tr, args, kwargs, result):
    tr.limits.add(int(args[0] if args else kwargs["limit"]))


def _count_curves(tr, args, kwargs, result):
    if result is not None:
        tr.counters["families.curves"] += len(result.r)


def _count_discriminants(tr, args, kwargs, result):
    if result is not None:
        tr.counters["twists.discriminants"] += len(result.D)


def _count_records(tr, args, kwargs, result):
    if result is not None:
        tr.counters["cache.records"] += len(result)


def _count_written(tr, args, kwargs, result):
    tr.counters["cache.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _count_read(tr, args, kwargs, result):
    tr.counters["cache.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


# Counters measured where the work happens: key -> hook(tracer, args, kwargs, result).
# A hook runs after its span has closed, also when the call raised (result None).
HOOKS = {
    "curves.sigma_p_batch": _count_batch,
    "arith.sieve_primes": _count_limits,
    "families.average_rank_experiment": _count_curves,
    "twists.twist_average_experiment": _count_discriminants,
    "cache.cache_build": _count_records,
    "cache.cache_save": _count_written,
    "cache.cache_load": _count_read,
}


class Tracer:
    """Context manager that times every public function of the avgrank package."""

    def __init__(self, modules):
        self.modules = modules
        self.keys: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.current = -1
        self.excluded = 0.0
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.limits: set[int] = set()
        self._saved: list = []

    def clock(self) -> float:
        """Wall clock with the tracer's own counter work taken out."""
        return time.perf_counter() - self.excluded

    def _enter(self, key: str) -> int:
        i = len(self.keys)
        self.keys.append(key)
        self.starts.append(self.clock())
        self.ends.append(0.0)
        self.parents.append(self.current)
        self.current = i
        return i

    def _exit(self, i: int) -> None:
        self.ends[i] = self.clock()
        self.current = self.parents[i]

    def _hook(self, hook, args, kwargs, result) -> None:
        t0 = time.perf_counter()
        hook(self, args, kwargs, result)
        self.excluded += time.perf_counter() - t0

    def _wrap(self, fn, key: str):
        hook = HOOKS.get(key)
        if inspect.isgeneratorfunction(fn):
            # a generator does its work when resumed, so every resumption
            # is a span of its own, nested in whichever span resumed it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[key] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        i = self._enter(key)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._exit(i)
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        # the hot path: _enter and _exit inlined, list methods bound once
        calls, keys, starts, ends, parents = self.calls, self.keys, self.starts, self.ends, self.parents
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            i = len(keys)
            keys.append(key)
            ends.append(0.0)
            parents.append(self.current)
            self.current = i
            starts.append(perf() - self.excluded)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[i] = perf() - self.excluded
                self.current = parents[i]
                if hook is not None:
                    self._hook(hook, args, kwargs, result)

        return wrapper

    def __enter__(self):
        wrappers: dict[int, object] = {}
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if not _traceable(value):
                    continue
                w = wrappers.get(id(value))
                if w is None:
                    layer = value.__module__.rsplit(".", 1)[1]
                    w = wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}")
                self._saved.append((mod, name, value))
                setattr(mod, name, w)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, value in self._saved:
            setattr(mod, name, value)
        self._saved.clear()

    def summary(self) -> dict[str, float]:
        """Flat metrics: <key>.{calls,s,self_s}, <layer>.{calls,s,self_s} and counters."""
        funcs, layers = aggregate(self.keys, self.starts, self.ends, self.parents)
        out: dict[str, float] = {}
        layer_calls: Counter = Counter()
        for key, n in self.calls.items():
            out[f"{key}.calls"] = n
            layer_calls[key.split(".", 1)[0]] += n
        for key, t in funcs.items():
            out[f"{key}.s"] = t["s"]
            out[f"{key}.self_s"] = t["self_s"]
        for layer, t in layers.items():
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.s"] = t["s"]
            out[f"{layer}.self_s"] = t["self_s"]
        out.update(self.counters)
        out["arith.sieve_primes.distinct_limits"] = len(self.limits)
        return out
