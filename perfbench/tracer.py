"""Per-layer tracing for the cathom benchmark, from outside the package.

A layer is a module of ``cathom``.  ``Tracer.install`` replaces the public
functions and methods of each layer module with wrappers that count calls
and accumulate self time; ``Tracer.uninstall`` puts every original object
back.  Nothing inside ``src/`` is changed.

Times are read from the calling thread's CPU clock (``time.thread_time_ns``)
so that the worker threads of ``--jobs 2`` neither double-count time spent
waiting for the interpreter lock nor hide it in the caller.  For this
single-process, CPU-bound program a thread's CPU time tracks its wall time.
A span's self time is its duration minus the durations of the wrapped
spans it called on the same thread.
"""

from __future__ import annotations

import fnmatch
import importlib
import os
import pkgutil
import threading
import time
import types

LAYERS = (
    "matrix", "intlin", "fpmod", "fincat", "groups", "catmod", "resolve",
    "spectral", "extpages", "e1data", "groupbar", "parallel", "cache",
    "serialize", "cli",
)

# Constant-time lookups called hundreds of thousands of times per job.  A
# wrapper would cost more than the call, so their time stays in the caller,
# which is in the same layer for all of them but CatModule.rank.
UNWRAPPED = {
    "fincat:FiniteCategory.src", "fincat:FiniteCategory.tgt",
    "fincat:FiniteCategory.compose", "fincat:FiniteCategory.id_of",
    "fincat:FiniteCategory.is_iso", "fincat:FiniteCategory.inverse",
    "fincat:FiniteCategory.isos_between", "fincat:FiniteCategory.noniso_morphisms",
    "fincat:UnionFind.find", "fincat:UnionFind.union",
    "fincat:NerveCell.size", "fincat:NerveCell.class_of",
    "catmod:CatModule.rank", "catmod:CatModule.act",
    "spectral:FilteredComplex.nerve",
    "groups:FiniteGroup.mul", "groups:FiniteGroup.conj",
}

# Dunder methods that do work (the Matrix arithmetic); the others
# (__eq__, __hash__, __repr__, ...) are left alone.
WRAPPED_DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__"}


def _hook_snf(sizes, args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    sizes["snf_cells"] = sizes.get("snf_cells", 0) + A.rows * A.cols
    shapes = sizes.setdefault("snf_shapes", {})
    key = f"{A.rows}x{A.cols}"
    shapes[key] = shapes.get(key, 0) + 1


def _hook_nerve(sizes, args, kwargs, result):
    sizes["nerve_cells"] = sizes.get("nerve_cells", 0) + len(args[0].classes)


def _hook_chains(sizes, args, kwargs, result):
    per_p = sizes.setdefault("chains_per_p", {})
    for p, chains in result.items():
        per_p[str(p)] = per_p.get(str(p), 0) + len(chains)
    sizes["chains"] = sizes.get("chains", 0) + sum(len(c) for c in result.values())


def _hook_resolution(sizes, args, kwargs, result):
    ranks = [len(level.summands) for level in result.levels]
    sizes["free_rank"] = sizes.get("free_rank", 0) + sum(ranks)
    sizes.setdefault("free_ranks", []).append(ranks)


def _hook_filtered(sizes, args, kwargs, result):
    dims: dict[int, int] = {}
    for (p, q), cell in result.cells.items():
        dims[p + q] = dims.get(p + q, 0) + cell.dim
    sizes["total_dim"] = sizes.get("total_dim", 0) + sum(dims.values())
    sizes.setdefault("total_dim_per_degree", []).append(
        [dims[n] for n in sorted(dims)])


def _hook_bar(sizes, args, kwargs, result):
    ranks = [len(a) for a in result.anns]
    sizes["bar_rank"] = sizes.get("bar_rank", 0) + sum(ranks)
    sizes.setdefault("bar_ranks", []).append(ranks)


def _hook_cache_get(sizes, args, kwargs, result):
    key = "cache_misses" if result is None else "cache_hits"
    sizes[key] = sizes.get(key, 0) + 1


def _hook_load_bundle(sizes, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    sizes["bundle_bytes"] = sizes.get("bundle_bytes", 0) + os.path.getsize(path)


def _hook_pmap(sizes, args, kwargs, result):
    sizes["pmap_items"] = sizes.get("pmap_items", 0) + len(result)


HOOKS = {
    "intlin:smith_normal_form": _hook_snf,
    "fincat:NerveCell.__init__": _hook_nerve,
    "fincat:enumerate_chains": _hook_chains,
    "resolve:free_resolution": _hook_resolution,
    "spectral:build_filtered_complex": _hook_filtered,
    "groupbar:bar_complex": _hook_bar,
    "cache:DiskCache.get": _hook_cache_get,
    "serialize:load_bundle": _hook_load_bundle,
    "parallel:pmap": _hook_pmap,
}


def cathom_modules() -> dict[str, types.ModuleType]:
    """Every importable submodule of ``cathom``, by short name."""
    import cathom

    out = {}
    for info in pkgutil.iter_modules(cathom.__path__):
        out[info.name] = importlib.import_module(f"cathom.{info.name}")
    return out


def identity_snapshot() -> dict[tuple[str, str], object]:
    """(module, attribute path) -> object, for every function and class
    member of every cathom module; compared with ``is`` to prove that no
    attribute is left patched."""
    snap = {}
    for name, mod in cathom_modules().items():
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, raw in vars(value).items():
                    snap[(name, f"{attr}.{member}")] = raw
    return snap


def snapshot_diff(before: dict, after: dict) -> list[str]:
    keys = set(before) | set(after)
    return sorted(f"{m}.{a}" for (m, a) in keys
                  if before.get((m, a), None) is not after.get((m, a), None))


class _ThreadState:
    __slots__ = ("stack", "stats", "sizes")

    def __init__(self):
        self.stack: list[list[int]] = []
        self.stats: dict[str, list[int]] = {}
        self.sizes: dict = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[tuple[threading.Thread, _ThreadState]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = _ThreadState()
        self._local.st = st
        with self._lock:
            self._states.append((threading.current_thread(), st))
        return st

    def collect(self) -> tuple[dict[str, list[int]], dict]:
        """Merge and clear every thread's counters:
        (key -> [calls, self_ns], sizes)."""
        stats: dict[str, list[int]] = {}
        sizes: dict = {}
        with self._lock:
            states = [st for _, st in self._states]
            # pmap's pool threads end with each call; forget their state
            self._states = [(t, st) for t, st in self._states if t.is_alive()]
        for st in states:
            for key, (calls, self_ns) in st.stats.items():
                rec = stats.setdefault(key, [0, 0])
                rec[0] += calls
                rec[1] += self_ns
            _merge_sizes(sizes, st.sizes)
            st.stats = {}
            st.sizes = {}
        return stats, sizes

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        local = self._local
        new_state = self._state
        clock = time.thread_time_ns
        hook = HOOKS.get(key)

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = st.stats.get(key)
                if rec is None:
                    rec = st.stats[key] = [0, 0]
                rec[0] += 1
                rec[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(st.sizes, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_pmap(self, key: str, fn):
        """pmap runs its items on worker threads, outside every span of the
        caller.  Wrap each item function as a span of the layer that defined
        it, so that its time counts there and not nowhere."""
        traced = self._wrap(key, fn)
        wrap = self._wrap

        def pmap(item_fn, items, *args, **kwargs):
            layer = getattr(item_fn, "__module__", "").rpartition(".")[2]
            if layer in LAYERS:
                item_fn = wrap(f"{layer}:{item_fn.__qualname__}", item_fn)
            return traced(item_fn, items, *args, **kwargs)

        return pmap

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = cathom_modules()
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    key = f"{layer}:{attr}"
                    if key in UNWRAPPED:
                        continue
                    wrap = self._wrap_pmap if key == "parallel:pmap" else self._wrap
                    replaced[id(value)] = (value, wrap(key, value))
                    self.wrapped.append(key)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._install_class(layer, value)
        # a module-level function is also reachable through every module
        # that imported it by name; patch all of those references
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None:
                    self._patch(mod, attr, hit[1])

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            key = f"{layer}:{cls.__qualname__}.{attr}"
            if key in UNWRAPPED:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(key, raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                self._patch(cls, attr, self._wrap(key, raw))
            else:
                continue  # properties and class attributes
            self.wrapped.append(key)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.wrapped = []


def _merge_sizes(into: dict, new: dict) -> None:
    for key, value in new.items():
        if isinstance(value, dict):
            _merge_sizes(into.setdefault(key, {}), value)
        elif isinstance(value, list):
            into.setdefault(key, []).extend(value)
        else:
            into[key] = into.get(key, 0) + value


# -- per-layer metrics ------------------------------------------------------

# name -> (unit, kind, patterns).  kind "calls" sums call counts and "self"
# sums self seconds of the functions matching the patterns (fnmatch on
# "layer:Qualified.name"); kind "size" reads a counter a hook recorded.
PER_LAYER = {
    "matrix.apply_calls": ("count", "calls", ["matrix:Matrix.apply"]),
    "matrix.apply_s": ("s", "self", ["matrix:Matrix.apply"]),
    "matrix.build_calls": ("count", "calls", ["matrix:Matrix.__init__"]),
    "matrix.build_s": ("s", "self", ["matrix:Matrix.__init__", "matrix:Matrix.from_columns"]),
    "intlin.snf_calls": ("count", "calls", ["intlin:smith_normal_form"]),
    "intlin.snf_s": ("s", "self", ["intlin:smith_normal_form", "intlin:SNFResult.*"]),
    "intlin.snf_cells": ("count", "size", "snf_cells"),
    "intlin.stair_calls": ("count", "calls", ["intlin:StairBasis.add", "intlin:StairBasis.reduce",
                                              "intlin:StairBasis.express"]),
    "intlin.stair_s": ("s", "self", ["intlin:StairBasis.add", "intlin:StairBasis.reduce",
                                     "intlin:StairBasis.express"]),
    "intlin.kernel_s": ("s", "self", ["intlin:kernel_basis", "intlin:preimage_basis",
                                      "intlin:ColumnOps.*"]),
    "fpmod.subquotient_calls": ("count", "calls", ["fpmod:Subquotient.__init__"]),
    "fpmod.subquotient_s": ("s", "self", ["fpmod:Subquotient.__init__", "fpmod:subquotient"]),
    "fpmod.project_s": ("s", "self", ["fpmod:Subquotient.project", "fpmod:CanonicalQuotient.project"]),
    "fincat.nerve_calls": ("count", "calls", ["fincat:NerveCell.__init__"]),
    "fincat.nerve_s": ("s", "self", ["fincat:NerveCell.*", "fincat:nd_tilde_nerve"]),
    "fincat.nerve_cells": ("count", "size", "nerve_cells"),
    "fincat.chains": ("count", "size", "chains"),
    "resolve.resolution_calls": ("count", "calls", ["resolve:free_resolution"]),
    "resolve.resolution_s": ("s", "self", ["resolve:free_resolution", "resolve:Resolution.*"]),
    "resolve.free_rank": ("count", "size", "free_rank"),
    "resolve.oracle_calls": ("count", "calls", ["resolve:tor", "resolve:ext"]),
    "resolve.oracle_s": ("s", "self", ["resolve:tor", "resolve:ext", "resolve:tensor_complex",
                                       "resolve:hom_complex", "resolve:cohomology_witness",
                                       "resolve:PresentedComplex.*"]),
    "resolve.horseshoe_s": ("s", "self", ["resolve:horseshoe"]),
    "spectral.build_s": ("s", "self", ["spectral:build_filtered_complex", "spectral:FilteredComplex.*",
                                       "spectral:MergedQuotient.*", "spectral:Cell.*",
                                       "spectral:NerveBimoduleComplex.*",
                                       "spectral:build_nerve_complex"]),
    "spectral.total_dim": ("count", "size", "total_dim"),
    "spectral.pages_calls": ("count", "calls", ["spectral:spectral_pages"]),
    "spectral.pages_s": ("s", "self", ["spectral:spectral_pages", "spectral:Page.*",
                                       "spectral:PageEntry.*"]),
    "spectral.converge_s": ("s", "self", ["spectral:converge_and_compare", "spectral:total_homology",
                                          "spectral:ConvergenceReport.*"]),
    "extpages.build_s": ("s", "self", ["extpages:ExtFilteredComplex.*", "extpages:WModule.*"]),
    "extpages.pages_s": ("s", "self", ["extpages:ext_spectral_pages", "extpages:ExtPage.*",
                                       "extpages:ext_total_cohomology"]),
    "extpages.ext_pages_s": ("s", "self", ["extpages:ext_pages", "extpages:ExtReport.*"]),
    "groupbar.bar_calls": ("count", "calls", ["groupbar:bar_complex"]),
    "groupbar.bar_s": ("s", "self", ["groupbar:bar_complex"]),
    "groupbar.bar_rank": ("count", "size", "bar_rank"),
    "groupbar.tor_s": ("s", "self", ["groupbar:group_tor", "groupbar:GroupModule.*",
                                     "groupbar:trivial_group_module"]),
    "e1data.verify_s": ("s", "self", ["e1data:verify_e1", "e1data:E1Report.*"]),
    "e1data.column_s": ("s", "self", ["e1data:ChainColumn.*", "e1data:ChainGroupData.*"]),
    "parallel.pmap_calls": ("count", "calls", ["parallel:pmap"]),
    "parallel.pmap_items": ("count", "size", "pmap_items"),
    "parallel.pmap_s": ("s", "self", ["parallel:pmap"]),
    "cache.hits": ("count", "size", "cache_hits"),
    "cache.misses": ("count", "size", "cache_misses"),
    "cache.get_s": ("s", "self", ["cache:DiskCache.get"]),
    "cache.put_s": ("s", "self", ["cache:DiskCache.put"]),
    "serialize.load_s": ("s", "self", ["serialize:load_bundle", "serialize:workspace_from_json",
                                       "serialize:*_from_json"]),
    "serialize.bundle_bytes": ("count", "size", "bundle_bytes"),
    "cli.main_s": ("s", "self", ["cli:main", "cli:make_parser", "cli:cmd_*"]),
}


def layer_metrics(stats: dict[str, list[int]], sizes: dict) -> dict[str, float]:
    """Values of PER_LAYER plus ``layer.<name>_s`` (self seconds of every
    wrapped function of the layer) for one set of collected counters."""
    out: dict[str, float] = {}
    for name, (_unit, kind, what) in PER_LAYER.items():
        if kind == "size":
            out[name] = sizes.get(what, 0)
            continue
        keys = [k for k in stats if any(fnmatch.fnmatchcase(k, pat) for pat in what)]
        if kind == "calls":
            out[name] = sum(stats[k][0] for k in keys)
        else:
            out[name] = sum(stats[k][1] for k in keys) / 1e9
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = sum(
            rec[1] for k, rec in stats.items() if k.split(":", 1)[0] == layer) / 1e9
    return out
