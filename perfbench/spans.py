"""Span tracer for one traced repetition, built entirely outside the package.

`install()` wraps the public functions of every faadibruno module at every
module binding (a function imported by name into another module is replaced
there too), records nested spans and derives each function's self time from
them: a span's duration minus the part of it its child spans cover.  Counters
are taken at the same boundaries.  The tracer's own bookkeeping (node
counting) runs on a paused clock, so it is not charged to any span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Hot leaves and recursive helpers are not wrapped: a span per call would
# dominate the measurement (eval_expr alone runs ~15M calls on faa-r-o4).
# Their time is charged to the nearest wrapped caller; evaluation is counted
# at the smooth.eq boundary instead.
UNWRAPPED = {
    "expr": {"eval_expr", "guard_eval", "free_vars", "subst", "pretty_expr",
             "var", "const", "add", "sub", "mul", "div", "ipow", "neg", "sin",
             "cos", "exp", "log", "sqrt", "is_const", "var_name"},
    "smooth": {"point_env", "in_domain", "apply_map", "probe_points", "sample_points"},
}

# Span groups reported under one name.
GROUPS = {
    "smooth.maps_equal": "smooth.eq",
    "smooth.map_leq": "smooth.eq",
    "smooth.maps_compatible": "smooth.eq",
    "smooth.map_total": "smooth.eq",
    "jets.mon_product": "jets.product",
    "jets.faa_product": "jets.product",
    "jets.product_objects": "jets.product",
    "jets.tuple_jets": "jets.product",
    "jets.pair_jets": "jets.product",
    "jets.product_jets": "jets.product",
}

# jets functions that decide equality or order rather than build structure
JET_PREDICATES = {"jets.jet_equal", "jets.is_total", "jets.leq", "jets.compatible",
                  "jets.is_linear"}


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _is_public_function(obj, modname: str) -> bool:
    if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
        return False
    return getattr(obj, "__module__", None) == modname


class Tracer:
    def __init__(self):
        self.paused = 0.0
        self.stack: list[list] = []  # [name, child_time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"smooth.eq.samples": 0, "smooth.eq.points": 0,
                       "expr.nodes_tree": 0, "expr.nodes_unique": 0,
                       "jets.compose_jets.terms": 0}
        self.eq_depth = 0
        # inclusive time under jets structural calls, less the sampled
        # equality nested in them (lambda_embed checks additivity)
        self.struct_depth = 0
        self.structure_s = 0.0
        self._eq_at_struct_entry = 0.0
        self.lru: dict[str, object] = {}
        # structural node ids, memoized on object identity (objects are kept
        # alive so an id is never reused)
        self._canon_by_id: dict[int, int] = {}
        self._sig_to_canon: dict[tuple, int] = {}
        self._kids: list[tuple[int, ...]] = []
        self._size: list[int] = []
        self._keep: list = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    # --- wrapping ---------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("faadibruno.") and mod is not None}
        wrappers: dict[int, object] = {}
        for modname, mod in mods.items():
            short = modname.split(".", 1)[1]
            skip = UNWRAPPED.get(short, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_public_function(obj, modname):
                    continue
                if isinstance(obj, functools._lru_cache_wrapper):
                    self.lru[f"{short}.{attr}"] = obj
                if attr in skip:
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(GROUPS.get(name, name), obj))
        sample_points = vars(mods["faadibruno.smooth"])["sample_points"]
        wrappers[id(sample_points)] = (sample_points, self._count_points(sample_points))
        package = sys.modules["faadibruno"]
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name: str, fn):
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        is_eq = name == "smooth.eq"
        is_struct = name.startswith("jets.") and name not in JET_PREDICATES
        hook = {"smooth.eq": self._on_eq,
                "jets.compose_jets": self._on_compose}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            if is_eq:
                self.eq_depth += 1
            if is_struct:
                if not self.struct_depth:
                    self._eq_at_struct_entry = self_s.get("smooth.eq", 0.0)
                self.struct_depth += 1
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.clock() - start
                if is_eq:
                    self.eq_depth -= 1
                if is_struct:
                    self.struct_depth -= 1
                    if not self.struct_depth:
                        self.structure_s += dur - (self_s.get("smooth.eq", 0.0)
                                                   - self._eq_at_struct_entry)
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                paused_at = time.perf_counter()
                hook(args, result)
                self.paused += time.perf_counter() - paused_at
            return result

        return wrapper

    def _count_points(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for point in fn(*args, **kwargs):
                if self.eq_depth:
                    self.counts["smooth.eq.points"] += 1
                yield point
        return wrapper

    # --- counters at the boundaries -----------------------------------------

    def _canon(self, e) -> int:
        hit = self._canon_by_id.get(id(e))
        if hit is not None:
            return hit
        kids = tuple(self._canon(a) for a in e.args)
        sig = (e.kind, e.name, e.value, e.exponent, kids)
        cid = self._sig_to_canon.get(sig)
        if cid is None:
            cid = len(self._kids)
            self._sig_to_canon[sig] = cid
            self._kids.append(kids)
            self._size.append(1 + sum(self._size[k] for k in kids))
        self._canon_by_id[id(e)] = cid
        self._keep.append(e)
        return cid

    def _on_eq(self, args, outcome):
        self.counts["smooth.eq.samples"] += outcome.samples
        roots = []
        for m in args:
            if hasattr(m, "coords") and hasattr(m, "guard"):
                roots.extend(self._canon(e) for e in m.coords)
                roots.extend(self._canon(a.expr) for a in m.guard.atoms)
        self.counts["expr.nodes_tree"] += sum(self._size[r] for r in roots)
        seen = set()
        todo = list(roots)
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                todo.extend(self._kids[c])
        self.counts["expr.nodes_unique"] += len(seen)

    def _on_compose(self, args, jet):
        f, g = args[0], args[1]
        order = min(f.order, g.order)
        self.counts["jets.compose_jets.terms"] += sum(_bell(n) for n in range(1, order + 1))

    # --- summary ------------------------------------------------------------

    def summary(self, wall_virtual: float) -> dict:
        """Raw per-span calls and self times, the boundary counters, the lru
        cache statistics and the unattributed remainder of `wall_virtual`."""
        caches = {}
        for name, fn in self.lru.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses,
                            "currsize": info.currsize}
        attributed = sum(self.self_s.values())
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "caches": caches,
            "structure_s": self.structure_s,
            "wall_virtual": wall_virtual,
            "unattributed_s": wall_virtual - attributed,
        }
