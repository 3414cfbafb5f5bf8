"""Spans and counts at the layer boundaries, recorded from outside the package.

`Tracer.install()` replaces public functions with wrappers at the names
their callers look up (the module globals of `catalog`, `lattice` and
`cubic`), so nothing inside `src/simsub` changes.  Spans are kept in
memory as (id, name, start, end, parent id, thread, attrs) and handed
back when the pass ends.  The hot Z[tau] helpers are counted, not timed:
timing them would add more than half to the rotation scan.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter

from simsub import catalog, cubic, lattice, parallel

# (module, attribute, span name, attrs taken from (args, result))
_SPANS = (
    (catalog, "catalog_entry", "catalog.catalog_entry",
     lambda a, r: {"coeffs": r.series.limit}),
    (catalog, "expand_euler", "dirichlet.expand_euler", lambda a, r: {"coeffs": r.limit}),
    (catalog, "convolve", "dirichlet.convolve", lambda a, r: {"coeffs": r.limit}),
    (catalog, "dirichlet_inverse", "dirichlet.inverse", lambda a, r: {"coeffs": r.limit}),
    (catalog, "scale_argument", "dirichlet.scale_argument", lambda a, r: {"coeffs": r.limit}),
    (catalog, "shift", "dirichlet.shift", lambda a, r: {"coeffs": r.limit}),
    (lattice, "verify_series", "lattice.verify_series", None),
    (lattice, "count_ideals", "lattice.count_ideals",
     lambda a, r: {"ambient": a[0].value, "m": a[1], "ideals": r}),
    (lattice, "count_similarity_submodules", "lattice.count_similarity_submodules", None),
    (lattice, "list_ideals", "lattice.list_ideals",
     lambda a, r: {"ambient": a[0].value, "m": a[1], "ideals": len(r)}),
    (lattice, "is_principal", "lattice.is_principal", lambda a, r: {"principal": r}),
    (cubic, "verify_rotation_counts", "cubic.verify_rotation_counts",
     lambda a, r: {"rotations": sum(row[1] for row in r.rows)}),
    (cubic, "rotation_counts", "cubic.rotation_counts", None),
    (cubic, "count_submodules_3d", "cubic.count_submodules_3d",
     lambda a, r: {"submodules": r}),
    (cubic, "hnf_over_ztau", "cubic.hnf_over_ztau", None),
    (cubic, "den", "cubic.den", None),
)

# (module, attribute, counter name): counted only
_COUNTS = (
    (lattice, "regular_rep", "quartic.regular_rep.calls"),
    (cubic, "qgcd", "quadratic.gcd.calls"),
    (cubic, "exact_div", "quadratic.exact_div.calls"),
    (cubic, "canonical_associate", "quadratic.canonical_associate.calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = {name: 0 for _, _, name in _COUNTS}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to the caller's span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        self.spans.append((sid, name, start, end, parent, threading.get_ident(),
                           attrs(args, result) if attrs else None))
        return result

    def timed(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _map_ordered(self, fn, items, workers=None):
        items = list(items)
        if workers is None:
            workers = parallel.worker_count()

        def run_map():
            map_id = self._stack()[-1]

            def task(item):
                return self.call("parallel.task", fn, (item,), {}, parent=map_id)
            return self._saved_map(task, items, workers)
        return self.call("parallel.map_ordered", run_map, (), {},
                         lambda a, r: {"workers": workers, "tasks": len(items)})

    def install(self):
        for module, attr, name, attrs in _SPANS:
            self._patch(module, attr, self.timed(name, getattr(module, attr), attrs))
        for module, attr, name in _COUNTS:
            self._patch(module, attr, self._counted(name, getattr(module, attr)))
        self._saved_map = lattice.map_ordered
        self._patch(lattice, "map_ordered", self._map_ordered)

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans, counts, stdout_bytes) -> dict:
    """Additive per-layer totals of one traced pass (the input of layers.merge)."""
    raw = {"cli.stdout_bytes": stdout_bytes, **counts}

    def add(key, value):
        raw[key] = raw.get(key, 0) + value

    children: dict[int, list] = {}
    for sid, name, start, end, parent, thread, attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    for sid, name, start, end, parent, thread, attrs in spans:
        s = end - start
        attrs = attrs or {}
        if name == "cli.run":
            add("cli.self_s", s - _covered(children.get(sid, ())))
        elif name == "catalog.catalog_entry":
            add("catalog.entry_s", s)
            add("catalog.coeffs", attrs["coeffs"])
        elif name in ("dirichlet.expand_euler", "dirichlet.convolve", "dirichlet.inverse"):
            add(f"{name}.calls", 1)
            add(f"{name}.s", s)
            add(f"{name}.coeffs", attrs["coeffs"])
        elif name in ("dirichlet.scale_argument", "dirichlet.shift"):
            add("dirichlet.scale_shift.s", s)
        elif name in ("lattice.count_ideals", "lattice.list_ideals"):
            rank = lattice.ambient_rank(lattice.Ambient(attrs["ambient"]))
            candidates = lattice.hnf_candidate_count(rank, attrs["m"])
            add(f"lattice.rank{rank}.candidates", candidates)
            add("lattice.ideals", attrs["ideals"])
            if name == "lattice.count_ideals":
                add(f"lattice.rank{rank}.count_candidates", candidates)
                add(f"lattice.rank{rank}.count_s", s)
            else:
                add("lattice.list_ideals.s", s)
        elif name == "lattice.is_principal":
            add("lattice.is_principal.calls", 1)
            add("lattice.is_principal.s", s)
            add("lattice.principal", int(attrs["principal"]))
        elif name == "cubic.verify_rotation_counts":
            add("cubic.rotation_scan.s", s)
            add("cubic.rotations", attrs["rotations"])
        elif name == "cubic.count_submodules_3d":
            add("cubic.submodule_count.s", s)
            add("cubic.submodules", attrs["submodules"])
        elif name == "cubic.hnf_over_ztau":
            add("cubic.hnf_over_ztau.calls", 1)
        elif name == "parallel.map_ordered":
            add("parallel.tasks", attrs["tasks"])
            add("parallel.capacity_s", attrs["workers"] * s)
            raw["parallel.workers"] = max(raw.get("parallel.workers", 0), attrs["workers"])
        elif name == "parallel.task":
            add("parallel.task_s", s)
            raw["parallel.max_task_s"] = max(raw.get("parallel.max_task_s", 0.0), s)
    return raw
