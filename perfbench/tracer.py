"""Per-layer tracing of the library, from outside it.

`Tracer.install()` replaces chosen functions of the library's modules with
wrappers that time each call and count work, and `uninstall()` puts the
originals back; the library is not modified on disk.  A module that does
`from .geometry import find_interior_point` holds its own binding of that
function, so every binding of a wrapped function, in every module namespace,
is replaced.

The wrapped functions are the layer boundaries the metrics need: public
functions and methods of each module, plus the two internal functions that
define ROADMAP's LP and redundancy-removal counts (`geometry._solve_raw` and
`_clarkson_indices`).  The `rationals` layer is not wrapped: its operations
are the number type's own methods.

For each wrapped name the tracer keeps the call count, the total time of
outermost calls, and the self time (total minus the time of wrapped calls
made inside it).  Counts repeat exactly from run to run; times do not.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("geometry", "regions", "clustering", "seqalign", "tariff", "cli")

# module -> wrapped attributes ("Class.method" for methods)
TARGETS = {
    "geometry": ("_solve_raw", "find_interior_point", "_clarkson_indices", "solve_lp"),
    "regions": ("compute_subdivision", "compute_vertex_cell", "cells_share_facet"),
    "clustering": (
        "build_execution_tree",
        "ClusterState.merge",
        "ClusterState.merge_forms",
        "hamming_loss",
    ),
    "seqalign": ("overlay_pieces", "build_execution_dag", "dp_solve_multi", "ray_search_2d"),
    "tariff": ("compute_price_regions", "maximize_revenue", "check_piece_bound"),
    "cli": (
        "load_cluster_instance",
        "load_tariff_instance",
        "load_sequences",
        "load_alignment_spec",
        "canonical_dumps",
    ),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.counts: dict = {}
        self._depth: dict = {}
        self._stack: list = []  # [name, child_time, data]
        self._restore: list = []
        self.missing: list = []

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("paramregions")
        modules = {m: importlib.import_module(f"paramregions.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        for mod_name, attrs in TARGETS.items():
            for attr in attrs:
                name = f"{mod_name}.{attr.split('.')[-1]}"
                owner, _, method = attr.rpartition(".")
                if owner:
                    cls = getattr(modules[mod_name], owner, None)
                    original = getattr(cls, method, None) if cls is not None else None
                    if original is None:
                        self.missing.append(name)
                        continue
                    self._replace(cls, method, original, self._wrap(name, original))
                    continue
                original = getattr(modules[mod_name], attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._replace(ns, key, original, wrapper)

    def _replace(self, holder, key, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        enter = ENTER.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            frame = [name, 0.0, enter(args, kwargs) if enter else None]
            if observe is not None and stack:
                parent = stack[-1]
            else:
                parent = None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self._depth[name] = depth
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - frame[1]
                if depth == 0:
                    self.total[name] = self.total.get(name, 0.0) + elapsed
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result, parent)
            return result

        return wrapper

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, s, selft, n = self.calls.get, self.total.get, self.self_time.get, self.counts.get

        def ratio(a, b):
            return a / b if b else 0.0

        cells, degenerate = n("regions.cells", 0), n("regions.degenerate", 0)
        return {
            "geometry.lp.calls": (c("geometry._solve_raw", 0), "count"),
            "geometry.lp.rows": (n("geometry.lp.rows", 0), "count"),
            "geometry.lp.self_s": (selft("geometry._solve_raw", 0.0), "s"),
            "geometry.interior.calls": (c("geometry.find_interior_point", 0), "count"),
            "geometry.interior.s": (s("geometry.find_interior_point", 0.0), "s"),
            "geometry.clarkson.calls": (c("geometry._clarkson_indices", 0), "count"),
            "geometry.clarkson.rows_in": (n("geometry.clarkson.rows_in", 0), "count"),
            "geometry.clarkson.rows_kept": (n("geometry.clarkson.rows_kept", 0), "count"),
            "geometry.clarkson.keep_ratio": (
                ratio(n("geometry.clarkson.rows_kept", 0), n("geometry.clarkson.rows_in", 0)),
                "ratio",
            ),
            "geometry.clarkson.s": (s("geometry._clarkson_indices", 0.0), "s"),
            "geometry.solve_lp.calls": (c("geometry.solve_lp", 0), "count"),
            "geometry.solve_lp.s": (s("geometry.solve_lp", 0.0), "s"),
            "regions.subdivision.calls": (c("regions.compute_subdivision", 0), "count"),
            "regions.subdivision.s": (s("regions.compute_subdivision", 0.0), "s"),
            "regions.subdivision.self_s": (selft("regions.compute_subdivision", 0.0), "s"),
            "regions.candidates": (n("regions.candidates", 0), "count"),
            "regions.cells": (cells, "count"),
            "regions.degenerate": (degenerate, "count"),
            "regions.cell_yield": (ratio(cells, cells + degenerate), "ratio"),
            "regions.share_facet.calls": (c("regions.cells_share_facet", 0), "count"),
            "regions.share_facet.hits": (n("regions.share_facet.hits", 0), "count"),
            "regions.share_facet.s": (s("regions.cells_share_facet", 0.0), "s"),
            "clustering.tree.builds": (c("clustering.build_execution_tree", 0), "count"),
            "clustering.tree.s": (s("clustering.build_execution_tree", 0.0), "s"),
            "clustering.leaves": (n("clustering.leaves", 0), "count"),
            "clustering.merge.calls": (c("clustering.merge", 0), "count"),
            "clustering.merge.s": (s("clustering.merge", 0.0), "s"),
            "clustering.forms.s": (s("clustering.merge_forms", 0.0), "s"),
            "clustering.hamming.calls": (c("clustering.hamming_loss", 0), "count"),
            "clustering.hamming.s": (s("clustering.hamming_loss", 0.0), "s"),
            "seqalign.overlay.calls": (c("seqalign.overlay_pieces", 0), "count"),
            "seqalign.overlay.pieces": (n("seqalign.overlay.pieces", 0), "count"),
            "seqalign.overlay.s": (s("seqalign.overlay_pieces", 0.0), "s"),
            "seqalign.dag.s": (s("seqalign.build_execution_dag", 0.0), "s"),
            "seqalign.dp.calls": (c("seqalign.dp_solve_multi", 0), "count"),
            "seqalign.dp.s": (s("seqalign.dp_solve_multi", 0.0), "s"),
            "seqalign.ray.dp_solves": (n("seqalign.ray.dp_solves", 0), "count"),
            "seqalign.ray.solves_per_region": (
                ratio(n("seqalign.ray.dp_solves", 0), n("seqalign.ray.regions", 0)),
                "ratio",
            ),
            "seqalign.regions": (n("seqalign.regions", 0), "count"),
            "tariff.regions.s": (s("tariff.compute_price_regions", 0.0), "s"),
            "tariff.revenue.s": (s("tariff.maximize_revenue", 0.0), "s"),
            "tariff.piece_bound.s": (s("tariff.check_piece_bound", 0.0), "s"),
            "tariff.cells": (n("tariff.cells", 0), "count"),
            "cli.load.s": (
                sum(s(f"cli.{f}", 0.0) for f in TARGETS["cli"] if f.startswith("load_")),
                "s",
            ),
            "cli.serialize.s": (s("cli.canonical_dumps", 0.0), "s"),
            "cli.bytes_out": (n("cli.bytes_out", 0), "bytes"),
        }


# --------------------------------------------------------------------------
# Work counts taken from arguments and results
# --------------------------------------------------------------------------

def _enter_vertex_cell(args, kwargs):
    return len(_arg(args, kwargs, 0, "parent").constraints)


def _observe_lp(tr, args, kwargs, result, parent):
    tr.add("geometry.lp.rows", len(_arg(args, kwargs, 1, "rows")))


def _observe_interior(tr, args, kwargs, result, parent):
    # Called from compute_vertex_cell with the parent's rows followed by the
    # candidate halfspaces of one label.
    if parent is not None and parent[0] == "regions.compute_vertex_cell":
        tr.add("regions.candidates", len(_arg(args, kwargs, 0, "constraints")) - parent[2])


def _observe_clarkson(tr, args, kwargs, result, parent):
    tr.add("geometry.clarkson.rows_in", len(_arg(args, kwargs, 0, "constraints")))
    tr.add("geometry.clarkson.rows_kept", len(result))


def _observe_subdivision(tr, args, kwargs, result, parent):
    tr.add("regions.cells", len(result.cells))
    tr.add("regions.degenerate", len(result.degenerate))


def _observe_share_facet(tr, args, kwargs, result, parent):
    tr.add("regions.share_facet.hits", int(bool(result)))


def _observe_tree(tr, args, kwargs, result, parent):
    tr.add("clustering.leaves", sum(1 for _ in result.leaves()))


def _observe_overlay(tr, args, kwargs, result, parent):
    tr.add("seqalign.overlay.pieces", len(result))


def _observe_dag(tr, args, kwargs, result, parent):
    partition = result[0] if isinstance(result, tuple) else result
    tr.add("seqalign.regions", len(partition.regions))


def _observe_ray(tr, args, kwargs, result, parent):
    partition, solves = result
    tr.add("seqalign.ray.dp_solves", solves)
    tr.add("seqalign.ray.regions", len(partition.regions))
    tr.add("seqalign.regions", len(partition.regions))


def _observe_price_regions(tr, args, kwargs, result, parent):
    tr.add("tariff.cells", len(result.cells))


def _observe_dumps(tr, args, kwargs, result, parent):
    tr.add("cli.bytes_out", len(result.encode()))


ENTER = {"regions.compute_vertex_cell": _enter_vertex_cell}
OBSERVERS = {
    "geometry._solve_raw": _observe_lp,
    "geometry.find_interior_point": _observe_interior,
    "geometry._clarkson_indices": _observe_clarkson,
    "regions.compute_subdivision": _observe_subdivision,
    "regions.cells_share_facet": _observe_share_facet,
    "clustering.build_execution_tree": _observe_tree,
    "seqalign.overlay_pieces": _observe_overlay,
    "seqalign.build_execution_dag": _observe_dag,
    "seqalign.ray_search_2d": _observe_ray,
    "tariff.compute_price_regions": _observe_price_regions,
    "cli.canonical_dumps": _observe_dumps,
}
