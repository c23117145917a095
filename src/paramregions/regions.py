"""Convex subdivisions of a parent cell by optimal behavior.

Every cell is built by `compute_vertex_cell`: the parent's halfspaces plus
the candidate halfspaces the caller passes in, "my objective <=
alternative's objective", each labeled by the alternative
(`dominance_constraints` for affine forms), reduced on their integer rows
to the non-redundant ones, by exact clipping in d <= 2 and by exact vertex
enumeration in d >= 3; the candidates kept are the cell's facets, and
their labels are exactly the neighbors.  A cell's witness is its canonical
point in every dimension (`geometry._canonical_point`), read off the same
interval, clip or vertices, and a bounded cell keeps the clip's or the
enumeration's vertices.  No cell runs an LP.  Every `Subdivision`,
the one region type, is built by `compute_subdivision`, a walk over the
region adjacency graph that finds every region when each candidate row is
labeled with the region across its hyperplane: `dominance_constraints`
labels a row shared by several alternatives with the one whose form falls
fastest across it.
Its callers:

- `envelope_cells`, for "behavior = argmin of labeled affine forms" (a
  clustering merge step): one walk from the form minimal at the parent's
  witness over the forms left by `pareto_front` (on a merge pair's
  component values), with no LP in d <= 2.  A merge step below the root
  whose front keeps one form makes no call: that form's cell is the whole
  region, which `clustering._expand` keeps.  An alignment DAG node below
  the root keeps the forms on the `pareto_front` of its counts whose
  dominance rows leave the simplex slice of the domain an interior point
  (exact clipping in d = 3, with no LP; the lower hull in d = 2), and the
  root walks from its regions' forms.
- the product walk over tuple labels, whose cells are intersections of one
  cell per factor (`product_candidates`): the tariff search, one factor per
  buyer sample seeded by `argmin_label`, and `compute_overlay`, one factor
  per input subdivision.

`argmin_label`, which seeds the envelope and the tariff walks, compares the
forms' `int_form`s at the homogeneous point, on ints.

The per-label cell computations are pure and independent (safe to dispatch
concurrently if a caller wants to).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Any, Callable, Iterable, Optional, Sequence

from .geometry import (
    ConvexCell,
    GeometryError,
    Halfspace,
    _canonical_point,
    _clip_polygon,
    _has_interior,
    _homogeneous,
    _inside_box,
    _interval_witness,
    _one_row_per_direction,
    _polygon_witness,
    _project_row,
    _rank,
    _slack,
    _vertex_witness,
    _vertices,
)
from .rationals import as_rational, as_vector


class DegenerateCellError(Exception):
    """A cell with empty interior (lower-dimensional); callers skip these."""


@dataclass(frozen=True)
class AffineForm:
    """coeffs . x + const, the universal objective shape on a cell.

    A form built from ints keeps them; any other entries become rationals.
    """

    coeffs: tuple
    const: Any

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if all(type(c) is int for c in (*coeffs, self.const)):
            object.__setattr__(self, "coeffs", coeffs)
        else:
            object.__setattr__(self, "coeffs", as_vector(coeffs))
            object.__setattr__(self, "const", as_rational(self.const))

    @cached_property
    def int_form(self) -> tuple:
        """(w * coeffs, w * const, w) as ints, w the lcm of the denominators:
        w = 1 for a form built from ints."""
        *scaled, const, w = _homogeneous((*self.coeffs, self.const))
        return tuple(scaled), const, w


def dominance_constraints(forms: dict, label) -> Optional[list]:
    """Rows "forms[label] <= forms[other]" for every other behavior, in label
    order, each the `Halfspace` of its primitive integer row.

    Every copy of a row is labeled with the behavior across it: of the
    others that share the row, the one whose form falls fastest across its
    hyperplane, i.e. by the largest factor the row was divided by over that
    form's scale; of equal rates the first in label order.

    Behaviors with identical affine objectives are collapsed onto the
    lexicographically smallest label: for a non-canonical label this returns
    None, and the coincident partners of a canonical label are skipped.
    Returns None as well when some other behavior beats `label` everywhere.
    """
    base, base_const, base_w = forms[label].int_form
    rows = []
    fastest: dict = {}  # int row -> (factor, scale, other): the fastest-falling other
    for other, form in sorted(forms.items()):
        if other == label:
            continue
        # base <= other  <=>  (base - other).coeffs . x <= other.const - base.const
        coeffs, const, w = form.int_form
        row = (*(b * w - c * base_w for b, c in zip(base, coeffs)), const * base_w - base_const * w)
        if not any(row[:-1]):
            if row[-1] < 0:
                return None  # strictly dominated everywhere
            if row[-1] == 0 and other < label:
                return None  # coincident; the smaller label is canonical
            continue
        g = math.gcd(*row)
        if g != 1:
            row = tuple(c // g for c in row)
        rows.append(row)
        best = fastest.get(row)
        if best is None or g * best[1] > best[0] * w:
            fastest[row] = (g, w, other)
    return [Halfspace(row, fastest[row][2]) for row in rows]


def argmin_label(forms: dict, point):
    """The label minimal at point + (e, e^2, ..., e^d) for every small
    enough e > 0: the least (value at point, *coeffs), and of equal ones the
    smallest label.  That point lies on no tie hyperplane of two distinct
    forms, so for `point` inside a parent the label has a full-dimensional
    cell.

    Read on ints: with the point homogeneous, (p, w), and each form's
    `int_form` (C, k, s) brought to the lcm L of the scales s, the key is
    (L / s) * (C . p + k w, *C), which is L w times (value, *coeffs) in its
    value and L times in its coefficients: the same order, ties included.
    """
    *p, w = _homogeneous(point)
    ints = {label: form.int_form for label, form in forms.items()}
    scale = math.lcm(*(s for _, _, s in ints.values()))

    def key(label):
        coeffs, const, s = ints[label]
        f = scale // s
        return (f * (sum(map(mul, coeffs, p)) + const * w), *(f * c for c in coeffs))

    return min(sorted(forms), key=key)


def product_candidates(factors) -> Callable:
    """The `candidates` function of `compute_subdivision` over tuple labels,
    one entry per factor: the cell of (l_1, ..., l_n) is the intersection of
    the cells of l_i, and `factors[i](l_i)` gives l_i's rows, each labeled
    with the entry across it.

    A factor's rows are built once per entry; each tuple only labels them.
    Each row is labeled with the tuple across its hyperplane: every entry
    whose factor owns the row moves to its label there.
    """
    cache: dict = {}  # (i, entry) -> (int rows, {int row: entry across})

    def candidates(label):
        rows = []
        across: dict = {}  # int row -> the tuple across it
        for i, entry in enumerate(label):
            if (i, entry) not in cache:
                own = factors[i](entry)
                cache[i, entry] = [h.int_row for h in own], {h.int_row: h.label for h in own}
            own_rows, own_labels = cache[i, entry]
            rows += own_rows
            for row, other in own_labels.items():
                moved = across.get(row, label)
                across[row] = moved[:i] + (other,) + moved[i + 1 :]
        return [Halfspace(row, across[row]) for row in rows]

    return candidates


@dataclass(frozen=True, eq=False)
class Subdivision:
    """Interior-disjoint convex cells covering a parent cell, keyed by label."""

    parent: ConvexCell
    cells: dict
    adjacency: frozenset
    degenerate: tuple = ()

    def to_json(self, extras=None) -> dict:
        """Canonical JSON: cells in label order, each merged with
        `extras(label)` when given, and each adjacent pair as the indices
        [i, j], i < j, of its two cells in that list, sorted."""
        labels = sorted(self.cells)
        index = {label: i for i, label in enumerate(labels)}
        cells = []
        for label in labels:
            entry = {"label": label, **self.cells[label].to_json()}
            if extras:
                entry.update(extras(label))
            cells.append(entry)
        return {
            "parent": self.parent.to_json(),
            "cells": cells,
            "adjacency": sorted(sorted((index[a], index[b])) for a, b in self.adjacency),
        }

    @classmethod
    def from_json(cls, data: dict, decode_label=lambda x: x) -> "Subdivision":
        entries = data["cells"]
        labels = [decode_label(entry["label"]) for entry in entries]
        cells = {label: ConvexCell.from_json(entry, decode_label) for label, entry in zip(labels, entries)}
        adjacency = frozenset(tuple(sorted((labels[i], labels[j]))) for i, j in data["adjacency"])
        return cls(ConvexCell.from_json(data["parent"], decode_label), cells, adjacency)


def compute_vertex_cell(parent: ConvexCell, label, candidates: Optional[list]):
    """The cell of `label` inside `parent`, plus its neighbor labels.

    `candidates` is a superset of the cell's true facets as `Halfspace`s,
    each labeled with the neighboring behavior, or None when `label` can
    never be optimal on a full-dimensional set.  The parent's halfspaces and
    then the candidates are filtered once to one row per normal direction,
    the tightest, the first on ties (`_one_row_per_direction`): a candidate
    equal to a parent row leaves the parent's in place and is no neighbor.
    The facets are the filtered rows that bound the cell, in row order, and
    the witness is a strictly interior point:

    - d = 1: every filtered row (one per side); the witness is the simplest
      rational strictly inside the interval (`_interval_witness`).
    - d = 2: the rows tight at two vertices of `_clip_polygon`'s polygon
      (an edge: no two filtered rows share a line), read off the tight bits
      the clip records at each vertex; the witness is x_1 the simplest
      rational strictly inside the vertices' x-range, then x_2 the simplest
      strictly inside the chord at x_1 (`_polygon_witness`).  An empty clip,
      x-range or chord means an empty interior, so a cell that is kept is a
      full-dimensional polygon.
    - d >= 3: the cell's vertices (`_vertices`), each with the rows tight
      at it, are enumerated once.  Vertices of rank below d + 1 (`_rank`)
      mean an empty interior; the rows whose tight vertices have rank d
      are the facets.  The witness is x_1 the simplest rational strictly
      inside the vertices' x_1-range, then the canonical point of the
      facets' slice at x_1, down to the polygon of d = 2
      (`_vertex_witness`).

    In every dimension the witness depends on the cell alone, not on the
    rows that cut it out or their order, and no LP runs.  In d >= 2 a
    bounded cell keeps the polygon's or the enumeration's vertices
    (in the cell's private `_kept` slot, none tight on the box:
    `geometry._inside_box`),
    so that reading its vertices later (`geometry._bounded_vertices`)
    builds nothing again.
    Raises DegenerateCellError when the cell has empty interior.
    """
    if candidates is None:
        raise DegenerateCellError(label)
    rows = list(parent.constraints) + candidates
    int_rows = [h.int_row for h in rows]
    uniq = _one_row_per_direction(int_rows)
    filtered = [int_rows[i] for i in uniq]
    d = parent.dimension
    corners = None
    if d == 1:
        kept = uniq
        witness = _interval_witness(filtered)
    elif d == 2:
        vertices = _clip_polygon(filtered)
        once = twice = 0  # the bits tight at one vertex, and at two or more
        for _, t in vertices:
            twice |= once & t
            once |= t
        kept = [i for n, i in enumerate(uniq) if twice >> 4 + n & 1]
        witness = _polygon_witness(vertices, [int_rows[i] for i in kept])
        corners = _inside_box(vertices, 2)
    else:
        vertices = _vertices(filtered, d)
        if _rank([v for v, _ in vertices]) <= d:
            raise DegenerateCellError(label)
        kept = [i for n, i in enumerate(uniq) if _rank([v for v, t in vertices if t >> 2 * d + n & 1]) == d]
        witness = _vertex_witness(vertices, [int_rows[i] for i in kept], d)
        corners = _inside_box(vertices, d)
    if witness is None:
        raise DegenerateCellError(label)
    n_parent = len(parent.constraints)
    cell = ConvexCell(d, tuple(rows[i] for i in kept), witness=witness)
    if corners is not None:
        object.__setattr__(cell, "_kept", corners)
    neighbors = frozenset(rows[i].label for i in kept if i >= n_parent)
    return cell, neighbors


def compute_subdivision(parent: ConvexCell, seeds: Iterable, candidates: Callable) -> Subdivision:
    """Breadth-first walk over the region adjacency graph from the `seeds`
    labels, in order; `candidates(label)` gives the rows `compute_vertex_cell`
    takes for `label`.  Visits each full-dimensional cell it reaches exactly
    once; empty-interior labels are recorded and skipped.

    Contract: each candidate row is labeled with the region across its
    hyperplane.  Each facet then leads to the cell beyond it, and a
    subdivision's facet graph is connected (the argument behind Avis &
    Fukuda's reverse search, 1996), so a walk from any full-dimensional
    seed reaches every region and queues no label without a cell.
    """
    queue = deque(seeds)
    cells: dict = {}
    degenerate: set = set()
    pairs: set = set()
    while queue:
        label = queue.popleft()
        if label in cells or label in degenerate:
            continue
        try:
            cell, neighbors = compute_vertex_cell(parent, label, candidates(label))
        except DegenerateCellError:
            degenerate.add(label)
            continue
        cells[label] = cell
        for nb in sorted(neighbors):
            pairs.add(tuple(sorted((label, nb))))
            queue.append(nb)
    adjacency = frozenset(p for p in pairs if p[0] in cells and p[1] in cells)
    return Subdivision(parent, cells, adjacency, tuple(sorted(degenerate)))


def pareto_front(vectors: dict) -> list:
    """The labels of `vectors` that no other vector is componentwise <=, in
    label order; of equal vectors the smallest label stays.  A form whose
    values at the corners of a polytope around the parent are all >= another's
    is minimal nowhere inside and tightens no other cell, so this prunes the
    forms of `envelope_cells`.  The maxima filter of Kung, Luccio & Preparata
    (JACM 1975): one pass against the vectors kept."""
    kept: list = []  # (label, vector), in label order
    for label in sorted(vectors):
        vector = vectors[label]
        if any(all(k <= v for k, v in zip(other, vector)) for _, other in kept):
            continue
        kept = [(l, other) for l, other in kept if not all(v <= k for v, k in zip(vector, other))]
        kept.append((label, vector))
    return [label for label, _ in kept]


def envelope_cells(parent: ConvexCell, forms: dict) -> Subdivision:
    """The full-dimensional cells of the lower envelope of labeled affine
    forms inside `parent`, keyed by label: one `compute_subdivision` walk
    from the form minimal just past the parent's witness (`argmin_label`).
    `dominance_constraints` meets the walk's contract for any forms, so the
    walk reaches every cell; the labels it gives none are degenerate.  A
    parent without a witness walks from its canonical point; one with empty
    interior has no cell.
    """
    point = _witness(parent)
    if point is None or not forms:
        return Subdivision(parent, {}, frozenset(), tuple(sorted(forms)))
    start = argmin_label(forms, point)
    sub = compute_subdivision(parent, (start,), lambda label: dominance_constraints(forms, label))
    degenerate = tuple(label for label in sorted(forms) if label not in sub.cells)
    return Subdivision(parent, sub.cells, sub.adjacency, degenerate)


def compute_overlay(subdivisions: Sequence[Subdivision]) -> Subdivision:
    """Common refinement of several subdivisions of the same parent; cell
    labels are the tuples of source-cell labels.

    One walk over tuple labels (`product_candidates`): entry i's rows are
    the facets of input i's cell that are not the parent's, each labeled
    with the input cell across it, and the seed is the tuple of input cells
    that hold the parent's witness (its canonical point when it has none)
    + (e, e^2, ...).  Raises GeometryError
    when the parents differ or an interior facet has no label.
    """
    if not subdivisions:
        raise GeometryError("need at least one subdivision")
    parent = subdivisions[0].parent
    parent_keys = parent.constraint_keys()
    if any(sub.parent.constraint_keys() != parent_keys for sub in subdivisions[1:]):
        raise GeometryError("subdivisions cover different parents")

    def facets(sub):
        def rows(label):
            out = []
            for h in sub.cells[label].constraints:
                if h.int_row in parent_keys:
                    continue
                if h.label is None:
                    raise GeometryError(f"an interior facet of cell {label!r} has no label")
                out.append(h)
            return out

        return rows

    point = _witness(parent)
    start = tuple(_cell_past(sub, point) for sub in subdivisions)
    candidates = product_candidates([facets(sub) for sub in subdivisions])
    return compute_subdivision(parent, (start,), candidates)


def _witness(cell: ConvexCell):
    """The cell's witness, or its canonical point when it has none (None
    when its interior is empty)."""
    if cell.witness is not None:
        return cell.witness
    return _canonical_point([h.int_row for h in cell.constraints], cell.dimension)


def _cell_past(sub: Subdivision, point):
    """The label of the cell of `sub` that holds point + (e, e^2, ..., e^d)
    for every small enough e > 0: each facet's slack there, read off
    lexicographically, is positive."""
    z = _homogeneous(point)
    zero = (0,) * len(z)
    for label in sorted(sub.cells):
        rows = [h.int_row for h in sub.cells[label].constraints]
        if all((_slack(row, z), *(-c for c in row[:-1])) > zero for row in rows):
            return label
    raise GeometryError("the subdivision does not cover its parent's witness")


def cells_share_facet(a: ConvexCell, b: ConvexCell) -> bool:
    """True when the closures of two reduced cells meet in a (d-1)-dim face."""
    b_keys = {h.int_row for h in b.constraints}
    for h in a.constraints:
        flipped = h.flipped_key()
        if flipped not in b_keys:
            continue
        rows = [c for c in a.constraints if c.int_row != h.int_row]
        rows += [c for c in b.constraints if c.int_row != flipped]
        if _has_relative_interior_on(h, rows):
            return True
    return False


def _has_relative_interior_on(plane: Halfspace, rows) -> bool:
    # The shared-facet test.  Eliminate one variable via the plane's
    # equality, then look for a point strictly inside the projected
    # constraints (`_has_interior`), with no LP: an open interval in d = 2,
    # an open polygon in d = 3 and, in d >= 4, vertices of full rank.
    pivot = plane.int_row
    d = len(pivot) - 1
    if d == 1:
        a, b = pivot
        z = (b, a) if a > 0 else (-b, -a)  # the point b / a
        return all(_slack(h.int_row, z) >= 0 for h in rows)
    k = max(range(d), key=lambda j: (abs(pivot[j]), -j))
    projected = []
    for h in rows:
        row = _project_row(h.int_row, pivot, k)
        if not any(row[:-1]):
            if row[-1] <= 0:
                return False
            continue
        projected.append(row)
    return not projected or _has_interior(projected)
