"""Exact low-dimensional halfspace geometry.

Halfspaces, convex cells, and one exact algorithm family: one construction
per dimension that a cell's facets, canonical point, interior and vertices
are read off.  That is the interval in d = 1 (`_interval_ends`), polygon
clipping in d = 2 (`_clip_polygon`) and vertex enumeration in d >= 3
(`_vertices`, the double description method).  A cell's canonical point
`_canonical_point`, its witness in every dimension, is the simplest
rational x_1 strictly inside its x_1-range, then the canonical point of its
slice at x_1; the interior test `_has_interior` reads the interval's ends,
three clipped vertices off one line, or above d = 2 vertices of rank d + 1;
`_bounded_vertices` gives a bounded cell's vertices, where a linear
objective attains its maximum.  No LP runs.
The clip and the vertex enumeration both record each vertex's tight set
as bits (the box's sides or cube's facets, then the rows), so a facet is
read off those bits with no slack recomputed, and a cell built from either
keeps its vertices for `_bounded_vertices`.
A halfspace is its primitive integer row; witnesses are exact rationals.
The kernel underneath (the interval, the clip, the vertex enumeration, the
witnesses, the point tests) runs fraction-free on Python ints, on those
rows and on homogeneous points, where one slack (`_slack`) decides every
point against a row, and converts back to rationals only at this module's
boundary.
Everything here is a pure function of its inputs; values are immutable
after construction and safe to share across threads.

Intended for small constant dimension (d <= ~6).  There is deliberately no
floating-point fast path: redundancy, adjacency and tie decisions are exactly
where floats silently corrupt output-sensitive enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, product
from operator import and_, index, mul
from typing import Any, Optional, Sequence

from .rationals import (
    Rational,
    ZERO,
    as_rational,
    as_vector,
    format_vector,
    parse_vector,
    simplest_between,
)

Vector = tuple


class GeometryError(ValueError):
    """Raised on usage errors: dimension mismatches, bad witnesses, ..."""


def dot(a: Sequence, b: Sequence):
    total = ZERO
    for x, y in zip(a, b):
        total = total + x * y
    return total


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : a . x <= b} with an opaque label, stored as its
    primitive integer row `int_row` = (a_1, ..., a_d, b), gcd 1.

    The row is the halfspace's identity: equal halfspaces have equal rows, so
    they compare equal and hash alike, and it is what every kernel reads.
    `normal` and `offset` are the rational view derived from it.
    """

    int_row: tuple
    label: Any = None

    @classmethod
    def from_rationals(cls, normal: Sequence, offset, label=None) -> "Halfspace":
        """{x : normal . x <= offset}: scaled by the lcm of the denominators,
        then divided by the gcd of the entries."""
        row = _int_vector((*as_vector(normal), as_rational(offset)))
        if not any(row[:-1]):
            raise GeometryError("halfspace normal must be nonzero")
        g = math.gcd(*row)
        return cls(row if g == 1 else tuple(c // g for c in row), label)

    @cached_property
    def normal(self) -> Vector:
        """The row's normal divided by |its first nonzero entry|."""
        lead = abs(next(c for c in self.int_row if c))
        return tuple(Rational(c, lead) for c in self.int_row[:-1])

    @cached_property
    def offset(self):
        """The row's offset, divided like `normal`."""
        return Rational(self.int_row[-1], abs(next(c for c in self.int_row if c)))

    @property
    def dimension(self) -> int:
        return len(self.int_row) - 1

    def line_key(self) -> tuple:
        """Identity of the boundary hyperplane, the same for both of its
        sides: the row with its first nonzero entry positive."""
        return self.int_row if next(c for c in self.int_row if c) > 0 else self.flipped_key()

    def flipped_key(self) -> tuple:
        """The row of the complementary halfspace, {normal . x >= offset}."""
        return tuple(-c for c in self.int_row)

    def to_json(self) -> dict:
        """The rational view as "p/q" strings, read off the integer row: each
        entry over |the first nonzero entry|, both divided by their gcd."""
        lead = abs(next(c for c in self.int_row if c))
        entries = []
        for c in self.int_row:
            g = math.gcd(c, lead)
            entries.append(f"{c // g}/{lead // g}")
        out = {"normal": entries[:-1], "offset": entries[-1]}
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_json(cls, data: dict, decode_label=lambda x: x) -> "Halfspace":
        return cls.from_rationals(
            parse_vector(data["normal"]),
            as_rational(data["offset"]),
            decode_label(data["label"]) if "label" in data else None,
        )


@dataclass(frozen=True)
class ConvexCell:
    """Intersection of halfspaces, with an optional strictly interior witness.

    `regions.compute_vertex_cell` builds cells with a witness and a minimal
    constraint list: removing any single constraint changes the solution set.
    It reads that list off the interval in d = 1, off `_clip_polygon`'s
    polygon in d = 2 and off the cell's `_vertices` in d >= 3; the witness
    is the cell's canonical point (`_canonical_point`) in every dimension.
    In d >= 2 a bounded cell it builds also keeps the homogeneous vertices
    of that polygon or enumeration in a private slot (`_kept`), which
    `_bounded_vertices` returns.  The slot is no field: equality, hashing,
    `repr` and JSON do not see it, and a cell built any other way (by hand,
    from JSON, by `dataclasses.replace`) has none.
    """

    dimension: int
    constraints: tuple
    witness: Optional[Vector] = None

    def __post_init__(self):
        for h in self.constraints:
            if h.dimension != self.dimension:
                raise GeometryError("constraint dimension mismatch")
        if self.witness is not None:
            w = as_vector(self.witness)
            object.__setattr__(self, "witness", w)
            z = _homogeneous(w)
            if any(_slack(h.int_row, z) <= 0 for h in self.constraints):
                raise GeometryError("witness is not strictly interior")

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        """Whether every constraint holds at the rational `point` (a float
        raises TypeError), strictly when `strict`: `_slack` on the rows."""
        z = _homogeneous(as_vector(point))
        if len(z) != self.dimension + 1:
            raise GeometryError("point dimension mismatch")
        if strict:
            return all(_slack(h.int_row, z) > 0 for h in self.constraints)
        return all(_slack(h.int_row, z) >= 0 for h in self.constraints)

    def constraint_keys(self) -> frozenset:
        return frozenset(h.int_row for h in self.constraints)

    def to_json(self) -> dict:
        """The dimension, the constraints sorted on their integer rows and
        the witness, if any."""
        out = {
            "dimension": self.dimension,
            "constraints": [h.to_json() for h in sorted(self.constraints, key=lambda h: h.int_row)],
        }
        if self.witness is not None:
            out["witness"] = format_vector(self.witness)
        return out

    @classmethod
    def from_json(cls, data: dict, decode_label=lambda x: x) -> "ConvexCell":
        return cls(
            data["dimension"],
            tuple(Halfspace.from_json(h, decode_label) for h in data["constraints"]),
            parse_vector(data["witness"]) if "witness" in data else None,
        )


def box_cell(lower, upper, dimension: int) -> ConvexCell:
    """Axis-aligned box [lower, upper]^dimension."""
    lo, hi = as_rational(lower), as_rational(upper)
    if not lo < hi:
        raise GeometryError("box needs lower < upper")
    rows = []
    for k in range(dimension):
        # x_k <= p / q is the primitive row (q e_k, p), and -x_k <= -p / q
        # is (-q e_k, -p): p / q is in lowest terms.
        for end, sign in ((hi, 1), (lo, -1)):
            row = [0] * (dimension + 1)
            row[k], row[-1] = sign * index(end.denominator), sign * index(end.numerator)
            rows.append(Halfspace(tuple(row)))
    mid = tuple((lo + hi) / 2 for _ in range(dimension))
    return ConvexCell(dimension, tuple(rows), witness=mid)


# --------------------------------------------------------------------------
# Integer rows and homogeneous points
# --------------------------------------------------------------------------
#
# The kernel runs on Python ints.  A row (a_1, ..., a_d, b) means a . x <= b;
# a point is homogeneous, (p_1, ..., p_d, w) with w > 0 standing for p / w.

def _homogeneous(point: Sequence) -> tuple:
    """Rational point -> (p_1, ..., p_d, w) with w the lcm of the denominators.

    Reads only `.numerator`, `.denominator` and `__index__`, so it takes
    ints, `fractions.Fraction` and gmpy2 `mpq` alike.
    """
    dens = [index(c.denominator) for c in point]
    w = math.lcm(*dens)
    return tuple(index(c.numerator) * (w // q) for c, q in zip(point, dens)) + (w,)


def _slack(row: tuple, point: tuple) -> int:
    """b * w - a . p: the slack b - a . x of the integer row (a, b) at the
    homogeneous point (p, w), x = p / w, times w > 0.  The one slack of the
    library: every point test reads its sign."""
    return row[-1] * point[-1] - sum(map(mul, row, point[:-1]))


def _int_vector(values) -> tuple:
    """Rationals scaled by the lcm of their denominators, as ints."""
    return _homogeneous(values)[:-1]


def _rational_point(point: tuple) -> Vector:
    w = point[-1]
    return tuple(Rational(p, w) for p in point[:-1])


def _box_bound(rows, d: int) -> int:
    # Any basic solution of any subsystem has coordinates that are ratios of
    # integer determinants of the rows; Hadamard bounds those determinants,
    # so every vertex lies strictly inside this box.  The rows must be the
    # lcm-scaled ones (`_int_vector`): the bound, and with it where the box
    # cuts off an unbounded cell, depends on their entries.
    biggest = max(map(abs, chain.from_iterable(rows)), default=1)
    return (max(biggest, 1) * (d + 1)) ** (d + 1) + 1


def _project_row(g: tuple, pivot: tuple, k: int) -> tuple:
    """The row `g` on the hyperplane of `pivot` (a . x = b), x_k eliminated.

    Fraction-free: |a_k| * g - sign(a_k) * g_k * pivot, then divided by the
    gcd; a row without x_k only loses that entry.  A vector of length d (an
    objective) is projected without offset.
    """
    ak = pivot[k]
    f = g[k] if ak > 0 else -g[k]
    if f == 0:
        return g[:k] + g[k + 1:]
    m = abs(ak)
    out = [m * x - f * y for x, y in zip(g, pivot)]
    del out[k]
    gcd = math.gcd(*out)
    if gcd > 1:
        out = [x // gcd for x in out]
    return tuple(out)


# --------------------------------------------------------------------------
# Redundancy and vertex enumeration
# --------------------------------------------------------------------------

def _one_row_per_direction(rows) -> list:
    """Indices, ascending, of one integer row (a_1, ..., a_d, b) per primitive
    normal direction: the tightest, the one with the smallest offset b over
    the gcd of its normal, and the first of them on ties.

    Of rows sharing a direction only the tightest can be a facet of their
    intersection, and it binds wherever a looser one would, so the kept
    rows cut out the same cell.  Equal rows keep their first occurrence.
    """
    # primitive normal direction -> (index, offset b, gcd g) of the row with
    # the smallest b / g so far; a row with a larger one is strictly redundant.
    tightest: dict = {}
    for i, row in enumerate(rows):
        normal = row[:-1]
        g = math.gcd(*normal)
        key = normal if g == 1 else tuple(c // g for c in normal)
        best = tightest.get(key)
        if best is None or row[-1] * best[2] < best[1] * g:
            tightest[key] = (i, row[-1], g)
    return sorted(i for i, _, _ in tightest.values())


def _vertices(rows, d: int) -> list:
    """Homogeneous vertices (p_1, ..., p_d, w), w > 0, of what the integer
    rows (a_1, ..., a_d, b) leave of the cube |x_j| <= `_box_bound(rows, d)`,
    which holds every vertex of every subsystem strictly inside (none when
    the rows leave nothing), each with its tight set as bits: 2j and 2j + 1
    for the cube's facets x_j <= bound and -x_j <= bound, 2d + i for rows[i].

    The double description method (Motzkin, Raiffa, Thompson & Thrall 1953;
    Fukuda & Prodon 1996) cuts the cube by each row in turn: the vertices
    where its slack is >= 0 stay, tight on it where it is 0, and each edge
    from a vertex u with slack s_u > 0 to one v with s_v < 0 is cut at
    (s_u * v - s_v * u) / gcd, as `_clip_polygon` cuts, tight on the edge's
    rows and the row.  u and v span an edge exactly when no third vertex is
    tight on every row both are (the combinatorial test); an edge's rows
    have rank d - 1, so there are at least d - 1.
    """
    bound = _box_bound(rows, d)
    vertices = [
        (tuple(s * bound for s in signs) + (1,), sum(1 << 2 * j + (s < 0) for j, s in enumerate(signs)))
        for signs in product((1, -1), repeat=d)
    ]
    for i, row in enumerate(rows):
        bit = 1 << 2 * d + i
        slacks = [_slack(row, p) for p, _ in vertices]
        tights = [t for _, t in vertices]
        outside = [(q, tq, sq) for (q, tq), sq in zip(vertices, slacks) if sq < 0]
        kept = []
        for (p, t), s in zip(vertices, slacks):
            if s == 0:
                kept.append((p, t | bit))
            elif s > 0:
                kept.append((p, t))
                for q, tq, sq in outside:
                    common = t & tq
                    if common.bit_count() >= d - 1 and [c & common for c in tights].count(common) == 2:
                        cut = [s * y - sq * x for x, y in zip(p, q)]
                        g = math.gcd(*cut)
                        kept.append((tuple(c // g for c in cut), common | bit))
        if not kept:
            return []
        vertices = kept
    return vertices


def _rank(vectors) -> int:
    """The rank of integer vectors, by fraction-free Gaussian elimination:
    each vector is reduced by the pivots found so far and, when anything is
    left of it, becomes a pivot."""
    pivots = []  # (column k, vector): zero in the columns of the pivots before it
    for v in vectors:
        for k, p in pivots:
            f = v[k]
            if f:
                v = [p[k] * a - f * b for a, b in zip(v, p)]
        k = next((k for k, c in enumerate(v) if c), None)
        if k is not None:
            g = math.gcd(*v)
            pivots.append((k, [c // g for c in v]))
            if len(pivots) == len(v):
                break
    return len(pivots)


def _clip_polygon(rows) -> list:
    """Homogeneous vertices (x, y, w), w > 0, counterclockwise, of what the
    integer rows (a_1, a_2, b) leave of the box |x_j| <= `_box_bound(rows,
    2)`, which holds every meet of two rows strictly inside, clipped by each
    row in turn (Sutherland & Hodgman, 1974), each with its tight set as
    bits, numbered as `_vertices` numbers them: 2j and 2j + 1 for the box's
    sides x_j <= bound and -x_j <= bound, 4 + i for rows[i].

    An edge p -> q with slacks of opposite signs is cut at (s_p * q - s_q *
    p) / gcd: the meet of two rows, its bits bounded by theirs and not by
    the clipping depth.  The cut is tight on the row and on the rows tight
    at both p and q, the edge's line: a row tight at a point strictly inside
    the edge, with p and q on its side, holds the whole edge.  A vertex that
    stays with slack 0 gains the row's bit.  So each vertex's bits are
    exactly the rows and box sides through it."""
    bound = _box_bound(rows, 2)
    polygon = [
        ((-bound, -bound, 1), 0b1010),
        ((bound, -bound, 1), 0b1001),
        ((bound, bound, 1), 0b0101),
        ((-bound, bound, 1), 0b0110),
    ]
    for i, (a1, a2, b) in enumerate(rows):
        bit = 1 << 4 + i
        slacks = [b * w - a1 * x - a2 * y for (x, y, w), _ in polygon]
        if min(slacks) >= 0:
            if 0 in slacks:
                polygon = [(p, t | bit if s == 0 else t) for (p, t), s in zip(polygon, slacks)]
            continue
        clipped = []
        last, sp = polygon[-1], slacks[-1]
        for vertex, sq in zip(polygon, slacks):  # the edge last -> vertex
            if sp * sq < 0:
                (p, tp), (q, tq) = last, vertex
                x, y, w = sp * q[0] - sq * p[0], sp * q[1] - sq * p[1], sp * q[2] - sq * p[2]
                g = math.gcd(x, y, w) if sp > 0 else -math.gcd(x, y, w)  # w > 0
                clipped.append(((x // g, y // g, w // g), tp & tq | bit))
            if sq > 0:
                clipped.append(vertex)
            elif sq == 0:
                clipped.append((vertex[0], vertex[1] | bit))
            last, sp = vertex, sq
        if not clipped:
            return []
        polygon = clipped
    return polygon


def _interval_ends(rows) -> Optional[tuple]:
    """(lo, hi), the ends of {x : a x <= b for every integer row (a, b)},
    a != 0, each (numerator, denominator > 0) or None where infinite; None
    when that interval has empty interior."""
    lo = hi = None
    for a, b in rows:
        if a > 0:
            if hi is None or b * hi[1] < hi[0] * a:
                hi = (b, a)
        elif lo is None or b * lo[1] < lo[0] * a:  # b / a > lo, with a < 0
            lo = (-b, -a)
    if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return None
    return lo, hi


def _interval_witness(rows) -> Optional[Vector]:
    """(x,) for x the simplest rational (`simplest_between`) strictly inside
    the interval of the integer rows (a, b) (`_interval_ends`), or None when
    that interval has empty interior."""
    ends = _interval_ends(rows)
    return None if ends is None else (simplest_between(*ends),)


def _polygon_witness(vertices, rows) -> Optional[Vector]:
    """(x_1, x_2) inside the polygon of `_clip_polygon`'s `vertices` (each
    a homogeneous point and its tight bits), cut out by the integer `rows`
    (a_1, a_2, b): x_1 the simplest rational strictly between the vertices'
    least and greatest x, x_2 the simplest strictly inside the vertical
    chord at x_1.  None when there is no vertex or either range is empty,
    that is when the polygon has empty interior.

    Where the cell is unbounded, the clip's box reaches more than 1 beyond
    each finite end of the cell's projection (the meet of two rows, or b / a
    of a vertical row), and the simplest rational of a half-infinite range
    is 0 or the integer next to its end: x_1 is the same as over the true
    projection.  A vertical row holds strictly at x_1, inside the vertices'
    range, so the chord (`_slice`) drops it.
    """
    if not vertices:
        return None
    lo = hi = vertices[0][0]
    for v, _ in vertices[1:]:
        if v[0] * lo[2] < lo[0] * v[2]:
            lo = v
        elif v[0] * hi[2] > hi[0] * v[2]:
            hi = v
    if lo[0] * hi[2] >= hi[0] * lo[2]:
        return None
    x = simplest_between((lo[0], lo[2]), (hi[0], hi[2]))
    chord = _interval_witness(_slice(rows, x, 2))
    return None if chord is None else (x, *chord)


def _slice(rows, x, d: int) -> list:
    """The integer rows of the slice at x_1 = x = p / q of the cell cut out
    by the integer rows (a_1, ..., a_d, b): each row on the hyperplane
    q x_1 = p, x_1 eliminated (`_project_row`).  A row left with no normal
    is dropped: x is strictly inside the cell's x_1-range, where such a row
    holds strictly."""
    pivot = (index(x.denominator),) + (0,) * (d - 1) + (index(x.numerator),)
    return [_project_row(row, pivot, 0) for row in rows if any(row[1:-1])]


def _vertex_witness(vertices, rows, d: int) -> Optional[Vector]:
    """(x_1, ..., x_d) inside the cell of the `_vertices` `vertices`, d >= 3,
    cut out by the integer `rows` (a_1, ..., a_d, b): x_1 the simplest
    rational strictly inside the cell's x_1-range, then the canonical point
    of its slice at x_1 (`_slice`); None when the cell has empty interior.

    The range's ends are the vertices' least and greatest x_1, but an end
    whose vertices all lie on one facet of the cube is unbounded: at a
    finite end the cell's face holds a meet of rows, strictly inside the
    cube, and at an end where the cube cuts the cell off every point of the
    face lies on the cube's boundary, so on one facet of it.
    """
    if not vertices:
        return None
    cube = (1 << 2 * d) - 1
    lo = hi = vertices[0][0]
    for v, _ in vertices[1:]:
        if v[0] * lo[-1] < lo[0] * v[-1]:
            lo = v
        elif v[0] * hi[-1] > hi[0] * v[-1]:
            hi = v
    if lo[0] * hi[-1] >= hi[0] * lo[-1]:
        return None
    ends = []
    for end in (lo, hi):
        tight = reduce(and_, (t for v, t in vertices if v[0] * end[-1] == end[0] * v[-1]))
        ends.append(None if tight & cube else (end[0], end[-1]))
    x = simplest_between(*ends)
    rest = _canonical_point(_slice(rows, x, d), d - 1)
    return None if rest is None else (x, *rest)


def _canonical_point(rows, d: int) -> Optional[Vector]:
    """The canonical point of the cell cut out by the integer rows (a_1,
    ..., a_d, b), each with a != 0, or None when that cell has empty
    interior: x_1 the simplest rational (`simplest_between`) strictly inside
    the cell's x_1-range, then the canonical point of the cell's slice at
    x_1, a cell of one dimension less.  The whole space, with no rows, has
    the origin.

    - d = 1: the interval's (`_interval_witness`).
    - d = 2: `_polygon_witness` on `_clip_polygon`'s polygon.
    - d >= 3: `_vertex_witness` on the cell's `_vertices`.

    The range, the slice and with them the point depend on the cell alone,
    not on redundant rows or on the rows' order.  No LP runs.
    """
    if d == 1:
        return _interval_witness(rows)
    if d == 2:
        return _polygon_witness(_clip_polygon(rows), rows)
    return _vertex_witness(_vertices(rows, d), rows, d)


def _has_interior(rows) -> bool:
    """Whether some point strictly satisfies every one of the nonempty
    integer rows (a_1, ..., a_d, b), each with a != 0, with no LP: read off
    the interval's two ends in d = 1 (`_interval_ends`), off the clipped
    polygon in d = 2 (`_has_area`), and in d >= 3 off the cell's
    `_vertices`, which have rank d + 1 exactly when it has interior."""
    d = len(rows[0]) - 1
    if d == 1:
        return _interval_ends(rows) is not None
    if d == 2:
        return _has_area(_clip_polygon(rows))
    return _rank([v for v, _ in _vertices(rows, d)]) == d + 1


def _has_area(vertices) -> bool:
    """Whether three of `_clip_polygon`'s `vertices` are not on one line:
    the cross product n of the first vertex with the first other point is
    the line through both, and a vertex v is off it when n . v, the
    determinant of the three, is nonzero.  The clip is convex, so this is
    exactly when it has interior."""
    if not vertices:
        return False
    (x0, y0, w0), _ = vertices[0]
    lines = ((y0 * w - w0 * y, w0 * x - x0 * w, x0 * y - y0 * x) for (x, y, w), _ in vertices[1:])
    n = next((n for n in lines if any(n)), None)
    return n is not None and any(n[0] * x + n[1] * y + n[2] * w for (x, y, w), _ in vertices)


def _bounded_vertices(cell: ConvexCell) -> Optional[tuple]:
    """Homogeneous vertices (p_1, ..., p_d, w), w > 0, of the bounded
    `cell`, read off the construction its facets come from: the interval's
    two ends in d = 1 (`_interval_ends`), `_clip_polygon`'s polygon in d = 2
    and the cell's `_vertices` in d >= 3.  A vertex may repeat.  A cell
    that `regions.compute_vertex_cell` built keeps the vertices of that
    construction (`_kept`), and they are returned as kept.

    None when the cell is unbounded: an end of the interval is infinite, or
    a vertex is tight on a side of the clip's box or a facet of `_vertices`'
    cube (`_inside_box`).  Both hold every vertex of a bounded cell strictly
    inside, and cut an unbounded one off at a face of the box.  () when the
    cell is empty, and in d = 1 when it has empty interior.
    """
    kept = getattr(cell, "_kept", None)
    if kept is not None:
        return kept
    d = cell.dimension
    rows = [h.int_row for h in cell.constraints]
    if d == 1:
        ends = _interval_ends(rows)
        if ends is None:
            return ()
        return None if None in ends else ends
    return _inside_box(_clip_polygon(rows) if d == 2 else _vertices(rows, d), d)


def _inside_box(vertices, d: int) -> Optional[tuple]:
    """The homogeneous points of the clip's or `_vertices`' `vertices`, or
    None when one of them is tight on the box (bits 0 to 2d - 1), that is
    when the cell they cut out is unbounded."""
    box = (1 << 2 * d) - 1
    return None if any(t & box for _, t in vertices) else tuple(v for v, _ in vertices)


# --------------------------------------------------------------------------
# 2D utilities
# --------------------------------------------------------------------------

def polygon_vertices(cell: ConvexCell) -> list:
    """Ordered vertex cycle of a 2D cell (empty if zero area), counterclockwise
    from the least angle in (-pi, pi] around the exact centroid: the vertices
    of `_clip_polygon` but those on its box, where an unbounded cell leaves it."""
    if cell.dimension != 2:
        raise GeometryError("polygon_vertices needs a 2D cell")
    rows = [h.int_row for h in cell.constraints]
    vertices = [_rational_point(v) for v, t in _clip_polygon(rows) if not t & 0b1111]
    if len(vertices) < 3 or polygon_area(vertices) == 0:
        return []
    cx = sum((p[0] for p in vertices), ZERO) / len(vertices)
    cy = sum((p[1] for p in vertices), ZERO) / len(vertices)

    def half(p):
        # 0 for angles in (-pi, 0], 1 for (0, pi]: going counterclockwise
        # around the centroid, the cycle passes from 1 to 0 exactly once.
        x, y = p[0] - cx, p[1] - cy
        return 0 if y < 0 or (y == 0 and x > 0) else 1

    start = next(i for i, p in enumerate(vertices) if half(p) == 0 and half(vertices[i - 1]) == 1)
    return vertices[start:] + vertices[:start]


def polygon_area(vertices) -> Any:
    """Exact shoelace area of an ordered vertex cycle."""
    total = ZERO
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total = total + (x1 * y2 - x2 * y1)
    return abs(total) / 2
