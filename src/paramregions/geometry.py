"""Exact low-dimensional halfspace geometry.

Halfspaces, convex cells, a Seidel-style randomized-incremental LP,
output-sensitive redundancy removal (Clarkson, for d >= 4), polygon
clipping (for d = 2, and on a row's plane for d = 3), a cell's canonical
point `_canonical_point` (its witness in every dimension: the simplest
rational point of an interval or a clipped polygon, with no LP, and above
d = 2 a simplest x_1 between two LP values, then the slice's point) and the
interior test `_has_interior` (with no LP in d <= 2: an interval, or a
clipped polygon with three vertices off one line; above, whether the cell
has a canonical point).
A halfspace is its primitive integer row; witnesses and LP results are
exact rationals.  The kernel underneath
(Seidel, the redundancy loop and its ray step, the clip and its witness,
the point tests) runs fraction-free on Python ints, on those rows and on
homogeneous points, where one slack (`_slack`) decides every point against
a row, and converts back to rationals only at this module's boundary.
Everything here is a pure function of its inputs; values are immutable
after construction and safe to share across threads.

Intended for small constant dimension (d <= ~6).  There is deliberately no
floating-point fast path: redundancy, adjacency and tie decisions are exactly
where floats silently corrupt output-sensitive enumeration.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index, mul
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
    they compare equal and hash alike, and it is what the LP kernel reads.
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
    polygon in d = 2, off a clip on each row's plane in d = 3 and out of
    Clarkson's redundancy removal in d >= 4; the witness is the cell's
    canonical point (`_canonical_point`) in every dimension.
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
# Linear programming: Seidel's randomized incremental algorithm
# --------------------------------------------------------------------------
#
# The kernel runs on Python ints.  A row (a_1, ..., a_d, b) means a . x <= b;
# a point is homogeneous, (p_1, ..., p_d, w) with w > 0 standing for p / w.
# Every step scales rows, objectives and points by positive factors only, so
# each sign test, each comparison and each choice of pivot is the one the
# same algorithm makes over rationals, and the optimum it returns is the
# same rational point.

@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: Optional[Vector] = None
    value: Optional[Any] = None


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


def solve_lp(objective, constraints, sense: str = "max") -> LPResult:
    """Exact optimum of objective . x over the given halfspaces.

    Randomized incremental (Seidel-style): expected time linear in the
    constraint count for fixed dimension.  The insertion order is drawn
    from one fixed `random.Random(0)`, like every LP of the library, so a
    call returns the same point every time; where an optimal face is more
    than a vertex, that order picks the point, never the value.
    """
    obj = as_vector(objective)
    d = len(obj)
    if d < 1:
        raise GeometryError("dimension must be >= 1")
    for h in constraints:
        if h.dimension != d:
            raise GeometryError("constraint dimension mismatch")
    if sense not in ("max", "min"):
        raise GeometryError("sense must be 'max' or 'min'")
    int_obj = _int_vector(obj)
    if sense == "min":
        int_obj = tuple(-c for c in int_obj)
    rows = [h.int_row for h in constraints]
    status, point = _solve_raw(int_obj, rows, random.Random(0), _box_bound(rows, d))
    if status != "optimal":
        return LPResult(status)
    point = _rational_point(point)
    return LPResult("optimal", point, dot(obj, point))


def _solve_raw(obj: tuple, rows: list, rng: random.Random, bound: int) -> tuple:
    """Maximize obj . x over integer rows: (status, homogeneous optimum or None).

    The rows are inserted in an order shuffled by `rng`.  `bound` is a
    `_box_bound` of the rows or of any superset of them: the LP runs inside
    the box |x_j| <= bound.
    """
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = [rows[i] for i in order]
    point = _seidel(obj, shuffled, bound)
    if point is None:
        return "infeasible", None
    edge = bound * point[-1]
    if any(p == edge or p == -edge for p in point[:-1]):
        # The box is active; decide bounded vs unbounded via the recession
        # cone (feasible by construction: the origin direction).
        ray = _seidel(obj, [row[:-1] + (0,) for row in shuffled], 1)
        if sum(map(mul, obj, ray)) > 0:
            return "unbounded", None
    return "optimal", point


def _box_bound(rows, d: int) -> int:
    # Any basic solution of any subsystem has coordinates that are ratios of
    # integer determinants of the rows; Hadamard bounds those determinants,
    # so every vertex lies strictly inside this box.  The rows must be the
    # lcm-scaled ones (`_int_vector`): the bound, and with it the point
    # returned on an optimal face, depends on their entries.
    biggest = max(map(abs, chain.from_iterable(rows)), default=1)
    return (max(biggest, 1) * (d + 1)) ** (d + 1) + 1


def _seidel(obj: tuple, rows: list, bound: int) -> Optional[tuple]:
    """Homogeneous optimum of obj . x over the rows inside the box
    |x_j| <= bound, None when infeasible."""
    d = len(obj)
    if d == 1:
        # lo = lo_n / lo_d and hi = hi_n / hi_d, denominators positive.
        lo_n, lo_d, hi_n, hi_d = -bound, 1, bound, 1
        for a, b in rows:
            if a > 0:
                if b * hi_d < hi_n * a:
                    hi_n, hi_d = b, a
            elif a < 0:
                if b * lo_d < lo_n * a:  # b / a > lo, with a < 0
                    lo_n, lo_d = -b, -a
            elif b < 0:
                return None
        if lo_n * hi_d > hi_n * lo_d:
            return None
        return (lo_n, lo_d) if obj[0] < 0 else (hi_n, hi_d)

    point = tuple(bound if c >= 0 else -bound for c in obj) + (1,)
    p, w = point[:-1], 1
    for idx, row in enumerate(rows):
        if sum(map(mul, row, p)) <= row[-1] * w:
            continue
        mags = [abs(c) for c in row[:-1]]
        top = max(mags)
        if top == 0:
            return None  # 0 <= b fails
        # The optimum of the prefix lies on this constraint's hyperplane:
        # eliminate the largest-coefficient variable and recurse.
        k = mags.index(top)
        unit = [0] * d + [bound]
        unit[k] = 1
        sub_rows = [_project_row(tuple(unit), row, k)]
        unit[k] = -1
        sub_rows.append(_project_row(tuple(unit), row, k))
        sub_rows.extend(_project_row(r, row, k) for r in rows[:idx])
        sub = _seidel(_project_row(obj, row, k), sub_rows, bound)
        if sub is None:
            return None
        point = _lift(sub, k, row)
        p, w = point[:-1], point[-1]
    return point


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


def _lift(sub: tuple, k: int, pivot: tuple) -> tuple:
    """Homogeneous point of the pivot's hyperplane whose coordinates other
    than x_k are the sub-LP's point `sub`."""
    w = sub[-1]
    q = sub[:-1]
    ak = pivot[k]
    xk = pivot[-1] * w - sum(map(mul, pivot[:k] + pivot[k + 1:-1], q))
    if ak < 0:
        ak, xk = -ak, -xk
    point = [c * ak for c in q]
    point.insert(k, xk)
    point.append(w * ak)
    gcd = math.gcd(*point)
    if gcd > 1:
        point = [c // gcd for c in point]
    return tuple(point)


# --------------------------------------------------------------------------
# Clarkson redundancy removal
# --------------------------------------------------------------------------

def _one_row_per_direction(rows) -> list:
    """Indices, ascending, of one integer row (a_1, ..., a_d, b) per primitive
    normal direction: the tightest, the one with the smallest offset b over
    the gcd of its normal, and the first of them on ties.

    Of rows sharing a direction only the tightest can be a facet of their
    intersection, and it binds wherever a looser one would, so an LP over
    the kept rows has the same feasible set.  Equal rows keep their first
    occurrence.
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


def _clarkson_indices(constraints, z: Vector) -> list:
    """Ascending indices of the non-redundant `constraints`, which hold one
    row per normal direction (`_one_row_per_direction`) and strictly hold
    at `z`.  The tightest row of a direction has the least slack of them
    all, so `z` then strictly satisfies the rows that were filtered out too.

    One pass: every relaxed LP draws its insertion order from one fixed
    `random.Random(0)` and runs in one box, the `_box_bound` of all the
    rows and their relaxed copies, which bounds each LP's own rows.  The
    non-redundant set is unique, so neither choice changes the result.
    """
    if not constraints:
        return []
    z = _homogeneous(z)
    rows = [h.int_row for h in constraints]
    if any(_slack(row, z) <= 0 for row in rows):
        raise GeometryError("interior point is not strictly feasible")
    # normal . x <= offset + 1, scaled like the row: by |its first nonzero
    # entry|, which `Halfspace.normal` divides by.
    relaxed = [row[:-1] + (row[-1] + next(abs(c) for c in row if c),) for row in rows]
    bound = _box_bound(rows + relaxed, len(z) - 1)
    rng = random.Random(0)
    pending = deque(range(len(rows)))
    kept: list = []
    kept_set: set = set()
    while pending:
        k = pending.popleft()
        if k in kept_set:
            continue
        row = rows[k]
        lp_rows = [rows[i] for i in kept]
        lp_rows.append(relaxed[k])
        status, point = _solve_raw(row[:-1], lp_rows, rng, bound)
        if status != "optimal":  # pragma: no cover - cannot happen: z feasible, obj capped
            raise GeometryError("relaxed redundancy LP failed")
        if _slack(row, point) >= 0:
            continue  # redundant relative to the kept set, hence redundant
        j = _ray_first_index(rows, z, point)
        if j != k:
            pending.append(k)  # k stays undecided; only j is settled
        kept.append(j)
        kept_set.add(j)
    return sorted(kept)


def _ray_first_index(rows, z: tuple, x: tuple) -> Optional[int]:
    """Clarkson's ray step: the index of the first row hit by the ray from
    the homogeneous point z towards x, None when the ray escapes."""
    # Intersection parameter of the perturbed ray with hyperplane i is the
    # polynomial t_i(eps) = (slack_i - sum_j a_ij eps^j) / (a_i . (x - z));
    # the winner is the lexicographically smallest coefficient tuple.  With
    # integer rows and homogeneous z, x every coefficient of every t_i is
    # off by the same positive factor in each position, so the tuples
    # (slack, -a_1, ..., -a_d) / den compare by cross-multiplying.
    zw, xw = z[-1], x[-1]
    direction = tuple(p * zw - q * xw for p, q in zip(x[:-1], z[:-1]))
    best = None
    best_den = 1
    best_idx = None
    for i, row in enumerate(rows):
        den = sum(map(mul, row, direction))
        if den <= 0:
            continue
        coeffs = (_slack(row, z),) + tuple(-c for c in row[:-1])
        if best is None or tuple(c * best_den for c in coeffs) < tuple(c * den for c in best):
            best, best_den, best_idx = coeffs, den, i
    return best_idx


def _clip_polygon(rows) -> list:
    """Homogeneous vertices (x, y, w), w > 0, counterclockwise, of what the
    integer rows (a_1, a_2, b) leave of the box |x_j| <= `_box_bound(rows,
    2)`, which holds every meet of two rows strictly inside, clipped by each
    row in turn (Sutherland & Hodgman, 1974).  An edge p -> q with slacks of
    opposite signs is cut at (s_p * q - s_q * p) / gcd: the meet of two
    rows, its bits bounded by theirs and not by the clipping depth."""
    bound = _box_bound(rows, 2)
    polygon = [(-bound, -bound, 1), (bound, -bound, 1), (bound, bound, 1), (-bound, bound, 1)]
    for a1, a2, b in rows:
        slacks = [b * w - a1 * x - a2 * y for x, y, w in polygon]
        if min(slacks) >= 0:
            continue
        clipped = []
        for p, q, sp, sq in zip(polygon, polygon[1:] + polygon[:1], slacks, slacks[1:] + slacks[:1]):
            if sp >= 0:
                clipped.append(p)
            if sp * sq < 0:
                x, y, w = sp * q[0] - sq * p[0], sp * q[1] - sq * p[1], sp * q[2] - sq * p[2]
                g = math.gcd(x, y, w) if sp > 0 else -math.gcd(x, y, w)  # w > 0
                clipped.append((x // g, y // g, w // g))
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
    """(x_1, x_2) inside the polygon of `_clip_polygon`'s homogeneous
    `vertices`, cut out by the integer `rows` (a_1, a_2, b): x_1 the simplest
    rational strictly between the vertices' least and greatest x, x_2 the
    simplest strictly inside the vertical chord at x_1.  None when there is
    no vertex or either range is empty, that is when the polygon has empty
    interior.

    Where the cell is unbounded, the clip's box reaches more than 1 beyond
    each finite end of the cell's projection (the meet of two rows, or b / a
    of a vertical row), and the simplest rational of a half-infinite range
    is 0 or the integer next to its end: x_1 is the same as over the true
    projection.  A vertical row holds strictly at x_1, inside the vertices'
    range, so the chord (`_slice`) drops it.
    """
    if not vertices:
        return None
    lo = hi = vertices[0]
    for v in vertices[1:]:
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


def _canonical_point(rows, d: int) -> Optional[Vector]:
    """The canonical point of the cell cut out by the integer rows (a_1,
    ..., a_d, b), each with a != 0, or None when that cell has empty
    interior: x_1 the simplest rational (`simplest_between`) strictly inside
    the cell's x_1-range, then the canonical point of the cell's slice at
    x_1, a cell of one dimension less.  The whole space, with no rows, has
    the origin.

    - d = 1: the interval's (`_interval_witness`).
    - d = 2: `_polygon_witness` on `_clip_polygon`'s polygon.
    - d >= 3: the x_1-range's ends are the optimal values of two LPs, min
      and max x_1, and the slice's rows are `_slice`'s, as for
      `_polygon_witness`'s chord.

    The range, the slice and with them the point depend on the cell alone:
    not on redundant rows, on the rows' order or on the LPs' insertion
    order, so those LPs draw from one fixed `random.Random(0)`.
    """
    if d == 1:
        return _interval_witness(rows)
    if d == 2:
        return _polygon_witness(_clip_polygon(rows), rows)
    ends = []
    bound = _box_bound(rows, d)
    for sign in (-1, 1):  # min x_1, then max x_1
        status, point = _solve_raw((sign,) + (0,) * (d - 1), rows, random.Random(0), bound)
        if status == "infeasible":
            return None
        ends.append(None if status == "unbounded" else (point[0], point[-1]))
    lo, hi = ends
    if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return None
    x = simplest_between(lo, hi)
    rest = _canonical_point(_slice(rows, x, d), d - 1)
    return None if rest is None else (x, *rest)


def _has_interior(rows) -> bool:
    """Whether some point strictly satisfies every one of the nonempty
    integer rows (a_1, ..., a_d, b), each with a != 0: read off the
    interval's two ends in d = 1 (`_interval_ends`) and off the clipped
    polygon in d = 2 (`_has_area`), with no LP; in d >= 3 the cell has
    interior exactly when it has a canonical point (`_canonical_point`)."""
    d = len(rows[0]) - 1
    if d == 1:
        return _interval_ends(rows) is not None
    if d == 2:
        return _has_area(_clip_polygon(rows))
    return _canonical_point(rows, d) is not None


def _has_area(vertices) -> bool:
    """Whether three of `_clip_polygon`'s homogeneous `vertices` are not on
    one line: the cross product n of the first vertex with the first other
    point is the line through both, and a vertex v is off it when n . v,
    the determinant of the three, is nonzero.  The clip is convex, so this
    is exactly when it has interior."""
    if not vertices:
        return False
    x0, y0, w0 = vertices[0]
    lines = ((y0 * w - w0 * y, w0 * x - x0 * w, x0 * y - y0 * x) for x, y, w in vertices[1:])
    n = next((n for n in lines if any(n)), None)
    return n is not None and any(n[0] * x + n[1] * y + n[2] * w for x, y, w in vertices)


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
    bound = _box_bound(rows, 2)
    vertices = [
        _rational_point(v) for v in _clip_polygon(rows) if max(abs(v[0]), abs(v[1])) < bound * v[2]
    ]
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
