"""Exact low-dimensional halfspace geometry.

Halfspaces, convex cells, a Seidel-style randomized-incremental LP,
output-sensitive redundancy removal and ray shooting.  A halfspace is its
primitive integer row; witnesses and LP results are exact rationals.  The LP
kernel underneath (Seidel, ray shooting, the redundancy loop) runs
fraction-free on Python ints, on those rows and on homogeneous points, and
converts back to rationals only at this module's boundary.  Everything here
is a pure function of its inputs; values are immutable after construction
and safe to share across threads.

Intended for small constant dimension (d <= ~6).  There is deliberately no
floating-point fast path: redundancy, adjacency and tie decisions are exactly
where floats silently corrupt output-sensitive enumeration.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from operator import index, mul
from typing import Any, Optional, Sequence

from .rationals import (
    Rational,
    ZERO,
    as_rational,
    as_vector,
    format_rational,
    format_vector,
    parse_vector,
)

Vector = tuple


class GeometryError(ValueError):
    """Raised on usage errors: dimension mismatches, bad witnesses, ..."""


def dot(a: Sequence, b: Sequence):
    total = ZERO
    for x, y in zip(a, b):
        total = total + x * y
    return total


def vector_add(a: Sequence, b: Sequence) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def scale_vector(c, a: Sequence) -> Vector:
    return tuple(c * x for x in a)


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

    def value(self, point: Sequence):
        return dot(self.normal, point)

    def slack(self, point: Sequence):
        return self.offset - dot(self.normal, point)

    def holds(self, point: Sequence, strict: bool = False) -> bool:
        s = self.slack(point)
        return s > 0 if strict else s >= 0

    def line_key(self) -> tuple:
        """Identity of the boundary hyperplane, the same for both of its
        sides: the row with its first nonzero entry positive."""
        return self.int_row if next(c for c in self.int_row if c) > 0 else self.flipped_key()

    def flipped_key(self) -> tuple:
        """The row of `flipped()`."""
        return tuple(-c for c in self.int_row)

    def flipped(self) -> "Halfspace":
        """The complementary halfspace boundary: {normal . x >= offset}."""
        return Halfspace(self.flipped_key(), self.label)

    def to_json(self) -> dict:
        out = {"normal": format_vector(self.normal), "offset": format_rational(self.offset)}
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
        return all(h.holds(point, strict) for h in self.constraints)

    def constraint_keys(self) -> frozenset:
        return frozenset(h.int_row for h in self.constraints)

    def map_labels(self, f) -> "ConvexCell":
        """The same cell with every facet label passed through `f`; facets
        without a label keep none."""
        constraints = (h if h.label is None else Halfspace(h.int_row, f(h.label)) for h in self.constraints)
        return ConvexCell(self.dimension, tuple(constraints), self.witness)

    def to_json(self) -> dict:
        out = {
            "dimension": self.dimension,
            "constraints": [h.to_json() for h in _sorted_constraints(self.constraints)],
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


def _sorted_constraints(constraints):
    # On the rational view, not on `int_row`: the two orders differ, and
    # the JSON output keeps this one.
    return sorted(constraints, key=lambda h: (h.normal, h.offset))


def box_cell(lower, upper, dimension: int) -> ConvexCell:
    """Axis-aligned box [lower, upper]^dimension."""
    lo, hi = as_rational(lower), as_rational(upper)
    if not lo < hi:
        raise GeometryError("box needs lower < upper")
    rows = []
    for k in range(dimension):
        unit = tuple(ZERO if j != k else Rational(1) for j in range(dimension))
        rows.append(Halfspace.from_rationals(unit, hi))
        rows.append(Halfspace.from_rationals(tuple(-c for c in unit), -lo))
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


def _int_vector(values) -> tuple:
    """Rationals scaled by the lcm of their denominators, as ints."""
    return _homogeneous(values)[:-1]


def _rational_point(point: tuple) -> Vector:
    w = point[-1]
    return tuple(Rational(p, w) for p in point[:-1])


def solve_lp(objective, constraints, sense: str = "max", seed: int = 0) -> LPResult:
    """Exact optimum of objective . x over the given halfspaces.

    Randomized incremental (Seidel-style): expected time linear in the
    constraint count for fixed dimension, deterministic for a fixed seed.
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
    status, point = _solve_raw(int_obj, rows, random.Random(seed), _box_bound(rows, d))
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
    biggest = max((abs(c) for row in rows for c in row), default=1)
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
# Interior points, ray shooting, Clarkson redundancy removal
# --------------------------------------------------------------------------

def find_interior_point(constraints, seed: int = 0) -> Optional[Vector]:
    """A point strictly satisfying every `Halfspace` in `constraints`, or None
    if the feasible region has empty interior.

    Solved via the auxiliary slack LP over the rows (a, b): maximize t
    subject to a . x + t * ||a||_1 <= b (and t <= 1 to keep it bounded).
    """
    if not constraints:
        raise GeometryError("need at least one constraint")
    d = constraints[0].dimension
    if any(h.dimension != d for h in constraints):
        raise GeometryError("constraint dimension mismatch")
    return _interior_point_rows([h.int_row for h in constraints], seed)


def _interior_point_rows(rows: list, seed: int) -> Optional[Vector]:
    """`find_interior_point` on nonempty integer rows (a_1, ..., a_d, b)."""
    d = len(rows[0]) - 1
    lp_rows = [row[:-1] + (sum(map(abs, row[:-1])), row[-1]) for row in rows]
    unit_t = (0,) * d + (1,)
    lp_rows.append(unit_t + (1,))
    status, point = _solve_raw(unit_t, lp_rows, random.Random(seed), _box_bound(lp_rows, d + 1))
    if status != "optimal" or point[d] <= 0:
        return None
    return _rational_point(point[:d] + point[-1:])


def ray_shoot(constraints, origin, target):
    """Label of the first constraint hyperplane hit by the ray from `origin`
    towards `target`.

    Ties (the ray passing through a face of dimension < d-1) are resolved by
    the symbolic perturbation origin -> origin + (eps, eps^2, ..., eps^d),
    evaluated lexicographically; no concrete epsilon is ever chosen.  Returns
    None when the ray escapes without hitting any hyperplane.
    """
    z = _homogeneous(as_vector(origin))
    x = _homogeneous(as_vector(target))
    rows = [h.int_row for h in constraints]
    if any(_slack(row, z) <= 0 for row in rows):
        raise GeometryError("ray origin must be strictly interior")
    idx = _ray_first_index(rows, z, x)
    return None if idx is None else constraints[idx].label


def _slack(row: tuple, point: tuple) -> int:
    """b * w - a . p: positive multiple of the row's slack at the point."""
    return row[-1] * point[-1] - sum(map(mul, row, point[:-1]))


def _ray_first_index(rows, z: tuple, x: tuple) -> Optional[int]:
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


def clarkson_reduce(constraints, interior, seed: int = 0) -> tuple:
    """The non-redundant subset of `constraints` (Clarkson's algorithm).

    `interior` must strictly satisfy every `Halfspace` in `constraints`.
    Of the constraints with one normal direction only the tightest can be a
    facet, so the LPs see one row per direction (`_one_row_per_direction`):
    the one with the smallest offset, the first of them on ties (geometric
    duplicates, equal rows, keep their first occurrence).
    Runs O(k) relaxed LPs over those, each over the non-redundant set found
    so far.
    """
    uniq = _one_row_per_direction([h.int_row for h in constraints])
    indices = _clarkson_indices([constraints[i] for i in uniq], as_vector(interior), seed)
    return tuple(constraints[uniq[i]] for i in indices)


def _clarkson_indices(constraints, z: Vector, seed: int) -> list:
    """Ascending indices of the non-redundant `constraints`, which hold one
    row per normal direction (`_one_row_per_direction`) and strictly hold
    at `z`.  The tightest row of a direction has the least slack of them
    all, so `z` then strictly satisfies the rows that were filtered out too.

    One pass: every relaxed LP draws its insertion order from one
    `random.Random(seed)` and runs in one box, the `_box_bound` of all the
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
    rng = random.Random(seed)
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


# --------------------------------------------------------------------------
# Sampling and 2D utilities
# --------------------------------------------------------------------------

def sample_interior(cell: ConvexCell, count: int, seed: int = 0) -> list:
    """Strictly interior rational points of a bounded cell (hit-and-run walk).

    Points are snapped back to a coarse rational grid whenever the snapped
    point is still strictly interior, so coordinate bit-size stays bounded
    along the walk.
    """
    if cell.witness is None:
        raise GeometryError("cell has no witness")
    rng = random.Random(seed)
    d = cell.dimension
    current = cell.witness
    points = []
    while len(points) < count:
        direction = tuple(Rational(rng.randint(-9, 9)) for _ in range(d))
        if all(c == 0 for c in direction):
            continue
        t_max = None
        for h in cell.constraints:
            den = dot(h.normal, direction)
            if den > 0:
                t = h.slack(current) / den
                if t_max is None or t < t_max:
                    t_max = t
        if t_max is None:
            t_max = Rational(1)
        lam = Rational(rng.randint(1, 999), 1000)
        current = vector_add(current, scale_vector(lam * t_max, direction))
        snapped = tuple(Rational(round(float(c) * 10**9), 10**9) for c in current)
        if cell.contains(snapped, strict=True):
            current = snapped
        points.append(current)
        if len(points) % 16 == 0:
            current = cell.witness
    return points


def solve_2x2(a1, b1, a2, b2) -> Optional[Vector]:
    """Intersection point of two lines a1.x=b1, a2.x=b2 in 2D, None if parallel."""
    det = a1[0] * a2[1] - a1[1] * a2[0]
    if det == 0:
        return None
    x = (b1 * a2[1] - b2 * a1[1]) / det
    y = (a1[0] * b2 - a2[0] * b1) / det
    return (x, y)


def polygon_vertices(cell: ConvexCell) -> list:
    """Ordered vertex cycle of a bounded 2D cell (empty if zero area)."""
    if cell.dimension != 2:
        raise GeometryError("polygon_vertices needs a 2D cell")
    rows = [(h.normal, h.offset) for h in cell.constraints]
    vertices = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            pt = solve_2x2(rows[i][0], rows[i][1], rows[j][0], rows[j][1])
            if pt is None:
                continue
            if all(dot(n, pt) <= b for n, b in rows) and pt not in vertices:
                vertices.append(pt)
    if len(vertices) < 3:
        return []
    cx = sum((p[0] for p in vertices), ZERO) / len(vertices)
    cy = sum((p[1] for p in vertices), ZERO) / len(vertices)

    def half(p):
        # 0 for angles in (-pi, 0], 1 for (0, pi]: within a half, two
        # directions are less than pi apart and a cross product orders them.
        x, y = p[0] - cx, p[1] - cy
        return 0 if y < 0 or (y == 0 and x > 0) else 1

    def by_angle(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return hp - hq
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    vertices.sort(key=cmp_to_key(by_angle))
    if polygon_area(vertices) == 0:
        return []
    return vertices


def polygon_area(vertices) -> Any:
    """Exact shoelace area of an ordered vertex cycle."""
    total = ZERO
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total = total + (x1 * y2 - x2 * y1)
    return abs(total) / 2
