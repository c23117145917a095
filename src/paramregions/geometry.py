"""Exact low-dimensional halfspace geometry.

Halfspaces, convex cells, a Seidel-style randomized-incremental LP,
output-sensitive redundancy removal and ray shooting, all over exact
rationals.  Everything here is a pure function of its inputs; values are
immutable after construction and safe to share across threads.

Intended for small constant dimension (d <= ~6).  There is deliberately no
floating-point fast path: redundancy, adjacency and tie decisions are exactly
where floats silently corrupt output-sensitive enumeration.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
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


def vector_sub(a: Sequence, b: Sequence) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vector_add(a: Sequence, b: Sequence) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def scale_vector(c, a: Sequence) -> Vector:
    return tuple(c * x for x in a)


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : normal . x <= offset} with an opaque label.

    The representation is normalized at construction: both sides are divided
    by the absolute value of the first nonzero normal coordinate, so equal
    halfspaces compare equal syntactically and can be hashed/deduplicated.
    """

    normal: Vector
    offset: Any
    label: Any = None

    def __post_init__(self):
        normal = as_vector(self.normal)
        offset = as_rational(self.offset)
        pivot = next((c for c in normal if c != 0), None)
        if pivot is None:
            raise GeometryError("halfspace normal must be nonzero")
        scale = 1 / abs(pivot)
        if scale != 1:
            normal = tuple(c * scale for c in normal)
            offset = offset * scale
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)

    @property
    def dimension(self) -> int:
        return len(self.normal)

    def value(self, point: Sequence):
        return dot(self.normal, point)

    def slack(self, point: Sequence):
        return self.offset - dot(self.normal, point)

    def holds(self, point: Sequence, strict: bool = False) -> bool:
        s = self.slack(point)
        return s > 0 if strict else s >= 0

    def key(self):
        """Geometric identity, ignoring the label."""
        return (self.normal, self.offset)

    def line_key(self):
        """Identity of the boundary hyperplane, the same for both of its
        sides: the key with the first nonzero normal coordinate positive."""
        lead = next(c for c in self.normal if c != 0)
        return self.key() if lead > 0 else self.flipped().key()

    def flipped(self) -> "Halfspace":
        """The complementary halfspace boundary: {normal . x >= offset}."""
        return Halfspace(tuple(-c for c in self.normal), -self.offset, self.label)

    def relabel(self, label) -> "Halfspace":
        return Halfspace(self.normal, self.offset, label)

    def to_json(self, encode_label=lambda x: x) -> dict:
        out = {"normal": format_vector(self.normal), "offset": format_rational(self.offset)}
        if self.label is not None:
            out["label"] = encode_label(self.label)
        return out

    @classmethod
    def from_json(cls, data: dict, decode_label=lambda x: x) -> "Halfspace":
        return cls(
            parse_vector(data["normal"]),
            as_rational(data["offset"]),
            decode_label(data["label"]) if "label" in data else None,
        )


@dataclass(frozen=True)
class ConvexCell:
    """Intersection of halfspaces, with an optional strictly interior witness.

    After `reduce_cell` the constraint list is minimal: removing any single
    constraint changes the solution set.
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
            if any(not h.holds(w, strict=True) for h in self.constraints):
                raise GeometryError("witness is not strictly interior")

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        return all(h.holds(point, strict) for h in self.constraints)

    def constraint_keys(self) -> frozenset:
        return frozenset(h.key() for h in self.constraints)

    def map_labels(self, f) -> "ConvexCell":
        """The same cell with every facet label passed through `f`; facets
        without a label keep none."""
        constraints = tuple(h if h.label is None else h.relabel(f(h.label)) for h in self.constraints)
        return ConvexCell(self.dimension, constraints, self.witness)

    def to_json(self, encode_label=lambda x: x) -> dict:
        out = {
            "dimension": self.dimension,
            "constraints": [h.to_json(encode_label) for h in _sorted_constraints(self.constraints)],
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
    return sorted(constraints, key=lambda h: (h.normal, h.offset))


def box_cell(lower, upper, dimension: int) -> ConvexCell:
    """Axis-aligned box [lower, upper]^dimension."""
    lo, hi = as_rational(lower), as_rational(upper)
    if not lo < hi:
        raise GeometryError("box needs lower < upper")
    rows = []
    for k in range(dimension):
        unit = tuple(ZERO if j != k else Rational(1) for j in range(dimension))
        rows.append(Halfspace(unit, hi))
        rows.append(Halfspace(tuple(-c for c in unit), -lo))
    mid = tuple((lo + hi) / 2 for _ in range(dimension))
    return ConvexCell(dimension, tuple(rows), witness=mid)


# --------------------------------------------------------------------------
# Linear programming: Seidel's randomized incremental algorithm
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: Optional[Vector] = None
    value: Optional[Any] = None


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
    rows = [(h.normal, h.offset) for h in constraints]
    if sense == "min":
        res = _solve_raw(tuple(-c for c in obj), rows, seed)
        if res.status != "optimal":
            return res
        return LPResult("optimal", res.point, -res.value)
    if sense != "max":
        raise GeometryError("sense must be 'max' or 'min'")
    return _solve_raw(obj, rows, seed)


def _solve_raw(obj: Vector, rows: list, seed: int) -> LPResult:
    d = len(obj)
    bound = _box_bound(rows, d)
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    shuffled = [rows[i] for i in order]
    point = _seidel(obj, shuffled, [(-bound, bound)] * d)
    if point is None:
        return LPResult("infeasible")
    if any(x == bound or x == -bound for x in point):
        # The box is active; decide bounded vs unbounded via the recession
        # cone (feasible by construction: the origin direction).
        ray = _seidel(obj, [(a, ZERO) for a, _ in shuffled], [(Rational(-1), Rational(1))] * d)
        if dot(obj, ray) > 0:
            return LPResult("unbounded")
    return LPResult("optimal", point, dot(obj, point))


def _box_bound(rows, d: int):
    # Any basic solution of any subsystem has coordinates that are ratios of
    # integer determinants once each row is scaled integral; Hadamard bounds
    # those determinants, so every vertex lies strictly inside this box.
    biggest = 1
    for normal, offset in rows:
        denom = math.lcm(*[int(c.denominator) for c in (*normal, offset)])
        for c in (*normal, offset):
            biggest = max(biggest, abs(int(c * denom)))
    return Rational((biggest * (d + 1)) ** (d + 1) + 1)


def _seidel(obj: Vector, rows: list, bounds: list) -> Optional[Vector]:
    d = len(obj)
    if d == 1:
        lo, hi = bounds[0]
        for (a,), b in rows:
            if a > 0:
                v = b / a
                if v < hi:
                    hi = v
            elif a < 0:
                v = b / a
                if v > lo:
                    lo = v
            elif b < 0:
                return None
        if lo > hi:
            return None
        if obj[0] < 0:
            return (lo,)
        return (hi,)

    point = [hi if c >= 0 else lo for c, (lo, hi) in zip(obj, bounds)]
    for idx, (normal, offset) in enumerate(rows):
        if all(c == 0 for c in normal):
            if offset < 0:
                return None
            continue
        if dot(normal, point) <= offset:
            continue
        # The optimum of the prefix lies on this constraint's hyperplane:
        # eliminate the largest-coefficient variable and recurse.
        k = max(range(d), key=lambda j: (abs(normal[j]), -j))
        unit = tuple(ZERO if j != k else Rational(1) for j in range(d))
        neg_unit = tuple(-c for c in unit)
        sub_rows = []
        for g, h in [(unit, bounds[k][1]), (neg_unit, -bounds[k][0])] + rows[:idx]:
            sub_rows.append(_project_row(g, h, normal, offset, k))
        sub_obj = _project_row(obj, ZERO, normal, offset, k)[0]
        sub_bounds = bounds[:k] + bounds[k + 1:]
        sub = _seidel(sub_obj, sub_rows, sub_bounds)
        if sub is None:
            return None
        point = _lift(sub, k, normal, offset)
    return tuple(point)


def _project_row(g: Sequence, h, normal: Vector, offset, k: int):
    # Substitute x_k = (offset - sum_{j != k} normal_j x_j) / normal_k.
    t = g[k] / normal[k]
    new_g = tuple(g[j] - t * normal[j] for j in range(len(normal)) if j != k)
    return new_g, h - t * offset


def _lift(sub: Sequence, k: int, normal: Vector, offset) -> list:
    point = list(sub[:k]) + [ZERO] + list(sub[k:])
    rest = sum((normal[j] * point[j] for j in range(len(normal)) if j != k), ZERO)
    point[k] = (offset - rest) / normal[k]
    return point


# --------------------------------------------------------------------------
# Interior points, ray shooting, Clarkson redundancy removal
# --------------------------------------------------------------------------

def find_interior_point(constraints, seed: int = 0) -> Optional[Vector]:
    """A point strictly satisfying every constraint, or None if the feasible
    region has empty interior.

    Solved via the auxiliary slack LP: maximize t subject to
    normal . x + t * ||normal||_1 <= offset (and t <= 1 to keep it bounded).
    """
    if not constraints:
        raise GeometryError("need at least one constraint")
    d = constraints[0].dimension
    rows = []
    for h in constraints:
        if h.dimension != d:
            raise GeometryError("constraint dimension mismatch")
        l1 = sum((abs(c) for c in h.normal), ZERO)
        rows.append((h.normal + (l1,), h.offset))
    rows.append((tuple([ZERO] * d + [Rational(1)]), Rational(1)))
    obj = tuple([ZERO] * d + [Rational(1)])
    res = _solve_raw(obj, rows, seed)
    if res.status != "optimal" or res.value <= 0:
        return None
    return res.point[:d]


def ray_shoot(constraints, origin, target):
    """Label of the first constraint hyperplane hit by the ray from `origin`
    towards `target`.

    Ties (the ray passing through a face of dimension < d-1) are resolved by
    the symbolic perturbation origin -> origin + (eps, eps^2, ..., eps^d),
    evaluated lexicographically; no concrete epsilon is ever chosen.  Returns
    None when the ray escapes without hitting any hyperplane.
    """
    z = as_vector(origin)
    x = as_vector(target)
    rows = [(h.normal, h.offset) for h in constraints]
    for normal, offset in rows:
        if offset - dot(normal, z) <= 0:
            raise GeometryError("ray origin must be strictly interior")
    idx = _ray_first_index(rows, z, x)
    return None if idx is None else constraints[idx].label


def _ray_first_index(rows, z: Vector, x: Vector) -> Optional[int]:
    # Intersection parameter of the perturbed ray with hyperplane i is the
    # polynomial t_i(eps) = (slack_i - sum_j a_ij eps^j) / (a_i . (x - z));
    # the winner is the lexicographically smallest coefficient tuple.
    direction = vector_sub(x, z)
    best = None
    best_idx = None
    for i, (normal, offset) in enumerate(rows):
        den = dot(normal, direction)
        if den <= 0:
            continue
        coeffs = (offset - dot(normal, z),) + tuple(-c for c in normal)
        t_poly = tuple(c / den for c in coeffs)
        if best is None or t_poly < best:
            best = t_poly
            best_idx = i
    return best_idx


def clarkson_reduce(constraints, interior, seed: int = 0) -> tuple:
    """The non-redundant subset of `constraints` (Clarkson's algorithm).

    `interior` must strictly satisfy every constraint.  Geometric duplicates
    (equal after normalization) are collapsed to their first occurrence, since
    each copy alone would count as redundant.  Runs O(k) relaxed LPs, each
    over the non-redundant set found so far.
    """
    indices = _clarkson_indices(constraints, as_vector(interior), seed)
    return tuple(constraints[i] for i in indices)


def _clarkson_indices(constraints, z: Vector, seed: int) -> list:
    if not constraints:
        return []
    seen = {}
    uniq = []
    for i, h in enumerate(constraints):
        if h.slack(z) <= 0:
            raise GeometryError("interior point is not strictly feasible")
        k = h.key()
        if k not in seen:
            seen[k] = i
            uniq.append(i)
    rows = [(constraints[i].normal, constraints[i].offset) for i in uniq]
    rng = random.Random(seed)
    pending = deque(range(len(rows)))
    kept: list = []
    kept_set: set = set()
    while pending:
        k = pending.popleft()
        if k in kept_set:
            continue
        normal_k, offset_k = rows[k]
        lp_rows = [rows[i] for i in kept]
        lp_rows.append((normal_k, offset_k + 1))
        res = _solve_raw(normal_k, lp_rows, rng.randrange(1 << 30))
        if res.status != "optimal":  # pragma: no cover - cannot happen: z feasible, obj capped
            raise GeometryError("relaxed redundancy LP failed")
        if res.value <= offset_k:
            continue  # redundant relative to the kept set, hence redundant
        j = _ray_first_index(rows, z, res.point)
        if j != k:
            pending.append(k)  # k stays undecided; only j is settled
        kept.append(j)
        kept_set.add(j)
    return sorted(uniq[j] for j in kept)


def reduce_cell(dimension: int, constraints, seed: int = 0) -> Optional[ConvexCell]:
    """Build a minimal cell from raw constraints; None when the intersection
    has empty interior."""
    witness = find_interior_point(list(constraints), seed)
    if witness is None:
        return None
    kept = clarkson_reduce(list(constraints), witness, seed)
    return ConvexCell(dimension, tuple(kept), witness=witness)


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
    vertices.sort(key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))
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
