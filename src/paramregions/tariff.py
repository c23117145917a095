"""Two-part tariff pricing regions and revenue maximization.

A tariff charges a fixed fee plus a per-unit price; a menu offers several
such pairs and each buyer sample picks the utility-maximizing pair and
quantity.  Price space splits into convex regions of constant purchase
profile.  A profile's region is the intersection of one option region per
sample, so the regions are found by one product walk of `regions`
(`compute_subdivision` over `product_candidates`, `compute_price_regions`)
at every menu length, a single tariff being a menu of length one.  Every
candidate row names the profile across it, so no region is lost.  Revenue
is linear on each region, a bounded cell, so its maximum there is attained
at a vertex: the revenue-maximizing prices are read off the regions'
vertices, the ones the walk built each region from, with no LP.
The path runs on integers from the instance to the output: the option
forms come from `TariffInstance.int_valuations`, `revenue_form` has int
coefficients, and a buyer's choice compares integer utilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from operator import mul
from typing import Optional

from .geometry import (
    ConvexCell,
    GeometryError,
    _bounded_vertices,
    _homogeneous,
    _rational_point,
    box_cell,
    dot,
)
from .rationals import Rational, ZERO, as_rational, format_rational
from .regions import (
    AffineForm,
    Subdivision,
    argmin_label,
    compute_subdivision,
    dominance_constraints,
    product_candidates,
)

# C in the piece bound R <= C * N^2 K min(N, K) of `check_piece_bound`.
PIECE_BOUND_CONSTANT = 10


@dataclass(frozen=True)
class TariffInstance:
    """K units for sale, N valuation samples, and an optional menu length.

    valuations[i][q-1] is sample i's value for q units; the value of buying
    nothing is zero.  Non-monotone valuations are accepted as-is.
    """

    units: int
    valuations: tuple
    menu_length: int = 1
    price_cap: Optional[Rational] = None

    def __post_init__(self):
        vals = tuple(tuple(as_rational(v) for v in row) for row in self.valuations)
        object.__setattr__(self, "valuations", vals)
        if any(isinstance(n, bool) or not isinstance(n, int) for n in (self.units, self.menu_length)):
            raise ValueError("K and menu_length must be integers")
        if self.units < 1 or self.menu_length < 1:
            raise ValueError("need at least one unit and one tariff")
        if not vals:
            raise ValueError("need at least one valuation sample")
        for row in vals:
            if len(row) != self.units:
                raise ValueError("each sample needs a value for 1..K units")
            if any(v < 0 for v in row):
                raise ValueError("valuations must be nonnegative")
        cap = self.price_cap
        if cap is None:
            cap = max(v for row in vals for v in row) + 1
        object.__setattr__(self, "price_cap", as_rational(cap))
        if self.price_cap <= 0:
            raise ValueError("price cap must be positive")

    @property
    def n_samples(self) -> int:
        return len(self.valuations)

    @property
    def dimension(self) -> int:
        return 2 * self.menu_length

    def value(self, i: int, q: int):
        return ZERO if q == 0 else self.valuations[i][q - 1]

    @cached_property
    def int_valuations(self) -> tuple:
        """(factor, rows): every valuation times one common positive
        integer, the lcm of their denominators, as ints, row by row.  One
        factor scales every utility alike, so `buyer_choice` picks as it
        would on the rationals.  Derived once, never serialized."""
        *entries, factor = _homogeneous([v for row in self.valuations for v in row])
        entries = iter(entries)
        return factor, tuple(tuple(islice(entries, self.units)) for _ in self.valuations)

    def price_box(self) -> ConvexCell:
        return box_cell(0, self.price_cap, self.dimension)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "K": self.units,
            "menu_length": self.menu_length,
            "valuations": [[format_rational(v) for v in row] for row in self.valuations],
            "price_cap": format_rational(self.price_cap),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TariffInstance":
        return cls(
            units=data["K"],
            valuations=tuple(tuple(as_rational(v) for v in row) for row in data["valuations"]),
            menu_length=data.get("menu_length", 1),
            price_cap=as_rational(data["price_cap"]) if "price_cap" in data else None,
        )


def buyer_choice(instance: TariffInstance, i: int, prices) -> tuple:
    """Utility-maximizing (quantity, tariff index) for sample i, where
    buying q units on tariff j is worth v_i(q) - (p1^j + p2^j q) and
    buying nothing is worth zero.

    Ties favor larger quantities, then smaller menu indices (the standard
    seller-favorable convention: the revenue supremum is then attained on
    closed cells).  Buying nothing is canonicalized to tariff index 1.

    Utilities are compared as integers: the prices are written
    homogeneously as (P, w) with w > 0 (`geometry._homogeneous`), and the
    valuations as ints over one common denominator D (`int_valuations`),
    so a utility is carried times D w > 0, which keeps its order and its
    ties.
    """
    fees, w = _scaled_fees(instance, prices)
    return _choice(instance.int_valuations[1][i], fees, w)


def buyer_choices(instance: TariffInstance, prices) -> tuple:
    """Every sample's `buyer_choice` at `prices`, in sample order; the
    prices are written homogeneously once for all of them."""
    fees, w = _scaled_fees(instance, prices)
    return tuple(_choice(row, fees, w) for row in instance.int_valuations[1])


def _scaled_fees(instance: TariffInstance, prices) -> tuple:
    """(fees, w): the prices written homogeneously as (P, w), w > 0, and P
    times the valuations' common denominator D (`int_valuations`): per
    tariff its fee and unit price, times D w."""
    *P, w = _homogeneous(prices)
    if len(P) != instance.dimension:
        raise GeometryError("price dimension mismatch")
    factor = instance.int_valuations[0]
    return [factor * p for p in P], w


def _choice(row: tuple, fees: list, w: int) -> tuple:
    """The (q, j) of greatest utility, ties as in `buyer_choice`, for the
    integer valuations `row` and the `_scaled_fees` (fees, w)."""
    best, best_q, best_j = 0, 0, 1
    # Options come by increasing q, then j, so an equal utility wins exactly
    # when its quantity is larger.
    for q, value in enumerate(row, 1):
        value *= w
        for j in range(0, len(fees), 2):
            u = value - fees[j] - q * fees[j + 1]
            if u > best or (u == best and q > best_q):
                best, best_q, best_j = u, q, j // 2 + 1
    return best_q, best_j


def _option_forms(instance: TariffInstance) -> list:
    """Per sample, {option: minus its utility as an `AffineForm` over the
    price vector}, over every (quantity, tariff index) a buyer can pick,
    buying nothing canonicalized to (0, 1): the buyer picks an option of
    least form.  A single tariff (L = 1) keys each option by q alone, which
    sorts as (q, 1) does, so every tie rule picks alike.  The price
    coefficients are the option's revenue, so two distinct options never
    share them.

    The forms are built on ints, from `int_valuations`: each is minus the
    utility times the valuations' common denominator D > 0.  One positive
    factor for all of them keeps each argmin, each primitive dominance row
    and the label of each row (`regions.dominance_constraints`)."""
    factor, rows = instance.int_valuations
    menu = range(1, instance.menu_length + 1)
    options = [(0, 1)] + [(q, j) for q in range(1, instance.units + 1) for j in menu]
    keys = [q for q, _ in options] if instance.menu_length == 1 else options
    prices = [tuple(factor * c for c in revenue_form(instance, (o,))) for o in options]
    return [
        {key: AffineForm(c, -row[q - 1] if q else 0) for key, (q, _), c in zip(keys, options, prices)}
        for row in rows
    ]


def compute_price_regions(instance: TariffInstance) -> Subdivision:
    """Regions of constant buyer behavior over the capped price box, for
    every menu length.

    Labels are per-sample options: (quantity, tariff-index) pairs, or plain
    quantities for a single tariff (L = 1, `_option_forms`).  A profile's
    region is the intersection of one option region per sample: one walk of
    `regions.compute_subdivision` over tuple labels
    (`regions.product_candidates`), each sample's rows its dominance rows.
    It starts from the profile just past the box's witness
    (`regions.argmin_label` per sample) and follows facet labels, each the
    profile across its facet, so it finds every region.
    """
    forms = _option_forms(instance)
    box = instance.price_box()
    start = tuple(argmin_label(options, box.witness) for options in forms)
    candidates = product_candidates([partial(dominance_constraints, options) for options in forms])
    return compute_subdivision(box, (start,), candidates)


def normalize_profile(label) -> tuple:
    """Per-sample (q, j) pairs from either label shape (plain quantities are
    the single-tariff view with j = 1)."""
    return tuple(e if isinstance(e, tuple) else (e, 1) for e in label)


def revenue_form(instance: TariffInstance, label) -> tuple:
    """Revenue on a region as coefficients over the price vector.

    Accepts both label shapes: per-sample (q, j) pairs and the plain
    quantity tuples of the single-tariff view.  The coefficients are ints:
    per tariff, the number of samples buying on it and the units they buy.
    """
    d = instance.dimension
    coeffs = [0] * d
    for q, j in normalize_profile(label):
        if q > 0:
            coeffs[2 * (j - 1)] += 1
            coeffs[2 * (j - 1) + 1] += q
    return tuple(coeffs)


def maximize_revenue(instance: TariffInstance, regions: Subdivision):
    """Revenue-maximizing prices over all regions, read off their vertices.

    Returns (prices, revenue, region label); ties between regions prefer
    the smaller label.  Within a region the prices are its vertex of
    greatest revenue (`_best_vertex`), the lexicographically largest of
    them where an edge or more is optimal: a point that depends on the
    region alone.  The vertices are those the walk built with the region
    (`geometry._bounded_vertices`), so no region is clipped again.  Raises
    `GeometryError` on an unbounded or empty region.
    """
    best = None
    for label in sorted(regions.cells):
        vertices = _bounded_vertices(regions.cells[label])
        if not vertices:
            raise GeometryError(f"region {label!r} is unbounded or empty")
        coeffs = revenue_form(instance, label)
        point = _rational_point(_best_vertex(coeffs, vertices))
        revenue = dot(coeffs, point)
        if best is None or revenue > best[0]:
            best = (revenue, label, point)
    revenue, label, point = best
    return point, revenue, label


def _best_vertex(obj: tuple, vertices) -> tuple:
    """The homogeneous vertex of greatest obj . x, the lexicographically
    largest of those on ties.  Fraction-free: a vertex (p, w) is keyed
    (obj . p, p_1, ..., p_d), that is w times (obj . x, x), and two keys are
    compared with each scaled by the other's w > 0."""
    top = vertices[0]
    top_key = (sum(map(mul, obj, top)), *top[:-1])
    for v in vertices[1:]:
        key = (sum(map(mul, obj, v)), *v[:-1])
        if [c * top[-1] for c in key] > [c * v[-1] for c in top_key]:
            top, top_key = v, key
    return top


def region_boundary_lines(instance: TariffInstance, regions: Subdivision) -> dict:
    """Distinct facet lines per sample, excluding the artificial cap facets.

    A facet's label is the profile across it, so the facet belongs to every
    sample whose choice differs between the two profiles: identical samples
    share their lines.  The count per sample is the proof-side quantity
    bounded by 2K + 2 (K slab lines, K zero-utility lines, two axes).
    """
    caps = {h.int_row for h in instance.price_box().constraints if h.int_row[-1] > 0}
    per_sample: dict = {i: set() for i in range(instance.n_samples)}
    axes = set()
    for label, cell in regions.cells.items():
        for h in cell.constraints:
            if h.int_row in caps:
                continue
            line = h.line_key()
            if h.label is None:
                axes.add(line)
                continue
            neighbor = h.label
            diff = [i for i, (a, b) in enumerate(zip(label, neighbor)) if a != b]
            for i in diff:
                per_sample[i].add(line)
    for i in per_sample:
        per_sample[i] |= axes
    return {i: len(lines) for i, lines in per_sample.items()}


def check_piece_bound(instance: TariffInstance, regions: Subdivision) -> dict:
    """Report on the output-size bound R <= C * N^2 K min(N, K), with C =
    PIECE_BOUND_CONSTANT, and on the per-sample non-redundant boundary-line
    counts (single-tariff case)."""
    if instance.menu_length != 1:
        raise ValueError("the piece bound applies to single tariffs")
    n, k = instance.n_samples, instance.units
    r = len(regions.cells)
    bound = PIECE_BOUND_CONSTANT * n * n * k * min(n, k)
    lines = region_boundary_lines(instance, regions)
    line_bound = 2 * k + 2
    return {
        "pieces": r,
        "bound": bound,
        "pieces_ok": r <= bound,
        "lines_per_sample": lines,
        "line_bound": line_bound,
        "lines_ok": all(c <= line_bound for c in lines.values()),
    }
