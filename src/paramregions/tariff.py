"""Two-part tariff pricing regions and revenue maximization.

A tariff charges a fixed fee plus a per-unit price; a menu offers several
such pairs and each buyer sample picks the utility-maximizing pair and
quantity.  Price space splits into convex regions of constant purchase
profile.  A profile's region is the intersection of one option region per
sample, so the regions are found by the product walk of `regions`
(`compute_subdivision` over `product_candidates`), in which every candidate
row names the profile across it, so no region is lost.  Revenue is affine
on each region, so the revenue-maximizing prices come from one exact LP per
region.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .geometry import ConvexCell, box_cell, solve_lp
from .rationals import Rational, ZERO, as_rational, format_rational
from .regions import (
    AffineForm,
    Subdivision,
    argmin_label,
    compute_subdivision,
    dominance_constraints,
    product_candidates,
)


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


def utility(instance: TariffInstance, i: int, q: int, j: int, prices) -> Rational:
    """Buyer utility v_i(q) - (p1^j + p2^j q); zero when q = 0."""
    if q == 0:
        return ZERO
    p1 = prices[2 * (j - 1)]
    p2 = prices[2 * (j - 1) + 1]
    return instance.value(i, q) - p1 - q * p2


def buyer_choice(instance: TariffInstance, i: int, prices) -> tuple:
    """Utility-maximizing (quantity, tariff index) for sample i.

    Ties favor larger quantities, then smaller menu indices (the standard
    seller-favorable convention: the revenue supremum is then attained on
    closed cells).  Buying nothing is canonicalized to tariff index 1.
    """
    best = (ZERO, 0, 1)
    for q in range(1, instance.units + 1):
        for j in range(1, instance.menu_length + 1):
            u = utility(instance, i, q, j, prices)
            bu, bq, bj = best
            if u > bu or (u == bu and (q > bq or (q == bq and j < bj))):
                best = (u, q, j)
    return best[1], best[2]


def _option_forms(instance: TariffInstance) -> list:
    """Per sample, {option: minus its utility as an `AffineForm` over the
    price vector}, over every (quantity, tariff index) a buyer can pick,
    buying nothing canonicalized to (0, 1): the buyer picks an option of
    least form.  The price coefficients are the option's revenue, so two
    distinct options never share them."""
    menu = range(1, instance.menu_length + 1)
    options = [(0, 1)] + [(q, j) for q in range(1, instance.units + 1) for j in menu]
    return [
        {o: AffineForm(revenue_form(instance, (o,)), -instance.value(i, o[0])) for o in options}
        for i in range(instance.n_samples)
    ]


def compute_price_regions(instance: TariffInstance, seed: int = 0) -> Subdivision:
    """Regions of constant buyer behavior over the capped price box.

    Labels are per-sample (quantity, tariff-index) tuples, and a profile's
    region is the intersection of one option region per sample: one walk of
    `regions.compute_subdivision` over tuple labels
    (`regions.product_candidates`), each sample's rows its dominance rows.
    It starts from the profile just past the box's witness
    (`regions.argmin_label` per sample) and follows facet labels, each the
    profile across its facet, so it finds every region.
    """
    box = instance.price_box()
    forms = _option_forms(instance)
    start = tuple(argmin_label(options, box.witness) for options in forms)
    candidates = product_candidates([partial(dominance_constraints, options) for options in forms])
    return compute_subdivision(box, (start,), candidates, seed)


def single_tariff_regions(instance: TariffInstance, seed: int = 0) -> Subdivision:
    """L = 1 specialization with plain quantity-tuple labels."""
    if instance.menu_length != 1:
        raise ValueError("single_tariff_regions needs menu_length == 1")
    sub = compute_price_regions(instance, seed)
    return _map_labels(sub, lambda label: tuple(q for q, _ in label))


def _map_labels(sub: Subdivision, f) -> Subdivision:
    cells = {f(label): cell.map_labels(f) for label, cell in sub.cells.items()}
    adjacency = frozenset(tuple(sorted((f(a), f(b)))) for a, b in sub.adjacency)
    return Subdivision(sub.parent, cells, adjacency, tuple(sorted(f(l) for l in sub.degenerate)))


def normalize_profile(label) -> tuple:
    """Per-sample (q, j) pairs from either label shape (plain quantities are
    the single-tariff view with j = 1)."""
    return tuple(e if isinstance(e, tuple) else (e, 1) for e in label)


def revenue_form(instance: TariffInstance, label) -> tuple:
    """Revenue on a region as coefficients over the price vector.

    Accepts both label shapes: per-sample (q, j) pairs and the plain
    quantity tuples of the single-tariff view.
    """
    d = instance.dimension
    coeffs = [ZERO] * d
    for entry in label:
        q, j = entry if isinstance(entry, tuple) else (entry, 1)
        if q > 0:
            coeffs[2 * (j - 1)] += 1
            coeffs[2 * (j - 1) + 1] += q
    return tuple(coeffs)


def maximize_revenue(instance: TariffInstance, regions: Subdivision, seed: int = 0):
    """Revenue-maximizing prices over all regions (exact LP per closed cell).

    Returns (prices, revenue, region label); ties prefer the smaller label.
    """
    best = None
    for label in sorted(regions.cells):
        coeffs = revenue_form(instance, label)
        cell = regions.cells[label]
        if all(c == 0 for c in coeffs):
            candidate = (ZERO, label, cell.witness)
        else:
            res = solve_lp(coeffs, list(cell.constraints), "max", seed=seed)
            assert res.status == "optimal"  # cells are bounded by the cap
            candidate = (res.value, label, res.point)
        if best is None or candidate[0] > best[0]:
            best = candidate
    revenue, label, point = best
    return point, revenue, label


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


def check_piece_bound(instance: TariffInstance, regions: Subdivision, constant: int = 10) -> dict:
    """Report on the output-size bound R <= C * N^2 K min(N, K) and on the
    per-sample non-redundant boundary-line counts (single-tariff case)."""
    if instance.menu_length != 1:
        raise ValueError("the piece bound applies to single tariffs")
    n, k = instance.n_samples, instance.units
    r = len(regions.cells)
    bound = constant * n * n * k * min(n, k)
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
