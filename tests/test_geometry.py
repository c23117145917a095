import hashlib
import json
import math
import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from paramregions.geometry import (
    ConvexCell,
    GeometryError,
    Halfspace,
    _bounded_vertices,
    _box_bound,
    _canonical_point,
    _clip_polygon,
    _has_interior,
    _homogeneous,
    _int_vector,
    _interval_ends,
    _interval_witness,
    _slack,
    _slice,
    box_cell,
    dot,
    polygon_area,
    polygon_vertices,
)
from paramregions.rationals import format_rational, format_vector, rat
from paramregions.regions import compute_vertex_cell
from paramregions.tariff import TariffInstance, compute_price_regions

import oracles
from oracles import (
    _interior_point_rows,
    _ray_first_index,
    clarkson_reduce,
    flipped,
    kernel_lp,
    naive_nonredundant,
    random_halfspaces,
    reference_box_bound,
    reference_ray_first_index,
    reference_solve_raw,
    reference_witness,
    sample_interior,
    solve_lp,
    vertex_enumeration_lp,
)


def H(normal, offset, label=None):
    return Halfspace.from_rationals(normal, offset, label)


UNIT_SQUARE = [H((1, 0), 1), H((0, 1), 1), H((-1, 0), 0), H((0, -1), 0)]


def reference_rationals(normal, offset):
    """The rational view by the divide-by-|first nonzero| rule, on Fractions."""
    normal = tuple(Fraction(c) for c in normal)
    lead = abs(next(c for c in normal if c))
    return tuple(c / lead for c in normal), Fraction(offset) / lead


def random_rationals(rng, d):
    normal = tuple(rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d))
    return normal, rat(rng.randint(-20, 20), rng.randint(1, 6))


class TestHalfspace:
    def test_normalization_makes_equal_halfspaces_syntactically_equal(self):
        a = H((2, 4), 6)
        b = H((1, 2), 3)
        assert a == b and a.int_row == b.int_row == (1, 2, 3)
        assert a.normal == (1, 2)
        for h in (a, H((-2, 4), 6)):
            assert h.line_key() == flipped(h).line_key()
            assert h.flipped_key() == flipped(h).int_row
            assert h.line_key()[0] > 0

    def test_zero_normal_rejected(self):
        with pytest.raises(GeometryError):
            H((0, 0), 1)

    def test_json_round_trip(self):
        h = H((rat(1, 3), rat(-2)), rat(5, 7), label=(1, 2))
        data = json.loads(json.dumps(h.to_json()))
        back = Halfspace.from_json(data, lambda l: tuple(l))
        assert back == h

    def test_from_rationals_gives_the_primitive_row(self):
        rng = random.Random(2)
        for trial in range(300):
            d = rng.randint(1, 4)
            normal, offset = random_rationals(rng, d)
            if not any(normal):
                with pytest.raises(GeometryError):
                    H(normal, offset)
                continue
            h = H(normal, offset, trial)
            assert h.dimension == d and len(h.int_row) == d + 1
            assert all(type(c) is int for c in h.int_row) and math.gcd(*h.int_row) == 1
            assert (h.normal, h.offset) == reference_rationals(normal, offset)
            assert type(h.offset) is type(offset)
            # The row is the rational one scaled by a positive factor.
            k = next(i for i, c in enumerate(normal) if c)
            m = h.int_row[k] / normal[k]
            assert m > 0 and h.int_row == tuple(m * c for c in (*normal, offset))

    def test_positive_rescalings_are_one_halfspace(self):
        rng = random.Random(3)
        for trial in range(150):
            d = rng.randint(1, 4)
            normal, offset = random_rationals(rng, d)
            if not any(normal):
                continue
            h = H(normal, offset, "a")
            for _ in range(3):
                m = rat(rng.randint(1, 50), rng.randint(1, 50))
                g = H(tuple(m * c for c in normal), m * offset, "a")
                assert g == h and hash(g) == hash(h) and g.int_row == h.int_row
            assert H(normal, offset, "b") != h
            assert flipped(h) != h and flipped(flipped(h)) == h
            data = json.loads(json.dumps(h.to_json()))
            assert Halfspace.from_json(data) == h

    def test_json_text_is_the_rational_view_and_facets_sort_on_rows(self):
        # The text is read off the integer rows, and the rational view is
        # its reference, leads of every size and sign included.  A cell
        # writes its facets in the order of those rows.
        rng = random.Random(4)
        for trial in range(200):
            d = rng.randint(1, 4)
            rows, n = [], rng.randint(1, 8)
            while len(rows) < n:
                normal, offset = random_rationals(rng, d)
                if any(normal):
                    rows.append(H(normal, offset, trial))
                    if rng.random() < 0.3:  # a parallel row, same rational normal
                        rows.append(H(normal, offset + rng.randint(-2, 2), trial))
            for h in rows:
                assert h.to_json() == {
                    "normal": format_vector(h.normal),
                    "offset": format_rational(h.offset),
                    "label": trial,
                }
            written = ConvexCell(d, tuple(rows)).to_json()["constraints"]
            assert [Halfspace.from_json(h).int_row for h in written] == sorted(h.int_row for h in rows)
        assert ConvexCell(2, ()).to_json()["constraints"] == []

    def test_rational_serialization_always_p_over_q(self):
        assert format_rational(rat(3)) == "3/1"
        assert format_rational(rat(-4, 6)) == "-2/3"


class TestSolveLP:
    def test_box_corner(self):
        res = solve_lp((1, 1), UNIT_SQUARE)
        assert res.status == "optimal"
        assert res.point == (1, 1)
        assert res.value == 2

    def test_infeasible(self):
        res = solve_lp((1,), [H((1,), 1), H((-1,), -2)])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp((1,), [H((-1,), 0)])
        assert res.status == "unbounded"

    def test_min_sense(self):
        res = solve_lp((1, 0), UNIT_SQUARE, sense="min")
        assert res.status == "optimal"
        assert res.value == 0

    def test_matches_vertex_enumeration_oracle(self):
        rng = random.Random(7)
        box = box_cell(-20, 20, 2).constraints
        for trial in range(60):
            d = rng.choice((2, 3))
            box = list(box_cell(-20, 20, d).constraints)
            hs = box + random_halfspaces(rng, d, rng.randint(2, 8 - d))
            obj = tuple(rat(rng.randint(-5, 5)) for _ in range(d))
            got = kernel_lp(obj, [(h.normal, h.offset) for h in hs], trial)
            want = vertex_enumeration_lp(obj, hs)
            assert got.status == want.status
            if want.status == "optimal":
                assert got.value == want.value

    def test_deterministic(self):
        # One fixed insertion order: the same call returns the same point,
        # the one the kernel finds with seed 0.
        rng = random.Random(3)
        hs = random_halfspaces(rng, 2, 12, ensure_interior=(rat(0), rat(0)))
        a = solve_lp((3, -2), hs)
        b = solve_lp((3, -2), hs)
        assert a == b == kernel_lp((3, -2), [(h.normal, h.offset) for h in hs], 0)


def random_rational_rows(rng, d, count):
    """Unnormalized rational rows, about one in eight with a zero normal."""
    rows = []
    for _ in range(count):
        if rng.random() < 0.125:
            normal = (rat(0),) * d
        else:
            normal = tuple(rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
        rows.append((normal, rat(rng.randint(-10, 10), rng.randint(1, 5))))
    return rows


class TestIntegerKernel:
    """The integer LP kernel against the rational Seidel it replaced: equal
    status, point and value, not just equal optimum."""

    def test_random_lps_match_rational_reference(self):
        rng = random.Random(41)
        statuses = set()
        box_decided = 0
        for trial in range(400):
            d = 1 + trial % 4
            rows = random_rational_rows(rng, d, rng.randint(0, 9))
            obj = tuple(rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
            if rows and rng.random() < 0.3:
                # objective parallel to a constraint: an optimal face, on
                # which the box decides the returned point
                normal = rows[rng.randrange(len(rows))][0]
                obj = tuple(c * rng.randint(1, 3) for c in normal)
            want = reference_solve_raw(obj, rows, trial)
            assert kernel_lp(obj, rows, trial) == want
            statuses.add(want.status)
            bound = reference_box_bound(rows, d)
            if want.status == "optimal" and any(abs(x) == bound for x in want.point):
                box_decided += 1
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert box_decided >= 10

    def test_ray_ties_broken_like_rational_reference(self):
        rng = random.Random(43)
        for trial in range(300):
            d = 1 + trial % 4
            z = tuple(rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
            corner = tuple(c + rng.randint(-4, 4) for c in z)
            rows = []
            while len(rows) < 8:
                normal = tuple(rat(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(d))
                if rng.random() < 0.6:
                    offset = dot(normal, corner)  # through the corner the ray aims at
                else:
                    offset = dot(normal, z) + rat(rng.randint(1, 9), rng.randint(1, 3))
                if offset - dot(normal, z) <= 0:
                    continue
                rows.append((normal, offset))
                if rng.random() < 0.2:  # a rescaled duplicate
                    m = rat(rng.randint(1, 5), rng.randint(1, 5))
                    rows.append((tuple(m * c for c in normal), m * offset))
            target = corner if rng.random() < 0.7 else tuple(rat(rng.randint(-9, 9)) for _ in range(d))
            got = _ray_first_index(
                [_int_vector((*a, b)) for a, b in rows], _homogeneous(z), _homogeneous(target)
            )
            assert got == reference_ray_first_index(rows, z, target)


def random_int_row(rng):
    while True:
        a1, a2 = rng.randint(-5, 5), rng.randint(-5, 5)
        if a1 or a2:
            return a1, a2, rng.randint(-12, 12)


class TestClipTightBits:
    """`_clip_polygon` records each vertex's tight set as bits: 2j and
    2j + 1 for its box's sides x_j <= bound and -x_j <= bound, 4 + i for
    rows[i]."""

    @staticmethod
    def tight_bits(rows, vertex):
        bound = _box_bound(rows, 2)
        box = [(1, 0, bound), (-1, 0, bound), (0, 1, bound), (0, -1, bound)]
        return sum(1 << k for k, row in enumerate(box + rows) if _slack(row, vertex) == 0)

    def test_bits_are_the_rows_with_zero_slack(self):
        # Rows through a vertex of the clip so far, duplicate rows and
        # parallel rows (same or opposite normal, other offsets) make
        # vertices tight on three or more rows, segments and empty clips.
        rng = random.Random(83)
        seen = {"through": 0, "crowded": 0, "empty": 0, "thin": 0}
        for trial in range(400):
            rows = [random_int_row(rng)]
            for _ in range(rng.randint(0, 10)):
                kind = rng.random()
                polygon = _clip_polygon(rows)
                if kind < 0.15:
                    rows.append(rng.choice(rows))
                elif kind < 0.35:
                    a1, a2, b = rng.choice(rows)
                    sign = rng.choice((1, -1))
                    rows.append((sign * a1, sign * a2, sign * b + rng.randint(-2, 2)))
                elif kind < 0.7 and polygon:
                    (x, y, w), _ = rng.choice(polygon)
                    a1, a2, _ = random_int_row(rng)
                    row = (a1 * w, a2 * w, a1 * x + a2 * y)
                    g = math.gcd(*row)
                    rows.append(tuple(c // g for c in row))
                    seen["through"] += 1
                else:
                    rows.append(random_int_row(rng))
            polygon = _clip_polygon(rows)
            seen["empty"] += not polygon
            seen["thin"] += 0 < len(polygon) < 3
            for vertex, bits in polygon:
                assert bits == self.tight_bits(rows, vertex), (trial, rows, vertex)
                seen["crowded"] += bin(bits).count("1") >= 3
        assert all(count >= 20 for count in seen.values()), seen

    def test_box_corners_and_an_empty_clip(self):
        bound = _box_bound([], 2)
        assert _clip_polygon([]) == [
            ((-bound, -bound, 1), 0b1010),
            ((bound, -bound, 1), 0b1001),
            ((bound, bound, 1), 0b0101),
            ((-bound, bound, 1), 0b0110),
        ]
        assert _clip_polygon([(1, 0, 0), (-1, 0, -1)]) == []
        # x + y <= 0 runs through two box corners: both stay, with its bit,
        # and no cut is added beside them.
        bits = [t for _, t in _clip_polygon([(1, 1, 0)])]
        assert bits == [0b1010, 0b1001 | 1 << 4, 0b0110 | 1 << 4]


class TestHasInterior:
    """`_has_interior` against the auxiliary slack LP of `tests/oracles.py`."""

    def test_polygons_match_the_interior_point_lp(self):
        # `_has_interior` in d = 2 reads the clipped polygon, with no LP,
        # against the auxiliary slack LP: open, unbounded, empty, a segment
        # or a point.
        cases = [
            [(1, 0, 1), (-1, 0, 0), (0, 1, 1), (0, -1, 0)],  # the unit square
            [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 0)],  # a segment
            [(1, 1, 0), (-1, 0, 0), (0, -1, 0)],  # the corner point 0
            [(1, 1, 2), (-1, -1, -2), (1, 0, 5)],  # a half-line
            [(1, 2, 3)],  # a half-plane
            [(1, 0, 0), (-1, 0, -1)],  # empty
        ]
        rng = random.Random(29)
        for _ in range(600):
            rows = []
            for _ in range(rng.randint(1, 6)):
                normal = (rng.randint(-3, 3), rng.randint(-3, 3))
                if any(normal):
                    rows.append((*normal, rng.randint(-4, 4)))
            if rows and rng.random() < 0.3:  # a touching pair: a . x <= b and -a . x <= -b
                rows.append(tuple(-c for c in rows[0]))
            if rows:
                cases.append(rows)
        outcomes = []
        for seed, rows in enumerate(cases):
            got = _has_interior(rows)
            assert got == (_interior_point_rows(rows, seed) is not None), rows
            outcomes.append(got)
        assert outcomes.count(True) > 100 and outcomes.count(False) > 100

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_canonical_points_match_the_interior_point_lp(self, d):
        # Above d = 2 a cell has interior exactly when its vertices have
        # rank d + 1, and exactly when it has a canonical point.  Rows
        # around a small integer point c: single rows, unbounded cells, an
        # opposite pair 1 apart (a thin slab) or crossed over by 1 (empty),
        # and touching pairs through c that leave a slab of width 0, a line
        # or the point c.
        rng = random.Random(90 + d)

        def row_at(c, slack):
            while True:
                normal = tuple(rng.randint(-3, 3) for _ in range(d))
                if any(normal):
                    return (*normal, sum(map(operator.mul, normal, c)) + slack)

        outcomes = []
        for seed in range(100):
            kind = seed % 5
            c = tuple(rng.randint(-2, 2) for _ in range(d))
            rows = [row_at(c, rng.randint(-1, 4)) for _ in range(1 if kind == 1 else rng.randint(2, 2 * d + 2))]
            if kind == 0:  # a x <= a c + s and -a x <= -a c - s + 1, or - 1
                row = row_at(c, rng.randint(-2, 2))
                rows += [row, tuple(-x for x in row[:-1]) + (rng.choice((1, -1)) - row[-1],)]
            for _ in range({0: 0, 1: 0, 2: 1, 3: d - 1, 4: d}[kind]):
                row = row_at(c, 0)
                rows += [row, tuple(-x for x in row)]
            got = _has_interior(rows)
            want = _interior_point_rows(rows, seed)
            assert got == (want is not None), rows
            point = _canonical_point(rows, d)
            assert (point is None) == (want is None), rows
            if point is not None:
                z = _homogeneous(point)
                assert all(_slack(row, z) > 0 for row in rows), rows
            outcomes.append((kind, got))
        assert outcomes.count((0, True)) > 4 and outcomes.count((0, False)) > 4
        assert outcomes.count((1, True)) == 20
        assert all((kind, True) not in outcomes for kind in (2, 3, 4))


def random_cell_rows(rng, d):
    """Integer rows of a random cell around the origin in d dimensions,
    unbounded or cut by a box around it, and the cell's `Halfspace`s."""
    origin = (rat(0),) * d
    hs = random_halfspaces(rng, d, rng.randint(2, 3 * d + 3), ensure_interior=origin)
    if rng.random() < 0.5:
        hs += list(box_cell(-rng.randint(1, 4), rng.randint(1, 4), d).constraints)
    return [h.int_row for h in hs], hs


class TestCanonicalPoint:
    """`_canonical_point`: x_1 the simplest rational strictly inside the
    cell's x_1-range, then the canonical point of the slice at x_1."""

    def test_matches_its_definition_in_every_dimension(self):
        # d = 3 and 4 read the x_1-range off the cell's vertices, with no
        # LP; the reference takes every coordinate's range from `solve_lp`
        # over the cell's rows with the coordinates before it fixed.
        rng = random.Random(71)
        for trial in range(120):
            d = 1 + trial % 4
            rows, hs = random_cell_rows(rng, d)
            assert _canonical_point(rows, d) == reference_witness(hs), (trial, rows)

    def test_redundant_and_shuffled_rows_leave_it_unchanged(self):
        # Redundant: looser copies, rescaled copies and sums of two rows.
        rng = random.Random(73)
        for trial in range(80):
            d = 1 + trial % 4
            rows, _ = random_cell_rows(rng, d)
            want = _canonical_point(rows, d)
            extra = []
            for _ in range(rng.randint(1, 6)):
                a, b = rng.choice(rows), rng.choice(rows)
                extra.append(rng.choice((
                    a[:-1] + (a[-1] + rng.randint(1, 5),),
                    tuple(3 * c for c in a),
                    tuple(x + y for x, y in zip(a, b)),
                )))
            more = [row for row in rows + extra if any(row[:-1])]
            rng.shuffle(more)
            assert _canonical_point(more, d) == want, (trial, rows, extra)

    def test_strictly_interior_or_none_without_interior(self):
        rng = random.Random(79)
        flat = 0
        for trial in range(120):
            d = 1 + trial % 4
            rows, _ = random_cell_rows(rng, d)
            if trial % 3 == 0:  # a slab of width 0: no interior
                rows.append(tuple(-c for c in rows[0]))
            point = _canonical_point(rows, d)
            if trial % 3 == 0:
                assert point is None
                flat += 1
                continue
            z = _homogeneous(point)
            assert all(_slack(row, z) > 0 for row in rows), (trial, rows)
        assert flat == 40

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_unit_box_gives_its_midpoint(self, d):
        box = box_cell(0, 1, d)
        assert _canonical_point([h.int_row for h in box.constraints], d) == box.witness == (rat(1, 2),) * d

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_the_whole_space_and_a_slab_slice_to_the_origin(self, d):
        # 0 < x_1 < 1: the slice keeps no row, and the whole space's
        # canonical point is the origin.
        assert _canonical_point([], d) == (0,) * d
        slab = [(1,) + (0,) * (d - 1) + (1,), (-1,) + (0,) * d]
        assert _canonical_point(slab, d) == (rat(1, 2),) + (0,) * (d - 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_slice_is_each_row_at_x1_over_its_gcd(self, d):
        # On q x_1 = p the row (a_1, ..., a_d, b) reads
        # (a_2 q, ..., a_d q, b q - a_1 p) over its gcd; a row with no
        # normal left is dropped, and no rows slice to no rows.
        rng = random.Random(89 + d)
        for trial in range(150):
            rows, _ = random_cell_rows(rng, d)
            x = rat(rng.randint(-7, 7), rng.randint(1, 5))
            p, q = x.numerator, x.denominator
            expected = []
            for row in rows:
                if any(row[1:-1]):
                    sub = [c * q for c in row[1:-1]] + [row[-1] * q - row[0] * p]
                    g = math.gcd(*sub)
                    expected.append(tuple(c // g for c in sub))
            assert _slice(rows, x, d) == expected, (trial, rows, x)
        assert _slice([], rat(1, 2), d) == []

    def test_interior_in_one_dimension_matches_the_witness(self):
        # `_has_interior` reads the two ends (`_interval_ends`), with no
        # simplest rational; it must say yes exactly when there is a witness.
        rng = random.Random(83)
        outcomes = []
        for _ in range(2000):
            rows = [(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
            got = _has_interior(rows)
            assert got == (_interval_witness(rows) is not None), rows
            assert got == (_interval_ends(rows) is not None)
            outcomes.append(got)
        assert outcomes.count(True) > 400 and outcomes.count(False) > 400


class TestBoundedVertices:
    """`_bounded_vertices`: a bounded cell's vertices, read off the
    interval, the clip or the vertex enumeration; None for an unbounded
    cell, () for an empty one."""

    def test_box_bounds_match_the_lp(self):
        # Each axis's least and greatest vertex coordinate, the bounding box
        # `--oracle-check` samples, is the LP's minimum and maximum; a cell
        # is unbounded exactly when one of those LPs is.
        rng = random.Random(79)
        unbounded = 0
        for trial in range(120):
            d = 1 + trial % 4
            _, hs = random_cell_rows(rng, d)
            vertices = _bounded_vertices(ConvexCell(d, tuple(hs)))
            ranges = []
            for k in range(d):
                unit = tuple(int(j == k) for j in range(d))
                ranges.append((solve_lp(unit, hs, "min"), solve_lp(unit, hs, "max")))
            if any(r.status == "unbounded" for pair in ranges for r in pair):
                assert vertices is None, trial
                unbounded += 1
                continue
            for k, (lo, hi) in enumerate(ranges):
                coords = [Fraction(v[k], v[-1]) for v in vertices]
                assert (min(coords), max(coords)) == (lo.value, hi.value), trial
        assert 20 <= unbounded <= 100

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_empty_and_unbounded_cells(self, d):
        box = list(box_cell(-1, 1, d).constraints)
        beyond = H((-1,) + (0,) * (d - 1), -2)  # x_1 >= 2
        assert _bounded_vertices(ConvexCell(d, tuple(box + [beyond]))) == ()
        assert _bounded_vertices(ConvexCell(d, (beyond,))) is None
        assert _bounded_vertices(ConvexCell(d, ())) is None
        assert len(set(_bounded_vertices(ConvexCell(d, tuple(box))))) == 2**d


class TestClarkson:
    def test_dominated_bound_dropped(self):
        hs = [H((1,), 1, "a"), H((1,), 2, "b"), H((-1,), 0, "c")]
        kept = clarkson_reduce(hs, (rat(1, 2),))
        assert {h.label for h in kept} == {"a", "c"}

    def test_far_plane_dropped(self):
        hs = UNIT_SQUARE + [H((1, 1), 3)]
        kept = clarkson_reduce([Halfspace(h.int_row, i) for i, h in enumerate(hs)], (rat(1, 2), rat(1, 2)))
        assert {h.label for h in kept} == {0, 1, 2, 3}

    def test_matches_naive_oracle_on_random_systems(self):
        rng = random.Random(19)
        for trial in range(40):
            d = rng.choice((2, 3))
            origin = tuple(rat(0) for _ in range(d))
            hs = random_halfspaces(rng, d, rng.randint(8, 25), ensure_interior=origin)
            hs = [Halfspace(h.int_row, i) for i, h in enumerate(hs)]
            kept = clarkson_reduce(hs, origin)
            want = naive_nonredundant(hs, seed=trial)
            assert sorted(h.label for h in kept) == want

    def test_parallel_families_match_naive_oracle(self):
        # Few normal directions, many rows each: random offsets, exact
        # duplicates and rescaled duplicates (2a . x <= 2b).  Only the
        # tightest row of a direction can be a facet; of identical rows the
        # first keeps its label.
        rng = random.Random(41)
        for trial in range(60):
            d = rng.randint(1, 3)
            origin = tuple(rat(0) for _ in range(d))
            directions = random_halfspaces(rng, d, rng.randint(d + 1, 2 * d + 2))
            hs = []
            for _ in range(rng.randint(10, 30)):
                roll = rng.random()
                if hs and roll < 0.2:
                    hs.append(rng.choice(hs))
                elif hs and roll < 0.35:
                    h = rng.choice(hs)
                    m = rng.randint(2, 5)
                    hs.append(Halfspace.from_rationals(tuple(m * c for c in h.normal), m * h.offset))
                else:
                    normal = rng.choice(directions).normal
                    hs.append(Halfspace.from_rationals(normal, rat(rng.randint(1, 12), rng.randint(1, 3))))
            hs = [Halfspace(h.int_row, i) for i, h in enumerate(hs)]
            want = naive_nonredundant(hs, seed=trial)
            kept = clarkson_reduce(hs, origin)
            assert sorted(h.label for h in kept) == want
            for h in kept:
                assert h.label == min(i for i, g in enumerate(hs) if g.int_row == h.int_row)

    def test_kept_rows_do_not_depend_on_the_seed(self, monkeypatch):
        # One pass draws every LP's insertion order from one generator, fixed
        # in the library; here each pass gets its own seed instead, so the
        # LPs differ from seed to seed.  The non-redundant set is unique.
        solve = oracles._solve_raw
        rng = random.Random(29)
        for trial in range(12):
            d = 1 + trial % 3
            origin = tuple(rat(0) for _ in range(d))
            hs = random_halfspaces(rng, d, rng.randint(6, 16), ensure_interior=origin)
            hs = [Halfspace(h.int_row, i) for i, h in enumerate(hs)]
            want = [hs[i] for i in naive_nonredundant(hs, seed=trial)]
            for seed in range(20):
                shuffles = random.Random(seed)
                reseeded = lambda obj, rows, _, bound: solve(obj, rows, shuffles, bound)  # noqa: E731
                monkeypatch.setattr(oracles, "_solve_raw", reseeded)
                assert list(clarkson_reduce(hs, origin)) == want

    def test_minimality_certificates(self):
        rng = random.Random(23)
        origin = (rat(0), rat(0))
        hs = random_halfspaces(rng, 2, 18, ensure_interior=origin)
        kept = clarkson_reduce(hs, origin)
        for i, h in enumerate(kept):
            others = [g for j, g in enumerate(kept) if j != i]
            others.append(Halfspace.from_rationals(h.normal, h.offset + 1))
            res = solve_lp(h.normal, others)
            assert res.status == "optimal" and res.value > h.offset

    def test_rejects_non_interior_witness(self):
        with pytest.raises(GeometryError):
            clarkson_reduce([H((1,), 0)], (0,))


class TestConvexCell:
    def test_witness_on_a_facet_or_outside_rejected(self):
        for witness in ((rat(1), rat(1, 2)), (rat(0), rat(0)), (rat(2), rat(1, 2)), (rat(-1, 3), rat(5))):
            with pytest.raises(GeometryError):
                ConvexCell(2, tuple(UNIT_SQUARE), witness=witness)
        cell = ConvexCell(2, tuple(UNIT_SQUARE), witness=(rat(1, 3), rat(2, 3)))
        assert cell.witness == (rat(1, 3), rat(2, 3))

    def test_witness_checked_on_a_thin_cell(self):
        eps = rat(1, 10**30)
        hs = (H((1, 0), eps), H((-1, 0), 0), H((0, 1), 1), H((0, -1), 0))
        ConvexCell(2, hs, witness=(eps / 2, rat(1, 2)))
        with pytest.raises(GeometryError):
            ConvexCell(2, hs, witness=(eps, rat(1, 2)))


    def test_kept_vertices_are_no_part_of_the_value(self):
        # A cell that `compute_vertex_cell` built keeps its vertices in a
        # private slot that equality, hashing, repr and JSON do not read.
        # A cell with other rows (`dataclasses.replace`) keeps none and
        # builds its own.
        cell, _ = compute_vertex_cell(box_cell(-1, 2, 2), "square", list(UNIT_SQUARE))
        plain = ConvexCell(2, cell.constraints, cell.witness)
        assert cell == plain and hash(cell) == hash(plain) and repr(cell) == repr(plain)
        assert cell.to_json() == plain.to_json()
        square = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
        assert sorted(_bounded_vertices(cell)) == sorted(_bounded_vertices(plain)) == square
        cut = replace(cell, constraints=(*cell.constraints, H((2, 2), 3)))
        assert sorted(_bounded_vertices(cut)) == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 2, 2), (2, 1, 2)]


def rational_contains(cell, point, strict=False):
    """`ConvexCell.contains` on the rational view of each constraint."""
    if strict:
        return all(dot(h.normal, point) < h.offset for h in cell.constraints)
    return all(dot(h.normal, point) <= h.offset for h in cell.constraints)


class TestContains:
    def test_tariff_cells_match_the_rational_view(self):
        # At every cell's polygon vertices, on the boundary of some cells and
        # inside none, and at random points.
        rng = random.Random(47)
        checked = 0
        for _ in range(6):
            n, k = rng.randint(1, 3), rng.randint(2, 4)
            inst = TariffInstance(units=k, valuations=[[rat(rng.randint(0, 20)) for _ in range(k)] for _ in range(n)])
            cells = list(compute_price_regions(inst).cells.values())
            points = [v for cell in cells for v in polygon_vertices(cell)]
            cap = inst.price_cap
            points += [tuple(cap * rat(rng.randint(0, 40), 37) for _ in range(2)) for _ in range(30)]
            for cell in cells:
                for p in points:
                    for strict in (False, True):
                        assert cell.contains(p, strict) == rational_contains(cell, p, strict), (cell, p)
                        checked += 1
        assert checked > 1000

    def test_random_cells_match_the_rational_view(self):
        rng = random.Random(53)
        for trial in range(200):
            d = 1 + trial % 4
            cell = ConvexCell(d, tuple(random_halfspaces(rng, d, rng.randint(1, 6))))
            for _ in range(5):
                p = tuple(rat(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(d))
                for strict in (False, True):
                    assert cell.contains(p, strict) == rational_contains(cell, p, strict)

    def test_float_point_raises(self):
        cell = box_cell(0, 1, 2)
        with pytest.raises(TypeError):
            cell.contains((0.5, 0.5))
        with pytest.raises(TypeError):
            cell.contains((rat(1, 2), 0.5), strict=True)

    def test_point_of_another_dimension_raises(self):
        with pytest.raises(GeometryError):
            box_cell(0, 1, 2).contains((rat(1, 2),) * 3)


class TestCellUtilities:
    def test_sample_interior_points_are_strictly_inside(self):
        cell = box_cell(0, 1, 2)
        pts = sample_interior(cell, 50, seed=2)
        assert len(pts) == 50
        assert all(cell.contains(p, strict=True) for p in pts)

    def test_sample_interior_points_are_pinned(self):
        # The digest was recorded when the walk still ran on Fractions, with
        # each step t = slack / (normal . direction) of the rational view:
        # the walk on integer rows draws the same rng values and returns the
        # same points.
        cells = [
            box_cell(0, 1, 2),
            box_cell(rat(-1, 3), rat(2, 7), 3),
            ConvexCell(1, (H((3,), 2), H((-5,), 1)), witness=(rat(0),)),
            ConvexCell(2, (H((1, 1), 1), H((-1, 0), 0), H((0, -1), 0)), witness=(rat(1, 4), rat(1, 4))),
            ConvexCell(2, (H((1, 1), 1),), witness=(rat(0), rat(0))),  # unbounded: some steps cap t at 1
        ]
        rng = random.Random(61)
        for d in (1, 2, 2, 3, 4):
            origin = (rat(0),) * d
            rows = random_halfspaces(rng, d, 6, ensure_interior=origin)
            cells.append(ConvexCell(d, tuple(rows) + box_cell(-5, 5, d).constraints, witness=origin))
        digest = hashlib.sha256()
        for i, cell in enumerate(cells):
            for p in sample_interior(cell, 40, seed=i):
                digest.update(" ".join(format_vector(p)).encode() + b"\n")
        assert digest.hexdigest() == "773792cff77803438fd670ba6dfd775fce8a19b2fdd57cd9db1674abdf013655"

    def test_polygon_vertices_and_area(self):
        cell = box_cell(0, 1, 2)
        verts = polygon_vertices(cell)
        assert len(verts) == 4
        assert polygon_area(verts) == 1

    def test_polygon_area_exact_for_nearly_coincident_vertices(self):
        # The chamfer's two vertices lie 1e-25 apart, closer in angle around
        # the centroid than a float can tell.
        d = rat(1, 10**25)
        hs = [H((0, 1), 1), H((1, 0), 1), H((-1, 0), 0), H((0, -1), 0), H((1, 1), 2 - d)]
        verts = polygon_vertices(ConvexCell(2, tuple(hs)))
        assert len(verts) == 5
        assert polygon_area(verts) == 1 - d * d / 2

    def test_polygon_vertices_order_zero_area_and_unbounded_cells(self):
        # Counterclockwise from the least angle in (-pi, pi] around the centroid.
        assert polygon_vertices(box_cell(0, 1, 2)) == [(0, 0), (1, 0), (1, 1), (0, 1)]
        segment = (H((1, 0), 0), H((-1, 0), 0), H((0, 1), 1), H((0, -1), 0))
        assert polygon_vertices(ConvexCell(2, segment)) == []
        # An unbounded cell gives its own vertices, none where it leaves the box.
        wedge = (H((0, -1), 0), H((-1, 0), 0), H((-1, -1), -2), H((-1, -3), -3))
        assert polygon_vertices(ConvexCell(2, wedge)) == [(rat(3, 2), rat(1, 2)), (3, 0), (0, 2)]

    def test_clip_vertices_are_primitive_meets_of_two_rows_in_counterclockwise_order(self):
        rng = random.Random(41)
        origin = (rat(0), rat(0))
        for _ in range(60):
            rows = [h.int_row for h in random_halfspaces(rng, 2, rng.randint(3, 30), ensure_interior=origin)]
            bound = _box_bound(rows, 2)
            box = [(1, 0, bound), (-1, 0, bound), (0, 1, bound), (0, -1, bound)]
            vertices = [v for v, _ in _clip_polygon(rows)]
            assert len(vertices) >= 3
            for v in vertices:
                assert v[2] > 0 and math.gcd(*v) == 1
                assert all(_slack(row, v) >= 0 for row in rows)
                assert sum(_slack(row, v) == 0 for row in rows + box) >= 2
            for p, q, r in zip(vertices, vertices[1:] + vertices[:1], vertices[2:] + vertices[:2]):
                # (q - p) x (r - q) > 0 on homogeneous points: a left turn.
                cross = (q[0] * p[2] - p[0] * q[2]) * (r[1] * q[2] - q[1] * r[2]) - (
                    q[1] * p[2] - p[1] * q[2]
                ) * (r[0] * q[2] - q[0] * r[2])
                assert cross > 0

    @pytest.mark.parametrize(
        "lower, upper", [(0, 1), (-4, 4), (rat(1, 3), rat(7, 2)), (rat(-5, 6), 0), (-1, rat(-1, 2))]
    )
    def test_box_cell_rows_are_the_primitive_rows_of_its_bounds(self, lower, upper):
        for d in range(1, 5):
            expected = []
            for k in range(d):
                unit = tuple(int(j == k) for j in range(d))
                expected.append(Halfspace.from_rationals(unit, upper))
                expected.append(Halfspace.from_rationals(tuple(-c for c in unit), -lower))
            box = box_cell(lower, upper, d)
            assert box.constraints == tuple(expected)
            assert box.witness == ((rat(lower) + rat(upper)) / 2,) * d

    def test_cell_json_round_trip(self):
        cell = box_cell(0, 1, 2)
        data = json.loads(json.dumps(cell.to_json()))
        back = ConvexCell.from_json(data)
        assert back.constraint_keys() == cell.constraint_keys()
        assert back.witness == cell.witness
