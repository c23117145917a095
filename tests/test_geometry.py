import json
import math
import random
from fractions import Fraction

import pytest

from paramregions.geometry import (
    ConvexCell,
    GeometryError,
    Halfspace,
    LPResult,
    _box_bound,
    _homogeneous,
    _int_vector,
    _ray_first_index,
    _rational_point,
    _solve_raw,
    box_cell,
    clarkson_reduce,
    dot,
    find_interior_point,
    polygon_area,
    polygon_vertices,
    ray_shoot,
    sample_interior,
    solve_lp,
)
from paramregions.rationals import format_rational, rat

from oracles import (
    naive_nonredundant,
    random_halfspaces,
    reference_box_bound,
    reference_ray_first_index,
    reference_solve_raw,
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
            assert h.line_key() == h.flipped().line_key()
            assert h.flipped_key() == h.flipped().int_row
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
            assert h.flipped() != h and h.flipped().flipped() == h
            data = json.loads(json.dumps(h.to_json()))
            assert Halfspace.from_json(data) == h

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
            got = solve_lp(obj, hs, seed=trial)
            want = vertex_enumeration_lp(obj, hs)
            assert got.status == want.status
            if want.status == "optimal":
                assert got.value == want.value

    def test_deterministic_under_seed(self):
        rng = random.Random(3)
        hs = random_halfspaces(rng, 2, 12, ensure_interior=(rat(0), rat(0)))
        a = solve_lp((3, -2), hs, seed=11)
        b = solve_lp((3, -2), hs, seed=11)
        assert a == b


def kernel_lp(obj, rows, seed):
    """The integer kernel on rational rows (normal, offset), answered the
    way the rational reference answers."""
    int_rows = [_int_vector((*a, b)) for a, b in rows]
    status, point = _solve_raw(_int_vector(obj), int_rows, random.Random(seed), _box_bound(int_rows, len(obj)))
    if status != "optimal":
        return LPResult(status)
    point = _rational_point(point)
    return LPResult(status, point, dot(obj, point))


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


class TestFindInteriorPoint:
    def test_unit_square(self):
        z = find_interior_point(UNIT_SQUARE)
        assert z is not None
        assert all(h.holds(z, strict=True) for h in UNIT_SQUARE)

    def test_degenerate_segment_has_no_interior(self):
        assert find_interior_point([H((1,), 0), H((-1,), 0)]) is None

    def test_triangle_strict_slack_on_all_three(self):
        hs = [H((1, 1), 1), H((-1, 0), 0), H((0, -1), 0)]
        z = find_interior_point(hs)
        assert z is not None
        for h in hs:
            assert h.slack(z) > 0


class TestRayShoot:
    def test_nearest_plane(self):
        hs = [H((1, 0), 1, "A"), H((1, 0), 3, "B")]
        assert ray_shoot(hs, (0, 0), (2, 0)) == "A"

    def test_corner_tie_resolved_symbolically(self):
        hs = [
            H((1, 0), 1, "A"),
            H((0, 1), 1, "B"),
            H((-1, 0), 1, "C"),
            H((0, -1), 1, "D"),
        ]
        # Both bounding planes pass through the target corner; the perturbed
        # origin (eps, eps^2) reaches x1=1 first.
        assert ray_shoot(hs, (0, 0), (1, 1)) == "A"

    def test_no_facet(self):
        assert ray_shoot([H((1,), 1, "A")], (0,), (-1,)) is None

    def test_invariant_under_positive_rescaling(self):
        rng = random.Random(5)
        for trial in range(40):
            hs = random_halfspaces(rng, 2, 8, ensure_interior=(rat(0), rat(0)))
            target = (rat(rng.randint(-30, 30)), rat(rng.randint(-30, 30)))
            if all(c == 0 for c in target):
                continue
            base = ray_shoot([Halfspace(h.int_row, i) for i, h in enumerate(hs)], (0, 0), target)
            rescaled = []
            for i, h in enumerate(hs):
                m = rat(rng.randint(1, 7), rng.randint(1, 3))
                rescaled.append(Halfspace.from_rationals(tuple(m * v for v in h.normal), m * h.offset, i))
            assert ray_shoot(rescaled, (0, 0), target) == base

    def test_origin_must_be_interior(self):
        with pytest.raises(GeometryError):
            ray_shoot([H((1,), 0)], (1,), (2,))


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
            kept = clarkson_reduce(hs, origin, seed=trial)
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
            kept = clarkson_reduce(hs, origin, seed=trial)
            assert sorted(h.label for h in kept) == want
            for h in kept:
                assert h.label == min(i for i, g in enumerate(hs) if g.int_row == h.int_row)

    def test_kept_rows_do_not_depend_on_the_seed(self):
        # One pass draws every LP's insertion order from one generator, so
        # the LPs differ from seed to seed; the non-redundant set is unique.
        rng = random.Random(29)
        for trial in range(12):
            d = 1 + trial % 3
            origin = tuple(rat(0) for _ in range(d))
            hs = random_halfspaces(rng, d, rng.randint(6, 16), ensure_interior=origin)
            hs = [Halfspace(h.int_row, i) for i, h in enumerate(hs)]
            want = [hs[i] for i in naive_nonredundant(hs, seed=trial)]
            for seed in range(20):
                assert list(clarkson_reduce(hs, origin, seed=seed)) == want

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


class TestCellUtilities:
    def test_sample_interior_points_are_strictly_inside(self):
        cell = box_cell(0, 1, 2)
        pts = sample_interior(cell, 50, seed=2)
        assert len(pts) == 50
        assert all(cell.contains(p, strict=True) for p in pts)

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

    def test_cell_json_round_trip(self):
        cell = box_cell(0, 1, 2)
        data = json.loads(json.dumps(cell.to_json()))
        back = ConvexCell.from_json(data)
        assert back.constraint_keys() == cell.constraint_keys()
        assert back.witness == cell.witness
