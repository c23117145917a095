import json
import math
import random
from fractions import Fraction

import pytest

from paramregions import regions
from paramregions.cli import decode_label
from paramregions.geometry import (
    ConvexCell,
    Halfspace,
    _box_bound,
    _clip_polygon,
    _interval_witness,
    _project_row,
    box_cell,
    dot,
    polygon_area,
    polygon_vertices,
)
from paramregions.regions import (
    AffineForm,
    DegenerateCellError,
    Subdivision,
    argmin_label,
    cells_share_facet,
    compute_subdivision,
    compute_vertex_cell,
    dominance_constraints,
    envelope_cells,
    pareto_front,
)
from paramregions.rationals import rat, simplest_between
from paramregions.tariff import TariffInstance, compute_price_regions

from oracles import (
    _interior_point_rows,
    clarkson_reduce,
    labels_at,
    naive_nonredundant,
    form_value,
    random_halfspaces,
    reference_argmin_label,
    reference_witness,
    sample_interior,
)


def forms_2d(spec):
    return {label: AffineForm(coeffs, const) for label, (coeffs, const) in spec.items()}


def argmin_subdivision(parent, forms, start=None):
    """`compute_subdivision` of "behavior = argmin of the forms", seeded with
    the behavior at `start` (default: the parent's witness)."""
    start = parent.witness if start is None else start
    return compute_subdivision(
        parent, [argmin_label(forms, start)], lambda label: dominance_constraints(forms, label)
    )


def vertex_cell(parent, label, forms):
    return compute_vertex_cell(parent, label, dominance_constraints(forms, label))


class TestComputeVertexCell:
    def test_redundant_rows_are_dropped_and_the_cell_has_a_witness(self):
        parent = box_cell(0, 1, 2)
        cell, neighbors = compute_vertex_cell(parent, "a", [Halfspace.from_rationals((1, 1), 5, "far")])
        assert neighbors == frozenset()
        assert len(cell.constraints) == 4
        assert cell.constraint_keys() == parent.constraint_keys()
        assert cell.contains(cell.witness, strict=True)

    def test_empty_interior_raises(self):
        parent = box_cell(0, 1, 1)
        with pytest.raises(DegenerateCellError):
            compute_vertex_cell(parent, "a", [Halfspace.from_rationals((1,), 0), Halfspace.from_rationals((-1,), 0)])
        line = [Halfspace.from_rationals((1, 0), rat(1, 2)), Halfspace.from_rationals((-1, 0), rat(-1, 2))]
        for candidates in (line, [Halfspace.from_rationals((1, 1), -1)]):
            with pytest.raises(DegenerateCellError):
                compute_vertex_cell(box_cell(0, 1, 2), "a", candidates)

    def test_single_behavior_cell_is_parent(self):
        parent = box_cell(0, 1, 2)
        forms = forms_2d({"only": ((1, 0), 0)})
        cell, neighbors = vertex_cell(parent, "only", forms)
        assert neighbors == frozenset()
        assert cell.constraint_keys() <= parent.constraint_keys()

    def test_two_halves_with_neighbor(self):
        parent = box_cell(0, 1, 2)
        # a wins left of x = 1/2, b wins right.
        forms = forms_2d({"a": ((1, 0), 0), "b": ((-1, 0), 1)})
        cell, neighbors = vertex_cell(parent, "a", forms)
        assert neighbors == {"b"}
        assert cell.contains((rat(1, 4), rat(1, 2)), strict=True)
        assert not cell.contains((rat(3, 4), rat(1, 2)))

    def test_dominated_label_raises_degenerate(self):
        parent = box_cell(0, 1, 2)
        forms = forms_2d({"a": ((1, 0), 0), "b": ((1, 0), 1)})
        with pytest.raises(DegenerateCellError):
            vertex_cell(parent, "b", forms)

    def test_coincident_labels_collapse_to_smallest(self):
        parent = box_cell(0, 1, 2)
        forms = forms_2d({"a": ((1, 0), 0), "b": ((1, 0), 0)})
        cell, neighbors = vertex_cell(parent, "a", forms)
        assert neighbors == frozenset()
        with pytest.raises(DegenerateCellError):
            vertex_cell(parent, "b", forms)


def primitive_direction(row):
    g = math.gcd(*row[:-1])
    return tuple(c // g for c in row[:-1])


def parallel_family(rng, parent):
    """Labeled candidates around the parent's witness, the origin: rows in
    a few normal directions with random offsets, exact duplicates, rescaled
    parallel rows (3a . x <= b, whose normal is not primitive), a copy of one
    parent row and a row tighter than another parent row."""
    d = parent.dimension
    directions = [h.int_row[:-1] for h in random_halfspaces(rng, d, rng.randint(d + 1, 2 * d + 2))]
    copied, tightened = rng.sample(range(len(parent.constraints)), 2)
    tight = parent.constraints[tightened]
    hs = [
        Halfspace(parent.constraints[copied].int_row),
        Halfspace.from_rationals(tight.normal, tight.offset / rng.randint(2, 4)),
    ]
    for _ in range(rng.randint(8, 20)):
        roll = rng.random()
        if roll < 0.2:
            hs.append(rng.choice(hs))
        elif roll < 0.4:
            normal = tuple(3 * c for c in rng.choice(directions))
            hs.append(Halfspace.from_rationals(normal, rat(rng.randint(1, 20))))
        else:
            normal = rng.choice(directions)
            hs.append(Halfspace.from_rationals(normal, rat(rng.randint(1, 12), rng.randint(1, 3))))
    rng.shuffle(hs)
    return [Halfspace(h.int_row, ("c", i)) for i, h in enumerate(hs)]


class TestCellDirectionFilter:
    """`compute_vertex_cell` keeps one row per normal direction before it
    reads the cell off them: the interval's ends in d = 1, the clip in d = 2
    and the vertices in d = 3.  The cell must still be the naive oracle's."""

    def test_parallel_candidates_match_naive_oracle(self, monkeypatch):
        seen = []

        def recording(name, rows_of):
            original = getattr(regions, name)

            def record(*args):
                seen.append(rows_of(*args))
                return original(*args)

            monkeypatch.setattr(regions, name, record)

        recording("_interval_witness", list)
        recording("_clip_polygon", list)
        recording("_vertices", lambda rows, d: list(rows))
        rng = random.Random(53)
        for trial in range(45):
            d = 1 + trial % 3
            parent = box_cell(-4, 4, d)
            candidates = parallel_family(rng, parent)
            rows = list(parent.constraints) + candidates
            want = naive_nonredundant(rows, seed=trial)
            cell, neighbors = compute_vertex_cell(parent, "me", candidates)
            assert {(h.int_row, h.label) for h in cell.constraints} == {
                (rows[i].int_row, rows[i].label) for i in want
            }
            assert neighbors == {rows[i].label for i in want if i >= len(parent.constraints)}
            assert all(h.label is None for h in cell.constraints if h.int_row in parent.constraint_keys())
            received = seen.pop()
            assert len({primitive_direction(row) for row in received}) == len(received)
        assert not seen


class TestClippedCells:
    """`compute_vertex_cell` reads the facets off the two sides of an
    interval (d = 1), an exact integer clip (d = 2) or the cell's vertices
    (d >= 3), with no LP; Clarkson's redundancy removal is the reference."""

    def cell(self, parent, candidates):
        labeled = [Halfspace.from_rationals(normal, offset, label) for label, normal, offset in candidates]
        return compute_vertex_cell(parent, "me", labeled)

    def criterion_3_systems(self):
        """400 labeled d = 2 systems of 20-60 rows around the origin, bounded
        or not, from criterion 3's generator."""
        rng = random.Random(3)
        for trial in range(400):
            hs = random_halfspaces(rng, 2, rng.randint(20, 60), ensure_interior=(rat(0), rat(0)))
            yield trial, [Halfspace(h.int_row, i) for i, h in enumerate(hs)]

    def test_facets_match_clarkson_on_the_criterion_3_generator(self):
        origin = (rat(0), rat(0))
        for trial, hs in self.criterion_3_systems():
            want = [h.label for h in clarkson_reduce(hs, origin)]
            cell, neighbors = compute_vertex_cell(ConvexCell(2, ()), "me", hs)
            assert [h.label for h in cell.constraints] == want, trial
            assert neighbors == frozenset(want)

    def test_witness_matches_its_definition_on_the_criterion_3_generator(self):
        for trial, hs in self.criterion_3_systems():
            cell, _ = compute_vertex_cell(ConvexCell(2, ()), "me", hs)
            assert cell.witness == reference_witness(hs), trial

    def test_three_dimensional_facets_match_clarkson(self):
        # Systems in d = 3, 4 and 5 of 6-30 rows around the origin, bounded
        # or not, some with a looser copy of a row, each with a box parent
        # or none.  Half of them get 1 to 2d + 2 more rows through one
        # rational point, a vertex where more than d rows meet, or no
        # interior at all; there the auxiliary slack LP decides the interior
        # and gives Clarkson its interior point.  In half of those every new
        # row holds at the origin, in the others none does.
        rng = random.Random(37)
        sizes = {3: [], 4: [], 5: []}
        kinds = []  # (rows through one point?, interior?) of each system
        for trial in range(120):
            d = 3 + trial % 3
            origin = (rat(0),) * d
            hs = random_halfspaces(rng, d, rng.randint(6, 30), ensure_interior=origin)
            if rng.random() < 0.3:
                h = hs[0]
                hs.append(Halfspace(h.int_row[:-1] + (h.int_row[-1] + 1,)))
            through = []
            if trial // 3 % 2:
                point = tuple(rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
                facing = rng.choice((-1, 1))
                for g in random_halfspaces(rng, d, rng.randint(1, 2 * d + 2)):
                    normal = g.normal if dot(g.normal, point) * facing >= 0 else tuple(-c for c in g.normal)
                    through.append(Halfspace.from_rationals(normal, dot(normal, point)))
            hs = [Halfspace(h.int_row, i) for i, h in enumerate(hs + through)]
            parent = box_cell(-2, 2, d) if trial % 2 else ConvexCell(d, ())
            rows = list(parent.constraints) + hs
            interior = _interior_point_rows([h.int_row for h in rows], trial) if through else origin
            kinds.append((bool(through), interior is not None))
            if interior is None:
                with pytest.raises(DegenerateCellError):
                    compute_vertex_cell(parent, "me", hs)
                continue
            want = clarkson_reduce(rows, interior)
            cell, neighbors = compute_vertex_cell(parent, "me", hs)
            assert cell.constraints == want, trial
            assert neighbors == frozenset(h.label for h in want if h.label is not None)
            assert cell.witness == reference_witness(rows), trial
            sizes[d].append(len(want))
        assert kinds.count((True, True)) > 10 and kinds.count((True, False)) > 10
        assert all(max(n) >= 10 for n in sizes.values())

    def test_parallel_rows_keep_the_tightest(self):
        cell, neighbors = self.cell(box_cell(0, 4, 2), [("a", (1, 0), 3), ("b", (1, 0), 2), ("c", (2, 0), 5)])
        assert neighbors == {"b"}
        assert [h.int_row for h in cell.constraints] == [(-1, 0, 0), (0, 1, 4), (0, -1, 0), (1, 0, 2)]

    def test_opposite_rows_close_together(self):
        eps = rat(1, 10**20)
        cell, neighbors = self.cell(box_cell(0, 4, 2), [("hi", (1, 0), 2 + eps), ("lo", (-1, 0), -2)])
        assert neighbors == {"hi", "lo"}
        assert [h.label for h in cell.constraints] == [None, None, "hi", "lo"]
        assert polygon_area(polygon_vertices(cell)) == 4 * eps

    def test_row_touching_one_vertex_is_no_facet(self):
        parent = box_cell(0, 4, 2)
        cell, neighbors = self.cell(parent, [("corner", (1, 1), 8)])
        assert neighbors == frozenset()
        assert cell.constraints == parent.constraints

    def test_three_rows_through_one_vertex(self):
        cell, neighbors = self.cell(box_cell(0, 4, 2), [("x", (1, 0), 2), ("diag", (1, 1), 4), ("y", (0, 1), 2)])
        assert neighbors == {"x", "y"}
        assert [h.label for h in cell.constraints] == [None, None, "x", "y"]
        assert polygon_area(polygon_vertices(cell)) == 4

    def test_candidate_equal_to_a_parent_row_is_no_neighbor(self):
        parent = box_cell(0, 4, 2)
        copy = Halfspace(parent.constraints[0].int_row, "copy")
        cell, neighbors = compute_vertex_cell(parent, "me", [copy, Halfspace.from_rationals((0, 1), 1, "y")])
        assert neighbors == {"y"}
        assert [h.label for h in cell.constraints] == [None, None, None, "y"]

    def test_interval_in_one_dimension(self):
        parent = box_cell(0, 4, 1)
        cell, neighbors = self.cell(parent, [("a", (1,), 3), ("b", (1,), 2), ("c", (-1,), -1), ("d", (-1,), 0)])
        assert neighbors == {"b", "c"}
        assert [(h.int_row, h.label) for h in cell.constraints] == [((1, 2), "b"), ((-1, -1), "c")]
        cell, neighbors = self.cell(parent, [("d", (-1,), 0)])
        assert neighbors == frozenset()
        assert cell.constraints == parent.constraints


class TestCanonicalWitness:
    """A cell's witness is x_1 the simplest rational strictly inside its
    projection onto x_1, then the same on its slice at x_1, down to x_2 the
    simplest strictly inside the vertical chord: read off the interval, the
    clip or the vertices, with no LP."""

    def test_cells_in_every_dimension_run_no_lp(self):
        rng = random.Random(89)
        built = {d: 0 for d in (1, 2, 3, 4, 5)}
        for trial in range(100):
            d = 1 + trial % 5
            parent = box_cell(-2, 2, d)
            hs = random_halfspaces(rng, d, rng.randint(3, 9), ensure_interior=(rat(0),) * d)
            hs = [Halfspace(h.int_row, i) for i, h in enumerate(hs)]
            cell, neighbors = compute_vertex_cell(parent, "me", hs)
            rows = list(parent.constraints) + hs
            assert cell.witness == reference_witness(rows), trial
            assert sorted(h.int_row for h in cell.constraints) == sorted(
                rows[i].int_row for i in naive_nonredundant(rows)
            )
            built[d] += 1
        assert built == {1: 20, 2: 20, 3: 20, 4: 20, 5: 20}

    def witness(self, parent, candidates):
        labeled = [Halfspace.from_rationals(normal, offset, i) for i, (normal, offset) in enumerate(candidates)]
        cell, _ = compute_vertex_cell(parent, "me", labeled)
        assert cell.witness == reference_witness(list(parent.constraints) + labeled)
        return cell.witness

    def test_unbounded_wedge_reads_the_true_projection_off_the_box(self):
        # x > 5/2 and 0 < y < x - 5/2: the clip's greatest x is its box's.
        rows = [((0, -1), 0), ((-1, 1), rat(-5, 2))]
        assert self.witness(ConvexCell(2, ()), rows) == (3, rat(1, 3))
        int_rows = [Halfspace.from_rationals(*r).int_row for r in rows]
        xs = [Fraction(x, w) for (x, _, w), _ in _clip_polygon(int_rows)]
        assert max(xs) == _box_bound(int_rows, 2)
        assert simplest_between((5, 2), (max(xs), 1)) == simplest_between((5, 2), None) == 3

    def test_unbounded_cells_on_the_negative_side_and_in_y(self):
        assert self.witness(ConvexCell(2, ()), [((1, 1), rat(-5, 2)), ((1, -1), rat(-5, 2))]) == (-3, 0)
        assert self.witness(ConvexCell(2, ()), [((-1, 0), rat(-1, 3)), ((1, 0), rat(1, 2))]) == (rat(2, 5), 0)

    def test_bounded_cell(self):
        # The triangle x > 2/3, y > 0, x + 3y < 1.
        rows = [((-1, 0), rat(-2, 3)), ((1, 3), 1)]
        assert self.witness(box_cell(0, 1, 2), rows) == (rat(3, 4), rat(1, 13))

    @pytest.mark.parametrize(
        "rows, vertices",
        [
            ([((1, 0), 0), ((-1, 0), -1)], 0),  # empty: the clip leaves nothing
            ([((1, 1), 0)], 1),  # the corner (0, 0): an empty x-range
            ([((1, 0), rat(1, 2)), ((-1, 0), rat(-1, 2))], 2),  # a vertical segment: an empty x-range
            ([((0, 1), rat(1, 2)), ((0, -1), rat(-1, 2))], 2),  # a horizontal segment: an empty chord
        ],
    )
    def test_cells_without_interior_are_degenerate(self, rows, vertices):
        parent = box_cell(0, 1, 2)
        hs = list(parent.constraints) + [Halfspace.from_rationals(*r) for r in rows]
        assert len(_clip_polygon([h.int_row for h in hs])) == vertices
        with pytest.raises(DegenerateCellError):
            compute_vertex_cell(parent, "me", hs[4:])

    def test_interval_in_one_dimension(self):
        assert self.witness(box_cell(0, 4, 1), [((1,), rat(3, 4)), ((-1,), rat(-2, 3))]) == (rat(5, 7),)
        assert self.witness(ConvexCell(1, ()), [((-1,), rat(-7, 2))]) == (4,)
        assert self.witness(ConvexCell(1, ()), [((1,), rat(-7, 2))]) == (-4,)


class TestArgminLabel:
    """`argmin_label` on ints against the rational reference
    (`oracles.reference_argmin_label`): the least (value, *coeffs), then the
    smallest label."""

    def test_matches_the_rational_reference(self):
        # Forms from ints (kept as ints) and from rationals of mixed
        # denominators; several are made to tie at the point in value, and
        # some in value and every coefficient but one.
        rng = random.Random(61)
        ties = deep = 0
        for trial in range(600):
            d = rng.randint(1, 3)
            point = tuple(rat(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(d))
            target = rat(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            forms = {}
            for label in rng.sample(range(20), rng.randint(1, 7)):
                if rng.random() < 0.4:
                    coeffs = tuple(rng.randint(-3, 3) for _ in range(d))
                    const = rng.randint(-5, 5)
                else:
                    coeffs = tuple(rat(rng.randint(-3, 3), rng.choice((1, 2, 3, 6))) for _ in range(d))
                    const = rat(rng.randint(-5, 5), rng.choice((1, 2, 5)))
                if rng.random() < 0.5:  # through (point, target): a tie in value
                    const = target - dot(coeffs, point)
                forms[label] = AffineForm(coeffs, const)
            if rng.random() < 0.3:  # equal values and leading coefficients
                base = forms[min(forms)]
                coeffs = base.coeffs[:-1] + (base.coeffs[-1] + rat(rng.choice((-1, 1)), 2),)
                const = base.const + dot(base.coeffs, point) - dot(coeffs, point)
                forms[rng.randint(20, 30)] = AffineForm(coeffs, const)
            got = argmin_label(forms, point)
            assert got == reference_argmin_label(forms, point), trial
            values = sorted(form_value(f, point) for f in forms.values())
            ties += len(values) > 1 and values[0] == values[1]
            best = (form_value(forms[got], point), forms[got].coeffs[0])
            deep += sum((form_value(f, point), f.coeffs[0]) == best for f in forms.values()) > 1
        assert ties >= 100 and deep >= 20, (ties, deep)

    def test_forms_built_from_ints_keep_them(self):
        form = AffineForm([2, -3], 5)
        assert form.coeffs == (2, -3) and all(type(c) is int for c in (*form.coeffs, form.const))
        assert form.int_form == ((2, -3), 5, 1)
        mixed = AffineForm((2, rat(1, 2)), 1)
        assert mixed.int_form == ((4, 1), 2, 2) and mixed == AffineForm((rat(2), rat(1, 2)), rat(1))


class TestComputeSubdivision:
    def test_total_tie_gives_one_cell(self):
        parent = box_cell(0, 1, 2)
        forms = forms_2d({"a": ((2, 3), 1), "b": ((2, 3), 1), "c": ((2, 3), 1)})
        sub = argmin_subdivision(parent, forms)
        assert set(sub.cells) == {"a"}
        assert sub.adjacency == frozenset()

    def test_four_quadrant_envelope(self):
        parent = box_cell(-1, 1, 2)
        # argmin of -(s1*x + s2*y) picks the quadrant matching the signs.
        forms = forms_2d(
            {
                (sx, sy): ((-sx, -sy), 0)
                for sx in (-1, 1)
                for sy in (-1, 1)
            }
        )
        sub = argmin_subdivision(parent, forms)
        assert len(sub.cells) == 4
        # Diagonal quadrants only touch at the origin, not along a facet.
        assert tuple(sorted(((-1, -1), (1, 1)))) not in sub.adjacency
        assert len(sub.adjacency) == 4

    def test_thousand_parent_samples_each_in_unique_cell(self):
        rng = random.Random(29)
        parent = box_cell(0, 1, 2)
        forms = {
            i: AffineForm((rat(rng.randint(-5, 5)), rat(rng.randint(-5, 5))), rat(rng.randint(0, 3)))
            for i in range(7)
        }
        sub = argmin_subdivision(parent, forms)
        for p in sample_interior(parent, 1000, seed=4):
            strict = labels_at(sub, p, strict=True)
            if strict:  # boundary hits are allowed to be ambiguous
                assert strict == [argmin_label(forms, p)]
            else:
                assert argmin_label(forms, p) in labels_at(sub, p)

    def test_every_interior_sample_lands_in_its_labelled_cell(self):
        rng = random.Random(11)
        parent = box_cell(0, 1, 2)
        forms = {}
        for i in range(6):
            forms[i] = AffineForm((rat(rng.randint(-4, 4)), rat(rng.randint(-4, 4))), rat(rng.randint(0, 3)))
        sub = argmin_subdivision(parent, forms)
        for label, cell in sub.cells.items():
            for p in sample_interior(cell, 40, seed=1):
                assert argmin_label(forms, p) == label

    def test_start_point_does_not_matter(self):
        rng = random.Random(13)
        parent = box_cell(0, 1, 2)
        forms = {
            i: AffineForm((rat(rng.randint(-5, 5)), rat(rng.randint(-5, 5))), rat(rng.randint(0, 2)))
            for i in range(5)
        }
        a = argmin_subdivision(parent, forms, start=(rat(1, 7), rat(2, 7)))
        b = argmin_subdivision(parent, forms, start=(rat(6, 7), rat(1, 3)))
        assert set(a.cells) == set(b.cells)
        assert a.adjacency == b.adjacency
        for label in a.cells:
            assert a.cells[label].constraint_keys() == b.cells[label].constraint_keys()

    def test_seeds_run_in_order_and_degenerate_ones_are_recorded(self):
        parent = box_cell(0, 1, 2)
        forms = forms_2d({"a": ((1, 0), 0), "b": ((1, 0), 1), "c": ((-1, 0), 1)})
        sub = compute_subdivision(parent, ["b", "c"], lambda label: dominance_constraints(forms, label))
        assert list(sub.cells) == ["c", "a"]
        assert sub.degenerate == ("b",)

    def test_adjacency_is_symmetric_and_deduplicated(self):
        parent = box_cell(0, 1, 1)
        forms = {"l": AffineForm((rat(1),), rat(0)), "r": AffineForm((rat(-1),), rat(1, 2))}
        sub = argmin_subdivision(parent, forms)
        assert sub.adjacency == frozenset({("l", "r")})

    def test_planarity_bound_on_random_2d_envelopes(self):
        rng = random.Random(17)
        parent = box_cell(0, 1, 2)
        for trial in range(10):
            forms = {
                i: AffineForm((rat(rng.randint(-6, 6)), rat(rng.randint(-6, 6))), rat(rng.randint(0, 4), rng.randint(1, 3)))
                for i in range(8)
            }
            sub = argmin_subdivision(parent, forms)
            assert len(sub.adjacency) <= 3 * len(sub.cells)

    def test_json_round_trip(self):
        parent = box_cell(0, 1, 2)
        sub = argmin_subdivision(parent, forms_2d({"a": ((1, 0), 0), "b": ((-1, 0), 1)}))
        data = sub.to_json()
        back = Subdivision.from_json(data)
        assert set(back.cells) == set(sub.cells)
        assert back.adjacency == sub.adjacency
        # Tuple labels, as the tariff walk writes them, through JSON text:
        # each index pair decodes to the labels of its two cells.
        sub = compute_price_regions(TariffInstance(units=2, valuations=[(3, 5), (2, 7)]))
        data = json.loads(json.dumps(sub.to_json()))
        back = Subdivision.from_json(data, decode_label)
        assert len(sub.adjacency) > 2 and all(type(label[0]) is int for label in sub.cells)
        assert back.adjacency == sub.adjacency
        assert {label: set(cell.constraints) for label, cell in back.cells.items()} == {
            label: set(cell.constraints) for label, cell in sub.cells.items()
        }
        assert back.parent.constraint_keys() == sub.parent.constraint_keys()


class TestWalkContract:
    """Every dominance row is labeled with the behavior across it, so the
    walk from any full-dimensional seed finds every region."""

    def test_shared_row_names_the_fastest_falling_form(self):
        # b and c both tie with a at x = 1/2; c falls faster, so c, not b,
        # wins across, and b has no cell.
        forms = {"a": AffineForm((rat(0),), rat(0)), "b": AffineForm((rat(-1),), rat(1, 2)),
                 "c": AffineForm((rat(-2),), rat(1))}
        rows = dominance_constraints(forms, "a")
        assert [r.int_row for r in rows] == [(2, 1), (2, 1)]
        assert [r.label for r in rows] == ["c", "c"]
        sub = compute_subdivision(box_cell(0, 1, 1), ["a"], lambda label: dominance_constraints(forms, label))
        assert set(sub.cells) == {"a", "c"}
        assert sub.adjacency == frozenset({("a", "c")})

    def test_scaled_copies_tile_the_box(self):
        # One form per set is f_a + k (f_b - f_a): it meets f_a along the
        # same line as f_b, at another rate.
        rng = random.Random(31)
        parent = box_cell(0, 1, 2)
        area = polygon_area(polygon_vertices(parent))
        for trial in range(200):
            forms = {
                i: AffineForm((rat(rng.randint(-4, 4)), rat(rng.randint(-4, 4))), rat(rng.randint(0, 3)))
                for i in range(5)
            }
            a, b = rng.sample(range(5), 2)
            k = rat(rng.randint(1, 6), rng.randint(1, 6))
            fa, fb = forms[a], forms[b]
            forms[5] = AffineForm(
                tuple(x + k * (y - x) for x, y in zip(fa.coeffs, fb.coeffs)), fa.const + k * (fb.const - fa.const)
            )
            sub = argmin_subdivision(parent, forms)
            assert sum(polygon_area(polygon_vertices(cell)) for cell in sub.cells.values()) == area, trial
            pairs = {
                tuple(sorted((label, h.label)))
                for label, cell in sub.cells.items()
                for h in cell.constraints
                if h.label is not None
            }
            assert sub.adjacency == pairs, trial

    def test_argmin_at_a_tie_has_the_cell_just_past_the_point(self):
        # At ties the label is the one minimal at p + (e, e^2), so its cell
        # holds that point for small e > 0.
        rng = random.Random(37)
        parent = box_cell(0, 1, 2)
        e = rat(1, 10**6)
        ties = 0
        for trial in range(20):
            forms = {
                i: AffineForm((rat(rng.randint(-3, 3)), rat(rng.randint(-3, 3))), rat(rng.randint(0, 2)))
                for i in range(6)
            }
            sub = argmin_subdivision(parent, forms)
            for x in range(1, 6):
                for y in range(1, 6):
                    p = (rat(x, 6), rat(y, 6))
                    ties += len(labels_at(sub, p)) > 1
                    label = argmin_label(forms, p)
                    assert sub.cells[label].contains((p[0] + e, p[1] + e * e), strict=True), (trial, p)
        assert ties > 0


def facet_labels(sub):
    return {h.label for cell in sub.cells.values() for h in cell.constraints if h.label is not None}


class TestParetoFront:
    def test_equal_vectors_keep_the_smallest_label(self):
        assert pareto_front({"b": (1, 2), "a": (1, 2), "c": (1, 2)}) == ["a"]
        assert pareto_front({"a": (1, 2), "c": (1, 2), "b": (1, 2)}) == ["a"]
        assert pareto_front({(2, 3): (0,), (0, 1): (0,), (1, 5): (0,)}) == [(0, 1)]

    def test_incomparable_vectors_are_both_kept(self):
        assert pareto_front({"y": (3, 0, 1), "x": (0, 3, 1)}) == ["x", "y"]

    def test_later_vector_evicts_earlier_dominated_ones(self):
        assert pareto_front({"a": (2, 5), "b": (5, 2), "c": (1, 3)}) == ["b", "c"]
        assert pareto_front({"a": (2, 2), "b": (2, 2), "c": (3, 1), "d": (1, 1)}) == ["d"]

    def test_dominated_later_vector_is_dropped(self):
        assert pareto_front({"a": (1, 1), "b": (1, 2), "c": (2, 1)}) == ["a"]
        assert pareto_front({}) == []


class TestEnvelopeCells:
    def test_three_forms_through_one_point(self):
        # All three tie at x = 1/2: c wins left of it, b right, and a only
        # at the point itself.
        forms = {
            "a": AffineForm((rat(-1),), rat(5, 2)),
            "b": AffineForm((rat(-2),), rat(3)),
            "c": AffineForm((rat(0),), rat(2)),
        }
        sub = envelope_cells(box_cell(0, 1, 1), forms)
        assert set(sub.cells) == {"b", "c"}
        assert sub.adjacency == frozenset({("b", "c")})
        assert sub.degenerate == ("a",)
        assert facet_labels(sub) == {"b", "c"}
        assert sub.cells["c"].contains((rat(1, 4),), strict=True)
        assert sub.cells["b"].contains((rat(3, 4),), strict=True)

    def test_equal_forms_keep_the_smallest_label(self):
        f = ((1, 0), 0)
        g = ((-1, 0), 1)
        parent = box_cell(0, 1, 2)
        sub = envelope_cells(parent, forms_2d({"c": f, "a": f, "b": g, "d": g}))
        assert set(sub.cells) == {"a", "b"}
        assert sub.adjacency == frozenset({("a", "b")})
        assert facet_labels(sub) == {"a", "b"}
        sub = envelope_cells(parent, forms_2d({"y": f, "x": f}))
        assert set(sub.cells) == {"x"}
        assert sub.cells["x"].constraint_keys() <= parent.constraint_keys()

    def test_forms_off_the_front_only_add_degenerate_labels(self):
        # "d" is a constant above the constant "c" and "f" lies above it
        # everywhere: both are beaten everywhere; "e" equals "b".
        front = forms_2d({"a": ((1, 0), 0), "b": ((-1, 0), 1), "c": ((0, 0), rat(1, 4))})
        forms = {
            **front,
            "d": AffineForm((0, 0), rat(1, 2)),
            "e": AffineForm((-1, 0), 1),
            "f": AffineForm((0, 1), 2),
        }
        parent = box_cell(0, 1, 2)
        pruned, unpruned = envelope_cells(parent, front), envelope_cells(parent, forms)
        assert set(unpruned.cells) == {"a", "b", "c"}
        assert unpruned.to_json() == pruned.to_json()
        assert pruned.degenerate == ()
        assert unpruned.degenerate == ("d", "e", "f")

    def test_parent_with_empty_interior_has_no_cell(self):
        segment = ConvexCell(1, (Halfspace.from_rationals((1,), 0), Halfspace.from_rationals((-1,), 0)))
        forms = {"b": AffineForm((rat(1),), 0), "a": AffineForm((rat(-1),), 0)}
        sub = envelope_cells(segment, forms)
        assert sub.cells == {}
        assert sub.degenerate == ("a", "b")

    def test_random_forms_tile_the_simplex(self):
        # No LP runs in d <= 2: each witness is read off the clip.
        rng = random.Random(23)
        simplex = [Halfspace.from_rationals(n, b) for n, b in (((1, 1), 1), ((-1, 0), 0), ((0, -1), 0))]
        parents = [
            ConvexCell(2, tuple(simplex), witness=(rat(1, 3), rat(1, 3))),
            ConvexCell(2, tuple(simplex) + (Halfspace.from_rationals((1, 0), rat(1, 2)),), witness=(rat(1, 4), rat(1, 4))),
        ]
        for trial in range(12):
            parent = parents[trial % 2]
            # Small coefficients make equal forms and forms through a common
            # point likely.
            forms = {
                i: AffineForm((rat(rng.randint(-3, 3)), rat(rng.randint(-3, 3))), rat(rng.randint(0, 2)))
                for i in range(9)
            }
            sub = envelope_cells(parent, forms)
            area = sum(polygon_area(polygon_vertices(cell)) for cell in sub.cells.values())
            assert area == polygon_area(polygon_vertices(parent))
            for label, cell in sub.cells.items():
                assert argmin_label(forms, cell.witness) == label
            assert facet_labels(sub) <= set(sub.cells)
            assert all(a in sub.cells and b in sub.cells for a, b in sub.adjacency)


class TestFacetSharing:
    def test_halves_share_facet(self):
        parent = box_cell(0, 1, 2)
        sub = argmin_subdivision(parent, forms_2d({"a": ((1, 0), 0), "b": ((-1, 0), 1)}))
        assert cells_share_facet(sub.cells["a"], sub.cells["b"])

    def test_diagonal_quadrants_do_not(self):
        parent = box_cell(-1, 1, 2)
        forms = forms_2d({(sx, sy): ((-sx, -sy), 0) for sx in (-1, 1) for sy in (-1, 1)})
        sub = argmin_subdivision(parent, forms)
        assert not cells_share_facet(sub.cells[(-1, -1)], sub.cells[(1, 1)])
        assert cells_share_facet(sub.cells[(-1, -1)], sub.cells[(1, -1)])

    def test_open_intervals_match_the_interior_point_lp(self):
        # The d = 2 facet test reads an open interval off 1-D rows (a, b),
        # a != 0; the reference is the auxiliary slack LP.
        cases = [
            [(1, 2), (-1, -2)],  # x = 2: a point, no interior
            [(3, 2), (-5, -1), (2, 1)],  # 1/5 <= x <= 1/2
            [(1, 3)],  # half-infinite
            [(-2, 5), (-1, 0)],
            [(1, 3), (2, 5), (1, 3), (-1, 0), (-4, 1)],  # redundant parallel rows
            [(1, 0), (-1, -1)],  # x <= 0 and x >= 1: empty
        ]
        rng = random.Random(17)
        for _ in range(400):
            rows = [(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3:  # a touching pair: a x <= b and -a x <= -b
                a, b = rows[0]
                rows.append((-a, -b))
            cases.append(rows)
        seen = set()
        for seed, rows in enumerate(cases):
            got = _interval_witness(rows) is not None
            assert got == (_interior_point_rows(rows, seed) is not None), rows
            seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_plane_facets_match_the_projected_lp(self, d):
        # `_has_relative_interior_on`, which reads an interval, a clip or
        # the vertices of the projected cell with no LP, against the
        # auxiliary slack LP on the rows projected onto the plane, with its
        # own seed, which the answer, exact feasibility, does not depend on.
        rng = random.Random({2: 19, 3: 23, 4: 31}[d])
        outcomes = []
        for seed in range(300):
            plane = Halfspace.from_rationals(
                (rng.randint(-3, 3) or 1, *(rng.randint(-3, 3) for _ in range(d - 1))), rng.randint(-4, 4)
            )
            rows = []
            for _ in range(rng.randint(1, 5)):
                normal = tuple(rng.randint(-3, 3) for _ in range(d))
                if any(normal):
                    rows.append(Halfspace.from_rationals(normal, rng.randint(-4, 4)))
            if rng.random() < 0.3:  # two opposite rows: a hyperplane crossing the plane's
                normal = (plane.int_row[1], -plane.int_row[0], *(0,) * (d - 2))
                rows.append(Halfspace.from_rationals(normal, 0))
                rows.append(Halfspace.from_rationals(tuple(-c for c in normal), 0))
            pivot = plane.int_row
            k = max(range(d), key=lambda j: (abs(pivot[j]), -j))
            projected = [_project_row(h.int_row, pivot, k) for h in rows]
            if any(not any(row[:-1]) and row[-1] <= 0 for row in projected):
                expected = False
            else:
                live = [row for row in projected if any(row[:-1])]
                expected = not live or _interior_point_rows(live, seed) is not None
            got = regions._has_relative_interior_on(plane, rows)
            assert got == expected
            outcomes.append(got)
        assert outcomes.count(True) > 30 and outcomes.count(False) > 30
