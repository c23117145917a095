import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from paramregions import tariff
from paramregions.geometry import (
    ConvexCell,
    GeometryError,
    _bounded_vertices,
    _int_vector,
    _rational_point,
    dot,
    polygon_area,
    polygon_vertices,
)
from paramregions.rationals import rat
from paramregions import cli
from paramregions.regions import (
    AffineForm,
    Subdivision,
    argmin_label,
    compute_vertex_cell,
    dominance_constraints,
    product_candidates,
)
from paramregions.tariff import (
    TariffInstance,
    buyer_choice,
    buyer_choices,
    check_piece_bound,
    compute_price_regions,
    maximize_revenue,
    normalize_profile,
    region_boundary_lines,
    revenue_form,
    _best_vertex,
    _option_forms,
)

from oracles import (
    labels_at,
    reference_argmin_label,
    reference_price_regions,
    reference_tariff_candidates,
    reference_vertices,
    sample_interior,
    solve_lp,
)

FIXTURE = TariffInstance(units=2, valuations=[(3, 5)])
# Seeds of the tariff walk at prices where a sample is indifferent.
TIE_SEEDS = [
    # u(0) = u(1) = u(2) = 0; just past the point, in the direction
    # (e, e^2), buying nothing is best.
    (FIXTURE, (1, 2), ((0, 1),)),
    # Both tariffs give utility 2; past the point the second is
    # cheaper, although buyer_choice picks the first.
    (TariffInstance(units=1, valuations=[(4,)], menu_length=2), (1, 1, 1, 1), ((1, 2),)),
]
# Two identical samples: every boundary line is shared by both.
TWINS = TariffInstance(units=2, valuations=[[3, 5], [3, 5]], price_cap=7)


def profile_candidates(inst):
    """The candidates function of the tariff search."""
    return product_candidates([partial(dominance_constraints, forms) for forms in _option_forms(inst)])


def grid_points(cap, steps):
    cells = [rat(i * int(cap.numerator), steps * int(cap.denominator)) for i in range(1, steps)]
    return [(a, b) for a in cells for b in cells]


def random_instance(rng, max_n=4, max_k=4, menu_length=1):
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_k)
    vals = [[rat(rng.randint(0, 20)) for _ in range(k)] for _ in range(n)]
    return TariffInstance(units=k, valuations=vals, menu_length=menu_length)


class TestBuyerChoice:
    def test_picks_highest_utility_quantity(self):
        assert buyer_choice(FIXTURE, 0, (rat(1), rat(1))) == (2, 1)

    def test_prices_above_valuations_buy_nothing(self):
        assert buyer_choice(FIXTURE, 0, (rat(6), rat(0))) == (0, 1)

    def test_zero_utility_tie_prefers_larger_quantity(self):
        # u(0) = u(1) = u(2) = 0 at prices (1, 2).
        assert buyer_choice(FIXTURE, 0, (rat(1), rat(2))) == (2, 1)

    def test_menu_tie_prefers_smaller_index(self):
        inst = TariffInstance(units=1, valuations=[(4,)], menu_length=2)
        assert buyer_choice(inst, 0, (rat(1), rat(1), rat(1), rat(1))) == (1, 1)

    def test_integer_choice_matches_the_rational_utilities(self):
        # Fractional valuations and prices with small numerators make exact
        # ties common.  The best (utility, q, -j) is the tie rule: larger q,
        # then smaller j, buying nothing as (0, 1).
        rng = random.Random(17)
        for _ in range(400):
            k, menu = rng.randint(1, 3), rng.randint(1, 2)
            vals = [[rat(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(k)] for _ in range(2)]
            inst = TariffInstance(units=k, valuations=vals, menu_length=menu)
            p = tuple(rat(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(2 * menu))
            for i in range(2):
                options = [(rat(0), 0, -1)] + [
                    (inst.value(i, q) - p[2 * j - 2] - q * p[2 * j - 1], q, -j)
                    for q in range(1, k + 1)
                    for j in range(1, menu + 1)
                ]
                _, q, j = max(options)
                assert buyer_choice(inst, i, p) == (q, -j)

    def test_price_dimension_must_match(self):
        for choose in (partial(buyer_choice, FIXTURE, 0), partial(buyer_choices, FIXTURE)):
            with pytest.raises(GeometryError):
                choose((rat(1),))
            with pytest.raises(GeometryError):
                choose((rat(1), rat(1), rat(1), rat(1)))

    def test_every_sample_at_once_matches_one_by_one(self):
        rng = random.Random(23)
        for _ in range(300):
            k, menu = rng.randint(1, 3), rng.randint(1, 2)
            n = rng.randint(1, 4)
            vals = [[rat(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(k)] for _ in range(n)]
            inst = TariffInstance(units=k, valuations=vals, menu_length=menu)
            p = tuple(rat(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(2 * menu))
            assert buyer_choices(inst, p) == tuple(buyer_choice(inst, i, p) for i in range(inst.n_samples))


class TestPriceRegions:
    def test_single_unit_two_regions(self):
        inst = TariffInstance(units=1, valuations=[(rat(7, 2),)])
        sub = compute_price_regions(inst)
        assert set(sub.cells) == {(0,), (1,)}
        assert sub.adjacency == frozenset({((0,), (1,))})

    def test_fixture_three_regions_with_expected_boundaries(self):
        sub = compute_price_regions(FIXTURE)
        assert set(sub.cells) == {(0,), (1,), (2,)}
        assert sub.adjacency == frozenset({((0,), (1,)), ((0,), (2,)), ((1,), (2,))})
        q2 = sub.cells[(2,)]
        # q=2 region: p2 <= 2 and p1 + 2 p2 <= 5.
        assert q2.contains((rat(1), rat(1)), strict=True)
        assert not q2.contains((rat(1), rat(52, 25)))
        assert not q2.contains((rat(4), rat(3, 4)))
        q1 = sub.cells[(1,)]
        assert q1.contains((rat(1, 2), rat(94, 40)), strict=True)

    def test_grid_oracle_every_point_in_exactly_one_region_closure(self):
        sub = compute_price_regions(FIXTURE)
        for p in grid_points(FIXTURE.price_cap, 23):
            holders = labels_at(sub, p)
            strict = labels_at(sub, p, strict=True)
            assert len(holders) >= 1
            if strict:
                assert len(strict) == 1
                assert strict[0] == tuple(q for q, _ in ((buyer_choice(FIXTURE, 0, p)),))

    def test_interior_samples_reproduce_profiles(self):
        rng = random.Random(3)
        for trial in range(8):
            inst = random_instance(rng)
            sub = compute_price_regions(inst)
            for label, cell in sub.cells.items():
                for p in sample_interior(cell, 25, seed=trial):
                    got = tuple(buyer_choice(inst, i, p) for i in range(inst.n_samples))
                    assert got == normalize_profile(label)

    def test_planarity_adjacency_bound(self):
        rng = random.Random(5)
        for trial in range(8):
            inst = random_instance(rng)
            sub = compute_price_regions(inst)
            assert len(sub.adjacency) <= 3 * len(sub.cells)

    def test_menu_length_one_equals_single_tariff(self):
        # Every part of the single-tariff subdivision is the reference walk's
        # over rational (q, j) candidates with j dropped.
        def q_only(label):
            return tuple(q for q, _ in label)

        rng = random.Random(7)
        for trial in range(12):
            inst = random_instance(rng)
            if trial % 2:
                rows = [*inst.valuations, *rng.choices(inst.valuations, k=rng.randint(1, 2))]
                inst = TariffInstance(units=inst.units, valuations=rows)
            reference = reference_price_regions(inst)
            single = compute_price_regions(inst)
            assert [q_only(label) for label in reference.cells] == list(single.cells)
            for label, cell in reference.cells.items():
                got = single.cells[q_only(label)]
                assert got.witness == cell.witness
                assert [(h.int_row, h.label) for h in got.constraints] == [
                    (h.int_row, None if h.label is None else q_only(h.label)) for h in cell.constraints
                ]
            assert single.adjacency == {tuple(sorted(map(q_only, pair))) for pair in reference.adjacency}
            assert single.degenerate == tuple(map(q_only, reference.degenerate))
            assert single.parent.constraints == reference.parent.constraints

    def test_single_tariff_builds_each_cell_once(self, monkeypatch):
        built = []
        init = ConvexCell.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ConvexCell, "__init__", counting_init)
        rng = random.Random(13)
        for trial in range(6):
            inst = random_instance(rng)
            built.clear()
            sub = compute_price_regions(inst)
            assert len(built) == len(sub.cells) + 1  # the price box and one per region

    def test_menu_of_two_regions_sampled(self):
        inst = TariffInstance(units=1, valuations=[(3,), (1,)], menu_length=2)
        sub = compute_price_regions(inst)
        assert len(sub.cells) >= 3
        for label, cell in sub.cells.items():
            for p in sample_interior(cell, 10, seed=1):
                got = tuple(buyer_choice(inst, i, p) for i in range(inst.n_samples))
                assert got == label


def facet_label_pairs(sub):
    return {
        tuple(sorted((label, h.label)))
        for label, cell in sub.cells.items()
        for h in cell.constraints
        if h.label is not None
    }


class TestCompleteness:
    # Each candidate row names the profile across it, so the walk finds
    # every region even where several samples or options share a line.
    def test_identical_samples_get_every_region(self):
        sub = compute_price_regions(TWINS)
        assert set(sub.cells) == {(0, 0), (1, 1), (2, 2)}
        assert sub.adjacency == frozenset({((0, 0), (1, 1)), ((0, 0), (2, 2)), ((1, 1), (2, 2))})
        assert sum(polygon_area(polygon_vertices(cell)) for cell in sub.cells.values()) == 49
        assert sub.degenerate == ()

    def test_random_instances_tile_the_box(self):
        # The walk in d = 2 runs no LP.
        rng = random.Random(29)
        for trial in range(300):
            inst = random_instance(rng)
            if trial % 2:
                vals = list(inst.valuations)
                vals.append(vals[rng.randrange(len(vals))])
                inst = TariffInstance(units=inst.units, valuations=vals)
            sub = compute_price_regions(inst)
            area = sum(polygon_area(polygon_vertices(cell)) for cell in sub.cells.values())
            assert area == inst.price_cap ** 2, trial
            pairs = facet_label_pairs(sub)
            assert all(a in sub.cells and b in sub.cells for a, b in pairs), trial
            assert sub.adjacency == pairs, trial

    def test_menu_probes_lie_in_a_cell(self):
        rng = random.Random(31)
        for trial in range(30):
            k = rng.randint(1, 2)
            vals = [[rat(rng.randint(0, 12)) for _ in range(k)] for _ in range(rng.randint(1, 2))]
            vals.append(vals[0])
            inst = TariffInstance(units=k, valuations=vals, menu_length=2)
            sub = compute_price_regions(inst)
            cap = inst.price_cap
            for _ in range(50):
                p = tuple(cap * rat(rng.randint(0, 60), 60) for _ in range(inst.dimension))
                assert labels_at(sub, p), (trial, p)

    @pytest.mark.parametrize("inst, prices, want", TIE_SEEDS)
    def test_seed_at_a_tie_has_a_cell(self, inst, prices, want):
        label = tuple(argmin_label(forms, tuple(rat(p) for p in prices)) for forms in _option_forms(inst))
        assert normalize_profile(label) == want
        cell, _ = compute_vertex_cell(inst.price_box(), label, profile_candidates(inst)(label))
        assert cell.contains(cell.witness, strict=True)

    @pytest.mark.parametrize("inst, prices, want", TIE_SEEDS)
    def test_seed_at_a_tie_matches_the_rational_argmin(self, inst, prices, want):
        point = tuple(rat(p) for p in prices)
        for forms in _option_forms(inst):
            assert argmin_label(forms, point) == reference_argmin_label(forms, point)

    def test_option_forms_pick_the_rational_argmin(self):
        # The integer option forms, scaled by the valuations' common
        # denominator, against the rational reference at points on many
        # ties: the same label everywhere.
        rng = random.Random(37)
        for _ in range(60):
            menu = rng.choice((1, 2))
            k = rng.randint(1, 3)
            vals = [[rat(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(k)] for _ in range(2)]
            inst = TariffInstance(units=k, valuations=vals, menu_length=menu)
            point = tuple(rat(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(inst.dimension))
            for i, forms in enumerate(_option_forms(inst)):
                rational = {}
                for key in forms:
                    (q, _), = normalize_profile((key,))
                    rational[key] = AffineForm(revenue_form(inst, (key,)), -inst.value(i, q))
                assert argmin_label(forms, point) == reference_argmin_label(rational, point)


class TestCandidateRows:
    def test_rows_match_rational_reference(self):
        # Every candidate is the primitive integer row of the halfspace built
        # from rational utilities, in the same order and with the same label;
        # fractional valuations exercise the per-sample scaling.
        rng = random.Random(12)
        for trial in range(30):
            menu = rng.choice((1, 1, 2))
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            vals = [[rat(rng.randint(0, 40), rng.choice((1, 1, 2, 3, 6))) for _ in range(k)] for _ in range(n)]
            inst = TariffInstance(units=k, valuations=vals, menu_length=menu)
            candidates = profile_candidates(inst)
            options = [(0, 1)] + [(q, j) for q in range(1, k + 1) for j in range(1, menu + 1)]
            labels = list(compute_price_regions(inst).cells)
            labels += [tuple(rng.choice(options) for _ in range(n)) for _ in range(10)]
            for label in map(normalize_profile, labels):
                key = label if menu > 1 else tuple(q for q, _ in label)  # a single tariff's labels
                got = [(r.int_row, normalize_profile(r.label)) for r in candidates(key)]
                assert got == [(h.int_row, h.label) for h in reference_tariff_candidates(inst, label)]


class TestRevenue:
    def test_fixture_optimal_revenue_is_five(self):
        sub = compute_price_regions(FIXTURE)
        prices, revenue, label = maximize_revenue(FIXTURE, sub)
        assert revenue == 5
        assert label == (2,)
        assert prices[0] + 2 * prices[1] == 5

    def test_single_sample_full_surplus(self):
        inst = TariffInstance(units=1, valuations=[(rat(13, 3),)])
        sub = compute_price_regions(inst)
        _, revenue, _ = maximize_revenue(inst, sub)
        assert revenue == rat(13, 3)

    def test_unbounded_region_raises(self):
        # Revenue p1 + 2 p2 on the quadrant p >= 0 has no maximum.  Run
        # under `python -O`: the check is no assert, which -O would drop.
        script = "\n".join(
            [
                "from paramregions.geometry import ConvexCell, GeometryError, Halfspace",
                "from paramregions.regions import Subdivision",
                "from paramregions.tariff import TariffInstance, maximize_revenue",
                "quadrant = ConvexCell(2, (Halfspace((-1, 0, 0)), Halfspace((0, -1, 0))))",
                "sub = Subdivision(quadrant, {(2,): quadrant}, frozenset())",
                "try:",
                "    maximize_revenue(TariffInstance(units=2, valuations=[(3, 5)]), sub)",
                "except GeometryError as exc:",
                "    print(exc)",
            ]
        )
        src = str(Path(tariff.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "region (2,) is unbounded or empty\n"

    def test_vertex_maxima_match_the_lp(self):
        # Single tariffs (d = 2) and menus of two (d = 4).  Within the best
        # region, whose label is the least of those with the most revenue,
        # the prices are the lexicographically largest optimal vertex; in
        # most trials more than one vertex is optimal.
        rng = random.Random(19)
        ties = 0
        for trial in range(16):
            menu = 1 + trial % 2
            inst = random_instance(rng, max_n=4 - menu, max_k=4 - menu, menu_length=menu)
            sub = compute_price_regions(inst)
            lp = {}
            for label, cell in sub.cells.items():
                coeffs = revenue_form(inst, label)
                lp[label] = solve_lp(coeffs, cell.constraints).value
                best = _rational_point(_best_vertex(_int_vector(coeffs), _bounded_vertices(cell)))
                assert dot(coeffs, best) == lp[label]
            prices, revenue, label = maximize_revenue(inst, sub)
            assert revenue == max(lp.values())
            assert label == min(l for l, value in lp.items() if value == revenue)
            coeffs = revenue_form(inst, label)
            optimal = [v for v in reference_vertices(sub.cells[label].constraints) if dot(coeffs, v) == revenue]
            assert prices == max(optimal)
            ties += len(optimal) > 1
        assert ties >= 8

    def test_two_samples_pick_single_high_buyer(self):
        inst = TariffInstance(units=1, valuations=[(1,), (3,)])
        sub = compute_price_regions(inst)
        _, revenue, _ = maximize_revenue(inst, sub)
        assert revenue == 3

    def test_revenue_dominates_grid_search(self):
        rng = random.Random(11)
        for trial in range(5):
            inst = random_instance(rng, max_n=3, max_k=3)
            sub = compute_price_regions(inst)
            _, revenue, _ = maximize_revenue(inst, sub)
            best_grid = rat(0)
            for p in grid_points(inst.price_cap, 12):
                total = rat(0)
                for i in range(inst.n_samples):
                    q, j = buyer_choice(inst, i, p)
                    if q > 0:
                        total += p[0] + q * p[1]
                best_grid = max(best_grid, total)
            assert revenue >= best_grid


class TestKeptVertices:
    """The walk's cells keep the vertices of their clip (d = 2) or vertex
    enumeration (d = 4); the same cells read back from JSON keep none and
    build them again.  Every reader must answer alike on both."""

    @pytest.mark.parametrize("menu_length, trials", [(1, 12), (2, 4)])
    def test_cells_without_kept_vertices_give_the_same_answers(self, menu_length, trials):
        rng = random.Random(71 + menu_length)
        for _ in range(trials):
            size = 4 // menu_length
            inst = random_instance(rng, max_n=size, max_k=size, menu_length=menu_length)
            sub = compute_price_regions(inst)
            back = Subdivision.from_json(sub.to_json())
            assert all(getattr(cell, "_kept", None) for cell in sub.cells.values())
            assert not any(hasattr(cell, "_kept") for cell in back.cells.values())
            assert back.to_json() == sub.to_json()
            for label, cell in sub.cells.items():
                again = back.cells[label]
                bare = ConvexCell(cell.dimension, cell.constraints, cell.witness)
                assert bare == cell and hash(bare) == hash(cell) and repr(bare) == repr(cell)
                assert set(_bounded_vertices(again)) == set(_bounded_vertices(cell))
                assert list(cli._cell_box_grid(again, 6)) == list(cli._cell_box_grid(cell, 6))
            assert maximize_revenue(inst, back) == maximize_revenue(inst, sub)


class TestPieceBound:
    def test_trivial_instance(self):
        inst = TariffInstance(units=1, valuations=[(2,)])
        sub = compute_price_regions(inst)
        report = check_piece_bound(inst, sub)
        assert report["pieces"] == 2
        assert report["pieces_ok"] and report["lines_ok"]

    def test_fixture_three_pieces(self):
        sub = compute_price_regions(FIXTURE)
        report = check_piece_bound(FIXTURE, sub)
        assert report["pieces"] == 3
        assert report["pieces_ok"] and report["lines_ok"]

    def test_random_instances_respect_bounds(self):
        rng = random.Random(13)
        for trial in range(10):
            inst = random_instance(rng)
            sub = compute_price_regions(inst)
            report = check_piece_bound(inst, sub)
            assert report["pieces_ok"], report
            assert report["lines_ok"], report

    def test_shared_line_counts_for_every_sample(self):
        report = check_piece_bound(TWINS, compute_price_regions(TWINS))
        assert report["lines_per_sample"] == {0: 5, 1: 5}

    def test_increasing_valuations_many_slabs(self):
        inst = TariffInstance(units=3, valuations=[(2, 5, 7)])
        sub = compute_price_regions(inst)
        lines = region_boundary_lines(inst, sub)
        assert lines[0] <= 2 * inst.units + 2


class TestEdgeCases:
    def test_worthless_item_single_region_zero_revenue(self):
        inst = TariffInstance(units=1, valuations=[(0,)])
        sub = compute_price_regions(inst)
        assert set(sub.cells) == {(0,)}
        _, revenue, label = maximize_revenue(inst, sub)
        assert revenue == 0 and label == (0,)


class TestValidation:
    def test_negative_valuation_rejected(self):
        with pytest.raises(ValueError):
            TariffInstance(units=1, valuations=[(-1,)])

    def test_json_round_trip(self):
        data = FIXTURE.to_json()
        back = TariffInstance.from_json(data)
        assert back == FIXTURE
