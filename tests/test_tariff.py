import random
from functools import partial

import pytest

from paramregions import tariff
from paramregions.geometry import ConvexCell, GeometryError, LPResult, polygon_area, polygon_vertices
from paramregions.rationals import rat
from paramregions.regions import argmin_label, compute_vertex_cell, dominance_constraints, product_candidates
from paramregions.tariff import (
    TariffInstance,
    buyer_choice,
    check_piece_bound,
    compute_price_regions,
    maximize_revenue,
    region_boundary_lines,
    single_tariff_regions,
    _option_forms,
)

from oracles import labels_at, reference_tariff_candidates, sample_interior

FIXTURE = TariffInstance(units=2, valuations=[(3, 5)])
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


class TestPriceRegions:
    def test_single_unit_two_regions(self):
        inst = TariffInstance(units=1, valuations=[(rat(7, 2),)])
        sub = single_tariff_regions(inst)
        assert set(sub.cells) == {(0,), (1,)}
        assert sub.adjacency == frozenset({((0,), (1,))})

    def test_fixture_three_regions_with_expected_boundaries(self):
        sub = single_tariff_regions(FIXTURE)
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
        sub = single_tariff_regions(FIXTURE)
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
                    assert got == label

    def test_planarity_adjacency_bound(self):
        rng = random.Random(5)
        for trial in range(8):
            inst = random_instance(rng)
            sub = compute_price_regions(inst)
            assert len(sub.adjacency) <= 3 * len(sub.cells)

    def test_menu_length_one_equals_single_tariff(self):
        # Every part of the single-tariff subdivision is the menu walk's with j dropped.
        def q_only(label):
            return tuple(q for q, _ in label)

        rng = random.Random(7)
        for trial in range(12):
            inst = random_instance(rng)
            if trial % 2:
                rows = [*inst.valuations, *rng.choices(inst.valuations, k=rng.randint(1, 2))]
                inst = TariffInstance(units=inst.units, valuations=rows)
            menu = compute_price_regions(inst)
            single = single_tariff_regions(inst)
            assert [q_only(label) for label in menu.cells] == list(single.cells)
            for label, cell in menu.cells.items():
                got = single.cells[q_only(label)]
                assert got.witness == cell.witness
                assert [(h.int_row, h.label) for h in got.constraints] == [
                    (h.int_row, None if h.label is None else q_only(h.label)) for h in cell.constraints
                ]
            assert single.adjacency == {tuple(sorted(map(q_only, pair))) for pair in menu.adjacency}
            assert single.degenerate == tuple(map(q_only, menu.degenerate))
            assert single.parent.constraints == menu.parent.constraints

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
            sub = single_tariff_regions(inst)
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
        sub = single_tariff_regions(TWINS)
        assert set(sub.cells) == {(0, 0), (1, 1), (2, 2)}
        assert sub.adjacency == frozenset({((0, 0), (1, 1)), ((0, 0), (2, 2)), ((1, 1), (2, 2))})
        assert sum(polygon_area(polygon_vertices(cell)) for cell in sub.cells.values()) == 49
        assert sub.degenerate == ()

    def test_random_instances_tile_the_box(self, no_library_lp):
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

    @pytest.mark.parametrize(
        "inst, prices, want",
        [
            # u(0) = u(1) = u(2) = 0; just past the point, in the direction
            # (e, e^2), buying nothing is best.
            (FIXTURE, (1, 2), ((0, 1),)),
            # Both tariffs give utility 2; past the point the second is
            # cheaper, although buyer_choice picks the first.
            (TariffInstance(units=1, valuations=[(4,)], menu_length=2), (1, 1, 1, 1), ((1, 2),)),
        ],
    )
    def test_seed_at_a_tie_has_a_cell(self, inst, prices, want):
        label = tuple(argmin_label(forms, tuple(rat(p) for p in prices)) for forms in _option_forms(inst))
        assert label == want
        cell, _ = compute_vertex_cell(inst.price_box(), label, profile_candidates(inst)(label))
        assert cell.contains(cell.witness, strict=True)


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
            for label in labels:
                got = [(r.int_row, r.label) for r in candidates(label)]
                assert got == [(h.int_row, h.label) for h in reference_tariff_candidates(inst, label)]


class TestRevenue:
    def test_fixture_optimal_revenue_is_five(self):
        sub = single_tariff_regions(FIXTURE)
        prices, revenue, label = maximize_revenue(FIXTURE, sub)
        assert revenue == 5
        assert label == (2,)
        assert prices[0] + 2 * prices[1] == 5

    def test_single_sample_full_surplus(self):
        inst = TariffInstance(units=1, valuations=[(rat(13, 3),)])
        sub = single_tariff_regions(inst)
        _, revenue, _ = maximize_revenue(inst, sub)
        assert revenue == rat(13, 3)

    def test_non_optimal_revenue_lp_raises(self, monkeypatch):
        # A check that holds under `python -O` too, where an assert would
        # let the None value of the LP reach the comparison of revenues.
        sub = single_tariff_regions(FIXTURE)
        monkeypatch.setattr(tariff, "solve_lp", lambda *args, **kwargs: LPResult("infeasible"))
        with pytest.raises(GeometryError, match="infeasible"):
            maximize_revenue(FIXTURE, sub)

    def test_two_samples_pick_single_high_buyer(self):
        inst = TariffInstance(units=1, valuations=[(1,), (3,)])
        sub = single_tariff_regions(inst)
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


class TestPieceBound:
    def test_trivial_instance(self):
        inst = TariffInstance(units=1, valuations=[(2,)])
        sub = single_tariff_regions(inst)
        report = check_piece_bound(inst, sub)
        assert report["pieces"] == 2
        assert report["pieces_ok"] and report["lines_ok"]

    def test_fixture_three_pieces(self):
        sub = single_tariff_regions(FIXTURE)
        report = check_piece_bound(FIXTURE, sub)
        assert report["pieces"] == 3
        assert report["pieces_ok"] and report["lines_ok"]

    def test_random_instances_respect_bounds(self):
        rng = random.Random(13)
        for trial in range(10):
            inst = random_instance(rng)
            sub = single_tariff_regions(inst)
            report = check_piece_bound(inst, sub)
            assert report["pieces_ok"], report
            assert report["lines_ok"], report

    def test_shared_line_counts_for_every_sample(self):
        report = check_piece_bound(TWINS, single_tariff_regions(TWINS))
        assert report["lines_per_sample"] == {0: 5, 1: 5}

    def test_increasing_valuations_many_slabs(self):
        inst = TariffInstance(units=3, valuations=[(2, 5, 7)])
        sub = single_tariff_regions(inst)
        lines = region_boundary_lines(inst, sub)
        assert lines[0] <= 2 * inst.units + 2


class TestEdgeCases:
    def test_worthless_item_single_region_zero_revenue(self):
        inst = TariffInstance(units=1, valuations=[(0,)])
        sub = single_tariff_regions(inst)
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
