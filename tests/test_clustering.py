import math
import random

import numpy as np
import pytest

from paramregions.clustering import (
    LINKAGES,
    ClusterTree,
    ClusteringInstance,
    MergeFamily,
    best_parameter,
    build_execution_tree,
    generate_dataset,
    hamming_loss,
    interpolated_merge,
    leaf_subdivision,
    linkage_accuracy,
    linkage_tree_float,
    lower_median,
    merge_value,
    pairwise_euclidean,
    partition_values,
    simulate_merge_sequence,
)
from paramregions.geometry import sample_interior, solve_lp
from paramregions.rationals import rat

from oracles import exhaustive_hamming_loss, reference_envelope_labels, sweep_leaf_count_1d

LINE_POINTS = [(0,), (1,), (3,), (rat(28, 5),)]


def line_instance(target=None, k=None):
    return ClusteringInstance.from_points(LINE_POINTS, ("euclidean",), target=target, k=k)


def sc_family():
    return MergeFamily(("single", "complete"), ("euclidean",))


def random_instance(rng, n, spread=20):
    pts = [(rat(rng.randint(0, spread * 4), 4), rat(rng.randint(0, spread * 4), 4)) for _ in range(n)]
    return ClusteringInstance.from_points(pts, ("euclidean",))


def partition_after(n, merges):
    """The sorted tuple of sorted clusters left by `merges` on n singletons."""
    clusters = {(i,) for i in range(n)}
    for a, b in merges:
        clusters -= {a, b}
        clusters.add(tuple(sorted(a + b)))
    return tuple(sorted(clusters))


def greedy_reference(inst, family, rho):
    """Greedy merging by `interpolated_merge` over all live pairs; ties take
    the lexicographically smallest pair."""
    merges = []
    while len(partition_after(inst.n_points, merges)) > 1:
        clusters = partition_after(inst.n_points, merges)
        pairs = [(a, b) for a in clusters for b in clusters if a < b]
        merges.append(min(pairs, key=lambda pair: (interpolated_merge(family, inst, rho, *pair), pair)))
    return tuple(merges)


class TestMergeValues:
    def test_singleton_pairs_equal_point_distance(self):
        inst = line_instance()
        t = inst.metrics["euclidean"]
        for linkage in ("single", "complete", "median", "average", "mediod"):
            assert merge_value(linkage, t, (0,), (1,)) == 1

    def test_lower_median_definition(self):
        assert lower_median([1, 2, 3]) == 2
        assert lower_median([1, 2, 3, 4]) == 2
        assert lower_median([5]) == 5
        assert lower_median([1, 1, 2, 2]) == 1

    def test_single_complete_on_line(self):
        inst = line_instance()
        t = inst.metrics["euclidean"]
        assert merge_value("single", t, (0, 1), (2,)) == 2
        assert merge_value("complete", t, (0, 1), (2,)) == 3

    def test_interpolation_is_three_minus_alpha(self):
        inst = line_instance()
        fam = sc_family()
        for alpha in (rat(0), rat(1, 4), rat(1)):
            v = interpolated_merge(fam, inst, (alpha,), (0, 1), (2,))
            assert v == 3 - alpha

    def test_simplex_vertex_selects_one_component(self):
        inst = line_instance()
        fam = sc_family()
        assert interpolated_merge(fam, inst, (rat(1),), (0, 1), (2,)) == 2  # pure single
        assert interpolated_merge(fam, inst, (rat(0),), (0, 1), (2,)) == 3  # pure complete

    def test_constant_when_components_agree(self):
        inst = line_instance()
        fam = sc_family()
        for alpha in (rat(0), rat(1, 3), rat(1)):
            assert interpolated_merge(fam, inst, (alpha,), (0,), (1,)) == 1

    def test_outside_simplex_rejected(self):
        inst = line_instance()
        fam = sc_family()
        with pytest.raises(ValueError):
            interpolated_merge(fam, inst, (rat(3, 2),), (0,), (1,))

    def test_mediod_tie_takes_lowest_index(self):
        # Two points: both have equal summed distance; medoid pair is (0, 2).
        inst = ClusteringInstance.from_points([(0,), (1,), (5,)], ("euclidean",))
        assert merge_value("mediod", inst.metrics["euclidean"], (0, 1), (2,)) == 5


class TestPartitionValues:
    def coprime_instance(self, rng, n):
        # Each table draws its denominators from its own primes, so a factor
        # per table would differ from the common one.
        metrics = {}
        for name, dens in (("euclidean", (1, 2, 3)), ("manhattan", (5, 7))):
            table = [[rat(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    table[i][j] = table[j][i] = rat(rng.randint(1, 40), rng.choice(dens))
            metrics[name] = tuple(tuple(row) for row in table)
        return ClusteringInstance(metrics=metrics)

    def test_values_are_merge_values_times_the_common_factor(self):
        rng = random.Random(61)
        family = MergeFamily(LINKAGES, ("euclidean", "manhattan"))
        for trial in range(8):
            n = rng.randint(4, 8)
            inst = self.coprime_instance(rng, n)
            factor, tables = inst.int_metrics
            dens = [v.denominator for table in inst.metrics.values() for row in table for v in row]
            assert factor == math.lcm(*dens)
            assert all(type(v) is int for table in tables.values() for row in table for v in row)
            labels = [rng.randrange(rng.randint(2, n)) for _ in range(n)]
            clusters = tuple(sorted(
                tuple(i for i in range(n) if labels[i] == lab) for lab in set(labels)
            ))
            values = partition_values(inst, family, clusters)
            assert list(values) == [(a, b) for a in clusters for b in clusters if a < b]
            for (a, b), got in values.items():
                for (linkage, metric), v in zip(family.components, got):
                    assert v == factor * merge_value(linkage, inst.metrics[metric], a, b)
                assert got == tuple(factor * v for v in family.component_values(inst, a, b))

    def test_greedy_matches_brute_force_over_interpolated_merge(self):
        rng = random.Random(67)
        families = [MergeFamily(LINKAGES, ("euclidean",))]
        families += [MergeFamily((linkage,), ("euclidean", "manhattan")) for linkage in LINKAGES]
        for trial in range(4):
            # Small integer coordinates make ties common.
            pts = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(4, 7))]
            inst = ClusteringInstance.from_points(pts, ("euclidean", "manhattan"))
            for family in families:
                for _ in range(3):
                    weights = [rng.randint(1, 9) for _ in range(family.dimension + 1)]
                    rho = tuple(rat(w, sum(weights)) for w in weights[:-1])
                    assert simulate_merge_sequence(inst, family, rho) == greedy_reference(inst, family, rho)


class TestExecutionTree:
    def test_two_points_single_leaf(self):
        inst = ClusteringInstance.from_points([(0,), (1,)], ("euclidean",))
        root = build_execution_tree(inst, sc_family())
        leaves = list(root.leaves())
        assert len(leaves) == 1
        assert leaves[0].merges == (((0,), (1,)),)
        assert leaves[0].region.constraint_keys() == root.region.constraint_keys()

    def test_line_instance_splits_at_two_fifths(self):
        root = build_execution_tree(line_instance(), sc_family())
        leaves = leaf_subdivision(root)
        assert len(leaves) == 2
        boundary = rat(2, 5)
        merged_01_3 = [m for m in leaves if (((0, 1), (2,)) in m)]
        merged_3_56 = [m for m in leaves if (((2,), (3,)) in m)]
        assert len(merged_01_3) == 1 and len(merged_3_56) == 1
        cell_upper = leaves[merged_01_3[0]]
        cell_lower = leaves[merged_3_56[0]]
        assert cell_upper.contains((rat(7, 10),), strict=True)
        assert not cell_upper.contains((rat(1, 5),))
        assert cell_lower.contains((rat(1, 5),), strict=True)
        assert cell_upper.contains((boundary,)) and cell_lower.contains((boundary,))

    def test_identical_merge_order_everywhere_gives_one_leaf(self):
        inst = ClusteringInstance.from_points([(0,), (1,), (10,), (11,)], ("euclidean",))
        root = build_execution_tree(inst, sc_family())
        assert len(list(root.leaves())) == 1

    def test_leaves_reproduce_greedy_simulation(self):
        rng = random.Random(31)
        for trial in range(6):
            inst = random_instance(rng, rng.randint(4, 6))
            fam = MergeFamily(("single", "complete", "median"), ("euclidean",))
            root = build_execution_tree(inst, fam)
            for merges, region in leaf_subdivision(root).items():
                for p in sample_interior(region, 12, seed=trial):
                    assert simulate_merge_sequence(inst, fam, p) == merges

    def test_leaf_regions_cover_parent_without_overlap(self):
        rng = random.Random(37)
        inst = random_instance(rng, 6)
        fam = sc_family()
        root = build_execution_tree(inst, fam)
        leaves = leaf_subdivision(root)
        for p in sample_interior(root.region, 200, seed=5):
            holders = [m for m, cell in leaves.items() if cell.contains(p)]
            strict_holders = [m for m, cell in leaves.items() if cell.contains(p, strict=True)]
            assert len(holders) >= 1
            assert len(strict_holders) <= 1

    def test_refinement_children_contained_in_parents(self):
        rng = random.Random(41)
        inst = random_instance(rng, 5)
        root = build_execution_tree(inst, sc_family())

        def walk(node):
            for child in node.children:
                for h in node.region.constraints:
                    res = solve_lp(h.normal, child.region.constraints, "max")
                    assert res.status == "optimal" and res.value <= h.offset
                walk(child)

        walk(root)

    def test_scale_invariance_of_regions_and_sequences(self):
        rng = random.Random(43)
        inst = random_instance(rng, 5)
        scaled = ClusteringInstance(
            metrics={
                name: tuple(tuple(v * rat(7, 3) for v in row) for row in table)
                for name, table in inst.metrics.items()
            },
            points=inst.points,
        )
        fam = sc_family()
        base = leaf_subdivision(build_execution_tree(inst, fam))
        other = leaf_subdivision(build_execution_tree(scaled, fam))
        assert set(base) == set(other)
        for m in base:
            assert base[m].constraint_keys() == other[m].constraint_keys()

    def test_leaf_count_matches_1d_sweep_oracle(self):
        rng = random.Random(47)
        for trial in range(5):
            inst = random_instance(rng, rng.randint(4, 5))
            fam = sc_family()
            got = len(leaf_subdivision(build_execution_tree(inst, fam)))
            assert got == sweep_leaf_count_1d(inst, fam)


class TestEnvelopePrune:
    def test_front_matches_corner_reference_at_every_node(self):
        # The walk over the merge forms' Pareto front on component values
        # gives cells to the same labels as the LP step over every pair's
        # form, pruned at the corners.
        rng = random.Random(41)
        nodes = 0
        for trial in range(20):
            metrics = ("euclidean", "manhattan")[: rng.randint(1, 2)]
            components = rng.randint(2, 4) if len(metrics) == 1 else rng.choice((2, 4))
            family = MergeFamily(tuple(rng.sample(LINKAGES, components // len(metrics))), metrics)
            # Small integer coordinates make equal component vectors common.
            pts = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(7, 9))]
            inst = ClusteringInstance.from_points(pts, metrics)
            d = family.dimension
            corners = [(0,) * d] + [tuple(int(j == t) for j in range(d)) for t in range(d)]
            stack = [build_execution_tree(inst, family, seed=trial)]
            while stack:
                node = stack.pop()
                if node.subdivision is not None:
                    nodes += 1
                    clusters = partition_after(len(pts), node.merges)
                    pairs = [(a, b) for a in clusters for b in clusters if a < b]
                    every = {pair: family.affine_form(family.component_values(inst, *pair)) for pair in pairs}
                    reference = reference_envelope_labels(node.region, every, corners, trial)
                    assert sorted(node.subdivision.cells) == reference
                stack += node.children
        assert nodes > 120


class TestHammingLoss:
    def test_perfect_pruning_gives_zero(self):
        tree = ClusterTree.from_merges(4, [((0,), (1,)), ((2,), (3,)), ((0, 1), (2, 3))])
        assert hamming_loss(tree, [{0, 1}, {2, 3}], 2) == 0

    def test_two_point_cases(self):
        tree = ClusterTree.from_merges(2, [((0,), (1,))])
        assert hamming_loss(tree, [{0}, {1}], 2) == 0
        assert hamming_loss(tree, [{0, 1}], 1) == 0

    def test_line_instance_leaf_losses(self):
        target = [{0, 1}, {2, 3}]
        good = ClusterTree.from_merges(4, [((0,), (1,)), ((2,), (3,)), ((0, 1), (2, 3))])
        bad = ClusterTree.from_merges(4, [((0,), (1,)), ((0, 1), (2,)), ((0, 1, 2), (3,))])
        assert hamming_loss(good, target, 2) == 0
        assert hamming_loss(bad, target, 2) == rat(1, 4)

    def test_matches_exhaustive_pruning_oracle(self):
        rng = random.Random(53)
        for trial in range(10):
            n = rng.randint(4, 7)
            inst = random_instance(rng, n)
            merges = simulate_merge_sequence(inst, sc_family(), (rat(1, 3),))
            tree = ClusterTree.from_merges(n, merges)
            k = rng.randint(1, min(3, n))
            labels = [rng.randrange(k) for _ in range(n)]
            while len(set(labels)) < k:
                labels = [rng.randrange(k) for _ in range(n)]
            target = [set(i for i, l in enumerate(labels) if l == c) for c in range(k)]
            assert hamming_loss(tree, target, k) == exhaustive_hamming_loss(tree, target, k)

    def test_loss_bounds_and_k_validation(self):
        tree = ClusterTree.from_merges(3, [((0,), (1,)), ((0, 1), (2,))])
        loss = hamming_loss(tree, [{0}, {1}, {2}], 3)
        assert 0 <= loss <= 1
        with pytest.raises(ValueError):
            hamming_loss(tree, [{0}, {1}, {2}, set()], 4)


class TestBestParameter:
    def test_line_instance_prefers_single_side(self):
        inst = line_instance(target=[{0, 1}, {2, 3}], k=2)
        rho, loss, leaf = best_parameter(inst, sc_family())
        assert loss == 0
        assert ((2,), (3,)) in leaf.merges  # the {3, 5.6} merge happens
        assert rho[0] < rat(2, 5)

    def test_single_leaf_instance(self):
        inst = ClusteringInstance.from_points([(0,), (1,)], ("euclidean",), target=[{0}, {1}], k=2)
        rho, loss, leaf = best_parameter(inst, sc_family())
        assert loss == 0 and leaf.merges == (((0,), (1,)),)

    def test_subsampled_rings_prefer_single_linkage(self):
        # Eight points per ring: single linkage separates the rings, complete
        # chops them; the optimal leaf must contain the pure-single vertex.
        full = generate_dataset("Rings", seed=7, metric_names=())
        idx = [i for i in range(0, 50, 7)] + [i for i in range(50, 100, 7)]
        pts = [full.points[i] for i in idx]
        labels = [0 if i < 50 else 1 for i in idx]
        target = [set(j for j, l in enumerate(labels) if l == c) for c in range(2)]
        inst = ClusteringInstance.from_points(pts, ("euclidean",), target=target, k=2)
        rho, loss, leaf = best_parameter(inst, sc_family())
        pure_single = (rat(1),)
        assert leaf.region.contains(pure_single)
        assert simulate_merge_sequence(inst, sc_family(), leaf.region.witness) == leaf.merges


class TestDatasets:
    @pytest.mark.parametrize(
        "name,size,k", [("Rings", 100, 2), ("Disks", 100, 2), ("Outliers", 152, 2), ("BalancedOutliers", 102, 2)]
    )
    def test_sizes_and_targets(self, name, size, k):
        inst = generate_dataset(name, seed=0, metric_names=())
        assert inst.n_points == size
        assert inst.k == k
        assert sum(len(c) for c in inst.target) == size

    def test_deterministic_under_seed(self):
        a = generate_dataset("Rings", seed=5, metric_names=())
        b = generate_dataset("Rings", seed=5, metric_names=())
        assert a.points == b.points

    def test_coordinates_snapped(self):
        inst = generate_dataset("Disks", seed=1, metric_names=())
        for p in inst.points:
            for c in p:
                assert int(c.denominator) <= 10**6

    def test_full_instance_has_exact_table(self):
        inst = generate_dataset("Rings", seed=2)
        t = inst.metrics["euclidean"]
        assert t[3][5] == t[5][3]
        assert t[0][0] == 0


class TestFloatPath:
    def test_float_tree_matches_exact_simulation_at_vertices(self):
        rng = random.Random(61)
        for trial in range(5):
            inst = random_instance(rng, 7)
            for linkage, rho in (("single", (rat(1),)), ("complete", (rat(0),))):
                exact = simulate_merge_sequence(inst, sc_family(), rho)
                dist = pairwise_euclidean(np.array([[float(c) for c in p] for p in inst.points]))
                got = linkage_tree_float(dist, linkage).merges
                assert got == exact

    def test_rings_accuracy_favors_single(self):
        pts, labels, k = [], [], 2
        from paramregions.clustering import _dataset_floats

        pts, labels, k = _dataset_floats("Rings", 3)
        acc_single = linkage_accuracy(pts, labels, k, "single")
        acc_complete = linkage_accuracy(pts, labels, k, "complete")
        assert acc_single > acc_complete
