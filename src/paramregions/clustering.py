"""Multi-parameter linkage-based clustering.

A merge family interpolates several linkage rules and/or several point
metrics: the merge score of a cluster pair is the convex combination of the
per-(linkage, metric) scores, with coefficients living on a simplex.  For a
fixed instance the simplex splits into convex regions on which the whole
greedy merge sequence is constant; `build_execution_tree` enumerates that
refinement level by level and `best_parameter` picks a region minimizing the
Hamming loss against a target clustering.

Region computations are exact.  The state of a greedy run or of a tree path
is the partition alone, the sorted tuple of its clusters, and its pairs'
component values come straight from the instance's integer tables: every
metric table times one common factor, which scales every merge form alike
and so changes no region.  A float/numpy greedy path (`linkage_tree_float`)
exists for large fixed-parameter runs like the synthetic benchmark datasets,
where only the merge order matters.  Only that path and the dataset
generator use numpy, and they import it when called: the exact path never
loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from operator import mul
from typing import Optional, Sequence

from .geometry import ConvexCell, GeometryError, Halfspace, _homogeneous
from .rationals import (
    Rational,
    ZERO,
    as_rational,
    as_vector,
    parse_vector,
    rat,
)
from .regions import AffineForm, Subdivision, _witness, envelope_cells, pareto_front

LINKAGES = ("single", "complete", "median", "average", "mediod")

SNAP_DENOMINATOR = 10**6


def snap(value: float):
    """Round a float onto the rational grid of denominator SNAP_DENOMINATOR."""
    return Rational(round(value * SNAP_DENOMINATOR), SNAP_DENOMINATOR)


def lower_median(sorted_values: Sequence):
    """Smallest element with at most half the values strictly below and at
    most half strictly above (the lower median of the multiset)."""
    return sorted_values[(len(sorted_values) - 1) // 2]


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------

def euclidean_table(points) -> tuple:
    pts = [tuple(float(c) for c in p) for p in points]
    n = len(pts)
    table = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = snap(math.dist(pts[i], pts[j]))
            table[i][j] = table[j][i] = d
    return tuple(tuple(row) for row in table)


def manhattan_table(points) -> tuple:
    n = len(points)
    table = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = sum((abs(a - b) for a, b in zip(points[i], points[j])), ZERO)
            table[i][j] = table[j][i] = d
    return tuple(tuple(row) for row in table)


METRIC_BUILDERS = {"euclidean": euclidean_table, "manhattan": manhattan_table}


@dataclass(frozen=True, eq=False)
class ClusteringInstance:
    """Point set with exact pairwise-distance tables, one per metric, and an
    optional target partition to score against."""

    metrics: dict
    points: Optional[tuple] = None
    target: Optional[tuple] = None
    k: Optional[int] = None

    def __post_init__(self):
        if not self.metrics and self.points is None:
            raise ValueError("an instance needs points or at least one metric table")
        n = self.n_points
        if n == 0:
            raise ValueError("an instance needs at least one point")
        if self.points is not None and len(self.points) != n:
            raise ValueError(f"{len(self.points)} points, but the metric tables are {n}x{n}")
        for name, table in self.metrics.items():
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"metric {name!r} table is not {n}x{n}")
            for i in range(n):
                if table[i][i] != 0:
                    raise ValueError(f"metric {name!r} has nonzero diagonal")
                for j in range(i):
                    if table[i][j] != table[j][i]:
                        raise ValueError(f"metric {name!r} is not symmetric")
        if self.k is not None and (type(self.k) is not int or not 1 <= self.k <= n):
            raise ValueError(f"k must be an integer from 1 to {n}, not {self.k!r}")
        if self.target is not None:
            members = sorted(i for part in self.target for i in part)
            if members != list(range(n)):
                raise ValueError("target must partition the point indices")
            if self.k is not None and len(self.target) != self.k:
                raise ValueError(f"target has {len(self.target)} clusters, k is {self.k}")

    @property
    def n_points(self) -> int:
        if self.metrics:
            return len(next(iter(self.metrics.values())))
        return len(self.points)

    @cached_property
    def int_metrics(self) -> tuple:
        """(factor, tables): every metric table times one common positive
        integer, the lcm of all their denominators, as ints.  One factor
        scales every component value of every linkage, and so every merge
        form, alike: Pareto order, argmin ties and primitive dominance rows
        do not change.  Derived once, never serialized."""
        *entries, factor = _homogeneous([v for table in self.metrics.values() for row in table for v in row])
        entries = iter(entries)
        n = self.n_points
        tables = {name: tuple(tuple(islice(entries, n)) for _ in range(n)) for name in self.metrics}
        return factor, tables

    @classmethod
    def from_points(cls, points, metric_names=("euclidean",), target=None, k=None):
        pts = tuple(as_vector(p) for p in points)
        metrics = {name: METRIC_BUILDERS[name](pts) for name in metric_names}
        tgt = tuple(frozenset(part) for part in target) if target is not None else None
        return cls(metrics=metrics, points=pts, target=tgt, k=k)

    @classmethod
    def from_json(cls, data: dict) -> "ClusteringInstance":
        metrics = {
            name: tuple(tuple(as_rational(v) for v in row) for row in table)
            for name, table in data["metrics"].items()
        }
        points = tuple(parse_vector(p) for p in data["points"]) if "points" in data else None
        target = tuple(frozenset(part) for part in data["target"]) if "target" in data else None
        return cls(metrics=metrics, points=points, target=target, k=data.get("k"))


# --------------------------------------------------------------------------
# Merge families and merge values
# --------------------------------------------------------------------------

def _mean(values):
    return Rational(sum(values)) / len(values)


_SCORES = {
    "single": min,
    "complete": max,
    "median": lambda values: lower_median(sorted(values)),
    "average": _mean,
}


def _linkage_values(linkage: str, table, pairs) -> list:
    """The scores of one linkage rule on one distance table, of ints or of
    rationals, for each cluster pair of `pairs`: a rule of `_SCORES`
    over the |a|·|b| distances, or the distance of the two medoids, each
    cluster's medoid found once."""
    if linkage == "mediod":
        medoids = {c: _medoid(table, c) for c in {c for pair in pairs for c in pair}}
        return [table[medoids[a]][medoids[b]] for a, b in pairs]
    score = _SCORES.get(linkage)
    if score is None:
        raise ValueError(f"unknown linkage {linkage!r}")
    return [score([table[i][j] for i in a for j in b]) for a, b in pairs]


def _medoid(table, cluster) -> int:
    # First point of the cluster minimizing the summed in-cluster distance.
    sums = [sum(table[a][b] for b in cluster) for a in cluster]
    return cluster[sums.index(min(sums))]


@dataclass(frozen=True)
class MergeFamily:
    """Product interpolation of linkage rules and metrics.

    Components are the (linkage, metric) pairs in row-major order; a
    parameter vector rho on the simplex assigns coefficient rho_t to
    component t and 1 - sum(rho) to the last one.
    """

    linkages: tuple
    metrics: tuple

    def __post_init__(self):
        object.__setattr__(self, "linkages", tuple(self.linkages))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for l in self.linkages:
            if l not in LINKAGES:
                raise ValueError(f"unknown linkage {l!r}")
        for kind, names in (("linkage", self.linkages), ("metric", self.metrics)):
            if len(set(names)) < len(names):
                raise ValueError(f"a merge family lists each {kind} once")
        if len(self.components) < 2:
            raise ValueError("a merge family needs at least two components")

    @cached_property
    def components(self) -> tuple:
        return tuple((l, m) for l in self.linkages for m in self.metrics)

    @property
    def dimension(self) -> int:
        return len(self.components) - 1

    def simplex_cell(self) -> ConvexCell:
        d = self.dimension
        rows = [Halfspace.from_rationals(tuple(Rational(1) for _ in range(d)), 1)]
        for t in range(d):
            unit = tuple(Rational(-1) if j == t else ZERO for j in range(d))
            rows.append(Halfspace.from_rationals(unit, 0))
        center = tuple(rat(1, d + 1) for _ in range(d))
        return ConvexCell(d, tuple(rows), witness=center)

    def coefficients(self, rho) -> tuple:
        rho = as_vector(rho)
        if len(rho) != self.dimension:
            raise ValueError("parameter dimension mismatch")
        total = sum(rho, ZERO)
        if any(c < 0 for c in rho) or total > 1:
            raise ValueError("parameter point lies outside the simplex")
        return rho + (1 - total,)

    def affine_form(self, values) -> AffineForm:
        last = values[-1]
        return AffineForm(tuple(v - last for v in values[:-1]), last)


# --------------------------------------------------------------------------
# Partitions: the state of one greedy run or one execution-tree path
# --------------------------------------------------------------------------

def partition_values(instance: ClusteringInstance, family: MergeFamily, clusters) -> dict:
    """The component values of every pair of the partition `clusters` (a
    sorted tuple of sorted clusters), in pair order, read from the integer
    tables: the scores on the rational `metrics` times the `int_metrics`
    factor."""
    tables = instance.int_metrics[1]
    pairs = [(a, b) for i, a in enumerate(clusters) for b in clusters[i + 1:]]
    columns = [_linkage_values(l, tables[m], pairs) for l, m in family.components]
    return dict(zip(pairs, zip(*columns)))


def merge_forms(instance: ClusteringInstance, family: MergeFamily, clusters) -> dict:
    """The merge forms of the pairs on the `pareto_front` of their component
    values, which are a form's values at the simplex corners, last first."""
    values = partition_values(instance, family, clusters)
    return {pair: family.affine_form(values[pair]) for pair in pareto_front(values)}


def _merged(clusters, pair) -> tuple:
    """The partition after merging `pair`."""
    a, b = pair
    rest = [c for c in clusters if c != a and c != b]
    return tuple(sorted(rest + [tuple(sorted(a + b))]))


def _singletons(instance: ClusteringInstance) -> tuple:
    return tuple((i,) for i in range(instance.n_points))


def simulate_merge_sequence(instance: ClusteringInstance, family: MergeFamily, rho) -> tuple:
    """Greedy linkage at a fixed parameter point; exact, ties merge the
    lexicographically smallest cluster pair.  A pair's key is its
    `partition_values` dotted with the coefficients times the lcm of their
    denominators, a positive factor that keeps every order and tie."""
    coeffs = _homogeneous(family.coefficients(rho))[:-1]
    clusters = _singletons(instance)
    merges = []
    while len(clusters) > 1:
        values = partition_values(instance, family, clusters)
        pair = min(values, key=lambda p: sum(map(mul, coeffs, values[p])))
        merges.append(pair)
        clusters = _merged(clusters, pair)
    return tuple(merges)


# --------------------------------------------------------------------------
# Execution tree
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExecutionTreeNode:
    merges: tuple
    region: ConvexCell
    children: tuple = ()
    subdivision: object = None  # the Subdivision that produced the children

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self):
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def build_execution_tree(
    instance: ClusteringInstance,
    family: MergeFamily,
    parent: Optional[ConvexCell] = None,
) -> ExecutionTreeNode:
    """Level-by-level refinement of the parameter region into cells of
    constant merge sequence; leaves carry complete cluster trees.  A given
    `parent` must lie inside the family's simplex (the default); one without
    a witness gets its canonical point."""
    if parent is None:
        parent = family.simplex_cell()
    if parent.dimension != family.dimension:
        raise GeometryError("parent dimension does not match the family")
    if parent.witness is None:
        witness = _witness(parent)
        if witness is None:
            raise GeometryError("parent region is degenerate")
        parent = ConvexCell(parent.dimension, parent.constraints, witness=witness)
    return _expand(instance, family, _singletons(instance), (), parent)


def _expand(instance, family, clusters, merges, region: ConvexCell) -> ExecutionTreeNode:
    """The subtree below the partition `clusters`: the region splits into the
    cells of the lower envelope of its `merge_forms` (`envelope_cells`), and
    each cell's pair is merged next.

    A front of one form is <= every other form at every simplex corner, so
    everywhere (`pareto_front`), and its cell is the whole region.  Below the
    root the region is itself a `compute_vertex_cell` output, whose facets
    and canonical witness (in every dimension) that call would return
    unchanged, so the node keeps it with no walk.  The root's witness is its
    caller's (the simplex centre, say), so the root still takes the walk."""
    if len(clusters) <= 1:
        return ExecutionTreeNode(merges, region)
    if len(clusters) == 2:
        child = _expand(instance, family, _merged(clusters, clusters), merges + (clusters,), region)
        return ExecutionTreeNode(merges, region, (child,))
    forms = merge_forms(instance, family, clusters)
    if len(forms) == 1 and merges:
        sub = Subdivision(region, dict.fromkeys(forms, region), frozenset())
    else:
        sub = envelope_cells(region, forms)
    children = tuple(
        _expand(instance, family, _merged(clusters, pair), merges + (pair,), sub.cells[pair])
        for pair in sorted(sub.cells)
    )
    return ExecutionTreeNode(merges, region, children, sub)


def leaf_subdivision(root: ExecutionTreeNode) -> dict:
    """Leaf regions keyed by merge sequence."""
    return {leaf.merges: leaf.region for leaf in root.leaves()}


# --------------------------------------------------------------------------
# Cluster trees and Hamming loss
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterTree:
    """Binary merge tree over point indices, as the ordered merge list."""

    n_points: int
    merges: tuple

    def __post_init__(self):
        if len(self.merges) != self.n_points - 1:
            raise ValueError("a complete tree over n points has n-1 merges")

    @classmethod
    def from_merges(cls, n_points: int, merges) -> "ClusterTree":
        return cls(n_points, tuple((tuple(a), tuple(b)) for a, b in merges))

    def nodes(self):
        """(members, left, right) triples; leaves have left = right = None."""
        out = {(i,): ((i,), None, None) for i in range(self.n_points)}
        for a, b in self.merges:
            merged = tuple(sorted(a + b))
            out[merged] = (merged, a, b)
        return out


def hamming_loss(tree: ClusterTree, target, k: int):
    """Minimum normalized Hamming distance between the target and any pruning
    of the tree into k clusters, over all cluster-index matchings.

    Pruning minimization is a dynamic program over the tree; the matching is
    folded in by assigning disjoint target-index subsets to subtrees.
    """
    n = tree.n_points
    if k > n:
        raise ValueError("k exceeds the number of leaves")
    if len(target) != k:
        raise ValueError("target must have k clusters")
    target_sets = [frozenset(c) for c in target]
    nodes = tree.nodes()
    root = tuple(range(n))

    overlap = {
        members: tuple(sum(1 for p in members if p in c) for c in target_sets)
        for members in nodes
    }
    impossible = -(n + 1)

    @lru_cache(maxsize=None)
    def best(members, mask) -> int:
        bits = [i for i in range(k) if mask >> i & 1]
        if len(bits) == 1:
            return overlap[members][bits[0]]
        _, left, right = nodes[members]
        if left is None:
            return impossible  # a leaf cannot be pruned into two clusters
        result = impossible
        sub = (mask - 1) & mask
        while sub:
            got = best(left, sub) + best(right, mask ^ sub)
            if got > result:
                result = got
            sub = (sub - 1) & mask
        return result

    full = (1 << k) - 1
    matched = best(root, full)
    best.cache_clear()
    return 1 - Rational(matched, n)


def leaf_losses(instance: ClusteringInstance, merge_sequences) -> tuple:
    """({merges: Hamming loss of its cluster tree}, in merge-sequence
    order, and the best merges: the smallest merge sequence of least loss).
    The instance has a target clustering and k."""
    losses = {
        merges: hamming_loss(ClusterTree.from_merges(instance.n_points, merges), instance.target, instance.k)
        for merges in sorted(merge_sequences)
    }
    return losses, min(losses, key=losses.__getitem__)


def best_parameter(instance: ClusteringInstance, family: MergeFamily):
    """Parameter point, loss and leaf node of a minimum-loss execution-tree
    leaf (`leaf_losses`' best)."""
    if instance.target is None or instance.k is None:
        raise ValueError("instance needs a target clustering and k")
    leaves = {leaf.merges: leaf for leaf in build_execution_tree(instance, family).leaves()}
    losses, best = leaf_losses(instance, leaves)
    return leaves[best].region.witness, losses[best], leaves[best]


# --------------------------------------------------------------------------
# Synthetic benchmark datasets
# --------------------------------------------------------------------------

DATASET_NAMES = ("Rings", "Disks", "Outliers", "BalancedOutliers")
POINTS_PER_COMPONENT = 50


def _dataset_floats(name: str, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    n = POINTS_PER_COMPONENT
    if name == "Rings":
        pts, labels = [], []
        for cluster, radius in enumerate((0.4, 0.8)):
            theta = rng.uniform(0.0, 2.0 * np.pi, n)
            pts.extend(zip(radius * np.cos(theta), radius * np.sin(theta)))
            labels.extend([cluster] * n)
        return pts, labels, 2
    if name == "Disks":
        pts, labels = [], []
        for cluster, cy in enumerate((0.4, -0.4)):
            r = 0.4 * np.sqrt(rng.uniform(0.0, 1.0, n))
            theta = rng.uniform(0.0, 2.0 * np.pi, n)
            pts.extend(zip(1.5 + r * np.cos(theta), cy + r * np.sin(theta)))
            labels.extend([cluster] * n)
        return pts, labels, 2
    if name == "Outliers":
        # The side-by-side squares form one target cluster, the line the
        # other; the stray points join the cluster of the nearest component.
        pts, labels = [], []
        for cx, cy in ((0.5, 0.5), (1.7, 0.5)):
            xs = rng.uniform(cx - 0.5, cx + 0.5, n)
            ys = rng.uniform(cy - 0.5, cy + 0.5, n)
            pts.extend(zip(xs, ys))
            labels.extend([0] * n)
        xs = rng.uniform(0.6, 1.6, n)
        pts.extend(zip(xs, np.full(n, 3.0)))
        labels.extend([1] * n)
        pts.append((1.4, 2.0))
        labels.append(1)
        pts.append((3.5, 0.6))
        labels.append(0)
        return pts, labels, 2
    if name == "BalancedOutliers":
        pts, labels = [], []
        for cluster, (cx, cy) in enumerate(((1.1, 1.8), (1.7, 0.5))):
            xs = rng.uniform(cx - 0.5, cx + 0.5, n)
            ys = rng.uniform(cy - 0.5, cy + 0.5, n)
            pts.extend(zip(xs, ys))
            labels.extend([cluster] * n)
        pts.append((0.0, 0.0))
        labels.append(1)
        pts.append((3.2, 0.5))
        labels.append(1)
        return pts, labels, 2
    raise ValueError(f"unknown dataset {name!r}")


def generate_dataset(name: str, seed: int, metric_names=("euclidean",)) -> ClusteringInstance:
    """Synthetic clustering instance (coordinates snapped to rationals with
    denominator 10^6 so all downstream geometry stays exact).

    Pass metric_names=() to skip the distance tables when only the points and
    target are needed (e.g. for the float benchmark path).
    """
    pts, labels, k = _dataset_floats(name, seed)
    points = tuple(tuple(snap(c) for c in p) for p in pts)
    target = [set() for _ in range(k)]
    for i, lab in enumerate(labels):
        target[lab].add(i)
    if metric_names:
        return ClusteringInstance.from_points(points, metric_names, target=target, k=k)
    return ClusteringInstance(
        metrics={},
        points=points,
        target=tuple(frozenset(t) for t in target),
        k=k,
    )


# --------------------------------------------------------------------------
# Float greedy path for large fixed-parameter runs
# --------------------------------------------------------------------------

def linkage_tree_float(dist: np.ndarray, linkage: str) -> ClusterTree:
    """Greedy agglomeration on a float distance matrix, one linkage rule.

    Single/complete recombine previous scores (Lance-Williams style); the
    other rules recompute the new cluster's row from the point distances.
    Only the upper triangle of the score matrix is live.
    """
    import numpy as np

    n = dist.shape[0]
    clusters: dict = {i: (i,) for i in range(n)}
    score = np.full((n, n), np.inf)
    iu = np.triu_indices(n, 1)
    score[iu] = dist[iu]
    merges = []
    for _ in range(n - 1):
        flat = int(np.argmin(score))
        i, j = divmod(flat, n)
        a, b = clusters[i], clusters[j]
        merges.append((a, b) if a <= b else (b, a))
        merged = tuple(sorted(a + b))
        others = [o for o in clusters if o not in (i, j)]
        old_i = {o: score[min(o, i), max(o, i)] for o in others}
        old_j = {o: score[min(o, j), max(o, j)] for o in others}
        clusters[i] = merged
        del clusters[j]
        for idx in (i, j):
            score[idx, :] = np.inf
            score[:, idx] = np.inf
        for o in others:
            lo, hi = (o, i) if o < i else (i, o)
            if linkage == "single":
                score[lo, hi] = min(old_i[o], old_j[o])
            elif linkage == "complete":
                score[lo, hi] = max(old_i[o], old_j[o])
            else:
                score[lo, hi] = _float_merge_value(dist, linkage, merged, clusters[o])
    return ClusterTree.from_merges(n, merges)


def _float_merge_value(dist, linkage, cluster_a, cluster_b):
    import numpy as np

    block = dist[np.ix_(cluster_a, cluster_b)].ravel()
    if linkage == "median":
        idx = (block.size - 1) // 2
        return np.partition(block, idx)[idx]
    if linkage == "average":
        return block.mean()
    if linkage == "mediod":
        ma = cluster_a[int(np.argmin(dist[np.ix_(cluster_a, cluster_a)].sum(axis=1)))]
        mb = cluster_b[int(np.argmin(dist[np.ix_(cluster_b, cluster_b)].sum(axis=1)))]
        return dist[ma, mb]
    raise ValueError(linkage)


def pairwise_euclidean(points: np.ndarray) -> np.ndarray:
    import numpy as np

    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def linkage_accuracy(points, labels, k: int, linkage: str) -> float:
    """Hamming accuracy (1 - loss) of one fixed linkage rule on float data."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    dist = pairwise_euclidean(pts)
    tree = linkage_tree_float(dist, linkage)
    target = [set() for _ in range(k)]
    for i, lab in enumerate(labels):
        target[lab].add(i)
    return float(1 - hamming_loss(tree, [frozenset(t) for t in target], k))


def mean_linkage_accuracy(name: str, linkage: str, n_seeds: int = 100) -> float:
    """Mean Hamming accuracy (percent) of a linkage rule over the draws of
    seeds 0 to n_seeds - 1."""
    total = 0.0
    for s in range(n_seeds):
        pts, labels, k = _dataset_floats(name, s)
        total += linkage_accuracy(pts, labels, k, linkage)
    return 100.0 * total / n_seeds
