"""Independent brute-force oracles, and the helpers only tests call, shared
by the test suite.

These deliberately avoid the library's incremental machinery: redundancy via
one relaxed LP per constraint, LP optima via dense vertex enumeration, and
region membership via direct simulation.  They stay independent of the code
paths they check.  The exceptions are `reference_solve_raw` and
`reference_ray_first_index`, the same Seidel LP and Clarkson ray step as the
library's integer kernel written over rationals, and
`reference_dp_solve_multi`, the alignment DP over rationals, lexicographic
over several points, and
`reference_tariff_candidates`, the tariff candidate halfspaces built from
rationals, and `reference_envelope_labels`, the LP label step that decided
the regions of every two-feature alignment DAG node before the integer
lower hull and the cells of a clustering merge step before its one walk,
and `reference_partition`, the alignment cells built against
every other region's row before the two-feature neighbor rule: the library
must agree with each exactly.  `_interior_point_rows`, the auxiliary slack
LP, runs the library's LP kernel on a formulation of its own: the tests
compare every interior decision against it, so no reference is the
canonical point it checks.

The last section holds what no verb of the library runs, so the library
does not keep it: `clarkson_reduce` (the library's Clarkson kernel,
`geometry._clarkson_indices`, behind its one-row-per-direction filter, on
a list of halfspaces), the hit-and-run `sample_interior`, `labels_at` (the
cells of a subdivision that hold a point), the merge scores on the
rational tables (`merge_value`, `component_values`, `interpolated_merge`),
brute-force alignments and their feature counts (`enumerate_alignments`,
`feature_counts`, `strip_spaces`), an alignment partition's
`boundary_keys`, a halfspace's complement (`flipped`) and an alignment's
cost at a point (`alignment_cost`).
"""

import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

from paramregions.clustering import _linkage_values
from paramregions.geometry import (
    GeometryError,
    Halfspace,
    LPResult,
    _box_bound,
    _clarkson_indices,
    _homogeneous,
    _one_row_per_direction,
    _rational_point,
    _slack,
    _solve_raw,
    dot,
    solve_lp,
)
from paramregions.rationals import ZERO, Rational, as_vector, rat
from paramregions.regions import AffineForm, compute_subdivision, dominance_constraints
from paramregions.seqalign import SPACE, _apply_transform


def reference_simplest(lo, hi):
    """The rational in (lo, hi) of least denominator, then least |numerator|,
    by trying each denominator in turn; lo and hi are Fractions, or None
    where the interval is unbounded."""
    for q in range(1, 10**6):
        least = -math.inf if lo is None else math.floor(lo * q) + 1
        most = math.inf if hi is None else math.ceil(hi * q) - 1
        if least <= most:
            return Fraction(0 if least <= 0 <= most else least if least > 0 else most, q)
    raise AssertionError("no rational of denominator below 10^6")


def reference_witness(constraints):
    """The canonical point of a full-dimensional cell by its definition: x_1
    the simplest rational inside the cell's projection onto x_1, then x_2
    the simplest inside the projection of its slice at x_1, and so on, each
    range from two LPs over all the `constraints` plus the coordinates
    fixed so far as pairs of opposite rows (None for an unbounded end)."""
    def extent(objective, rows):
        ends = []
        for sense in ("min", "max"):
            res = solve_lp(objective, rows, sense)
            ends.append(None if res.status == "unbounded" else Fraction(res.value))
        return reference_simplest(*ends)

    d = constraints[0].dimension
    rows = list(constraints)
    point = []
    for k in range(d):
        unit = tuple(int(j == k) for j in range(d))
        x = extent(unit, rows)
        point.append(x)
        rows += [Halfspace.from_rationals(unit, x), Halfspace.from_rationals(tuple(-c for c in unit), -x)]
    return tuple(point)


def _interior_point_rows(rows: list, seed: int):
    """A point strictly satisfying every one of the nonempty integer rows
    (a_1, ..., a_d, b), or None if they leave no interior: the auxiliary
    slack LP, maximize t subject to a . x + t * ||a||_1 <= b (and t <= 1 to
    keep it bounded), with its insertion order drawn from `seed`."""
    d = len(rows[0]) - 1
    lp_rows = [row[:-1] + (sum(map(abs, row[:-1])), row[-1]) for row in rows]
    unit_t = (0,) * d + (1,)
    lp_rows.append(unit_t + (1,))
    status, point = _solve_raw(unit_t, lp_rows, random.Random(seed), _box_bound(lp_rows, d + 1))
    if status != "optimal" or point[d] <= 0:
        return None
    return _rational_point(point[:d] + point[-1:])


def naive_nonredundant(constraints, seed=0):
    """Indices of non-redundant constraints by one relaxed LP per constraint
    against all the others (geometric duplicates collapsed to the first)."""
    seen = {}
    uniq = []
    for i, h in enumerate(constraints):
        if h.int_row not in seen:
            seen[h.int_row] = i
            uniq.append(i)
    kept = []
    for i in uniq:
        h = constraints[i]
        others = [constraints[j] for j in uniq if j != i]
        others.append(Halfspace.from_rationals(h.normal, h.offset + 1))
        res = solve_lp(h.normal, others, "max", seed=seed + i)
        assert res.status == "optimal"
        if res.value > h.offset:
            kept.append(i)
    return kept


def solve_linear_system(rows, rhs):
    """Exact Gaussian elimination; None if singular."""
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def vertex_enumeration_lp(objective, constraints, sense="max"):
    """LP by enumerating all vertices (bounded systems only)."""
    d = len(objective)
    best = None
    for combo in combinations(constraints, d):
        point = solve_linear_system([h.normal for h in combo], [h.offset for h in combo])
        if point is None:
            continue
        if not all(dot(h.normal, point) <= h.offset for h in constraints):
            continue
        value = dot(objective, point)
        if best is None or (sense == "max" and value > best[1]) or (sense == "min" and value < best[1]):
            best = (point, value)
    if best is None:
        return LPResult("infeasible")
    return LPResult("optimal", best[0], best[1])


def all_prunings(tree, k):
    """Every pruning of a cluster tree into k subtrees (antichains covering
    all leaves), as tuples of member-index tuples."""
    nodes = tree.nodes()
    root = tuple(range(tree.n_points))

    def frontiers(members):
        _, left, right = nodes[members]
        yield (members,)
        if left is None:
            return
        for fl in frontiers(tuple(sorted(left))):
            for fr in frontiers(tuple(sorted(right))):
                yield fl + fr

    return [f for f in frontiers(root) if len(f) == k]


def exhaustive_hamming_loss(tree, target, k):
    """Hamming loss by enumerating every pruning and every matching."""
    from itertools import permutations

    n = tree.n_points
    best = None
    targets = [set(c) for c in target]
    for pruning in all_prunings(tree, k):
        for perm in permutations(range(k)):
            overlap = sum(len(set(part) & targets[perm[i]]) for i, part in enumerate(pruning))
            if best is None or overlap > best:
                best = overlap
    return 1 - Rational(best, n)


def sweep_leaf_count_1d(instance, family):
    """Leaf count of a d=1 family by exhaustive pairwise-boundary solving:
    candidate breakpoints are ties between any two disjoint-subset pairs."""
    from itertools import combinations

    from paramregions.clustering import simulate_merge_sequence

    n = instance.n_points
    indices = range(n)
    subsets = []
    for r in range(1, n):
        subsets.extend(combinations(indices, r))
    pair_values = {}
    for a, b in combinations(subsets, 2):
        if set(a) & set(b):
            continue
        key = (a, b)
        pair_values[key] = component_values(family, instance, a, b)
    cuts = set()
    vals = list(pair_values.values())
    for (v1a, v2a), (v1b, v2b) in combinations(vals, 2):
        denom = (v1a - v2a) - (v1b - v2b)
        if denom == 0:
            continue
        alpha = (v2b - v2a) / denom
        if 0 < alpha < 1:
            cuts.add(alpha)
    cuts = sorted(cuts)
    probes = []
    grid = [Rational(0)] + cuts + [Rational(1)]
    for lo, hi in zip(grid, grid[1:]):
        if lo < hi:
            probes.append((lo + hi) / 2)
    sequences = [simulate_merge_sequence(instance, family, (p,)) for p in probes]
    distinct_runs = 1
    for prev, cur in zip(sequences, sequences[1:]):
        if cur != prev:
            distinct_runs += 1
    return distinct_runs


def random_halfspaces(rng, d, count, ensure_interior=None):
    """Random integer-coefficient halfspaces with distinct hyperplanes.

    When ensure_interior is given, each halfspace is shifted to strictly
    contain that point.
    """
    rows = []
    keys = set()
    while len(rows) < count:
        normal = tuple(rat(rng.randint(-9, 9)) for _ in range(d))
        if all(c == 0 for c in normal):
            continue
        offset = rat(rng.randint(-12, 12))
        if ensure_interior is not None:
            margin = dot(normal, ensure_interior)
            if offset <= margin:
                offset = margin + rat(rng.randint(1, 8), rng.randint(1, 4))
        h = Halfspace.from_rationals(normal, offset)
        if h.int_row in keys:
            continue
        keys.add(h.int_row)
        rows.append(h)
    return rows


# --------------------------------------------------------------------------
# Rational reference for the integer LP kernel
# --------------------------------------------------------------------------

def reference_solve_raw(obj, rows, seed):
    """Seidel's LP over rational rows (normal, offset), normal . x <= offset:
    the library's `_solve_raw` as it was before it moved to integers."""
    d = len(obj)
    bound = reference_box_bound(rows, d)
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    shuffled = [rows[i] for i in order]
    point = _reference_seidel(obj, shuffled, [(-bound, bound)] * d)
    if point is None:
        return LPResult("infeasible")
    if any(x == bound or x == -bound for x in point):
        ray = _reference_seidel(obj, [(a, ZERO) for a, _ in shuffled], [(Rational(-1), Rational(1))] * d)
        if dot(obj, ray) > 0:
            return LPResult("unbounded")
    return LPResult("optimal", point, dot(obj, point))


def reference_box_bound(rows, d):
    biggest = 1
    for normal, offset in rows:
        denom = math.lcm(*[int(c.denominator) for c in (*normal, offset)])
        for c in (*normal, offset):
            biggest = max(biggest, abs(int(c * denom)))
    return Rational((biggest * (d + 1)) ** (d + 1) + 1)


def _reference_seidel(obj, rows, bounds):
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
        k = max(range(d), key=lambda j: (abs(normal[j]), -j))
        unit = tuple(ZERO if j != k else Rational(1) for j in range(d))
        neg_unit = tuple(-c for c in unit)
        sub_rows = []
        for g, h in [(unit, bounds[k][1]), (neg_unit, -bounds[k][0])] + rows[:idx]:
            sub_rows.append(_reference_project_row(g, h, normal, offset, k))
        sub_obj = _reference_project_row(obj, ZERO, normal, offset, k)[0]
        sub_bounds = bounds[:k] + bounds[k + 1:]
        sub = _reference_seidel(sub_obj, sub_rows, sub_bounds)
        if sub is None:
            return None
        point = list(sub[:k]) + [ZERO] + list(sub[k:])
        rest = sum((normal[j] * point[j] for j in range(d) if j != k), ZERO)
        point[k] = (offset - rest) / normal[k]
    return tuple(point)


def _reference_project_row(g, h, normal, offset, k):
    t = g[k] / normal[k]
    new_g = tuple(g[j] - t * normal[j] for j in range(len(normal)) if j != k)
    return new_g, h - t * offset


def reference_ray_first_index(rows, z, x):
    """Index of the first hyperplane of rational rows (normal, offset) hit by
    the ray from z towards x, ties broken by the perturbation
    z + (eps, eps^2, ...); None when the ray escapes."""
    direction = tuple(a - b for a, b in zip(x, z))
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


# --------------------------------------------------------------------------
# Rational reference for the alignment DP
# --------------------------------------------------------------------------

def _reference_reachable_nodes(spec, s1, s2):
    """Nodes needed for the root subproblem, topologically ordered."""
    rank = {t: r for r, t in enumerate(spec.tables)}
    root = (spec.root_table, len(s1), len(s2))
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        table, i, j = node
        if spec.base_solution(s1, s2, table, i, j) is not None:
            continue
        case = spec.case_for(table, s1, s2, i, j)
        if case is None:
            continue
        for term in case.terms:
            ri, rj = i + term.di, j + term.dj
            if ri >= 0 and rj >= 0:
                stack.append((term.ref_table, ri, rj))
    return sorted(seen, key=lambda node: (node[1] + node[2], rank[node[0]]))


def _reference_valid_terms(spec, s1, s2, node, memo):
    table, i, j = node
    case = spec.case_for(table, s1, s2, i, j)
    if case is None:
        return []
    out = []
    for term in case.terms:
        ref = (term.ref_table, i + term.di, j + term.dj)
        if ref[1] >= 0 and ref[2] >= 0 and memo.get(ref) is not None:
            out.append((term, ref))
    return out


def reference_dp_solve_multi(spec, s1, s2, points):
    """The alignment DP over rationals, building an `Alignment` at every
    node: costs compared lexicographically over the points, ties kept by the
    lowest term index.  `seqalign.dp_solve` at one point must agree with it
    exactly.  Each end probe of the ray search, one exact point just off a
    corner, must agree with it over that corner and then the opposite one."""
    pts = [as_vector(p) for p in points]
    if any(len(p) != spec.dimension for p in pts):
        raise GeometryError("parameter dimension mismatch")
    memo = {}
    order = _reference_reachable_nodes(spec, s1, s2)
    for node in order:
        table, i, j = node
        base = spec.base_solution(s1, s2, table, i, j)
        if base is not None:
            memo[node] = (tuple(dot(base.counts, p) for p in pts), base)
            continue
        best = None
        for term, ref in _reference_valid_terms(spec, s1, s2, node, memo):
            ref_cost, ref_align = memo[ref]
            cost = tuple(rc + dot(term.weight, p) for rc, p in zip(ref_cost, pts))
            if best is None or cost < best[0]:
                best = (cost, term, ref_align)
        if best is None:
            memo[node] = None
            continue
        cost, term, ref_align = best
        memo[node] = (cost, _apply_transform(term.transform, ref_align, term.weight, s1, s2, i, j))
    root = memo.get((spec.root_table, len(s1), len(s2)))
    if root is None:
        raise ValueError("the DP has no solution for this input")
    return root


# --------------------------------------------------------------------------
# Rational reference for the tariff candidate rows
# --------------------------------------------------------------------------

def _reference_utility_coeffs(instance, i, q, j):
    coeffs = [ZERO] * instance.dimension
    if q == 0:
        return tuple(coeffs), ZERO
    coeffs[2 * (j - 1)] = Rational(-1)
    coeffs[2 * (j - 1) + 1] = Rational(-q)
    return tuple(coeffs), instance.value(i, q)


def reference_tariff_candidates(instance, label):
    """Halfspaces "u_i(alternative) <= u_i(label's entry)" over every sample
    i and every other option, from rational utilities, each labeled with the
    profile across its hyperplane: of the halfspaces with one `int_row`, every
    sample that owns one moves to its alternative with the largest |leading
    coefficient| of the unnormalized normal, the one whose utility rises
    fastest across the hyperplane.  Distinct options have distinct price
    coefficients, so no normal is zero."""
    built = []  # (halfspace, sample, alternative, |leading coefficient|)
    for i, (q, j) in enumerate(label):
        cur_coeffs, cur_const = _reference_utility_coeffs(instance, i, q, j)
        for alt_q in range(0, instance.units + 1):
            for alt_j in range(1, instance.menu_length + 1):
                alt = (alt_q, alt_j) if alt_q > 0 else (0, 1)
                if alt == (q, j) or (alt_q == 0 and alt_j > 1):
                    continue
                alt_coeffs, alt_const = _reference_utility_coeffs(instance, i, alt_q, alt_j)
                normal = tuple(a - c for a, c in zip(alt_coeffs, cur_coeffs))
                offset = cur_const - alt_const
                assert any(normal)
                lead = abs(next(c for c in normal if c))
                built.append((Halfspace.from_rationals(normal, offset), i, alt, lead))
    across = {}  # int row -> {sample: (|leading coefficient|, alternative)}
    for h, i, alt, lead in built:
        owners = across.setdefault(h.int_row, {})
        assert owners.get(i, (None,))[0] != lead  # no two options share key and lead
        if i not in owners or lead > owners[i][0]:
            owners[i] = (lead, alt)
    out = []
    for h, _, _, _ in built:
        switched = list(label)
        for i, (_, alt) in across[h.int_row].items():
            switched[i] = alt
        out.append(Halfspace(h.int_row, tuple(switched)))
    return out


def reference_envelope_labels(parent, forms, corners, seed=0):
    """The labels of `forms` whose lower-envelope cell inside `parent` is
    full-dimensional, in label order, by LPs: drop the forms whose values at
    the `corners` (of a polytope containing `parent`) are all >= another's,
    keeping the smallest of equal forms, then one auxiliary slack LP
    (`_interior_point_rows`) per remaining form against the others."""
    kept = []  # (label, values at the corners), in label order
    for label in sorted(forms):
        values = tuple(forms[label].value(c) for c in corners)
        if any(all(k <= v for k, v in zip(other, values)) for _, other in kept):
            continue
        kept = [(l, other) for l, other in kept if not all(v <= k for v, k in zip(values, other))]
        kept.append((label, values))
    pruned = {label: forms[label] for label, _ in kept}
    rows = [h.int_row for h in parent.constraints]
    return [
        label
        for label in pruned
        if _interior_point_rows(rows + [h.int_row for h in dominance_constraints(pruned, label)], seed) is not None
    ]


def reference_partition(domain, regions):
    """The subdivision of `domain` among alignment `regions`, {key:
    Alignment}, in which every cell takes the dominance rows of every other
    region (`regions.compute_subdivision` over `dominance_constraints` of all
    the cost forms).  `seqalign._partition` must agree with it exactly."""
    forms = {key: AffineForm(alignment.counts, 0) for key, alignment in regions.items()}
    return compute_subdivision(domain, regions, lambda key: dominance_constraints(forms, key))


# --------------------------------------------------------------------------
# Library helpers that only the tests call
# --------------------------------------------------------------------------

def clarkson_reduce(constraints, interior) -> tuple:
    """The non-redundant subset of `constraints` (Clarkson's algorithm).

    `interior` must strictly satisfy every `Halfspace` in `constraints`.
    Of the constraints with one normal direction only the tightest can be a
    facet, so the LPs see one row per direction (`_one_row_per_direction`):
    the one with the smallest offset, the first of them on ties (geometric
    duplicates, equal rows, keep their first occurrence).
    Runs O(k) relaxed LPs over those, each over the non-redundant set found
    so far.
    """
    uniq = _one_row_per_direction([h.int_row for h in constraints])
    indices = _clarkson_indices([constraints[i] for i in uniq], as_vector(interior))
    return tuple(constraints[uniq[i]] for i in indices)


def sample_interior(cell, count: int, seed: int = 0) -> list:
    """Strictly interior rational points of a bounded cell (hit-and-run walk).

    Points are snapped back to a coarse rational grid whenever the snapped
    point is still strictly interior, so coordinate bit-size stays bounded
    along the walk.
    """
    if cell.witness is None:
        raise GeometryError("cell has no witness")
    rng = random.Random(seed)
    d = cell.dimension
    rows = [h.int_row for h in cell.constraints]
    current = cell.witness
    points = []
    while len(points) < count:
        direction = [rng.randint(-9, 9) for _ in range(d)]
        if not any(direction):
            continue
        z = _homogeneous(current)
        t_max = None
        for row in rows:
            den = sum(map(mul, row, direction))
            if den > 0:
                t = Rational(_slack(row, z), den * z[-1])
                if t_max is None or t < t_max:
                    t_max = t
        if t_max is None:
            t_max = Rational(1)
        step = Rational(rng.randint(1, 999), 1000) * t_max
        current = tuple(c + step * u for c, u in zip(current, direction))
        snapped = tuple(Rational(round(float(c) * 10**9), 10**9) for c in current)
        if cell.contains(snapped, strict=True):
            current = snapped
        points.append(current)
        if len(points) % 16 == 0:
            current = cell.witness
    return points


def labels_at(sub, point, strict: bool = False) -> list:
    """The labels of the cells of the subdivision `sub` that hold `point`."""
    return sorted(l for l, c in sub.cells.items() if c.contains(point, strict))


def merge_value(linkage: str, table, cluster_a, cluster_b):
    """Exact merge score of one linkage rule on one distance table."""
    if set(cluster_a) & set(cluster_b):
        raise ValueError("clusters must be disjoint")
    return _linkage_values(linkage, table, [(tuple(cluster_a), tuple(cluster_b))])[0]


def component_values(family, instance, cluster_a, cluster_b) -> tuple:
    """The merge scores of each of `family`'s components on the rational
    `metrics` of `instance`."""
    return tuple(
        merge_value(l, instance.metrics[m], cluster_a, cluster_b) for l, m in family.components
    )


def interpolated_merge(family, instance, rho, cluster_a, cluster_b):
    """Convex combination of the per-component merge scores at rho."""
    coeffs = family.coefficients(rho)
    values = component_values(family, instance, cluster_a, cluster_b)
    return sum((c * v for c, v in zip(coeffs, values)), ZERO)


def strip_spaces(t: str) -> str:
    return t.replace(SPACE, "")


def count_feature(name: str, t1: str, t2: str) -> int:
    if name == "match":
        return sum(1 for a, b in zip(t1, t2) if a == b and a != SPACE)
    if name == "mismatch":
        return sum(1 for a, b in zip(t1, t2) if a != b and a != SPACE and b != SPACE)
    if name == "space":
        return t1.count(SPACE) + t2.count(SPACE)
    if name == "gap":
        return _runs(t1) + _runs(t2)
    raise ValueError(f"unknown feature {name!r}")


def _runs(t: str) -> int:
    runs = 0
    prev = None
    for ch in t:
        if ch == SPACE and prev != SPACE:
            runs += 1
        prev = ch
    return runs


def feature_counts(features, t1: str, t2: str) -> tuple:
    return tuple(count_feature(name, t1, t2) for name in features)


def enumerate_alignments(s1: str, s2: str):
    """All global alignments of the two strings (brute-force oracle)."""

    def rec(i, j):
        if i == 0 and j == 0:
            yield "", ""
            return
        if i > 0 and j > 0:
            for a, b in rec(i - 1, j - 1):
                yield a + s1[i - 1], b + s2[j - 1]
        if j > 0:
            for a, b in rec(i, j - 1):
                yield a + SPACE, b + s2[j - 1]
        if i > 0:
            for a, b in rec(i - 1, j):
                yield a + s1[i - 1], b + SPACE
    yield from rec(len(s1), len(s2))


def boundary_keys(part) -> frozenset:
    """Distinct non-box facet lines of the partition `part`,
    sign-canonicalized."""
    box_keys = {h.line_key() for h in part.parent.constraints}
    keys = {h.line_key() for cell in part.cells.values() for h in cell.constraints}
    return frozenset(keys - box_keys)


def flipped(h) -> Halfspace:
    """The complementary halfspace of `h`, {normal . x >= offset}, with its
    label."""
    return Halfspace(h.flipped_key(), h.label)


def alignment_cost(alignment, rho):
    """The cost of `alignment` at the feature costs rho: its counts . rho."""
    return dot(alignment.counts, rho)
