"""Parametric global pairwise sequence alignment.

A declarative DP family assigns each subproblem a case, and each case a small
set of update terms (an integer feature-weight vector, a referenced
subproblem, an alignment transform).  All costs are homogeneous linear
functions of the feature-cost vector rho, so for a fixed sequence pair the
parameter space splits into convex cones on which the optimal alignment is
constant.

`node_graph` lists the subproblems of one sequence pair once, in
topological order; the scalar DP and the execution DAG both run over it.
It is the one place the pair is checked: neither sequence may contain
`SPACE`, so no column holds a space in both rows.
`dp_solve` is the scalar DP at one parameter point.  It carries one integer
cost per subproblem, the point scaled by the lcm of its denominators; one
positive scale keeps the order and the ties of the rational costs, so it
chooses exactly what a DP over rationals would.  It keeps one back-pointer
per subproblem and builds only the root's alignment.

Two methods find the root's regions, the alignments optimal on a
full-dimensional part of the domain.  `build_execution_dag` works
bottom-up: per subproblem, it keeps only the regions, the candidate
alignments (a referenced region's alignment extended by a term) whose cost
is minimal on a full-dimensional part of the domain.  With two features
these are the vertices of the candidates' lower hull, found on integers;
otherwise each candidate on the Pareto front of the counts is decided on
the simplex slice of the domain, by exact clipping with three features and
with more by whether the slice's cell has a canonical point, one dimension
down (its range LPs).
`ray_search_regions`, for two features only, walks the fan of angular
sectors with one DP solve per probe point, over one node graph.  Both end
in `_partition` (`ray_search_2d` for the ray search), which builds the
root's cells from its regions alone (`regions.compute_subdivision`), so
equal regions give equal partitions: a caller that runs both methods can
build one node graph, pass it to each (`graph=`), and partition one of
their region sets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .geometry import (
    ConvexCell,
    GeometryError,
    _has_interior,
    _homogeneous,
    box_cell,
    dot,
)
from .rationals import Rational, ZERO, as_vector
from .regions import (
    AffineForm,
    Subdivision,
    compute_subdivision,
    dominance_constraints,
    pareto_front,
)

SPACE = "-"

TRANSFORMS = ("extend-match", "extend-mismatch", "extend-space-1", "extend-space-2", "identity")


class NoSolution(ValueError):
    """The DP assigns no alignment to the root for this sequence pair."""


# --------------------------------------------------------------------------
# Alignments and features
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Alignment:
    """Pair of equal-length space-extended strings plus feature counts.
    A plain value: base solutions have equal-length rows, and a transform
    appends one character to each row or nothing (`_column`)."""

    t1: str
    t2: str
    counts: tuple

    @property
    def key(self):
        return (self.t1, self.t2)


FEATURES = ("match", "mismatch", "space", "gap")


# --------------------------------------------------------------------------
# Declarative DP specifications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TermSpec:
    weight: tuple  # integer feature-weight vector
    ref_table: str
    di: int
    dj: int
    transform: str


@dataclass(frozen=True)
class CaseSpec:
    table: str
    when: str  # "always" | "chars-equal" | "chars-differ"
    terms: tuple


@dataclass(frozen=True)
class AlignmentDPSpec:
    """Cases, update terms and base cases of one parametric alignment DP.

    Multiple logical tables per index pair are allowed (e.g. split by the
    kind of edit the alignment ends with); `root_table` names the one whose
    value at (m, n) is the answer.  Subproblems are ordered by nondecreasing
    i + j, with same-cell references allowed only toward earlier tables.
    """

    name: str
    features: tuple
    cases: tuple
    tables: tuple = ("main",)
    root_table: Optional[str] = None
    base_origin: tuple = ("main",)
    base_s1_prefix: Optional[tuple] = None  # (table, per-char weight vector)
    base_s2_prefix: Optional[tuple] = None

    def __post_init__(self):
        if isinstance(self.features, str):
            raise ValueError("features must be a list of feature names")
        object.__setattr__(self, "features", tuple(self.features))
        for name in self.features:
            if name not in FEATURES:
                raise ValueError(f"unknown feature {name!r}; known: {', '.join(FEATURES)}")
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "cases", tuple(self.cases))
        object.__setattr__(self, "base_origin", tuple(self.base_origin))
        if not self.tables:
            raise ValueError("need at least one table")
        if self.root_table is None:
            object.__setattr__(self, "root_table", self.tables[-1])
        rank = {t: r for r, t in enumerate(self.tables)}
        if self.root_table not in rank:
            raise ValueError("root table is not declared")
        d = self.dimension
        for case in self.cases:
            if case.table not in rank:
                raise ValueError(f"case for undeclared table {case.table!r}")
            if case.when not in ("always", "chars-equal", "chars-differ"):
                raise ValueError(f"unknown case condition {case.when!r}")
            for term in case.terms:
                _check_weight(term.weight, d, "term")
                if term.transform not in TRANSFORMS:
                    raise ValueError(f"unknown transform {term.transform!r}")
                if term.ref_table not in rank:
                    raise ValueError(f"term references undeclared table {term.ref_table!r}")
                if any(isinstance(v, bool) or not isinstance(v, int) for v in (term.di, term.dj)):
                    raise ValueError("reference offsets must be integers")
                if term.di > 0 or term.dj > 0:
                    raise ValueError("references must not look ahead")
                if term.di == 0 and term.dj == 0 and rank[term.ref_table] >= rank[case.table]:
                    raise ValueError("same-cell references must go to an earlier table")
        prefixes = [p for p in (self.base_s1_prefix, self.base_s2_prefix) if p is not None]
        for table in self.base_origin + tuple(p[0] for p in prefixes):
            if table not in rank:
                raise ValueError(f"base case in undeclared table {table!r}")
        for prefix in prefixes:
            _check_weight(prefix[1], d, "prefix")

    @property
    def dimension(self) -> int:
        return len(self.features)

    def case_for(self, table: str, s1: str, s2: str, i: int, j: int) -> Optional[CaseSpec]:
        for case in self.cases:
            if case.table != table:
                continue
            if case.when == "always":
                return case
            if i >= 1 and j >= 1:
                equal = s1[i - 1] == s2[j - 1]
                if case.when == ("chars-equal" if equal else "chars-differ"):
                    return case
        return None

    def base_solution(self, s1: str, s2: str, table: str, i: int, j: int):
        if i == 0 and j == 0 and table in self.base_origin:
            return Alignment("", "", (0,) * self.dimension)
        if j == 0 and i > 0 and self.base_s1_prefix and self.base_s1_prefix[0] == table:
            w = self.base_s1_prefix[1]
            return Alignment(s1[:i], SPACE * i, tuple(i * c for c in w))
        if i == 0 and j > 0 and self.base_s2_prefix and self.base_s2_prefix[0] == table:
            w = self.base_s2_prefix[1]
            return Alignment(SPACE * j, s2[:j], tuple(j * c for c in w))
        return None

    def to_json(self) -> dict:
        out = {
            "schema_version": 1,
            "name": self.name,
            "features": list(self.features),
            "tables": list(self.tables),
            "root": self.root_table,
            "cases": [
                {
                    "table": c.table,
                    "when": c.when,
                    "terms": [
                        {
                            "w": list(t.weight),
                            "ref": {"table": t.ref_table, "di": t.di, "dj": t.dj},
                            "transform": t.transform,
                        }
                        for t in c.terms
                    ],
                }
                for c in self.cases
            ],
            "base": {"origin": list(self.base_origin)},
        }
        if self.base_s1_prefix:
            out["base"]["s1_prefix"] = {"table": self.base_s1_prefix[0], "w_per_char": list(self.base_s1_prefix[1])}
        if self.base_s2_prefix:
            out["base"]["s2_prefix"] = {"table": self.base_s2_prefix[0], "w_per_char": list(self.base_s2_prefix[1])}
        return out

    @classmethod
    def from_json(cls, data: dict) -> "AlignmentDPSpec":
        cases = tuple(
            CaseSpec(
                table=c.get("table", "main"),
                when=c["when"],
                terms=tuple(
                    TermSpec(
                        weight=tuple(t["w"]),
                        ref_table=t["ref"].get("table", "main"),
                        di=t["ref"]["di"],
                        dj=t["ref"]["dj"],
                        transform=t["transform"],
                    )
                    for t in c["terms"]
                ),
            )
            for c in data["cases"]
        )
        base = data.get("base", {})
        s1p = base.get("s1_prefix")
        s2p = base.get("s2_prefix")
        return cls(
            name=data.get("name", "custom"),
            features=tuple(data["features"]),
            cases=cases,
            tables=tuple(data.get("tables", ["main"])),
            root_table=data.get("root"),
            base_origin=tuple(base.get("origin", ["main"])),
            base_s1_prefix=(s1p["table"], tuple(s1p["w_per_char"])) if s1p else None,
            base_s2_prefix=(s2p["table"], tuple(s2p["w_per_char"])) if s2p else None,
        )


def _check_weight(weight, dimension: int, what: str) -> None:
    # Costs are carried as integers (`dp_solve`), so weights must be.
    if len(weight) != dimension:
        raise ValueError(f"{what} weight length must match feature count")
    if any(isinstance(w, bool) or not isinstance(w, int) for w in weight):
        raise ValueError(f"{what} weights must be integers")


def mismatch_space_spec() -> AlignmentDPSpec:
    """Two features: mismatches and spaces (one table).

    On unequal characters the mismatch term precedes the two space terms,
    with the space consuming the second sequence's character first; ties at
    equal cost resolve in that order.
    """
    return AlignmentDPSpec(
        name="mismatch-space",
        features=("mismatch", "space"),
        tables=("main",),
        base_origin=("main",),
        base_s1_prefix=("main", (0, 1)),
        base_s2_prefix=("main", (0, 1)),
        cases=(
            CaseSpec(
                "main",
                "chars-equal",
                (TermSpec((0, 0), "main", -1, -1, "extend-match"),),
            ),
            CaseSpec(
                "main",
                "chars-differ",
                (
                    TermSpec((1, 0), "main", -1, -1, "extend-mismatch"),
                    TermSpec((0, 1), "main", 0, -1, "extend-space-1"),
                    TermSpec((0, 1), "main", -1, 0, "extend-space-2"),
                ),
            ),
        ),
    )


def mismatch_space_gap_spec() -> AlignmentDPSpec:
    """Three features: mismatches, spaces and gaps (affine gap costs).

    Three tables track the edit kind the alignment ends with (substitution,
    insertion into the first row, deletion); a fourth aggregates their
    minimum.  Opening a gap pays the gap weight once, extending it only pays
    per space.
    """
    sub_terms = lambda w, tag: tuple(TermSpec(w, t, -1, -1, tag) for t in ("sub", "ins", "del"))
    return AlignmentDPSpec(
        name="mismatch-space-gap",
        features=("mismatch", "space", "gap"),
        tables=("sub", "ins", "del", "all"),
        root_table="all",
        base_origin=("sub",),
        cases=(
            CaseSpec("sub", "chars-equal", sub_terms((0, 0, 0), "extend-match")),
            CaseSpec("sub", "chars-differ", sub_terms((1, 0, 0), "extend-mismatch")),
            CaseSpec(
                "ins",
                "always",
                (
                    TermSpec((0, 1, 1), "sub", 0, -1, "extend-space-1"),
                    TermSpec((0, 1, 0), "ins", 0, -1, "extend-space-1"),
                    TermSpec((0, 1, 1), "del", 0, -1, "extend-space-1"),
                ),
            ),
            CaseSpec(
                "del",
                "always",
                (
                    TermSpec((0, 1, 1), "sub", -1, 0, "extend-space-2"),
                    TermSpec((0, 1, 1), "ins", -1, 0, "extend-space-2"),
                    TermSpec((0, 1, 0), "del", -1, 0, "extend-space-2"),
                ),
            ),
            CaseSpec(
                "all",
                "always",
                (
                    TermSpec((0, 0, 0), "sub", 0, 0, "identity"),
                    TermSpec((0, 0, 0), "ins", 0, 0, "identity"),
                    TermSpec((0, 0, 0), "del", 0, 0, "identity"),
                ),
            ),
        ),
    )


PRESETS = {
    "mismatch-space": mismatch_space_spec,
    "mismatch-space-gap": mismatch_space_gap_spec,
}


@lru_cache(maxsize=None)
def get_preset(name: str) -> AlignmentDPSpec:
    """The named preset spec, built once per process: a spec is immutable."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}") from None


def _column(transform: str, s1: str, s2: str, i: int, j: int) -> tuple:
    """The characters a transform at subproblem (i, j) appends to the two
    rows: one column, or two empty strings for "identity"."""
    if transform == "identity":
        return "", ""
    if transform in ("extend-match", "extend-mismatch"):
        return s1[i - 1], s2[j - 1]
    if transform == "extend-space-1":
        return SPACE, s2[j - 1]
    if transform == "extend-space-2":
        return s1[i - 1], SPACE
    raise ValueError(transform)


def _apply_transform(transform: str, ref: Alignment, weight, s1, s2, i, j) -> Alignment:
    """`ref` extended by a term at subproblem (i, j): the term's column
    (`_column`) appended to its rows and `weight` added to its counts."""
    a, b = _column(transform, s1, s2, i, j)
    return Alignment(ref.t1 + a, ref.t2 + b, tuple(map(operator.add, ref.counts, weight)))


# --------------------------------------------------------------------------
# Node graph shared by the scalar DP and the execution DAG
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeGraph:
    """The subproblems the root of one sequence pair needs.

    `nodes` holds them as (table, i, j) in topological order, the root
    last.  For each node, `bases` holds its base solution (or None), and
    `terms` holds the (term, ref) pairs of its case whose referenced
    subproblem is in range, with `ref` the position of that subproblem in
    `nodes`.  A base node has no terms.
    """

    nodes: tuple
    bases: tuple
    terms: tuple


def node_graph(spec: AlignmentDPSpec, s1: str, s2: str) -> NodeGraph:
    """The node graph of (s1, s2), built once per pair: every DP solve and
    the execution DAG of the pair run over it.  Raises `ValueError` when
    either sequence contains `SPACE`, the library's one check of a pair."""
    if SPACE in s1 or SPACE in s2:
        raise ValueError(f"sequences must not contain the space character {SPACE!r}")
    rank = {t: r for r, t in enumerate(spec.tables)}
    links = {}
    stack = [(spec.root_table, len(s1), len(s2))]
    while stack:
        node = stack.pop()
        if node in links:
            continue
        table, i, j = node
        base = spec.base_solution(s1, s2, table, i, j)
        case = None if base is not None else spec.case_for(table, s1, s2, i, j)
        terms = []
        for term in case.terms if case is not None else ():
            ref = (term.ref_table, i + term.di, j + term.dj)
            if ref[1] >= 0 and ref[2] >= 0:
                terms.append((term, ref))
                stack.append(ref)
        links[node] = (base, terms)
    # References never look ahead, and same-cell ones go to earlier tables,
    # so this order is topological and ends at the root.
    nodes = sorted(links, key=lambda node: (node[1] + node[2], rank[node[0]]))
    position = {node: k for k, node in enumerate(nodes)}
    return NodeGraph(
        tuple(nodes),
        tuple(links[node][0] for node in nodes),
        tuple(tuple((term, position[ref]) for term, ref in links[node][1]) for node in nodes),
    )


# --------------------------------------------------------------------------
# Scalar DP at one parameter point
# --------------------------------------------------------------------------

def dp_solve(spec: AlignmentDPSpec, s1: str, s2: str, rho, graph: Optional[NodeGraph] = None):
    """Exact minimum alignment cost at rho and its canonical optimal
    alignment.  Term ties break toward the lowest term index, consistently
    with the region machinery.

    Costs are integers: rho is written homogeneously as (P, w) with w > 0
    (`geometry._homogeneous`), and a cost c . rho is carried as
    c . P = w (c . rho).  Scaling every cost by the same positive w keeps
    their order and their ties, so the strict `<` that keeps the lowest term
    index chooses exactly as over the rationals.  Each node keeps only its
    cost and a back-pointer; the root's alignment is rebuilt by one
    traceback, which joins its columns and sums its term weights and then
    builds one `Alignment`.

    `graph` is `node_graph(spec, s1, s2)`, which callers that solve one
    pair many times build once; it is built here when omitted.
    """
    *P, w = _homogeneous(as_vector(rho))
    if len(P) != spec.dimension:
        raise GeometryError("parameter dimension mismatch")
    if graph is None:
        graph = node_graph(spec, s1, s2)

    def cost_of(counts):
        return sum(c * x for c, x in zip(counts, P))

    term_cost = {term.weight: cost_of(term.weight) for case in spec.cases for term in case.terms}
    costs = [None] * len(graph.nodes)
    back = [None] * len(graph.nodes)
    for k, base in enumerate(graph.bases):
        if base is not None:
            costs[k] = cost_of(base.counts)
            continue
        best = None
        for term, ref in graph.terms[k]:
            ref_cost = costs[ref]
            if ref_cost is None:
                continue
            cost = ref_cost + term_cost[term.weight]
            if best is None or cost < best:
                best = cost
                back[k] = (term, ref)
        costs[k] = best
    root = len(graph.nodes) - 1
    if costs[root] is None:
        raise NoSolution("the DP has no solution for this input")
    columns = []  # from the root back to its base
    weights = []
    k = root
    while back[k] is not None:
        term, ref = back[k]
        _, i, j = graph.nodes[k]
        columns.append(_column(term.transform, s1, s2, i, j))
        weights.append(term.weight)
        k = ref
    base = graph.bases[k]
    columns.reverse()
    t1 = base.t1 + "".join(a for a, _ in columns)
    t2 = base.t2 + "".join(b for _, b in columns)
    counts = tuple(map(sum, zip(base.counts, *weights)))
    return Rational(costs[root], w), Alignment(t1, t2, counts)


# --------------------------------------------------------------------------
# Partitions of the parameter domain
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AlignmentPartition(Subdivision):
    """A `Subdivision` of the parameter domain by optimal alignment.  Cells,
    facet labels and adjacency pairs are keyed by `Alignment.key`;
    `regions` maps each cell's key to its alignment."""

    regions: dict = field(kw_only=True)


def _partition(domain: ConvexCell, regions: dict) -> AlignmentPartition:
    """The partition of `domain` among `regions`, {key: Alignment}: the
    alignments optimal on a full-dimensional part of it.  Both the execution
    DAG and the ray search end here.

    One region is optimal on the whole domain, whose cell is the domain
    itself.  Otherwise `regions.compute_subdivision` walks from the regions
    against their cost forms.  With two features the regions' totals are
    the vertices of their lower hull (`_lower_hull_2d`), so sorted by counts
    they are the fan's sectors in order, and a cell takes only its two hull
    neighbors' dominance rows: every other row is redundant.
    """
    if len(regions) == 1:
        (key,) = regions
        return AlignmentPartition(domain, {key: domain}, frozenset(), regions=regions)
    forms = {key: AffineForm(alignment.counts, 0) for key, alignment in regions.items()}
    if domain.dimension == 2:
        fan = sorted(forms, key=lambda key: regions[key].counts)
        rivals = {key: {k: forms[k] for k in fan[max(i - 1, 0) : i + 2]} for i, key in enumerate(fan)}
    else:
        rivals = dict.fromkeys(forms, forms)
    sub = compute_subdivision(domain, regions, lambda key: dominance_constraints(rivals[key], key))
    return AlignmentPartition(domain, sub.cells, sub.adjacency, regions=regions)


@lru_cache(maxsize=None)
def default_domain(dimension: int) -> ConvexCell:
    """Nonnegative orthant cut to the unit box (costs are homogeneous, so
    scale is irrelevant; redundancy removal needs bounded cells), built
    once per dimension: a cell is immutable."""
    return box_cell(0, 1, dimension)


# --------------------------------------------------------------------------
# The compact execution DAG
# --------------------------------------------------------------------------

def build_execution_dag(
    spec: AlignmentDPSpec, s1: str, s2: str, graph: Optional[NodeGraph] = None
) -> AlignmentPartition:
    """Partition of the parameter domain (`default_domain`, the unit box) by
    optimal alignment of (s1, s2).

    Every subproblem, in topological order, gets only its regions: the
    alignments optimal on a full-dimensional part of the domain, keyed by
    `Alignment.key`.  A base node has its base solution; a node with one
    term extends its subproblem's regions; a node with several terms keeps
    the candidate totals on the lower envelope of their costs
    (`_envelope_regions`).  No node reads a cell, so cells are built once,
    for the root's regions (`_partition`).

    `graph` is `node_graph(spec, s1, s2)`, as in `dp_solve`; it is built
    here when omitted.
    """
    domain = default_domain(spec.dimension)
    if graph is None:
        graph = node_graph(spec, s1, s2)
    regions = []  # per node: {key: Alignment}, or None when it has no solution
    for (_, i, j), base, terms in zip(graph.nodes, graph.bases, graph.terms):
        solved = [(term, ref) for term, ref in terms if regions[ref] is not None]
        extended = [
            _apply_transform(term.transform, alignment, term.weight, s1, s2, i, j)
            for term, ref in solved
            for alignment in regions[ref].values()
        ]
        if base is not None:
            regions.append({base.key: base})
        elif not solved:
            regions.append(None)
        elif len(solved) == 1:
            regions.append({alignment.key: alignment for alignment in extended})
        else:
            regions.append(_envelope_regions(extended, spec.dimension))
    if regions[-1] is None:
        raise NoSolution("the DP has no solution for this input")
    return _partition(domain, regions[-1])


def _envelope_regions(candidates, dimension: int) -> dict:
    """The regions of a node with several terms, from its candidates (each
    referenced region's alignment extended by its term, in term order), in
    key order.  The ray search passes the alignments its probes found, in
    fan order.

    A term costs its subproblem's optimum plus w_t . rho, and that optimum
    is the lower envelope of the subproblem's region alignments.  So this
    node's regions are the candidates whose totals counts(a) + w_t are
    minimal on a full-dimensional part of the domain (Gusfield,
    Balasubramanian & Naor 1994).  Equal totals keep the lowest term index,
    the DP's tie rule, and then the first alignment of a key wins.

    With two features the regions are the vertices of conv(totals) + R^2_+
    (`_lower_hull_2d`).  Otherwise the totals are first cut to the
    `regions.pareto_front` of the counts: costs are linear in rho >= 0, so
    a cost is at least another's at every corner of the domain, the unit
    box, exactly when its counts are componentwise so (the unit vectors are
    among the corners).  Costs are also homogeneous, so a total's cell in
    the box has an interior exactly when it meets the simplex rho_1 + ... +
    rho_d = 1 in a set with relative interior.  On that slice, with rho_d =
    1 - (rho_1 + ... + rho_{d-1}), counts c cost the affine form (c_1 - c_d,
    ..., c_{d-1} - c_d; c_d) of the (d-1)-simplex, so a front total is a
    region when its dominance rows against the other front forms and the
    simplex rows leave an interior point (`geometry._has_interior`: exact
    clipping in d = 3, with no LP; in d >= 4 a canonical point one dimension
    down, from its range LPs).
    With s = (c_1 - c_d, ..., c_{d-1} - c_d, -c_d), the row "my form <=
    the other's" is my s minus the other's, the `dominance_constraints` row
    up to a positive factor; its normal is never 0, since two totals that
    differ by a multiple of (1, ..., 1) are not both on the front.  The
    domain is the unit box of `dimension` features (`default_domain`).
    """
    by_counts: dict = {}
    for alignment in candidates:
        by_counts.setdefault(alignment.counts, alignment)
    by_key: dict = {}
    for alignment in by_counts.values():
        by_key.setdefault(alignment.key, alignment)
    if dimension == 2:
        passed = _lower_hull_2d({key: alignment.counts for key, alignment in by_key.items()})
    else:
        front = pareto_front({key: alignment.counts for key, alignment in by_key.items()})
        sliced = {}  # key -> (c_1 - c_d, ..., c_{d-1} - c_d, -c_d)
        for key in front:
            *head, last = by_key[key].counts
            sliced[key] = (*(c - last for c in head), -last)
        n = dimension - 1
        # rho_i >= 0 for i < d, and rho_1 + ... + rho_{d-1} <= 1 (rho_d >= 0)
        simplex = [(*(-int(i == j) for j in range(n)), 0) for i in range(n)] + [(1,) * n + (1,)]
        passed = []
        for key in front:
            s = sliced[key]
            rows = [tuple(map(operator.sub, s, sliced[other])) for other in front if other != key]
            if _has_interior(simplex + rows):
                passed.append(key)
    return {key: by_key[key] for key in sorted(passed)}


def _lower_hull_2d(totals: dict) -> list:
    """The labels whose integer totals (x, y) are the vertices of
    conv(totals) + R^2_+, from the smallest x to the smallest y.

    A total costs x rho_1 + y rho_2, so it is the unique minimum on an open
    set of rho > 0 exactly when it is such a vertex: the polytope
    propagation of Pachter & Sturmfels, "Parametric inference for
    biological sequence analysis" (PNAS 2004).  Sort by (x, y, label); keep
    the strict Pareto front, on which y falls strictly (this drops a larger
    y at equal x, dominated totals, and every label of equal totals but the
    smallest);
    then Andrew's monotone chain keeps the lower hull, popping on a cross
    product <= 0, so that a total on the segment between two others is no
    vertex.  All arithmetic is on integers.
    """
    hull: list = []  # ((x, y), label); the last one is the front's lowest y
    for (x, y), label in sorted((total, label) for label, total in totals.items()):
        if hull and y >= hull[-1][0][1]:
            continue
        while len(hull) >= 2:
            (ox, oy), _ = hull[-2]
            (ax, ay), _ = hull[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            hull.pop()
        hull.append(((x, y), label))
    return [label for _, label in hull]


# --------------------------------------------------------------------------
# d = 2 ray search
# --------------------------------------------------------------------------

def ray_search_2d(spec: AlignmentDPSpec, s1: str, s2: str, graph: Optional[NodeGraph] = None):
    """Fan of angular sectors of constant optimal alignment (two features):
    (partition, number of DP solves issued), the regions of
    `ray_search_regions` partitioned by `_partition`, as the DAG's root is."""
    regions, solves = ray_search_regions(spec, s1, s2, graph)
    return _partition(default_domain(2), regions), solves


def ray_search_regions(spec: AlignmentDPSpec, s1: str, s2: str, graph: Optional[NodeGraph] = None):
    """The root's regions, {key: Alignment}, found by the ray search, and
    the number of DP solves issued.  `graph` is `node_graph(spec, s1, s2)`,
    as in `dp_solve`; it is built here when omitted.

    All in-model costs are homogeneous (base cases and updates contribute
    rho . w only), so every boundary is a line through the origin and the
    partition is a fan.  Each probe at a candidate boundary either
    certifies it (the optimum at the crossing equals the tied value) or
    discovers a new alignment wedged between the two known ones; the
    recursion then splits.  A probe on a vertex of the envelope may return
    an alignment optimal there only, so the alignments found go through the
    DAG's own region step (`_envelope_regions`, a lower hull).

    The two end probes find the alignments optimal just inside the quadrant
    next to each axis: on the rho_2 axis, the least c_2 and, among those,
    the least c_1, for counts c = (c_1, c_2).  One exact point does this.
    A partial alignment's counts are a base's counts plus at most
    len(graph.nodes) term weights, and a base's are at most len(s1) or
    len(s2) prefix weights, so |c_1| <= B = (len(graph.nodes) + len(s1) +
    len(s2)) * M, with M the largest |entry| of any term or prefix weight.
    At (1/W, 1) with W = 2B + 1 the DP compares the integers c_1 + W c_2:
    a smaller c_2 outweighs any difference of c_1, which is at most 2B < W,
    and two costs tie only when both counts do.  So every node chooses as
    the lexicographic order of (c_2, c_1) does, term-index ties included;
    (1, 1/W) does the same at the rho_1 axis.
    """
    if graph is None:
        graph = node_graph(spec, s1, s2)
    if spec.dimension != 2:
        raise GeometryError("the ray search needs exactly two features")
    calls = [0]

    def solve_at(point):
        calls[0] += 1
        return dp_solve(spec, s1, s2, point, graph)

    weights = [term.weight for case in spec.cases for term in case.terms]
    weights += [prefix[1] for prefix in (spec.base_s1_prefix, spec.base_s2_prefix) if prefix]
    bound = (len(graph.nodes) + len(s1) + len(s2)) * max((abs(x) for w in weights for x in w), default=0)
    eps = Rational(1, 2 * bound + 1)
    _, left_align = solve_at((eps, Rational(1)))
    _, right_align = solve_at((Rational(1), eps))

    def crossing(a_counts, b_counts):
        # The t at which the costs tie on the chord (t, 1 - t):
        # g . (t, 1 - t) = 0 for g = a_counts - b_counts.
        g1, g2 = (Rational(x - y) for x, y in zip(a_counts, b_counts))
        return g2 / (g2 - g1)

    def recurse(tl, align_l, tr, align_r):
        tm = crossing(align_l.counts, align_r.counts)
        if not tl < tm < tr:
            # The crossing lies in [tl, tr], since align_l is optimal at tl
            # and align_r at tr.  At an end, say tl, align_r ties align_l,
            # so it is optimal at both ends and, the envelope being concave,
            # on all of [tl, tr]: no region lies in between.  This happens
            # when a probe on a vertex of the envelope returned an alignment
            # that is optimal on one side of it only.
            return []
        m = (tm, 1 - tm)
        cost, align_m = solve_at(m)
        tied_value = dot(align_l.counts, m)
        if cost < tied_value:
            return (
                recurse(tl, align_l, tm, align_m)
                + [align_m]
                + recurse(tm, align_m, tr, align_r)
            )
        return []  # boundary certified at tm

    # When one cost class covers the quadrant there is no boundary to find:
    # with equal strings this is one region, and cost-tied distinct strings
    # cannot be separated at all.
    inner = []
    if left_align.counts != right_align.counts:
        inner = recurse(ZERO, left_align, Rational(1), right_align)
    found = [left_align] + inner + [right_align]
    return _envelope_regions(found, 2), calls[0]
