import json
import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from paramregions import geometry, regions, seqalign
from paramregions.geometry import GeometryError, box_cell
from paramregions.rationals import rat
from paramregions.regions import AffineForm, Subdivision, cells_share_facet, compute_overlay
from paramregions.seqalign import (
    Alignment,
    AlignmentDPSpec,
    CaseSpec,
    SPACE,
    TermSpec,
    build_execution_dag,
    _lower_hull_2d,
    default_domain,
    dp_solve,
    get_preset,
    mismatch_space_gap_spec,
    mismatch_space_spec,
    node_graph,
    ray_search_2d,
    ray_search_regions,
)

from oracles import (
    _interior_point_rows,
    alignment_cost,
    boundary_keys,
    enumerate_alignments,
    feature_counts,
    labels_at,
    reference_dp_solve_multi,
    reference_envelope_labels,
    reference_partition,
    sample_interior,
    strip_spaces,
)

ALPHABET = "ACGT"
GOLDEN = Path(__file__).parent / "golden"


def random_pair(rng, max_len=4):
    m = rng.randint(1, max_len)
    n = rng.randint(1, max_len)
    s1 = "".join(rng.choice(ALPHABET) for _ in range(m))
    s2 = "".join(rng.choice(ALPHABET) for _ in range(n))
    return s1, s2


def oracle_best_cost(spec, s1, s2, rho):
    best = None
    for t1, t2 in enumerate_alignments(s1, s2):
        counts = feature_counts(spec.features, t1, t2)
        cost = sum(c * r for c, r in zip(counts, rho))
        if best is None or cost < best:
            best = cost
    return best


class TestDpSolve:
    def test_identical_characters_cost_zero(self):
        spec = mismatch_space_spec()
        cost, align = dp_solve(spec, "A", "A", (rat(3), rat(2)))
        assert cost == 0
        assert (align.t1, align.t2) == ("A", "A")

    def test_single_mismatch_vs_two_spaces(self):
        spec = mismatch_space_spec()
        cost, align = dp_solve(spec, "A", "T", (rat(3), rat(1)))
        assert cost == 2
        assert (align.t1, align.t2) == ("A-", "-T")
        cost, align = dp_solve(spec, "A", "T", (rat(1), rat(3)))
        assert cost == 1
        assert (align.t1, align.t2) == ("A", "T")

    def test_gap_spec_example(self):
        spec = mismatch_space_gap_spec()
        cost, align = dp_solve(spec, "AA", "A", (rat(1), rat(1), rat(5)))
        assert cost == 6
        assert strip_spaces(align.t1) == "AA" and strip_spaces(align.t2) == "A"

    def test_costs_match_enumeration_oracle(self):
        rng = random.Random(3)
        for spec in (mismatch_space_spec(), mismatch_space_gap_spec()):
            for trial in range(15):
                s1, s2 = random_pair(rng)
                rho = tuple(rat(rng.randint(0, 9), rng.randint(1, 3)) for _ in spec.features)
                cost, align = dp_solve(spec, s1, s2, rho)
                assert cost == oracle_best_cost(spec, s1, s2, rho)
                assert strip_spaces(align.t1) == s1 and strip_spaces(align.t2) == s2

    def test_counts_consistent_with_string_features(self):
        rng = random.Random(5)
        for spec in (mismatch_space_spec(), mismatch_space_gap_spec()):
            for trial in range(10):
                s1, s2 = random_pair(rng)
                rho = tuple(rat(rng.randint(1, 7)) for _ in spec.features)
                _, align = dp_solve(spec, s1, s2, rho)
                assert align.counts == feature_counts(spec.features, align.t1, align.t2)

    def test_space_count_conservation(self):
        rng = random.Random(7)
        spec = mismatch_space_spec()
        for trial in range(10):
            s1, s2 = random_pair(rng)
            rho = (rat(rng.randint(0, 5)), rat(rng.randint(0, 5)))
            _, a = dp_solve(spec, s1, s2, rho)
            m, n = len(s1), len(s2)
            matches = sum(1 for x, y in zip(a.t1, a.t2) if x == y and x != "-")
            assert matches + a.counts[0] + a.counts[1] == len(a.t1)
            assert a.counts[1] == (len(a.t1) - m) + (len(a.t1) - n)

    def test_homogeneity_of_argmin(self):
        spec = mismatch_space_spec()
        rng = random.Random(9)
        for trial in range(8):
            s1, s2 = random_pair(rng)
            rho = (rat(rng.randint(1, 5)), rat(rng.randint(1, 5)))
            scaled = tuple(rat(7, 2) * c for c in rho)
            _, a = dp_solve(spec, s1, s2, rho)
            _, b = dp_solve(spec, s1, s2, scaled)
            assert (a.t1, a.t2) == (b.t1, b.t2)

    def test_malformed_spec_rejected(self):
        from paramregions.seqalign import CaseSpec, TermSpec

        with pytest.raises(ValueError):
            AlignmentDPSpec(
                name="bad",
                features=("mismatch",),
                cases=(CaseSpec("main", "always", (TermSpec((1,), "main", 0, 0, "identity"),)),),
            )


TWO_TABLE_SPEC = AlignmentDPSpec.from_json(json.loads((GOLDEN / "align_both_two_table.spec.json").read_text()))


def two_table_counts(t1, t2):
    """The counts `TWO_TABLE_SPEC` gives an alignment, read off its columns:
    its weights are not unit feature counts (a mismatch weighs (1, 2)), and a
    space in t2 weighs (1, 2) before t2's first character (the s1 prefix
    base) and (3, 0) after it."""
    weights = []
    seen_s2 = False
    for a, b in zip(t1, t2):
        if a == SPACE:
            weights.append((0, 7))
        elif b == SPACE:
            weights.append((3, 0) if seen_s2 else (1, 2))
        else:
            weights.append((0, 0) if a == b else (1, 2))
        seen_s2 = seen_s2 or b != SPACE
    return tuple(map(sum, zip((0, 0), *weights)))


class TestAlignmentColumns:
    def test_a_transform_appends_one_column(self):
        ref = Alignment("A", "C", (1, 0))
        for transform, s1, s2, want in [
            ("extend-match", "AG", "CG", Alignment("AG", "CG", (1, 1))),
            ("extend-mismatch", "AG", "CT", Alignment("AG", "CT", (1, 1))),
            ("extend-space-1", "AG", "CT", Alignment("A-", "CT", (1, 1))),
            ("extend-space-2", "AG", "CT", Alignment("AG", "C-", (1, 1))),
        ]:
            assert seqalign._apply_transform(transform, ref, (0, 1), s1, s2, 2, 2) == want
        assert seqalign._apply_transform("identity", ref, (0, 0), "A", "C", 1, 1) == ref

    @pytest.mark.parametrize("s1, s2", [("ABB-", "B--B"), ("-A", "BA"), ("AB", "A-")])
    @pytest.mark.parametrize("preset", sorted(seqalign.PRESETS))
    def test_a_sequence_with_a_space_is_rejected(self, preset, s1, s2):
        # `node_graph` checks the pair once; every entry point runs over it.
        spec = get_preset(preset)
        point = (rat(1), rat(2), rat(3))[: spec.dimension]
        for call in (
            lambda: node_graph(spec, s1, s2),
            lambda: dp_solve(spec, s1, s2, point),
            lambda: build_execution_dag(spec, s1, s2),
            lambda: ray_search_2d(spec, s1, s2),
            lambda: ray_search_regions(spec, s1, s2),
        ):
            with pytest.raises(ValueError, match="space character"):
                call()

    @pytest.mark.parametrize(
        "spec, counts_of",
        [
            (mismatch_space_spec(), None),
            (mismatch_space_gap_spec(), None),
            (TWO_TABLE_SPEC, two_table_counts),
        ],
    )
    def test_every_returned_alignment_is_consistent(self, spec, counts_of):
        # Rows of equal length that spell the pair, no column of spaces
        # only, and counts read off the rows (the preset's features, or the
        # two-table spec's weights): from the DP, the DAG and the ray search.
        if counts_of is None:
            counts_of = lambda t1, t2: feature_counts(spec.features, t1, t2)
        rng = random.Random(61)
        d = spec.dimension
        checked = 0
        for _ in range(25):
            s1, s2 = ("".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6))) for _ in "12")
            graph = node_graph(spec, s1, s2)
            found = [dp_solve(spec, s1, s2, tuple(rat(rng.randint(0, 5)) for _ in range(d)), graph)[1]]
            found += build_execution_dag(spec, s1, s2, graph=graph).regions.values()
            if d == 2:
                found += ray_search_regions(spec, s1, s2, graph)[0].values()
            for alignment in found:
                t1, t2 = alignment.key
                assert len(t1) == len(t2)
                assert all(a != SPACE or b != SPACE for a, b in zip(t1, t2))
                assert (strip_spaces(t1), strip_spaces(t2)) == (s1, s2)
                assert alignment.counts == counts_of(t1, t2)
                checked += 1
        assert checked > 50


class TestDpAgainstReference:
    """The integer DP against the rational one it replaced: equal costs and
    equal alignments, ties included."""

    def assert_agree(self, spec, s1, s2, point, graph=None):
        try:
            (cost,), alignment = reference_dp_solve_multi(spec, s1, s2, [point])
        except ValueError:
            with pytest.raises(ValueError):
                dp_solve(spec, s1, s2, point, graph)
            return
        assert dp_solve(spec, s1, s2, point, graph) == (cost, alignment)

    def test_random_pairs_and_points(self):
        rng = random.Random(23)
        for spec in (mismatch_space_spec(), mismatch_space_gap_spec()):
            d = spec.dimension
            for trial in range(40):
                s1 = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))
                s2 = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))
                graph = node_graph(spec, s1, s2)
                for _ in range(3):
                    # Small numerators and mixed denominators make zero
                    # coordinates and exact ties common.
                    point = tuple(rat(rng.randint(-1, 4), rng.choice((1, 2, 3, 6))) for _ in range(d))
                    self.assert_agree(spec, s1, s2, point, graph)
                    self.assert_agree(spec, s1, s2, point)

    def test_exact_ties(self):
        # At the origin every alignment ties, and at (1, 1/2) a mismatch
        # ties two spaces: the lowest term index must win at every node.
        spec = mismatch_space_spec()
        for s1, s2 in (("AB", "BA"), ("ACGT", "TGCA"), ("AAT", "TAA"), ("", "AC")):
            for point in (
                (rat(0), rat(0)),
                (rat(1), rat(1, 2)),
                (rat(2, 3), rat(1, 3)),
                (rat(0), rat(5, 7)),
                (rat(3, 4), rat(0)),
            ):
                self.assert_agree(spec, s1, s2, point)
        gap = mismatch_space_gap_spec()
        for point in ((rat(0), rat(0), rat(0)), (rat(2), rat(1), rat(0)), (rat(1, 2), rat(1, 3), rat(1, 6))):
            self.assert_agree(gap, "ACG", "TGA", point)

    def test_point_of_the_wrong_dimension(self):
        with pytest.raises(GeometryError):
            dp_solve(mismatch_space_spec(), "A", "T", (rat(1), rat(1), rat(1)))
        with pytest.raises(GeometryError):
            dp_solve(mismatch_space_spec(), "A", "T", (rat(1),))
        with pytest.raises(GeometryError):
            dp_solve(mismatch_space_gap_spec(), "A", "T", (rat(1), rat(1)))


class TestExecutionDag:
    def test_identical_strings_one_region(self):
        part = build_execution_dag(mismatch_space_spec(), "A", "A")
        assert list(part.regions) == [("A", "A")]
        assert part.cells[("A", "A")].constraint_keys() == part.parent.constraint_keys()

    def test_ab_ba_two_regions_split_on_diagonal(self):
        part = build_execution_dag(mismatch_space_spec(), "AB", "BA")
        assert len(part.regions) == 2
        assert boundary_keys(part) == frozenset({(1, -1, 0)})
        counts = sorted(a.counts for a in part.regions.values())
        assert counts == [(0, 2), (2, 0)]

    def test_single_mismatch_boundary(self):
        part = build_execution_dag(mismatch_space_spec(), "A", "T")
        assert len(part.regions) == 2
        # rho1 = 2 rho2, as the row with a positive leading entry.
        assert boundary_keys(part) == frozenset({(1, -2, 0)})
        # Both space terms reach the total (0, 2); the DP keeps the lower
        # term index, whose space consumes the second sequence's character.
        (space,) = [a for a in part.regions.values() if a.counts == (0, 2)]
        assert (space.t1, space.t2) == ("A-", "-T")
        for key, cell in part.cells.items():
            _, align = dp_solve(mismatch_space_spec(), "A", "T", cell.witness)
            assert align == part.regions[key]

    def test_regions_agree_with_dp_at_samples(self):
        rng = random.Random(11)
        for spec in (mismatch_space_spec(), mismatch_space_gap_spec()):
            for trial in range(6):
                s1, s2 = random_pair(rng, max_len=3)
                part = build_execution_dag(spec, s1, s2)
                for key, cell in part.cells.items():
                    for p in sample_interior(cell, 20, seed=trial):
                        cost, align = dp_solve(spec, s1, s2, p)
                        assert align.key == key
                        assert cost == alignment_cost(part.regions[key], p)

    def test_exhaustive_envelope_agreement(self):
        rng = random.Random(13)
        for spec in (mismatch_space_spec(), mismatch_space_gap_spec()):
            for trial in range(4):
                s1, s2 = random_pair(rng, max_len=3)
                part = build_execution_dag(spec, s1, s2)
                assert set(part.regions) == set(part.cells)
                assert all(key == a.key for key, a in part.regions.items())
                assert all(a in part.cells and b in part.cells for a, b in part.adjacency)
                for key, cell in part.cells.items():
                    for h in cell.constraints:
                        assert h.label is None or h.label in part.cells
                    for p in sample_interior(cell, 10, seed=trial):
                        assert alignment_cost(part.regions[key], p) == oracle_best_cost(spec, s1, s2, p)


def reference_hull_labels(totals):
    """The labels the LP label step keeps for two-feature totals on the
    alignment domain."""
    forms = {label: AffineForm(total, 0) for label, total in totals.items()}
    corners = tuple(product((0, 1), repeat=2))
    return reference_envelope_labels(default_domain(2), forms, corners)


class TestLowerHull2d:
    HAND_MADE = {
        "collinear": ({"a": (0, 4), "b": (1, 3), "c": (2, 2), "d": (3, 1), "e": (4, 0)}, ["a", "e"]),
        "collinear inside a chain": (
            {"a": (0, 6), "b": (1, 3), "c": (3, 1), "d": (5, 0), "e": (2, 2)},
            ["a", "b", "c", "d"],
        ),
        "ties in x": ({"a": (0, 5), "b": (0, 3), "c": (2, 1), "d": (2, 0)}, ["b", "d"]),
        "ties in y": ({"a": (1, 2), "b": (3, 2), "c": (0, 5), "d": (4, 0)}, ["c", "a", "d"]),
        "single candidate": ({"a": (3, 7)}, ["a"]),
        "all dominated by one": ({"a": (2, 3), "b": (1, 1), "c": (1, 4), "d": (5, 1), "e": (1, 1)}, ["b"]),
        "repeated totals": ({"b": (0, 2), "a": (0, 2), "d": (2, 0), "c": (2, 0)}, ["a", "c"]),
        "chain with inner points": (
            {"a": (0, 10), "b": (1, 5), "c": (3, 2), "d": (6, 1), "e": (10, 0), "f": (2, 6), "g": (4, 3)},
            ["a", "b", "c", "d", "e"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made_totals(self, case):
        totals, expected = self.HAND_MADE[case]
        assert _lower_hull_2d(totals) == expected
        assert sorted(expected) == reference_hull_labels(totals)

    def test_matches_lp_reference_at_every_node(self, monkeypatch):
        seen = []

        def recording(totals):
            labels = _lower_hull_2d(totals)
            seen.append((dict(totals), labels))
            return labels

        monkeypatch.setattr(seqalign, "_lower_hull_2d", recording)
        rng = random.Random(17)
        for _ in range(16):
            s1, s2 = ("".join(rng.choice(ALPHABET) for _ in range(rng.randint(3, 40))) for _ in "12")
            build_execution_dag(mismatch_space_spec(), s1, s2)
        assert len(seen) > 1000
        assert any(len(labels) > 2 for _, labels in seen)
        for totals, labels in seen:
            assert sorted(labels) == reference_hull_labels(totals)


def reference_node_keys(candidates, dimension):
    """The keys the LP label step keeps for a node's candidates, over the
    whole box domain, with the node's tie rules: equal totals keep the first
    candidate, then the first alignment of a key wins."""
    by_counts: dict = {}
    for alignment in candidates:
        by_counts.setdefault(alignment.counts, alignment)
    forms: dict = {}
    for alignment in by_counts.values():
        forms.setdefault(alignment.key, AffineForm(alignment.counts, 0))
    corners = tuple(product((0, 1), repeat=dimension))
    return reference_envelope_labels(default_domain(dimension), forms, corners)


def record_envelope_regions(monkeypatch):
    """(candidates, regions) of every `_envelope_regions` call from now on."""
    seen = []
    envelope_regions = seqalign._envelope_regions

    def recording(candidates, dimension):
        found = envelope_regions(candidates, dimension)
        seen.append((list(candidates), found))
        return found

    monkeypatch.setattr(seqalign, "_envelope_regions", recording)
    return seen


def match_mismatch_space_gap_spec():
    """`mismatch_space_gap_spec` with matches counted as a fourth feature,
    listed first: the envelope's simplex slice is 3-D."""
    spec = mismatch_space_gap_spec()
    cases = tuple(
        replace(
            case,
            terms=tuple(
                replace(term, weight=(int(term.transform == "extend-match"), *term.weight)) for term in case.terms
            ),
        )
        for case in spec.cases
    )
    return replace(spec, name="match-mismatch-space-gap", features=("match", *spec.features), cases=cases)


def candidates_of(totals):
    """One alignment per label with the given counts, keyed (label, label)."""
    return [Alignment(label, label, total) for label, total in totals.items()]


def envelope_regions_3d(candidates):
    """`_envelope_regions` on three features, failing on any LP."""

    def forbidden(*args):
        raise AssertionError("an LP ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_solve_raw", forbidden)
        return seqalign._envelope_regions(candidates, 3)


class TestEnvelopeRegions3d:
    def test_front_matches_box_corner_reference_at_every_node(self, monkeypatch):
        seen = record_envelope_regions(monkeypatch)
        rng = random.Random(43)
        for _ in range(10):
            build_execution_dag(mismatch_space_gap_spec(), *random_pair(rng, max_len=8))
        assert len(seen) > 200 and sum(len(found) > 1 for _, found in seen) > 150
        for candidates, found in seen:
            assert list(found) == reference_node_keys(candidates, 3)

    HAND_MADE = {
        # On the plane c_1 + c_2 + c_3 = 4 every total costs 4/3 at the
        # simplex's centre: d, e and f lie inside the triangle a b c and g on
        # its edge a b, so they tie on lines or points only.
        "coplanar on the simplex normal": (
            {"a": (4, 0, 0), "b": (0, 4, 0), "c": (0, 0, 4), "d": (2, 1, 1), "e": (1, 2, 1), "f": (1, 1, 2), "g": (2, 2, 0)},
            ["a", "b", "c"],
        ),
        "coplanar, one inside an edge and one inside the face": (
            {"a": (4, 0, 0), "b": (0, 4, 0), "c": (0, 0, 2), "d": (2, 2, 0), "e": (1, 1, 1)},
            ["a", "b", "c"],
        ),
        "coplanar off the simplex normal": (
            {"a": (0, 3, 2), "b": (3, 0, 2), "c": (1, 1, 2), "d": (2, 2, 2)},
            ["a", "b", "c"],
        ),
        "collinear": ({"a": (0, 0, 6), "b": (1, 1, 4), "c": (2, 2, 2), "d": (3, 3, 0)}, ["a", "d"]),
        "collinear, then a total off the line": (
            {"a": (0, 0, 6), "b": (1, 1, 4), "c": (2, 2, 2), "d": (3, 3, 0), "e": (0, 5, 0)},
            ["a", "d", "e"],
        ),
        "a front total above the others' plane": (
            {"a": (2, 0, 0), "b": (0, 2, 0), "c": (0, 0, 2), "d": (1, 1, 1)},
            ["a", "b", "c"],
        ),
        "a front total below the others' plane": (
            {"a": (4, 0, 0), "b": (0, 4, 0), "c": (0, 0, 4), "d": (1, 1, 1)},
            ["a", "b", "c", "d"],
        ),
        "single candidate": ({"a": (3, 7, 1)}, ["a"]),
    }

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made_totals(self, case):
        totals, expected = self.HAND_MADE[case]
        candidates = candidates_of(totals)
        found = envelope_regions_3d(candidates)
        assert [t1 for t1, _ in found] == expected
        assert list(found) == reference_node_keys(candidates, 3)

    def test_tie_rules(self):
        # Equal totals keep the first candidate; of two alignments with one
        # key the first wins, and the second's counts are not a region.
        candidates = [
            Alignment("y", "y", (1, 0, 0)),
            Alignment("x", "x", (1, 0, 0)),
            Alignment("k", "k", (0, 0, 1)),
            Alignment("k", "k", (0, 1, 0)),
        ]
        found = envelope_regions_3d(candidates)
        assert found == {("k", "k"): candidates[2], ("y", "y"): candidates[0]}
        assert list(found) == reference_node_keys(candidates, 3)

    def test_small_random_totals(self):
        # Totals in {0, ..., 3}^3: ties, coplanar and collinear totals abound.
        rng = random.Random(53)
        sizes = []
        for _ in range(300):
            totals = {f"t{i}": tuple(rng.randint(0, 3) for _ in range(3)) for i in range(rng.randint(2, 9))}
            candidates = candidates_of(totals)
            found = envelope_regions_3d(candidates)
            assert list(found) == reference_node_keys(candidates, 3)
            sizes.append(len(found))
        assert min(sizes) == 1 and max(sizes) >= 5

    def test_four_features_match_the_reference_at_every_node(self, monkeypatch):
        # The slice is 3-D, so each front total still runs LPs there: the
        # range LPs of a canonical point, in 3-D only.
        lp_dimensions = []  # of the LPs the label step runs
        in_label_step = [False]
        solve, envelope_regions = geometry._solve_raw, seqalign._envelope_regions

        def recording_lp(obj, *args):
            if in_label_step[0]:
                lp_dimensions.append(len(obj))
            return solve(obj, *args)

        def label_step(*args):
            in_label_step[0] = True
            try:
                return envelope_regions(*args)
            finally:
                in_label_step[0] = False

        monkeypatch.setattr(geometry, "_solve_raw", recording_lp)
        monkeypatch.setattr(seqalign, "_envelope_regions", label_step)
        seen = record_envelope_regions(monkeypatch)
        rng = random.Random(59)
        for _ in range(10):
            build_execution_dag(match_mismatch_space_gap_spec(), *random_pair(rng, max_len=6))
        assert len(seen) > 100 and sum(len(found) > 1 for _, found in seen) > 50
        for candidates, found in seen:
            assert list(found) == reference_node_keys(candidates, 4)
        assert set(lp_dimensions) == {3}

    def test_only_root_cells_run_an_lp(self, monkeypatch):
        at_root = [False]
        witnesses = []  # at_root of each canonical point
        lp_calls = []  # at_root of each LP
        partition, canonical, solve = seqalign._partition, regions._canonical_point, geometry._solve_raw

        def root_partition(*args):
            at_root[0] = True
            try:
                return partition(*args)
            finally:
                at_root[0] = False

        def recording_witness(rows, d):
            witnesses.append(at_root[0])
            return canonical(rows, d)

        def recording_lp(*args):
            lp_calls.append(at_root[0])
            return solve(*args)

        def no_clarkson(*args):
            raise AssertionError("Clarkson ran for a d = 3 cell")

        monkeypatch.setattr(seqalign, "_partition", root_partition)
        monkeypatch.setattr(regions, "_canonical_point", recording_witness)
        monkeypatch.setattr(geometry, "_solve_raw", recording_lp)
        monkeypatch.setattr(regions, "_clarkson_indices", no_clarkson)
        rng = random.Random(43)
        sizes = []
        for _ in range(10):
            witnesses.clear()
            lp_calls.clear()
            part = build_execution_dag(mismatch_space_gap_spec(), *random_pair(rng, max_len=8))
            # One canonical point per root cell (its witness), none when the
            # root's one region keeps the domain; each point runs its two
            # range LPs, and no other LP, Clarkson's included, runs.
            cells = len(part.cells) if len(part.cells) > 1 else 0
            assert witnesses == [True] * cells
            assert lp_calls == [True] * (2 * cells)
            sizes.append(len(part.cells))
        assert max(sizes) > 1


def mismatch_space_match_spec():
    """`mismatch_space_spec` with matches counted as a third feature: a
    three-feature spec whose equal-character nodes have one term."""
    return AlignmentDPSpec(
        name="mismatch-space-match",
        features=("mismatch", "space", "match"),
        base_s1_prefix=("main", (0, 1, 0)),
        base_s2_prefix=("main", (0, 1, 0)),
        cases=(
            CaseSpec("main", "chars-equal", (TermSpec((0, 0, 1), "main", -1, -1, "extend-match"),)),
            CaseSpec(
                "main",
                "chars-differ",
                (
                    TermSpec((1, 0, 0), "main", -1, -1, "extend-mismatch"),
                    TermSpec((0, 1, 0), "main", 0, -1, "extend-space-1"),
                    TermSpec((0, 1, 0), "main", -1, 0, "extend-space-2"),
                ),
            ),
        ),
    )


class TestCellsOnlyAtRoot:
    def count_cells(self, monkeypatch, spec, s1, s2):
        calls = []
        build = regions.compute_vertex_cell

        def counting(*args, **kwargs):
            calls.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(regions, "compute_vertex_cell", counting)
        part = build_execution_dag(spec, s1, s2)
        return part, calls

    @pytest.mark.parametrize(
        "spec, s1, s2",
        [
            (mismatch_space_spec(), "ACGTTGCA", "TGCAACG"),  # root with three terms
            (mismatch_space_spec(), "GATTACA", "GCATGCA"),  # root at the end of a one-term chain
            (mismatch_space_gap_spec(), "ACGT", "TTGA"),
            (mismatch_space_gap_spec(), "GACT", "GCAT"),
            (mismatch_space_match_spec(), "GATTACA", "GCATGCA"),  # d=3, one-term chain
        ],
    )
    def test_one_cell_build_per_root_region(self, monkeypatch, spec, s1, s2):
        part, calls = self.count_cells(monkeypatch, spec, s1, s2)
        assert len(part.cells) > 1
        assert len(calls) == len(part.cells)
        assert len(set(calls)) == len(calls)

    def test_chain_down_to_a_base_node_builds_no_cell(self, monkeypatch):
        # The root "all" at (3, 0) has only its deletion term, and so on
        # down to the origin's base solution, whose cell is the domain.
        part, calls = self.count_cells(monkeypatch, mismatch_space_gap_spec(), "ACG", "")
        assert calls == []
        assert list(part.regions) == [("ACG", "---")]
        assert part.cells[("ACG", "---")].constraint_keys() == part.parent.constraint_keys()


class TestOverlay:
    def _half_subdivision(self, axis, label_low, label_high, labeled=True):
        """The unit square cut at 1/2 along `axis`; each half's row is
        labeled with the other half, or left unlabeled."""
        from paramregions.geometry import Halfspace

        parent = box_cell(0, 1, 2)
        normal = tuple(rat(1) if i == axis else rat(0) for i in range(2))
        low_across, high_across = (label_high, label_low) if labeled else (None, None)
        low, _ = regions.compute_vertex_cell(
            parent, label_low, [Halfspace.from_rationals(normal, rat(1, 2), low_across)]
        )
        high, _ = regions.compute_vertex_cell(
            parent, label_high, [Halfspace.from_rationals(tuple(-c for c in normal), rat(-1, 2), high_across)]
        )
        return Subdivision(parent, {label_low: low, label_high: high}, frozenset({(label_low, label_high)}))

    def assert_matches_oracle(self, subs):
        """Cells against the auxiliary slack LP on every intersection of one
        input cell per subdivision; adjacency against `cells_share_facet` on
        every pair of cells."""
        out = compute_overlay(subs)
        expect = set()
        for combo in product(*(sorted(sub.cells.items()) for sub in subs)):
            if _interior_point_rows([h.int_row for _, cell in combo for h in cell.constraints], 0) is not None:
                expect.add(tuple(label for label, _ in combo))
        assert set(out.cells) == expect
        for label, cell in out.cells.items():
            assert all(sub.cells[l].contains(cell.witness, strict=True) for sub, l in zip(subs, label))
        keys = sorted(out.cells)
        shared = {
            (a, b) for i, a in enumerate(keys) for b in keys[i + 1 :] if cells_share_facet(out.cells[a], out.cells[b])
        }
        assert out.adjacency == shared

    def test_idempotent_on_itself(self):
        sub = self._half_subdivision(0, "l", "r")
        out = compute_overlay([sub, sub])
        assert set(out.cells) == {("l", "l"), ("r", "r")}

    def test_quadrants(self):
        a = self._half_subdivision(0, "l", "r")
        b = self._half_subdivision(1, "b", "t")
        out = compute_overlay([a, b])
        assert set(out.cells) == {("l", "b"), ("l", "t"), ("r", "b"), ("r", "t")}
        assert (("l", "b"), ("r", "t")) not in out.adjacency
        assert len(out.adjacency) == 4

    def test_matches_pairwise_feasibility_oracle(self):
        spec = mismatch_space_spec()
        self.assert_matches_oracle([build_execution_dag(spec, "A", "B"), build_execution_dag(spec, "AB", "B")])
        # Seeded random DAG partitions in d = 3 and d = 2, where many fan
        # boundaries coincide; the first overlay has three inputs.
        rng = random.Random(41)
        for trial in range(12):
            gap = trial % 3 == 0
            spec = mismatch_space_gap_spec() if gap else mismatch_space_spec()
            lengths = (3, 6) if gap else (8, 16)
            subs = []
            for _ in range(3 if trial == 0 else 2):
                s1, s2 = ("".join(rng.choice(ALPHABET) for _ in range(rng.randint(*lengths))) for _ in "12")
                subs.append(build_execution_dag(spec, s1, s2))
            self.assert_matches_oracle(subs)

    def test_unlabeled_interior_facet_rejected(self):
        a = self._half_subdivision(0, "l", "r", labeled=False)
        with pytest.raises(GeometryError):
            compute_overlay([a, a])

    def test_mismatched_parents_rejected(self):
        a = self._half_subdivision(0, "l", "r")
        parent2 = box_cell(0, 2, 2)
        b = Subdivision(parent2, {"x": parent2}, frozenset())
        with pytest.raises(GeometryError):
            compute_overlay([a, b])


# Two pairs on which a ray search probe lands on a vertex of the envelope.
PROBE_ON_A_VERTEX = [
    # The first probe lands where three alignments tie, and a later
    # crossing falls on the end of its probe interval.
    ("CACTTCAATTGTAACT", "ATTACCATTCCGAGAA"),
    # A probe returns an alignment that is optimal only at a vertex.
    ("CCGTGAGAGAGCCATCTTGTG", "TCCAGGGACTGTTCATCGTCA"),
]


class TestPartition:
    """With two features a cell takes only its two hull neighbors' rows; it
    must come out as if it took every other region's row."""

    def assert_matches_reference(self, part):
        ref = reference_partition(part.parent, part.regions)
        assert sorted(part.cells) == sorted(ref.cells)
        for key, cell in part.cells.items():
            # Constraints with their facet labels, and the witness.
            assert cell.to_json() == ref.cells[key].to_json()
        assert part.adjacency == ref.adjacency

    @pytest.mark.parametrize(
        "spec",
        [mismatch_space_spec(), mismatch_space_gap_spec(), match_mismatch_space_gap_spec()],
        ids=["d2", "d3", "d4"],
    )
    def test_one_region_keeps_the_domain_a_walk_gives(self, spec):
        # The shortcut keeps the unit box with its midpoint witness, which
        # is the box's canonical point: a walk gives the same cell.
        domain = default_domain(spec.dimension)
        _, alignment = dp_solve(spec, "ACG", "ACG", (1,) * spec.dimension)
        regions = {alignment.key: alignment}
        part = seqalign._partition(domain, regions)
        walked = reference_partition(domain, regions)
        assert part.cells == walked.cells == {alignment.key: domain}
        assert walked.cells[alignment.key].witness == (rat(1, 2),) * spec.dimension

    def test_neighbor_rows_match_all_rows_on_random_pairs(self):
        rng = random.Random(29)
        spec = mismatch_space_spec()
        sizes = []
        for trial in range(24):
            s1, s2 = ("".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 23))) for _ in "12")
            part = build_execution_dag(spec, s1, s2)
            self.assert_matches_reference(part)
            sizes.append(len(part.cells))
        assert min(sizes) == 1 and max(sizes) > 3

    @pytest.mark.parametrize("s1, s2", PROBE_ON_A_VERTEX)
    def test_neighbor_rows_match_all_rows_on_a_vertex_probe(self, s1, s2):
        self.assert_matches_reference(build_execution_dag(mismatch_space_spec(), s1, s2))


def random_two_feature_spec(rng, tables, bound=7):
    """A two-feature spec with weights in [-bound, bound], prefix bases and,
    with two tables, a root table over the edit table; terms in random
    order, so term-index ties fall differently."""
    weight = lambda: (rng.randint(-bound, bound), rng.randint(-bound, bound))

    def edit_terms(tag):
        terms = [
            TermSpec(weight(), "edit", -1, -1, tag),
            TermSpec(weight(), "edit", 0, -1, "extend-space-1"),
            TermSpec(weight(), "edit", -1, 0, "extend-space-2"),
        ]
        rng.shuffle(terms)
        return tuple(terms)

    cases = [
        CaseSpec("edit", "chars-equal", edit_terms("extend-match")),
        CaseSpec("edit", "chars-differ", edit_terms("extend-mismatch")),
    ]
    if tables == 2:
        root_terms = [
            TermSpec(weight(), "edit", 0, 0, "identity"),
            TermSpec(weight(), "all", -1, -1, "extend-mismatch"),
        ]
        rng.shuffle(root_terms)
        cases.append(CaseSpec("all", "always", tuple(root_terms)))
    return AlignmentDPSpec(
        name="random",
        features=("mismatch", "space"),
        tables=("edit", "all")[:tables],
        base_origin=("edit",),
        base_s1_prefix=("edit", weight()),
        base_s2_prefix=("edit", weight()),
        cases=tuple(cases),
    )


class TestRaySearch:
    def test_single_sector(self):
        part, calls = ray_search_2d(mismatch_space_spec(), "A", "A")
        assert len(part.regions) == 1
        assert calls == 2

    def test_ab_ba_two_sectors(self):
        part, calls = ray_search_2d(mismatch_space_spec(), "AB", "BA")
        assert len(part.regions) == 2
        assert boundary_keys(part) == frozenset({(1, -1, 0)})

    def test_agrees_with_execution_dag(self, no_library_lp):
        # Neither the DAG's root walk nor the ray search runs an LP in
        # d = 2.
        rng = random.Random(17)
        spec = mismatch_space_spec()
        for trial in range(12):
            s1, s2 = random_pair(rng, max_len=4)
            ray, _ = ray_search_2d(spec, s1, s2)
            dag = build_execution_dag(spec, s1, s2)
            assert boundary_keys(ray) == boundary_keys(dag)
            for key, cell in ray.cells.items():
                assert labels_at(dag, cell.witness) == [key]
            assert ray.to_json() == dag.to_json()

    @pytest.mark.parametrize("s1, s2", PROBE_ON_A_VERTEX)
    def test_probe_on_a_vertex(self, s1, s2):
        spec = mismatch_space_spec()
        ray, calls = ray_search_2d(spec, s1, s2)
        dag = build_execution_dag(spec, s1, s2)
        assert boundary_keys(ray) == boundary_keys(dag)
        assert len(ray.regions) == len(dag.regions)
        assert calls <= 2 * len(ray.regions) - 1
        assert ray.to_json() == dag.to_json()

    def test_requires_two_features(self):
        with pytest.raises(GeometryError):
            ray_search_2d(mismatch_space_gap_spec(), "A", "T")

    def test_corner_probes_match_lexicographic_reference(self, monkeypatch):
        # The two end probes are single exact points just off an axis: each
        # must return the alignment of the lexicographic DP over its corner,
        # then the opposite one.  The search stops after them.
        class EndProbesDone(Exception):
            pass

        probes = []

        def recording(spec, s1, s2, point, graph=None):
            result = dp_solve(spec, s1, s2, point, graph)
            probes.append(result[1])
            if len(probes) == 2:
                raise EndProbesDone
            return result

        monkeypatch.setattr(seqalign, "dp_solve", recording)
        rng = random.Random(31)
        specs = [mismatch_space_spec(), random_two_feature_spec(rng, 2, bound=0)]
        specs += [random_two_feature_spec(rng, 1 + k % 2) for k in range(100)]
        left, right = (rat(0), rat(1)), (rat(1), rat(0))
        trials = 0
        for spec in specs:
            for _ in range(5):
                s1, s2 = ("".join(rng.choice("AC") for _ in range(rng.randint(0, 6))) for _ in "12")
                probes.clear()
                with pytest.raises(EndProbesDone):
                    ray_search_2d(spec, s1, s2)
                assert probes[0] == reference_dp_solve_multi(spec, s1, s2, [left, right])[1]
                assert probes[1] == reference_dp_solve_multi(spec, s1, s2, [right, left])[1]
                trials += 1
        assert trials >= 500


class TestSpecSerialization:
    def test_round_trip(self):
        spec = mismatch_space_gap_spec()
        back = AlignmentDPSpec.from_json(spec.to_json())
        assert back == spec

    def test_presets_by_name(self):
        assert get_preset("mismatch-space").dimension == 2
        assert get_preset("mismatch-space-gap").dimension == 3
        with pytest.raises(ValueError):
            get_preset("nope")
