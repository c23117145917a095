import argparse
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from paramregions import seqalign, tariff
from paramregions.cli import (
    PARSER,
    _cell_box_grid,
    _tariff_agreement,
    canonical_dumps,
    decode_label,
    load_cluster_instance,
    main,
)
from paramregions.clustering import MergeFamily, best_parameter
from paramregions.geometry import ConvexCell, polygon_area
from paramregions.rationals import format_rational, format_vector, rat
from paramregions.regions import Subdivision, cells_share_facet
from paramregions.seqalign import mismatch_space_spec

from oracles import facet_adjacency


GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args):
    return main(list(args))


@pytest.fixture
def line_instance_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(
        json.dumps(
            {
                "points": [["0/1"], ["1/1"], ["3/1"], ["28/5"]],
                "metric_names": ["euclidean"],
                "target": [[0, 1], [2, 3]],
                "k": 2,
            }
        )
    )
    return str(path)


@pytest.fixture
def tariff_instance_file(tmp_path):
    path = tmp_path / "tariff.json"
    path.write_text(json.dumps({"K": 2, "menu_length": 1, "valuations": [["3/1", "5/1"]]}))
    return str(path)


class TestClusterRegions:
    def test_line_fixture(self, line_instance_file, tmp_path):
        out = tmp_path / "regions.json"
        code = run_cli(
            [
                "cluster-regions",
                "--instance",
                line_instance_file,
                "--linkages",
                "single,complete",
                "--output",
                str(out),
                "--oracle-check",
                "--density",
                "25",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema_version"] == 5
        assert len(data["cells"]) == 2
        assert data["oracle_agreement"] == 1.0
        assert data["best"]["loss"] == "0/1"
        losses = sorted(c["loss"] for c in data["cells"])
        assert losses == ["0/1", "1/4"]
        # the two leaf intervals meet at alpha = 2/5
        assert data["adjacency"] == [[0, 1]]
        inst = load_cluster_instance(json.loads(Path(line_instance_file).read_text()))
        rho, loss, leaf = best_parameter(inst, MergeFamily(("single", "complete"), ("euclidean",)))
        assert data["best"] == {
            "rho": format_vector(rho),
            "loss": format_rational(loss),
            "label": json.loads(json.dumps(leaf.merges)),
        }

    def test_round_trip_is_byte_identical(self, line_instance_file, tmp_path):
        out = tmp_path / "regions.json"
        run_cli(["cluster-regions", "--instance", line_instance_file, "--output", str(out)])
        text = out.read_text()
        assert canonical_dumps(json.loads(text)) == text

    def test_seed_determinism(self, line_instance_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                ["cluster-regions", "--instance", line_instance_file, "--seed", "9", "--output", str(path)]
            )
        assert a.read_text() == b.read_text()

    def test_bad_instance_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["cluster-regions", "--instance", str(path)]) == 2

    def test_metrics_not_an_object_exit_2(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"metrics": [1], "points": [["0"], ["1"]]}))
        assert run_cli(["cluster-regions", "--instance", str(path)]) == 2

    def test_target_size_other_than_k_exit_2(self, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"points": [["0"], ["1"], ["5"], ["6"]], "target": [[0, 1], [2, 3]], "k": 3}))
        assert run_cli(["cluster-regions", "--instance", str(path)]) == 2

    @pytest.mark.parametrize(
        "target, k",
        [
            ([[0, 1], [2, 3]], 2.0),
            ([[0, 1], [2, 3], [], [], []], 5),
            ([[0, 1], [2, 3]], True),
            ([[0, 1], [2, 3]], "2"),
        ],
        ids=["float", "more-than-points", "bool", "string"],
    )
    def test_k_not_an_integer_from_1_to_n_exit_2(self, tmp_path, capsys, target, k):
        path = tmp_path / "bad_k.json"
        path.write_text(json.dumps({"points": [["0"], ["1"], ["5"], ["6"]], "target": target, "k": k}))
        assert run_cli(["cluster-regions", "--instance", str(path)]) == 2
        assert "k must be an integer from 1 to 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"points": [], "metric_names": ["euclidean"]}, "at least one point"),
            ({"metrics": {"euclidean": []}}, "at least one point"),
            (
                {"points": [["0"], ["1"], ["3"]], "metrics": {"euclidean": [["0", "1"], ["1", "0"]]}},
                "3 points, but the metric tables are 2x2",
            ),
        ],
        ids=["no-points", "empty-table", "points-other-than-table"],
    )
    def test_empty_or_mismatched_instance_exit_2(self, data, message, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "never.json"
        assert run_cli(["cluster-regions", "--instance", str(path), "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_restricted_best_is_one_of_the_cells(self, line_instance_file, tmp_path):
        out = tmp_path / "regions.json"
        args = ["cluster-regions", "--instance", line_instance_file, "--restrict=-1:-1/2"]
        assert run_cli(args + ["--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["best"]["label"] in [c["label"] for c in data["cells"]]
        # The restricted cell is alpha in [1/2, 1]; its witness is the
        # simplest rational strictly inside.
        assert data["best"]["rho"] == ["2/3"]

    def test_restricted_parent_is_a_reduced_cell(self, tmp_path):
        # Two points: the one leaf is the parent.  x <= 2 and x <= 3/2 are
        # redundant in the simplex [0, 1], so the leaf keeps only its rows.
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"points": [["0"], ["1"]], "metric_names": ["euclidean"]}))
        out = tmp_path / "regions.json"
        args = ["cluster-regions", "--instance", str(path), "--restrict", "1:2", "--restrict", "2:3"]
        assert run_cli(args + ["--output", str(out)]) == 0
        data = json.loads(out.read_text())
        simplex = MergeFamily(("single", "complete"), ("euclidean",)).simplex_cell().to_json()
        assert data["parent"] == simplex
        assert [{k: c[k] for k in simplex} for c in data["cells"]] == [simplex]

    def test_restricted_parent_has_its_canonical_witness(self, tmp_path):
        # d = 2: x_1 <= 1/2 cuts the simplex, x_1 + x_2 <= 2 does not.  The
        # parent's witness is its canonical point: x_1 = 1/3, the simplest
        # in (0, 1/2), then x_2 = 1/2, the simplest in (0, 2/3).
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"points": [["0"], ["1"], ["3"]], "metric_names": ["euclidean"]}))
        out = tmp_path / "regions.json"
        args = ["cluster-regions", "--instance", str(path), "--linkages", "single,complete,median"]
        args += ["--restrict", "1,0:1/2", "--restrict", "1,1:2"]
        assert run_cli(args + ["--output", str(out)]) == 0
        parent = json.loads(out.read_text())["parent"]
        assert parent["witness"] == ["1/3", "1/2"]
        # Facets in the order of their integer rows: (1, 1, 1) < (2, 0, 1).
        assert [(h["normal"], h["offset"]) for h in parent["constraints"]] == [
            (["-1/1", "0/1"], "0/1"),
            (["0/1", "-1/1"], "0/1"),
            (["1/1", "1/1"], "1/1"),
            (["1/1", "0/1"], "1/2"),
        ]

    @pytest.mark.parametrize("restriction", ["1:-1/2", "-1:-1"], ids=["empty", "one-point"])
    def test_restriction_without_interior_exit_3(self, line_instance_file, restriction, tmp_path, capsys):
        out = tmp_path / "never.json"
        args = ["cluster-regions", "--instance", line_instance_file, f"--restrict={restriction}"]
        assert run_cli(args + ["--output", str(out)]) == 3
        assert "no interior" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "instance, linkages, metrics",
        [
            (None, "single,complete", "euclidean"),
            ("cluster_median.in.json", "single,complete,median", "euclidean"),
            ("cluster_two_metrics.in.json", "average,mediod", "euclidean,manhattan"),
        ],
        ids=["line", "median", "two-metrics"],
    )
    def test_best_is_best_parameter_on_the_golden_inputs(
        self, instance, linkages, metrics, line_instance_file, tmp_path
    ):
        path = line_instance_file if instance is None else str(GOLDEN / instance)
        self.assert_best_is_best_parameter(path, linkages, metrics, tmp_path)

    def test_best_is_best_parameter_on_random_instances(self, tmp_path):
        rng = random.Random(97)
        for trial in range(8):
            n = rng.randint(4, 7)
            points = [[str(rng.randint(0, 6)), str(rng.randint(0, 6))] for _ in range(n)]
            split = rng.randint(1, n - 1)
            path = tmp_path / f"random{trial}.json"
            path.write_text(json.dumps({
                "points": points,
                "metric_names": ["euclidean"],
                "target": [list(range(split)), list(range(split, n))],
                "k": 2,
            }))
            linkages = ("single,complete", "single,complete,median")[trial % 2]
            self.assert_best_is_best_parameter(str(path), linkages, "euclidean", tmp_path)

    def assert_best_is_best_parameter(self, path, linkages, metrics, tmp_path):
        out = tmp_path / "regions.json"
        args = ["cluster-regions", "--instance", path, "--linkages", linkages, "--metrics", metrics]
        assert run_cli(args + ["--output", str(out)]) == 0
        inst = load_cluster_instance(json.loads(Path(path).read_text()))
        family = MergeFamily(tuple(linkages.split(",")), tuple(metrics.split(",")))
        rho, loss, leaf = best_parameter(inst, family)
        assert json.loads(out.read_text())["best"] == {
            "rho": format_vector(rho),
            "loss": format_rational(loss),
            "label": json.loads(json.dumps(leaf.merges)),
        }

    @pytest.mark.parametrize(
        "family",
        [
            ["--metrics", "euclidean,manhattan"],
            ["--linkages", "single"],
            ["--linkages", "single,single"],
            ["--metrics", "euclidean,euclidean"],
        ],
        ids=["metric", "one-component", "repeated-linkage", "repeated-metric"],
    )
    def test_infeasible_family_exit_3(self, family, line_instance_file, tmp_path, capsys):
        out = tmp_path / "never.json"
        args = ["cluster-regions", "--instance", line_instance_file, *family, "--output", str(out)]
        assert run_cli(args) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, cells",
        [
            (["--restrict=-1:-1/2"], 1),
            (["--linkages", "single,complete,median", "--restrict", "1,1:2/3"], 2),
        ],
        ids=["d1-one-cell", "d2-two-cells"],
    )
    def test_oracle_checks_the_cells_of_a_restricted_parent(self, extra, cells, line_instance_file, tmp_path):
        out = tmp_path / "regions.json"
        args = ["cluster-regions", "--instance", line_instance_file, *extra, "--oracle-check"]
        assert run_cli(args + ["--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["cells"]) == cells
        assert data["oracle_agreement"] == 1.0

    def test_infeasible_restriction_exit_3(self, line_instance_file, tmp_path):
        code = run_cli(
            [
                "cluster-regions",
                "--instance",
                line_instance_file,
                "--restrict",
                "1:-1/2",
                "--output",
                str(tmp_path / "never.json"),
            ]
        )
        assert code == 3


def spec_file(tmp_path, edit):
    """The mismatch-space preset as a spec file, after `edit(data)`."""
    data = mismatch_space_spec().to_json()
    edit(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return str(path)


def mismatch_space_spec_text():
    return json.dumps(mismatch_space_spec().to_json())


def half_term_weight(data):
    data["cases"][1]["terms"][0]["w"] = [0.5, 0]


def half_prefix_weight(data):
    data["base"]["s1_prefix"]["w_per_char"] = [0, 0.5]


def only_chars_equal(data):
    data["cases"] = [case for case in data["cases"] if case["when"] == "chars-equal"]


def no_tables(data):
    data["tables"] = []
    del data["root"]


def half_row_offset(data):
    data["cases"][1]["terms"][0]["ref"]["di"] = -0.5


def float_column_offset(data):
    data["cases"][1]["terms"][1]["ref"]["dj"] = -1.0


def case_not_an_object(data):
    data["cases"][0] = ["main", "chars-equal"]


def ref_not_an_object(data):
    data["cases"][1]["terms"][0]["ref"] = "main"


def base_not_an_object(data):
    data["base"] = ["main"]


def undeclared_origin(data):
    data["base"]["origin"] = ["other"]


def undeclared_prefix_table(data):
    data["base"]["s2_prefix"]["table"] = "other"


def features_a_string(data):
    data["features"] = "ab"  # two characters, not two feature names


def unknown_feature_names(data):
    data["features"] = ["foo", "bar"]


class TestAlignRegions:
    def test_ab_ba_both_methods_agree(self, tmp_path):
        out = tmp_path / "align.json"
        code = run_cli(
            [
                "align-regions",
                "--preset",
                "mismatch-space",
                "--s1",
                "AB",
                "--s2",
                "BA",
                "--method",
                "both",
                "--output",
                str(out),
                "--oracle-check",
                "--density",
                "12",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["cells"]) == 2
        assert data["oracle_agreement"] == 1.0
        assert data["ray_dp_solves"] >= 2

    def test_identical_strings_single_region(self, tmp_path):
        out = tmp_path / "one.json"
        assert run_cli(["align-regions", "--s1", "AA", "--s2", "AA", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["cells"]) == 1

    def test_fasta_input(self, tmp_path):
        fasta = tmp_path / "pair.fa"
        fasta.write_text(">a\nAB\n>b\nBA\n")
        out = tmp_path / "align.json"
        assert run_cli(["align-regions", "--fasta", str(fasta), "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["s1"] == "AB" and data["s2"] == "BA"

    @pytest.mark.parametrize("method", ["ray", "dag", "both"])
    def test_space_character_rejected(self, method, tmp_path):
        out = tmp_path / "never.json"
        code = run_cli(["align-regions", "--s1", "A-C", "--s2", "AC", "--method", method, "--output", str(out)])
        assert code == 2
        assert not out.exists()

    def test_space_character_in_fasta_rejected(self, tmp_path):
        fasta = tmp_path / "aligned.fa"
        fasta.write_text(">a\nAC-GT\n>b\nACTGT\n")
        assert run_cli(["align-regions", "--fasta", str(fasta), "--output", str(tmp_path / "never.json")]) == 2

    @pytest.mark.parametrize("edit", [half_term_weight, half_prefix_weight])
    def test_spec_file_with_non_integer_weight_exit_2(self, edit, tmp_path):
        spec = spec_file(tmp_path, edit)
        assert run_cli(["align-regions", "--spec-file", spec, "--s1", "AC", "--s2", "TG"]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            no_tables,
            half_row_offset,
            float_column_offset,
            case_not_an_object,
            ref_not_an_object,
            base_not_an_object,
            undeclared_origin,
            undeclared_prefix_table,
            features_a_string,
            unknown_feature_names,
        ],
    )
    def test_malformed_spec_file_exit_2(self, edit, tmp_path):
        spec = spec_file(tmp_path, edit)
        for s1, s2 in (("AC", "TG"), ("AC", "AC")):
            assert run_cli(["align-regions", "--spec-file", spec, "--s1", s1, "--s2", s2]) == 2

    def test_spec_file_without_solution_exit_3(self, tmp_path):
        spec = spec_file(tmp_path, only_chars_equal)
        argv = ["align-regions", "--spec-file", spec, "--s1", "AC"]
        assert run_cli(argv + ["--s2", "TG"]) == 3
        assert run_cli(argv + ["--s2", "AC"]) == 0

    def test_both_methods_disagree_exit_4(self, monkeypatch, tmp_path, capsys):
        search = seqalign.ray_search_regions

        def drop_one_region(*args, **kwargs):
            regions, calls = search(*args, **kwargs)
            return dict(list(regions.items())[1:]), calls

        monkeypatch.setattr(seqalign, "ray_search_regions", drop_one_region)
        out = tmp_path / "never.json"
        argv = ["align-regions", "--s1", "AB", "--s2", "BA", "--method", "both", "--output", str(out)]
        assert run_cli(argv) == 4
        assert "disagree" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["dag", "ray", "both"])
    def test_one_node_graph_and_one_partition_per_job(self, method, monkeypatch, tmp_path):
        calls = {"node_graph": 0, "_partition": 0}

        def counting(name):
            original = getattr(seqalign, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(seqalign, name, wrapper)

        counting("node_graph")
        counting("_partition")
        out = tmp_path / "out.json"
        argv = ["align-regions", "--s1", "ACGTTGCA", "--s2", "TGCAACGT", "--method", method]
        assert run_cli(argv + ["--oracle-check", "--output", str(out)]) == 0
        assert calls == {"node_graph": 1, "_partition": 1}
        payload = json.loads(out.read_text())
        assert payload["oracle_agreement"] == 1
        assert len(payload["cells"]) > 2
        if method != "dag":
            assert payload["region_count"] == len(payload["cells"])

    def test_gap_preset_rejects_ray(self):
        assert (
            run_cli(
                ["align-regions", "--preset", "mismatch-space-gap", "--s1", "A", "--s2", "T", "--method", "ray"]
            )
            == 3
        )

    def test_gap_preset_rejects_both(self, tmp_path, capsys):
        # "both" runs the ray search too, so it needs two features as "ray" does.
        out = tmp_path / "never.json"
        argv = ["align-regions", "--preset", "mismatch-space-gap", "--s1", "A", "--s2", "T"]
        assert run_cli(argv + ["--method", "both", "--output", str(out)]) == 3
        assert "the ray-search path needs a two-feature spec" in capsys.readouterr().err
        assert not out.exists()


class TestTariff:
    def test_regions_and_bound_report(self, tariff_instance_file, tmp_path):
        out = tmp_path / "tariff.json"
        code = run_cli(
            [
                "tariff-regions",
                "--instance",
                tariff_instance_file,
                "--output",
                str(out),
                "--oracle-check",
                "--density",
                "15",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["cells"]) == 3
        assert data["piece_bound"]["pieces"] == 3
        assert data["piece_bound"]["pieces_ok"] and data["piece_bound"]["lines_ok"]
        assert data["oracle_agreement"] == 1.0

    def test_optimize(self, tariff_instance_file, tmp_path):
        out = tmp_path / "opt.json"
        assert run_cli(["tariff-optimize", "--instance", tariff_instance_file, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["revenue"] == "5/1"
        assert data["region_label"] == [2]

    def test_agreement_checks_a_cell_the_grid_misses(self):
        # At density 1 the grid has no point inside the cell of quantity 1;
        # relabeling that cell wrongly must still lower the agreement, since
        # each cell is also checked at its witness (5 points in all).
        inst = tariff.TariffInstance(units=2, valuations=(("3", "5"),))
        sub = tariff.compute_price_regions(inst)
        assert [len(list(_cell_box_grid(sub.cells[(q,)], 1))) for q in range(3)] == [1, 0, 1]
        assert _tariff_agreement(inst, sub, 1) == 1.0
        cells = {(3,) if label == (1,) else label: cell for label, cell in sub.cells.items()}
        wrong = Subdivision(sub.parent, cells, frozenset())
        assert _tariff_agreement(inst, wrong, 1) == 4 / 5

    @pytest.mark.parametrize(
        "instance",
        [
            {"K": 2.0, "valuations": [["3", "5"]]},
            {"K": 2, "menu_length": 1.5, "valuations": [["3", "5"]]},
            {"K": True, "valuations": [["3"]]},
        ],
    )
    def test_non_integer_size_exit_2(self, instance, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(instance))
        assert run_cli(["tariff-regions", "--instance", str(path)]) == 2

    def test_menu_one_matches_single_byte_for_byte(self, tariff_instance_file, tmp_path):
        a, b = tmp_path / "single.json", tmp_path / "menu1.json"
        run_cli(["tariff-regions", "--instance", tariff_instance_file, "--output", str(a)])
        run_cli(["tariff-regions", "--instance", tariff_instance_file, "--menu", "1", "--output", str(b)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("verb", ["tariff-regions", "tariff-optimize"])
    def test_every_job_builds_its_regions_once(self, verb, tariff_instance_file, tmp_path, monkeypatch):
        # A single tariff, a menu, and a menu file read with `--menu 1` each
        # run the one region builder once, so a wrapper around
        # `compute_price_regions` sees every tariff job.
        menu_file = tmp_path / "menu.json"
        menu_file.write_text(json.dumps({"K": 1, "menu_length": 2, "valuations": [["3"], ["1"]]}))
        calls = []
        build = tariff.compute_price_regions

        def counting(inst):
            calls.append(inst.menu_length)
            return build(inst)

        monkeypatch.setattr(tariff, "compute_price_regions", counting)
        out = tmp_path / "out.json"
        jobs = [([tariff_instance_file], 1), ([str(menu_file)], 2), ([str(menu_file), "--menu", "1"], 1)]
        for args, menu in jobs:
            calls.clear()
            assert run_cli([verb, "--instance", *args, "--output", str(out)]) == 0
            assert calls == [menu]
            data = json.loads(out.read_text())
            labels = [cell["label"] for cell in data["cells"]] if "cells" in data else [data["region_label"]]
            # Plain quantities for a single tariff, [q, j] pairs for a menu.
            for label in labels:
                if menu == 1:
                    assert all(type(e) is int for e in label), (args, label)
                else:
                    assert all(list(map(type, e)) == [int, int] for e in label), (args, label)


class TestPlotData:
    def test_tariff_loops_cover_the_box(self, tariff_instance_file, tmp_path):
        regions = tmp_path / "tariff.json"
        run_cli(["tariff-regions", "--instance", tariff_instance_file, "--output", str(regions)])
        csv_path = tmp_path / "loops.csv"
        assert run_cli(["plot-data", "--regions", str(regions), "--output", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "cell,label,vertex,x,y"
        cells = {}
        for line in lines[1:]:
            idx, label, vidx, x, y = line.split(",")
            cells.setdefault(idx, []).append((x, y))
        assert len(cells) == 3
        # exact areas recomputed from the regions file sum to the box area
        data = json.loads(regions.read_text())
        from paramregions.geometry import ConvexCell, polygon_vertices

        total = rat(0)
        for entry in data["cells"]:
            cell = ConvexCell.from_json(entry)
            verts = polygon_vertices(cell)
            if verts:
                total += polygon_area(verts)
        cap = rat(6)
        assert total == cap * cap

    def test_square_loop_has_four_vertices(self, tmp_path):
        from paramregions.geometry import box_cell

        regions = tmp_path / "square.json"
        payload = {"schema_version": 1, "cells": [{"label": "box", **box_cell(0, 1, 2).to_json()}]}
        regions.write_text(canonical_dumps(payload))
        out = tmp_path / "sq.csv"
        assert run_cli(["plot-data", "--regions", str(regions), "--output", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 5

    def test_non_2d_rejected(self, tmp_path):
        from paramregions.geometry import box_cell

        regions = tmp_path / "r.json"
        payload = {"schema_version": 1, "cells": [{"label": "x", **box_cell(0, 1, 3).to_json()}]}
        regions.write_text(canonical_dumps(payload))
        assert run_cli(["plot-data", "--regions", str(regions)]) == 2

    @pytest.mark.parametrize("data", [{"cells": 5}, "cells"], ids=["cells-not-a-list", "not-an-object"])
    def test_malformed_cells_exit_2(self, data, tmp_path, capsys):
        regions = tmp_path / "r.json"
        regions.write_text(json.dumps(data))
        assert run_cli(["plot-data", "--regions", str(regions)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_area_region_absent_from_output(self, tmp_path):
        from paramregions.geometry import Halfspace, box_cell, ConvexCell

        box = box_cell(0, 1, 2)
        segment = ConvexCell(
            2, box.constraints + (Halfspace.from_rationals((1, 0), 0), Halfspace.from_rationals((-1, 0), 0))
        )
        payload = {
            "schema_version": 1,
            "cells": [
                {"label": "flat", **segment.to_json()},
                {"label": "box", **box.to_json()},
            ],
        }
        regions = tmp_path / "r.json"
        regions.write_text(canonical_dumps(payload))
        out = tmp_path / "loops.csv"
        assert run_cli(["plot-data", "--regions", str(regions), "--output", str(out)]) == 0
        body = out.read_text()
        assert "flat" not in body and "box" in body
        # With no other cell there is nothing to plot, and no file either.
        del payload["cells"][1]
        regions.write_text(canonical_dumps(payload))
        out.unlink()
        assert run_cli(["plot-data", "--regions", str(regions), "--output", str(out)]) == 3
        assert not out.exists()


def _box_regions(edit):
    from paramregions.geometry import box_cell

    cell = {"label": "box", **box_cell(0, 1, 2).to_json()}
    edit(cell)
    return {"schema_version": 1, "cells": [cell]}


class TestMalformedNumbers:
    LINE = {"points": [["0"], ["1"], ["3"], ["28/5"]], "target": [[0, 1], [2, 3]], "k": 2}

    @pytest.mark.parametrize(
        "verb, data, extra",
        [
            ("tariff-regions", {"K": 2, "valuations": [["3", "5"]], "price_cap": "1/0"}, []),
            ("tariff-regions", {"K": 2, "valuations": [["3", "5/0"]]}, []),
            ("cluster-regions", {**LINE, "points": [["0"], ["1/0"], ["3"], ["28/5"]]}, []),
            ("cluster-regions", LINE, ["--restrict", "1:1/0"]),
            ("plot-data", _box_regions(lambda c: c.update(witness=["1/0", "1/2"])), []),
            ("plot-data", _box_regions(lambda c: c["constraints"][0].update(offset="1/0")), []),
            ("plot-data", _box_regions(lambda c: c["constraints"][0].update(offset=0.5)), []),
        ],
        ids=["price-cap", "valuation", "point", "restrict", "witness", "offset", "float-offset"],
    )
    def test_zero_denominator_or_float_exit_2(self, verb, data, extra, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        source = "--regions" if verb == "plot-data" else "--instance"
        assert run_cli([verb, source, str(path), *extra, "--output", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["tariff-regions", "--instance"], '{"K": 2, "valuations": [["3", "5"]]}'.encode("utf-16")),
        (["tariff-regions", "--instance"], b"[" * 200000 + b"]" * 200000),
        (["plot-data", "--regions"], '{"cells": []}'.encode("utf-16")),
        (["plot-data", "--regions"], b"[" * 200000 + b"]" * 200000),
        (["align-regions", "--fasta"], ">a\nAB\n>b\nBA\n".encode("utf-16")),
        (["align-regions", "--fasta"], b">a\nAB\n>b\nB\xc1\n"),
        (["cluster-regions", "--instance"], '{"points": [[0], [1]], "table": [0, 1]}'.encode("utf-16")),
        (["cluster-regions", "--instance"], b"[" * 200000 + b"]" * 200000),
        (["align-regions", "--s1", "AC", "--s2", "TG", "--spec-file"], mismatch_space_spec_text().encode("utf-16")),
        (["align-regions", "--s1", "AC", "--s2", "TG", "--spec-file"], b"[" * 200000 + b"]" * 200000),
    ],
    ids=[
        "instance-utf16",
        "instance-too-deep",
        "regions-utf16",
        "regions-too-deep",
        "fasta-utf16",
        "fasta-latin1",
        "cluster-instance-utf16",
        "cluster-instance-too-deep",
        "spec-utf16",
        "spec-too-deep",
    ],
)
def test_input_file_not_utf8_or_nested_too_deep_exit_2(argv, text, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(text)
    out = tmp_path / "never"
    assert run_cli([*argv, str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestGenDataset:
    def test_writes_instance_consumable_by_cluster_regions(self, tmp_path):
        inst = tmp_path / "rings.json"
        assert run_cli(["gen-dataset", "--name", "Rings", "--seed", "4", "--output", str(inst)]) == 0
        data = json.loads(inst.read_text())
        assert len(data["points"]) == 100
        assert data["k"] == 2

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            run_cli(["gen-dataset", "--name", "Disks", "--seed", "11", "--output", str(p)])
        assert a.read_text() == b.read_text()


class TestDensity:
    @pytest.mark.parametrize("density", ["0", "-3"])
    def test_density_below_one_is_a_parse_error(self, density, tariff_instance_file, tmp_path):
        # A density below 1 samples no point in d <= 2, so the check could never fail.
        args = ["tariff-regions", "--instance", tariff_instance_file, f"--density={density}", "--oracle-check"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--output", str(tmp_path / "never.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "never.json").exists()


class TestSeedIndependence:
    """Regions, their witnesses and the revenue-maximizing prices are
    functions of the input alone: every verb but `gen-dataset` writes the
    same bytes under any seed, in every dimension."""

    @pytest.mark.parametrize(
        "args",
        [
            ["tariff-regions", "--instance", str(GOLDEN / "tariff_4x4.in.json")],
            ["tariff-regions", "--instance", str(GOLDEN / "tariff_menu2.in.json"), "--menu", "2"],
            ["align-regions", "--preset", "mismatch-space-gap", "--s1", "ACG", "--s2", "TGA"],
            ["align-regions", "--preset", "mismatch-space-gap", "--s1", "ACGTTGA", "--s2", "TGCAAGT"],
            ["align-regions", "--preset", "mismatch-space", "--method", "ray",
             "--s1", "CACTTCAATTGTAACT", "--s2", "ATTACCATTCCGAGAA"],
            ["align-regions", "--spec-file", str(GOLDEN / "align_both_two_table.spec.json"),
             "--s1", "ACGTTGCA", "--s2", "TGCAACGT", "--method", "both"],
            ["cluster-regions", "--instance", str(GOLDEN / "cluster_median.in.json"),
             "--linkages", "single,complete,median"],
            ["cluster-regions", "--instance", str(GOLDEN / "cluster_two_metrics.in.json"),
             "--linkages", "average,mediod", "--metrics", "euclidean,manhattan"],
            # d = 3, a restricted parent; d = 4, a menu of two.
            ["cluster-regions", "--instance", str(GOLDEN / "cluster_two_metrics.in.json"),
             "--linkages", "average,mediod", "--metrics", "euclidean,manhattan", "--restrict", "1,1,1:1/2"],
            ["tariff-regions", "--instance", "{tariff}", "--menu", "2"],
            ["tariff-optimize", "--instance", str(GOLDEN / "tariff_4x4.in.json")],
            ["tariff-optimize", "--instance", str(GOLDEN / "tariff_menu2.in.json"), "--menu", "2"],
        ],
        ids=["tariff-4x4", "tariff-menu2", "align-gap", "align-gap-five", "align-ray", "align-both",
             "cluster-median", "cluster-two-metrics", "cluster-restricted-d3", "tariff-menu-d4",
             "optimize-4x4", "optimize-menu2"],
    )
    def test_region_verbs_ignore_the_seed(self, args, tmp_path):
        tariff_path = tmp_path / "tariff.json"
        tariff_path.write_text(json.dumps({"K": 2, "valuations": [["3", "5"], ["2", "7"]]}))
        args = [str(tariff_path) if a == "{tariff}" else a for a in args]
        outputs = []
        for seed in ("0", "911"):
            out = tmp_path / f"seed{seed}.json"
            assert run_cli([*args, "--seed", seed, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_line_fixture_ignores_the_seed(self, line_instance_file, tariff_instance_file, tmp_path):
        for args in (
            ["cluster-regions", "--instance", line_instance_file, "--linkages", "single,complete"],
            ["tariff-regions", "--instance", tariff_instance_file],
        ):
            outputs = []
            for seed in ("0", "911"):
                out = tmp_path / f"seed{seed}.json"
                assert run_cli([*args, "--seed", seed, "--output", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]


class TestGoldenOutput:
    """Canonical outputs recorded from an earlier version, compared byte for
    byte: a change to any witness, facet or label must update the file on
    purpose."""

    def assert_golden(self, name, args, tmp_path):
        out = tmp_path / name
        assert run_cli([*args, "--seed", "0", "--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    def test_tariff_regions_covering_the_box(self, tariff_instance_file, tmp_path):
        self.assert_golden("tariff_box.json", ["tariff-regions", "--instance", tariff_instance_file], tmp_path)

    def test_tariff_regions_parallel_candidates(self, tmp_path):
        # Four samples, four units: most candidate rows of a cell are
        # parallel, and only the tightest of each direction can be a facet.
        args = ["tariff-regions", "--instance", str(GOLDEN / "tariff_4x4.in.json")]
        self.assert_golden("tariff_4x4.json", args, tmp_path)

    def test_plot_data_of_the_parallel_candidates_regions(self, tmp_path):
        # The vertex loops are computed from the facets' rational view.
        args = ["plot-data", "--regions", str(GOLDEN / "tariff_4x4.json")]
        self.assert_golden("plot_tariff_4x4.csv", args, tmp_path)

    def test_tariff_regions_menu_of_two(self, tmp_path):
        # d = 4: three samples, one with a fractional valuation, each
        # choosing among five options.  Each cell is read off its vertices,
        # with no LP.
        args = ["tariff-regions", "--instance", str(GOLDEN / "tariff_menu2.in.json"), "--menu", "2"]
        self.assert_golden("tariff_menu2.json", args, tmp_path)

    def test_align_regions_gap_preset(self, tmp_path):
        # d = 3: the root cells are read off their vertices, with no LP.
        args = ["align-regions", "--preset", "mismatch-space-gap", "--s1", "ACG", "--s2", "TGA"]
        self.assert_golden("align_ACG_TGA.json", args, tmp_path)

    def test_align_regions_gap_preset_five_regions(self, tmp_path):
        args = ["align-regions", "--preset", "mismatch-space-gap", "--s1", "ACGTTGA", "--s2", "TGCAAGT"]
        self.assert_golden("align_ACGTTGA_TGCAAGT.json", args, tmp_path)

    def test_align_regions_ray_search(self, tmp_path):
        args = [
            "align-regions", "--preset", "mismatch-space", "--method", "ray",
            "--s1", "CACTTCAATTGTAACT", "--s2", "ATTACCATTCCGAGAA",
        ]
        self.assert_golden("align_ray_CACTTCAATTGTAACT_ATTACCATTCCGAGAA.json", args, tmp_path)

    def test_align_regions_both_methods_two_table_spec(self, tmp_path):
        # A custom two-table spec with weights up to 7: the ray search's end
        # probes must lie closer to the axes than 1/3 to find its end regions.
        args = [
            "align-regions", "--spec-file", str(GOLDEN / "align_both_two_table.spec.json"),
            "--s1", "ACGTTGCA", "--s2", "TGCAACGT", "--method", "both",
        ]
        self.assert_golden("align_both_two_table.json", args, tmp_path)

    def test_cluster_regions_line_fixture(self, line_instance_file, tmp_path):
        # A restricted call first: the parser is shared by every call in a
        # process, so no argument of one call may leak into the next.
        restricted = ["cluster-regions", "--instance", line_instance_file, "--restrict=-1:-1/2"]
        assert run_cli(restricted + ["--output", str(tmp_path / "restricted.json")]) == 0
        args = ["cluster-regions", "--instance", line_instance_file, "--linkages", "single,complete"]
        self.assert_golden("cluster_line.json", args, tmp_path)

    def test_cluster_regions_three_linkages(self, tmp_path):
        # d = 2: seven points in the plane, one metric, three linkages.  The
        # cells, their witnesses and the facets two leaves share are all
        # read off integer rows, with no LP.
        args = [
            "cluster-regions", "--instance", str(GOLDEN / "cluster_median.in.json"),
            "--linkages", "single,complete,median",
        ]
        self.assert_golden("cluster_median.json", args, tmp_path)

    def test_cluster_regions_two_metrics(self, tmp_path):
        # d = 3: the same seven points, average and mediod linkage on the
        # euclidean and manhattan tables, whose denominators differ.  No LP
        # runs.
        args = [
            "cluster-regions", "--instance", str(GOLDEN / "cluster_two_metrics.in.json"),
            "--linkages", "average,mediod", "--metrics", "euclidean,manhattan",
        ]
        self.assert_golden("cluster_two_metrics.json", args, tmp_path)


GOLDEN_REGIONS = sorted(p.name for p in GOLDEN.glob("*.json") if "cells" in json.loads(p.read_text()))


@pytest.mark.parametrize("name", GOLDEN_REGIONS)
def test_golden_regions_state_each_fact_once(name):
    # Schema 4: adjacency is the sorted index pairs i < j of exactly the
    # cells that share a facet, and a cluster cell's label is not repeated
    # as merges.
    data = json.loads((GOLDEN / name).read_text())
    assert data["schema_version"] == 5
    cells = [ConvexCell.from_json(entry, decode_label) for entry in data["cells"]]
    assert data["adjacency"] == facet_adjacency(cells)
    if data["kind"] == "cluster-regions":
        assert not any("merges" in entry for entry in data["cells"])


@pytest.mark.parametrize("name", GOLDEN_REGIONS)
def test_facet_adjacency_finds_every_pair_that_shares_a_facet(name):
    # The oracle tries only the pairs joined on a flipped facet row; it
    # must find what trying every pair of cells finds.
    data = json.loads((GOLDEN / name).read_text())
    cells = [ConvexCell.from_json(entry, decode_label) for entry in data["cells"]]
    every = [[i, j] for i, j in itertools.combinations(range(len(cells)), 2) if cells_share_facet(cells[i], cells[j])]
    assert facet_adjacency(cells) == every
    assert every or len(cells) == 1


class Text(str):
    pass


class Count(int):
    def __repr__(self):
        return "Count()"


def random_json_value(rng, depth=0):
    """A random nested value that json writes: str keys only, tuples for
    lists now and then, and every kind of leaf it treats specially,
    subclasses of str and int included."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        alphabet = 'ab "\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        return Text(text) if rng.random() < 0.1 else text
    if kind == 1:
        value = rng.choice((0, 1, -1, 2**63, -(2**64) - 7, 10**30, rng.randint(-999, 999)))
        return Count(value) if rng.random() < 0.1 else value
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice((0.0, -0.0, 0.1, -2.5e-300, 1e300, float("nan"), float("inf"), float("-inf")))
    if kind == 4:
        return rng.choice(([], {}, (), [[]], {"": {}}, [{}], ((),)))
    if kind == 5:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    items = [random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    keys = [random_json_value(rng, 4) if rng.random() < 0.5 else rng.choice("abc") for _ in items]
    return {key if isinstance(key, str) else str(key): item for key, item in zip(keys, items)}


class TestCanonicalDumps:
    def test_matches_json_with_sorted_keys_and_indent_one(self):
        rng = random.Random(23)
        for _ in range(2000):
            value = random_json_value(rng)
            assert canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=1) + "\n"

    @pytest.mark.parametrize("value", [Fraction(1, 3), {1, 2}, [Fraction(2)], {"a": {"b": {3}}}, object()])
    def test_values_json_cannot_write_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            canonical_dumps(value)

    @pytest.mark.parametrize("key", [1, None, True, 0.5, (1, 2)])
    def test_only_str_keys_are_accepted(self, key):
        with pytest.raises(TypeError):
            canonical_dumps({key: 1})
        with pytest.raises(TypeError):
            canonical_dumps([{"a": {key: 1, "b": 2}}])


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("cluster", ["cluster-regions", "--instance", "{line}"]),
        ("align", ["align-regions", "--s1", "A", "--s2", "T"]),
        ("tariff", ["tariff-regions", "--instance", "{tariff}"]),
    ],
)
def test_oracle_runs_as_a_flag_not_a_verb(kind, argv, line_instance_file, tariff_instance_file, tmp_path, capsys):
    # `oracle-check --kind` is no verb: its check is the region verb's flag.
    files = {"{line}": line_instance_file, "{tariff}": tariff_instance_file}
    argv = [files.get(a, a) for a in argv]
    out = tmp_path / "regions.json"
    former = ["oracle-check", "--kind", kind, *argv[1:], "--density", "10", "--output", str(out)]
    with pytest.raises(SystemExit) as exc:
        run_cli(former)
    assert exc.value.code == 2
    assert "invalid choice: 'oracle-check'" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli([*argv, "--oracle-check", "--density", "10", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["oracle_agreement"] == 1.0


def test_readme_names_exactly_the_verbs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"^Verbs: ([^.]*)\.", text, re.M).group(1)
    verbs = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert re.findall(r"`([^`]+)`", sentence) == list(verbs)


class TestEntryPoint:
    def test_env_var_sets_default_seed(self, tmp_path, monkeypatch):
        # gen-dataset records its seed, and the variable is read on every call.
        def dataset(name, *seed):
            out = tmp_path / f"{name}.json"
            assert run_cli(["gen-dataset", "--name", "Disks", *seed, "--output", str(out)]) == 0
            return out.read_text()

        monkeypatch.delenv("PARAMREGIONS_SEED", raising=False)
        assert json.loads(dataset("unset"))["seed"] == 0
        for seed in ("77", "5"):
            monkeypatch.setenv("PARAMREGIONS_SEED", seed)
            via_env = dataset(f"env{seed}")
            assert json.loads(via_env)["seed"] == int(seed)
            assert via_env == dataset(f"explicit{seed}", "--seed", seed)

    def test_non_integer_env_seed_exit_2(self, tariff_instance_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PARAMREGIONS_SEED", "abc")
        out = tmp_path / "never.json"
        assert run_cli(["gen-dataset", "--name", "Disks", "--output", str(out)]) == 2
        assert "PARAMREGIONS_SEED" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(["gen-dataset", "--name", "Disks", "--seed", "3", "--output", str(out)]) == 0
        # No other verb reads a seed, so none reads the variable.
        args = ["tariff-optimize", "--instance", tariff_instance_file, "--output", str(tmp_path / "opt.json")]
        assert run_cli(args) == 0

    def test_module_invocation(self, monkeypatch):
        # The child process finds the package on the same path as this one.
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "paramregions.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "cluster-regions" in proc.stdout

    def test_region_verbs_do_not_import_numpy(self, line_instance_file, tariff_instance_file, tmp_path, monkeypatch):
        # Only the float linkage path and the dataset generator use numpy.
        verbs = [
            ["cluster-regions", "--instance", line_instance_file, "--linkages", "single,complete"],
            ["align-regions", "--s1", "ACGTTGA", "--s2", "TGCAAGT"],
            ["tariff-regions", "--instance", tariff_instance_file],
        ]
        verbs = [argv + ["--output", str(tmp_path / f"{i}.json")] for i, argv in enumerate(verbs)]
        script = "\n".join(
            [
                "import sys",
                "import paramregions.cli",
                f"codes = [paramregions.cli.main(argv) for argv in {verbs!r}]",
                "print(codes, 'numpy' in sys.modules)",
            ]
        )
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[0,", "0,", "0]", "False"]
