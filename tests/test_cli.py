import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from paramregions import seqalign, tariff
from paramregions.cli import _cell_box_grid, _tariff_agreement, canonical_dumps, load_cluster_instance, main
from paramregions.clustering import MergeFamily, best_parameter
from paramregions.geometry import polygon_area
from paramregions.rationals import format_rational, format_vector, rat
from paramregions.regions import Subdivision
from paramregions.seqalign import mismatch_space_spec


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
        assert data["schema_version"] == 1
        assert len(data["cells"]) == 2
        assert data["oracle_agreement"] == 1.0
        assert data["best"]["loss"] == "0/1"
        losses = sorted(c["loss"] for c in data["cells"])
        assert losses == ["0/1", "1/4"]
        # the two leaf intervals meet at alpha = 2/5
        assert data["adjacency"]
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

    def test_restricted_best_is_one_of_the_cells(self, line_instance_file, tmp_path):
        out = tmp_path / "regions.json"
        args = ["cluster-regions", "--instance", line_instance_file, "--restrict=-1:-1/2"]
        assert run_cli(args + ["--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["best"]["label"] in [c["label"] for c in data["cells"]]
        assert data["best"]["rho"] == ["3/4"]

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


def half_term_weight(data):
    data["cases"][1]["terms"][0]["w"] = [0.5, 0]


def half_prefix_weight(data):
    data["base"]["s1_prefix"]["w_per_char"] = [0, 0.5]


def only_chars_equal(data):
    data["cases"] = [case for case in data["cases"] if case["when"] == "chars-equal"]


ALIGN_VERBS = [["align-regions"], ["oracle-check", "--kind", "align"]]


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

    @pytest.mark.parametrize("verb", ALIGN_VERBS)
    @pytest.mark.parametrize("edit", [half_term_weight, half_prefix_weight])
    def test_spec_file_with_non_integer_weight_exit_2(self, verb, edit, tmp_path):
        spec = spec_file(tmp_path, edit)
        assert run_cli(verb + ["--spec-file", spec, "--s1", "AC", "--s2", "TG"]) == 2

    @pytest.mark.parametrize("verb", ALIGN_VERBS)
    def test_spec_file_without_solution_exit_3(self, verb, tmp_path):
        spec = spec_file(tmp_path, only_chars_equal)
        assert run_cli(verb + ["--spec-file", spec, "--s1", "AC", "--s2", "TG"]) == 3
        assert run_cli(verb + ["--spec-file", spec, "--s1", "AC", "--s2", "AC"]) == 0

    def test_both_methods_disagree_exit_4(self, monkeypatch, tmp_path, capsys):
        search = seqalign.ray_search_2d

        def drop_one_region(*args, **kwargs):
            part, calls = search(*args, **kwargs)
            return replace(part, regions=dict(list(part.regions.items())[1:])), calls

        monkeypatch.setattr(seqalign, "ray_search_2d", drop_one_region)
        out = tmp_path / "never.json"
        argv = ["align-regions", "--s1", "AB", "--s2", "BA", "--method", "both", "--output", str(out)]
        assert run_cli(argv) == 4
        assert "disagree" in capsys.readouterr().err
        assert not out.exists()

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
        sub = tariff.single_tariff_regions(inst)
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


class TestOracleCheckVerb:
    def test_tariff_kind(self, tariff_instance_file, tmp_path):
        out = tmp_path / "check.json"
        code = run_cli(
            [
                "oracle-check",
                "--kind",
                "tariff",
                "--instance",
                tariff_instance_file,
                "--density",
                "10",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["agreement"] == 1.0

    def test_align_kind(self, tmp_path):
        out = tmp_path / "check.json"
        code = run_cli(
            [
                "oracle-check",
                "--kind",
                "align",
                "--s1",
                "A",
                "--s2",
                "T",
                "--density",
                "10",
                "--output",
                str(out),
            ]
        )
        assert code == 0

    def test_cluster_kind(self, line_instance_file, tmp_path):
        out = tmp_path / "check.json"
        args = ["oracle-check", "--kind", "cluster", "--instance", line_instance_file, "--density", "10"]
        assert run_cli(args + ["--output", str(out)]) == 0
        assert json.loads(out.read_text())["agreement"] == 1.0

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
    def test_cluster_kind_infeasible_family_exit_3_like_cluster_regions(
        self, family, line_instance_file, tmp_path, capsys
    ):
        out = str(tmp_path / "never.json")
        assert run_cli(["cluster-regions", "--instance", line_instance_file, *family, "--output", out]) == 3
        message = capsys.readouterr().err
        assert message.startswith("error: ")
        args = ["oracle-check", "--kind", "cluster", "--instance", line_instance_file, *family, "--output", out]
        assert run_cli(args) == 3
        assert capsys.readouterr().err == message
        assert not (tmp_path / "never.json").exists()

    def test_oracle_check_flag_is_a_parse_error(self, tariff_instance_file, tmp_path):
        # The verb always checks; the region verbs' flag does not apply.
        args = ["oracle-check", "--kind", "tariff", "--instance", tariff_instance_file, "--oracle-check"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--output", str(tmp_path / "never.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "never.json").exists()

    @pytest.mark.parametrize("kind", ["cluster", "tariff"])
    def test_instance_kinds_without_instance_exit_2(self, kind, capsys):
        assert run_cli(["oracle-check", "--kind", kind]) == 2
        assert "--instance" in capsys.readouterr().err


class TestDensity:
    @pytest.mark.parametrize("density", ["0", "-3"])
    @pytest.mark.parametrize("verb", ["tariff-regions", "oracle-check"])
    def test_density_below_one_is_a_parse_error(self, verb, density, tariff_instance_file, tmp_path):
        # A density below 1 samples no point in d <= 2, so the check could never fail.
        args = [verb, "--instance", tariff_instance_file, f"--density={density}"]
        args += ["--kind", "tariff"] if verb == "oracle-check" else ["--oracle-check"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--output", str(tmp_path / "never.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "never.json").exists()


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
        # choosing among five options.
        args = ["tariff-regions", "--instance", str(GOLDEN / "tariff_menu2.in.json"), "--menu", "2"]
        self.assert_golden("tariff_menu2.json", args, tmp_path)

    def test_align_regions_gap_preset(self, tmp_path):
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

    def test_cluster_regions_line_fixture(self, line_instance_file, tmp_path):
        # A restricted call first: the parser is shared by every call in a
        # process, so no argument of one call may leak into the next.
        restricted = ["cluster-regions", "--instance", line_instance_file, "--restrict=-1:-1/2"]
        assert run_cli(restricted + ["--output", str(tmp_path / "restricted.json")]) == 0
        args = ["cluster-regions", "--instance", line_instance_file, "--linkages", "single,complete"]
        self.assert_golden("cluster_line.json", args, tmp_path)

    def test_cluster_regions_three_linkages(self, tmp_path):
        # d = 2: seven points in the plane, one metric, three linkages.
        args = [
            "cluster-regions", "--instance", str(GOLDEN / "cluster_median.in.json"),
            "--linkages", "single,complete,median",
        ]
        self.assert_golden("cluster_median.json", args, tmp_path)

    def test_cluster_regions_two_metrics(self, tmp_path):
        # d = 3: the same seven points, average and mediod linkage on the
        # euclidean and manhattan tables, whose denominators differ.
        args = [
            "cluster-regions", "--instance", str(GOLDEN / "cluster_two_metrics.in.json"),
            "--linkages", "average,mediod", "--metrics", "euclidean,manhattan",
        ]
        self.assert_golden("cluster_two_metrics.json", args, tmp_path)


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

    def test_non_integer_env_seed_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PARAMREGIONS_SEED", "abc")
        out = tmp_path / "never.json"
        assert run_cli(["gen-dataset", "--name", "Disks", "--output", str(out)]) == 2
        assert "PARAMREGIONS_SEED" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(["gen-dataset", "--name", "Disks", "--seed", "3", "--output", str(out)]) == 0

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
