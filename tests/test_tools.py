"""The byte-identity tool, `tools/output_digests.py`: its digests must be
stable from run to run, or a `diff` of two checkouts' digests shows
nothing, and they must match the recorded ones.  `--keep` keeps the bytes
it digests, and `tools/compare_outputs.py` names the JSON paths that
differ between two kept trees.  The library holds only what its verbs,
tools, demos and benchmark run: a name only tests read belongs in
`tests/oracles.py`."""

import ast
import hashlib
import importlib
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def import_output_digests(monkeypatch):
    # output_digests imports the benchmark's job generator and runner from
    # perfbench/ as top-level modules, as its main() arranges.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("output_digests")


def test_align_dag_digests_repeat(monkeypatch, tmp_path):
    output_digests = import_output_digests(monkeypatch)
    runs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        runs.append(list(output_digests.digests("align-dag", 7, workdir)))
    first, second = runs
    assert first
    for job_id, code, digest in first:
        assert code == 0, job_id
        assert re.fullmatch(r"[0-9a-f]{64}", digest), job_id
    assert first == second


def test_benchmark_outputs_match_recorded_digests(monkeypatch, tmp_path):
    # Every benchmark job's exit code and output bytes, at the two seeds the
    # file was recorded with.  A change that alters output on purpose
    # re-records the file, as it would a golden one.
    output_digests = import_output_digests(monkeypatch)
    workloads = importlib.import_module("workloads")
    recorded = (ROOT / "tests" / "golden" / "benchmark_digests.txt").read_text().splitlines()
    lines = []
    for seed in (7, 1009):
        for workload in workloads.WORKLOADS:
            workdir = tmp_path / f"{workload}-{seed}"
            workdir.mkdir()
            for job_id, code, digest in output_digests.digests(workload, seed, workdir):
                lines.append(f"{seed} {job_id} {code} {digest}")
    assert lines == recorded


def test_align_scaling_prints_one_row_per_length(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    align_scaling = importlib.import_module("align_scaling")
    from paramregions.seqalign import build_execution_dag, mismatch_space_gap_spec

    assert align_scaling.main(["--lengths", "4"]) == 0
    header, rule, row = capsys.readouterr().out.splitlines()
    assert header == "| L | root regions | LPs | time |" and rule == "|---|---|---|---|"
    length, regions, lps, seconds = re.fullmatch(r"\| (\d+) \| (\d+) \| ([\d,]+) \| ([\d.]+) s \|", row).groups()
    s1, s2 = align_scaling.random_pair(4)
    assert len(s1) == len(s2) == int(length) == 4
    assert int(regions) == len(build_execution_dag(mismatch_space_gap_spec(), s1, s2).regions) > 1
    assert int(lps.replace(",", "")) > 0


def test_kept_outputs_are_the_digested_bytes(monkeypatch, tmp_path, capsys):
    output_digests = import_output_digests(monkeypatch)
    workdir, keep = tmp_path / "work", tmp_path / "keep" / "7"
    workdir.mkdir()
    lines = list(output_digests.digests("align-dag", 7, workdir, keep))
    assert sorted(p.name for p in keep.iterdir()) == sorted(f"{job_id}.json" for job_id, _, _ in lines)
    for job_id, _, digest in lines:
        assert hashlib.sha256((keep / f"{job_id}.json").read_bytes()).hexdigest() == digest
    # A second run into the same DIR stops before any job: an old output
    # left there would hide a job that now writes nothing.
    kept = {p.name: p.read_bytes() for p in keep.iterdir()}
    with pytest.raises(SystemExit) as stop:
        output_digests.main(["--seeds", "7", "--keep", str(tmp_path / "keep")])
    assert stop.value.code == 2 and "is not empty" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in keep.iterdir()} == kept


def import_compare_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("compare_outputs")


def write_tree(root, files):
    for name, payload in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def regions_payload():
    facet = {"normal": ["1/1", "0/1"], "offset": "1/1"}
    cell = {"label": [1, 2], "constraints": [facet], "witness": ["1/2", "1/3"]}
    cells = [dict(cell), dict(cell, label=[2, 1])]
    return {"schema_version": 3, "cells": cells, "adjacency": [[[1, 2], [2, 1]]]}


def test_compare_outputs_on_identical_trees_reports_nothing(monkeypatch, tmp_path, capsys):
    compare_outputs = import_compare_outputs(monkeypatch)
    files = {"7/a.json": regions_payload(), "1009/b.json": {"prices": ["1/1"], "revenue": "2/1"}}
    write_tree(tmp_path / "old", files)
    write_tree(tmp_path / "new", files)
    assert compare_outputs.compare_trees(tmp_path / "old", tmp_path / "new") == []
    assert compare_outputs.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out == ""


def test_compare_outputs_reports_exactly_the_edited_witness(monkeypatch, tmp_path, capsys):
    compare_outputs = import_compare_outputs(monkeypatch)
    old, new = regions_payload(), regions_payload()
    new["cells"][1] = dict(new["cells"][1], witness=["1/2", "1/4"])
    write_tree(tmp_path / "old", {"7/a.json": old, "7/b.json": old})
    write_tree(tmp_path / "new", {"7/a.json": new, "7/b.json": old, "7/c.json": old})
    assert compare_outputs.compare_trees(tmp_path / "old", tmp_path / "new") == [
        ("7/a.json", "cells[1].witness"),
        ("7/c.json", "only in NEW"),
    ]
    assert compare_outputs.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "7/a.json cells[1].witness",
        "7/c.json only in NEW",
        "# 1 files: cells[*].witness",
        "# 1 files: only in NEW",
    ]


def test_compare_outputs_paths(monkeypatch):
    paths = import_compare_outputs(monkeypatch).differing_paths
    assert paths({"a": [1, 2]}, {"a": [1, 3]}) == ["a"]
    assert paths({"a": [{"b": 1}, {"b": 2}]}, {"a": [{"b": 1}]}) == ["a[1]"]
    assert paths({"a": 1, "b": 2}, {"b": 2, "c": 3}) == ["a", "c"]
    assert paths(1, "1") == ["$"]
    assert paths({"x": {"y": [[1], [2]]}}, {"x": {"y": [[1], [3]]}}) == ["x.y[1]"]


LIBRARY = ROOT / "src" / "paramregions"

# Library names that only tests read, kept on purpose.
TEST_ONLY_ALLOWED = {
    "regions.compute_overlay": "the common refinement of subdivisions, a documented library function",
    "clustering.ExecutionTreeNode.walk": "the preorder walk of an execution tree, the public twin of `leaves`",
}


def library_names():
    """The "module.name" of every top-level function and class of the
    library, and the "module.Class.method" of every public method of its
    classes."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}"


class NamesRead(ast.NodeVisitor):
    """The identifiers a module reads, in two sets: `names`, its names and
    imported names, and `attributes`, its attributes and the words of its
    plain string constants (the benchmark's tracer names the functions it
    wraps in strings).  Neither counts a docstring, the text of an f-string
    or a def's own name inside its body."""

    def __init__(self):
        self.names = set()
        self.attributes = set()
        self.enclosing = []

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def read(self, found, name):
        if name not in self.enclosing:
            found.add(name)

    def visit_Name(self, node):
        self.read(self.names, node.id)

    def visit_Attribute(self, node):
        self.read(self.attributes, node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self.read(self.names, node.name.rpartition(".")[2])

    def visit_Expr(self, node):
        if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            self.generic_visit(node)

    def visit_JoinedStr(self, node):
        for value in node.values:
            if not isinstance(value, ast.Constant):
                self.visit(value)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            for word in re.findall(r"\w+", node.value):
                self.read(self.attributes, word)


def test_every_library_name_is_read_outside_the_tests():
    # The package's __init__ only re-exports, so its imports read nothing.
    # A method is read only as an attribute or in a string: a local
    # variable of the same name does not read it.
    reader = NamesRead()
    for tree in ("src", "tools", "demos", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path != LIBRARY / "__init__.py":
                reader.visit(ast.parse(path.read_text()))
    names = list(library_names())
    anywhere = reader.names | reader.attributes
    unread = [
        name
        for name in names
        if name.rpartition(".")[2] not in (reader.attributes if name.count(".") == 2 else anywhere)
        and name not in TEST_ONLY_ALLOWED
    ]
    assert unread == [], "read only by tests: move to tests/oracles.py"
    assert set(TEST_ONLY_ALLOWED) <= set(names), "an allowed name is gone: drop it from the list"
