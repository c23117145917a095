"""The byte-identity tool, `tools/output_digests.py`: its digests must be
stable from run to run, or a `diff` of two checkouts' digests shows
nothing, and they must match the recorded ones."""

import importlib
import re
from pathlib import Path

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
