"""The byte-identity tool, `tools/output_digests.py`: its digests must be
stable from run to run, or a `diff` of two checkouts' digests shows
nothing."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_align_dag_digests_repeat(monkeypatch, tmp_path):
    # output_digests imports the benchmark's job generator and runner from
    # perfbench/ as top-level modules, as its main() arranges.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    output_digests = importlib.import_module("output_digests")
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
