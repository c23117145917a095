"""Self-test of the benchmark's correctness check, tracer and workload seeds.

    python3 perfbench/selftest.py

Run it from the root of a source checkout.  It shows that

1. the check flags the two defects known at the time the benchmark was
   written, whatever the workload seeds draw: the tariff instance whose cells
   cover 97/2 of its price box of area 49, and the ray-search pair that
   raises;
2. the tracer reproduces ROADMAP's re-anchor counts on `rings24` (points
   0-11 and 50-61 of the Rings dataset with seed 7): `build_execution_tree`
   makes 8,598 LPs for 23 leaves with single/complete linkage and 15,344
   LPs for 115 leaves with single/complete/median;
3. one `cluster-regions` job on rings24 builds the execution tree twice and
   makes 253 `cells_share_facet` calls (one per pair of its 23 leaves);
4. count metrics repeat exactly between two traced runs;
5. job lists are a function of the workload seed, and the default and
   held-out seeds draw different inputs.

It prints one line per expectation and exits 1 if any fails.  It takes about
half a minute with the `fractions.Fraction` backend.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RAY_PAIR = ("CCGTAATGCCTTTCCCTAACAGAGTTTTTC", "GAACTCGTGTTGTCGAGCGACGGAATTAGA")
RINGS24 = [*range(0, 12), *range(50, 62)]


def expect(results: list, name: str, ok: bool, detail: str) -> None:
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")


def job_reasons(job: dict, indir: Path) -> list:
    from paramregions import cli

    outcome = run.run_job(cli.main, run.job_argv(job, indir, indir))
    return run.failure_reasons(job, outcome, indir, indir, workloads.DEFAULT_SEED)


def traced(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return tracer.metrics(), result


def rings24_points():
    from paramregions import clustering

    full = clustering.generate_dataset("Rings", 7, metric_names=())
    return [full.points[i] for i in RINGS24]


def check_known_defects(results: list, work: Path) -> None:
    (work / "tariff.in.json").write_text(json.dumps(
        {"K": 2, "valuations": [["3", "5"], ["3", "5"]], "price_cap": "7"}))
    job = {
        "id": "tariff-gap",
        "argv": ["tariff-regions", "--instance", "tariff.in.json", "-o", "tariff-gap.json"],
        "meta": {"kind": "tariff-regions", "instance": "tariff.in.json", "menu": None},
    }
    reasons = job_reasons(job, work)
    expect(results, "check flags the tariff coverage gap",
           any("cover 97/2 of the parent's 49" in r for r in reasons), "; ".join(reasons))

    s1, s2 = RAY_PAIR
    job = {
        "id": "ray-escape",
        "argv": ["align-regions", "--preset", "mismatch-space", "--method", "ray",
                 "--s1", s1, "--s2", s2, "-o", "ray-escape.json"],
        "meta": {"kind": "align", "preset": "mismatch-space", "s1": s1, "s2": s2},
    }
    reasons = job_reasons(job, work)
    expect(results, "check flags the ray-search assertion",
           any("raised AssertionError" in r for r in reasons), "; ".join(reasons))


def check_tracer(results: list, work: Path) -> None:
    from paramregions import clustering
    from paramregions.rationals import format_vector

    points = rings24_points()
    inst = clustering.ClusteringInstance.from_points(
        points, ("euclidean",), target=[set(range(12)), set(range(12, 24))], k=2)
    expected = {"single,complete": (8598, 23), "single,complete,median": (15344, 115)}
    first = None
    for linkages, (lps, leaves) in expected.items():
        family = clustering.MergeFamily(tuple(linkages.split(",")), ("euclidean",))
        metrics, _ = traced(lambda: clustering.build_execution_tree(inst, family))
        got = (metrics["geometry.lp.calls"][0], metrics["clustering.leaves"][0])
        expect(results, f"rings24 {linkages} tree", got == (lps, leaves),
               f"{got[0]} LPs and {got[1]} leaves (ROADMAP: {lps} and {leaves})")
        if first is None:
            first = metrics
            again, _ = traced(lambda: clustering.build_execution_tree(inst, family))
            unequal = [k for k, (v, unit) in metrics.items()
                       if unit != "s" and again[k][0] != v]
            expect(results, "count metrics repeat exactly", not unequal,
                   f"differing: {unequal}" if unequal else f"{len(metrics)} metrics compared")

    (work / "rings24.in.json").write_text(json.dumps({
        "points": [format_vector(p) for p in points],
        "metric_names": ["euclidean"],
        "target": [list(range(12)), list(range(12, 24))],
        "k": 2,
    }))
    job = {
        "id": "rings24",
        "argv": ["cluster-regions", "--instance", "rings24.in.json",
                 "--linkages", "single,complete", "-o", "rings24.json"],
        "meta": {"kind": "cluster", "instance": "rings24.in.json", "linkages": "single,complete"},
    }
    metrics, reasons = traced(lambda: job_reasons(job, work))
    got = (metrics["clustering.tree.builds"][0], metrics["regions.share_facet.calls"][0])
    expect(results, "rings24 cluster-regions job", got == (2, 253) and not reasons,
           f"{got[0]} tree builds and {got[1]} cells_share_facet calls (expected 2 and 253); "
           f"check: {'; '.join(reasons) or 'passed'}")


def check_seeds(results: list, work: Path) -> None:
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, workloads.DEFAULT_SEED, work / f"{workload}-a")
        b = workloads.generate(workload, workloads.DEFAULT_SEED, work / f"{workload}-b")
        held = workloads.generate(workload, workloads.HELD_OUT_SEED, work / f"{workload}-h")
        same_files = all((work / f"{workload}-a" / p.name).read_bytes() == p.read_bytes()
                         for p in (work / f"{workload}-b").iterdir())
        expect(results, f"{workload} inputs are a function of the seed",
               a == b and same_files and a != held,
               f"{len(a)} jobs; held-out seed {workloads.HELD_OUT_SEED} differs: {a != held}")


def main() -> int:
    results: list = []
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    try:
        check_known_defects(results, work)
        check_seeds(results, work)
        check_tracer(results, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    print(f"{sum(results)} of {len(results)} expectations met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
