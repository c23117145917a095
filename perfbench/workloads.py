"""Job lists of the four benchmark workloads, generated from a workload seed.

Run as a script, this is one timed set-up: it imports the library, generates
the workload's instances and writes them to a directory, then prints one JSON
line with the set-up time, the machine calibration around it (machine.py)
and the job list.  `run.py` starts it several times in fresh interpreters so
that `setup_s` includes the import.

    python3 perfbench/workloads.py --workload cluster --seed 7 --out DIR

A job is a dict: `id`, `argv` (the CLI arguments, with the output path last
as `-o <id>.json`, relative to the instance directory) and `meta` (what the
correctness check needs to rebuild the instance).  Instance sizes are chosen
so that one pass over a job list takes about five reference seconds on one
core of a shared 2-core Xeon with the `fractions.Fraction` backend: small
jobs, and many of them, so that the summed latency varies little from one
workload seed to the next.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cluster", "align-dag", "align-ray", "tariff")
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009
DNA = "ACGT"


def _dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(DNA) for _ in range(length))


def _cluster_jobs(rng, outdir: Path) -> list:
    # Two-component subsets of fresh draws of the four synthetic datasets,
    # round-robin over the datasets so every seed gets the same mix.  d=1
    # jobs interpolate single/complete; d=2 jobs add median.
    from paramregions import clustering
    from paramregions.rationals import format_vector

    slots = [("single,complete", 9)] * 60 + [("single,complete,median", 6)] * 40
    jobs = []
    for idx, (linkages, n_points) in enumerate(slots):
        name = clustering.DATASET_NAMES[idx % len(clustering.DATASET_NAMES)]
        inst = clustering.generate_dataset(name, rng.randrange(1 << 30), metric_names=())
        half = n_points // 2
        first, second = (sorted(part) for part in inst.target)
        chosen = sorted(rng.sample(first, half)) + sorted(rng.sample(second, n_points - half))
        data = {
            "points": [format_vector(inst.points[i]) for i in chosen],
            "metric_names": ["euclidean"],
            "target": [list(range(half)), list(range(half, n_points))],
            "k": 2,
        }
        job_id = f"cluster-{idx:02d}"
        instance = f"{job_id}.in.json"
        (outdir / instance).write_text(json.dumps(data, sort_keys=True))
        argv = ["cluster-regions", "--instance", instance, "--linkages", linkages]
        jobs.append(_job(job_id, argv, rng, {"kind": "cluster", "instance": instance,
                                             "linkages": linkages, "dataset": name}))
    return jobs


def _align_dag_jobs(rng, outdir: Path) -> list:
    # d=3 overlays on very short pairs, plus two-feature DAGs cross-checked
    # against the ray search by the CLI itself (--method both).
    slots = [("mismatch-space-gap", "dag", 1, 2)] * 20 + [("mismatch-space", "both", 3, 4)] * 20
    jobs = []
    for idx, (preset, method, la, lb) in enumerate(slots):
        if idx % 2:
            la, lb = lb, la
        s1, s2 = _dna(rng, la), _dna(rng, lb)
        job_id = f"align-dag-{idx:02d}"
        argv = ["align-regions", "--preset", preset, "--method", method, "--s1", s1, "--s2", s2]
        jobs.append(_job(job_id, argv, rng, {"kind": "align", "preset": preset, "s1": s1, "s2": s2}))
    return jobs


def _align_ray_jobs(rng, outdir: Path) -> list:
    lengths = tuple(range(16, 24)) * 6
    jobs = []
    for idx, length in enumerate(lengths):
        s1, s2 = _dna(rng, length), _dna(rng, length)
        job_id = f"align-ray-{idx:02d}"
        argv = ["align-regions", "--preset", "mismatch-space", "--method", "ray", "--s1", s1, "--s2", s2]
        jobs.append(_job(job_id, argv, rng, {"kind": "align", "preset": "mismatch-space",
                                             "s1": s1, "s2": s2}))
    return jobs


def _tariff_jobs(rng, outdir: Path) -> list:
    # Single tariffs (d=2) and two-entry menus (d=4); each instance is
    # run through tariff-regions and then tariff-optimize.
    slots = [(4, 4, None)] * 28 + [(1, 2, 2)] * 2
    jobs = []
    for idx, (n_samples, units, menu) in enumerate(slots):
        data = {
            "K": units,
            "valuations": [[str(rng.randint(0, 20)) for _ in range(units)] for _ in range(n_samples)],
        }
        instance = f"tariff-{idx:02d}.in.json"
        (outdir / instance).write_text(json.dumps(data, sort_keys=True))
        menu_args = ["--menu", str(menu)] if menu else []
        for verb in ("tariff-regions", "tariff-optimize"):
            job_id = f"tariff-{idx:02d}-{verb.split('-')[1]}"
            argv = [verb, "--instance", instance, *menu_args]
            jobs.append(_job(job_id, argv, rng, {"kind": verb, "instance": instance, "menu": menu}))
    return jobs


def _job(job_id: str, argv: list, rng: random.Random, meta: dict) -> dict:
    argv = argv + ["--seed", str(rng.randrange(1000)), "-o", f"{job_id}.json"]
    return {"id": job_id, "argv": argv, "meta": meta}


GENERATORS = {
    "cluster": _cluster_jobs,
    "align-dag": _align_dag_jobs,
    "align-ray": _align_ray_jobs,
    "tariff": _tariff_jobs,
}


def generate(workload: str, seed: int, outdir: Path) -> list:
    """Write the workload's instance files into `outdir`; return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](rng, outdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    machine.calibrate()  # warm-up
    before = machine.calibrate()
    start = time.perf_counter()
    import paramregions.cli  # noqa: F401  (the import is part of set-up)

    jobs = generate(args.workload, args.seed, Path(args.out))
    elapsed = time.perf_counter() - start
    calibration = (before + machine.calibrate()) / 2
    print(json.dumps({"setup_s": elapsed, "calibration_s": calibration, "jobs": jobs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
