"""Benchmark of the paramregions command line: four workloads of in-process
`paramregions.cli.main([...])` jobs, an exact per-job correctness check, and
a traced run that reports per-layer counts and times.

    python3 perfbench/run.py --workload cluster --seed 7 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the library from
`src/`.  The jobs run back to back in this process on one thread (a closed
loop with one client).  With `--trace 0` it repeats whole passes over the job
list, at least twice and until the next pass would end after `--seconds`,
and reports the end-to-end metrics from each job's median over the passes;
with `--trace 1` it runs one untraced pass and then one traced pass, and
reports the per-layer metrics and the tracing overhead (traced pass minus
untraced pass).  Every job's output from the first pass is then
checked (untimed, see check.py); every later pass must reproduce it byte for
byte.

Times are in reference seconds: each job's latency is scaled by how fast the
machine ran a fixed calibration loop just before and after it (machine.py),
so that a run falling into one of a shared machine's slow stretches reads
the same as one that does not.  The environment line also gives the raw
pass times.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`failed` counts jobs that raised, exited non-zero or failed the check; each
is listed on a `FAIL` line before it.  `correct` is false when the benchmark
could not vouch for its own accounting: a later pass changed a job's output
or exit code, or the check itself broke.  A line before the result records
the run environment; results with different rational backends are not
comparable (compare.py refuses them).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from typing import NamedTuple, Optional

import machine
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_PASSES = 2
MAX_SECONDS = 120
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# Set-up: import + instance generation + writing, in fresh interpreters
# --------------------------------------------------------------------------

def run_setup(workload: str, seed: int, work: Path):
    """(median set-up time in reference seconds, jobs, instance directory)."""
    times = []
    jobs = None
    for rep in range(SETUP_REPEATS):
        outdir = work / f"setup{rep}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(outdir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        times.append(result["setup_s"] * machine.REFERENCE_S / result["calibration_s"])
        if jobs is None:
            jobs = result["jobs"]
        elif jobs != result["jobs"]:
            raise RuntimeError("set-up is not deterministic for a fixed seed")
    return statistics.median(times), jobs, work / "setup0"


# --------------------------------------------------------------------------
# Jobs and passes
# --------------------------------------------------------------------------

def job_argv(job: dict, indir: Path, outdir: Path) -> list:
    argv = list(job["argv"])
    for i, arg in enumerate(argv[:-1]):
        if arg == "--instance":
            argv[i + 1] = str(indir / argv[i + 1])
        elif arg == "-o":
            argv[i + 1] = str(outdir / argv[i + 1])
    return argv


class Outcome(NamedTuple):
    latency: float  # seconds
    code: Optional[int]  # exit code; None when the job raised
    error: Optional[str]
    scale: float = 1.0  # machine.REFERENCE_S / the calibration around the job

    @property
    def scaled(self) -> float:
        """Latency in reference seconds (see machine.py)."""
        return self.latency * self.scale


def run_job(cli_main, argv: list) -> Outcome:
    """Latency, exit code and error of one in-process CLI call."""
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stderr(stderr):
            code = cli_main(argv)
        error = stderr.getvalue().strip() if code else None
    except SystemExit as exc:  # argparse rejects the arguments
        code, error = exc.code, f"exit {exc.code}: {stderr.getvalue().strip()}"
    except Exception as exc:  # a job's failure is counted, not fatal
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - start, code, error)


def run_pass(cli_main, jobs, indir: Path, outdir: Path) -> list:
    """Run every job once, timing the calibration loop between jobs; each
    job is scaled by the mean calibration just before and just after it."""
    outdir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    before = machine.calibrate()
    for job in jobs:
        outcome = run_job(cli_main, job_argv(job, indir, outdir))
        after = machine.calibrate()
        outcomes.append(outcome._replace(scale=2 * machine.REFERENCE_S / (before + after)))
        before = after
    return outcomes


def same_outputs(jobs, first: list, first_dir: Path, again: list, again_dir: Path) -> list:
    """Ids of jobs whose exit code or output bytes changed between passes."""
    changed = []
    for job, a, b in zip(jobs, first, again):
        name = f"{job['id']}.json"
        out_a, out_b = first_dir / name, again_dir / name
        bytes_a = out_a.read_bytes() if out_a.exists() else None
        bytes_b = out_b.read_bytes() if out_b.exists() else None
        if a.code != b.code or bytes_a != bytes_b:
            changed.append(job["id"])
        if out_b.exists():
            out_b.unlink()
    return changed


# --------------------------------------------------------------------------
# Environment record
# --------------------------------------------------------------------------

def environment() -> dict:
    from paramregions.rationals import Rational

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": f"{Rational.__module__}.{Rational.__name__}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "paramregions" / "cli.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def _run(args, work: Path) -> int:
    setup_s, jobs, indir = run_setup(args.workload, args.seed, work)
    sys.path.insert(0, str(ROOT / "src"))
    import paramregions

    if Path(paramregions.__file__).resolve().parent != ROOT / "src" / "paramregions":
        print(f"error: imported paramregions from {paramregions.__file__}", file=sys.stderr)
        return 2
    from paramregions import cli

    first_dir, again_dir = work / "out", work / "again"
    start = time.perf_counter()
    passes = [run_pass(cli.main, jobs, indir, first_dir)]
    last_pass_s = time.perf_counter() - start
    changed = []
    if args.trace:
        # The per-layer figures come from one traced pass over the same jobs;
        # the tracing overhead is its latency minus the untraced pass's.
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli.main, jobs, indir, again_dir)
        finally:
            tracer.uninstall()
        changed += same_outputs(jobs, passes[0], first_dir, traced, again_dir)
    else:
        while True:
            next_end = time.perf_counter() - start + last_pass_s
            if next_end > args.seconds and (len(passes) >= MIN_PASSES or next_end > MAX_SECONDS):
                break
            pass_start = time.perf_counter()
            passes.append(run_pass(cli.main, jobs, indir, again_dir))
            last_pass_s = time.perf_counter() - pass_start
            changed += same_outputs(jobs, passes[0], first_dir, passes[-1], again_dir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = time.perf_counter()
    failures = {}
    check_broken = []
    for job, outcome in zip(jobs, passes[0]):
        try:
            reasons = failure_reasons(job, outcome, indir, first_dir, args.seed)
        except Exception:  # a crash of the check itself voids the run
            check_broken.append(job["id"])
            traceback.print_exc()
            continue
        if reasons:
            failures[job["id"]] = reasons

    env = environment()
    env.update(
        workload=args.workload,
        seed=args.seed,
        jobs=len(jobs),
        pass_walls_raw_s=[round(sum(o.latency for o in p), 3) for p in passes],
        pass_walls_s=[round(sum(o.scaled for o in p), 3) for p in passes],
        check_s=round(time.perf_counter() - check_start, 3),
        source_sha256=_source_digest(),
    )
    print(json.dumps({"env": env}, sort_keys=True))
    for job in jobs:
        for reason in failures.get(job["id"], ()):
            print(f"FAIL {job['id']} {job['argv'][0]}: {reason}")
    for job_id in changed:
        print(f"NONDETERMINISTIC {job_id}: a later pass changed its exit code or output")
    for job_id in check_broken:
        print(f"CHECK-ERROR {job_id}: the correctness check crashed")

    if args.trace:
        untraced_wall = sum(o.scaled for o in passes[0])
        traced_wall = sum(o.scaled for o in traced)
        scale = statistics.median(o.scale for o in traced)
        metrics = {
            name: {"value": v * scale if unit == "s" else v, "unit": unit}
            for name, (v, unit) in tracer.metrics().items()
        }
        metrics["cli.witness_bits_max"] = {"value": witness_bits_max(first_dir), "unit": "bits"}
        metrics["fail_rate"] = {"value": len(failures) / len(jobs), "unit": "ratio"}
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        if tracer.missing:
            print(f"# tracer: not found in the library: {', '.join(tracer.missing)}")
    else:
        per_job = [statistics.median(p[i].scaled for p in passes) for i in range(len(jobs))]
        metrics = {
            "wall_s": {"value": sum(per_job), "unit": "s"},
            "job_p50_s": {"value": statistics.median(per_job), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not changed and not check_broken,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def failure_reasons(job: dict, outcome: Outcome, indir: Path, outdir: Path, seed: int) -> list:
    """Why a job failed: it raised, exited non-zero, or its output is wrong."""
    import check  # needs the library on sys.path

    if outcome.error is not None or outcome.code != 0:
        return [outcome.error or f"exit {outcome.code}"]
    return check.check_job(job, indir, outdir / f"{job['id']}.json", seed)


def witness_bits_max(outdir: Path) -> int:
    """Largest numerator or denominator bit length of any witness written."""
    best = 0
    for path in outdir.glob("*.json"):
        payload = json.loads(path.read_text())
        for entry in [payload.get("parent", {}), *payload.get("cells", ())]:
            for coord in entry.get("witness", ()):
                num, _, den = coord.partition("/")
                best = max(best, abs(int(num)).bit_length(), int(den or 1).bit_length())
    return best


if __name__ == "__main__":
    sys.exit(main())
