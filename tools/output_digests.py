"""Exit code and output digest of every benchmark job, one line per job.

Generates the jobs of each workload at each seed with
`perfbench/workloads.generate`, runs them in this process through
`paramregions.cli.main` from this checkout's `src/`, and prints

    <seed> <job id> <exit code, or "raised:<type>"> <sha256 of the output file, or "-">

Two checkouts give the same lines exactly when every job exits alike and
writes the same bytes, so a byte-identity check is one `diff`:

    python3 tools/output_digests.py --seeds 7 1009 > after.txt

`--keep DIR` also keeps every job's output, as `DIR/<seed>/<job id>.json`,
so that `tools/compare_outputs.py` can say which JSON values moved.  It
refuses a non-empty `DIR/<seed>`, where the old output of a job that now
writes nothing would stay and hide that change:

    python3 tools/output_digests.py --seeds 7 1009 --keep after > after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def digests(workload: str, seed: int, workdir: Path, keep: Optional[Path] = None):
    """(job id, exit code, output digest or "-") of each job, in job order.
    With `keep`, each output file is copied there as `<job id>.json`."""
    from paramregions import cli
    from run import job_argv, run_job
    from workloads import generate

    for job in generate(workload, seed, workdir):
        argv = job_argv(job, workdir, workdir)
        outcome = run_job(cli.main, argv)
        code = outcome.code
        if code is None:  # "raised <type>: <message>"
            code = "raised:" + outcome.error.split()[1].rstrip(":")
        out = Path(argv[argv.index("-o") + 1])
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else "-"
        if keep is not None and out.is_file():
            keep.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out, keep / f"{job['id']}.json")
        yield job["id"], code, digest


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--keep", type=Path, default=None, metavar="DIR",
                        help="also copy each job's output to DIR/<seed>/<job id>.json")
    args = parser.parse_args(argv)
    if args.keep is not None:
        for seed in args.seeds:
            if (args.keep / str(seed)).is_dir() and any((args.keep / str(seed)).iterdir()):
                parser.error(f"{args.keep / str(seed)} is not empty")
    for seed in args.seeds:
        keep = None if args.keep is None else args.keep / str(seed)
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                for job_id, code, digest in digests(workload, seed, Path(tmp), keep):
                    print(seed, job_id, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
