"""Exit code and output digest of every benchmark job, one line per job.

Generates the jobs of each workload at each seed with
`perfbench/workloads.generate`, runs them in this process through
`paramregions.cli.main` from this checkout's `src/`, and prints

    <seed> <job id> <exit code, or "raised:<type>"> <sha256 of the output file, or "-">

Two checkouts give the same lines exactly when every job exits alike and
writes the same bytes, so a byte-identity check is one `diff`:

    python3 tools/output_digests.py --seeds 7 1009 > after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests(workload: str, seed: int, workdir: Path):
    """(job id, exit code, output digest or "-") of each job, in job order."""
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
        yield job["id"], code, digest


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                for job_id, code, digest in digests(workload, seed, Path(tmp)):
                    print(seed, job_id, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
