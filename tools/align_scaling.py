"""How the alignment DAG and the ray search scale with sequence length.

For each length L, draws one DNA pair from a fresh `random.Random(5)` (the L
characters of s1, then the L characters of s2).  It builds the execution DAG
of the three-feature `mismatch-space-gap` preset for that pair, runs the
two-feature ray search of the `mismatch-space` preset on the same pair, and
prints one row of a Markdown table:

    | L | root regions | time | ray regions | DP solves | ray time |

Time is the wall time of `build_execution_dag`, one run.  Ray regions, DP
solves and ray time are those of one `ray_search_2d`, its node graph
included; the ray time is in milliseconds.  Run from a source checkout:

    python3 tools/align_scaling.py --lengths 8 12 16 20 24
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALPHABET = "ACGT"


def random_pair(length: int) -> tuple:
    rng = random.Random(5)
    return tuple("".join(rng.choice(ALPHABET) for _ in range(length)) for _ in range(2))


def measure(length: int) -> tuple:
    """(root regions, seconds) of the DAG for one pair of this length."""
    from paramregions.seqalign import build_execution_dag, mismatch_space_gap_spec

    spec = mismatch_space_gap_spec()
    s1, s2 = random_pair(length)
    start = time.perf_counter()
    part = build_execution_dag(spec, s1, s2)
    return len(part.regions), time.perf_counter() - start


def measure_ray(length: int) -> tuple:
    """(regions, DP solves, seconds) of the ray search for the same pair."""
    from paramregions.seqalign import mismatch_space_spec, ray_search_2d

    s1, s2 = random_pair(length)
    start = time.perf_counter()
    part, solves = ray_search_2d(mismatch_space_spec(), s1, s2)
    return len(part.regions), solves, time.perf_counter() - start


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", type=int, nargs="+", default=[8, 12, 16, 20, 24])
    args = parser.parse_args(argv)
    print("| L | root regions | time | ray regions | DP solves | ray time |")
    print("|---|---|---|---|---|---|")
    for length in args.lengths:
        regions, seconds = measure(length)
        ray_regions, solves, ray_seconds = measure_ray(length)
        print(
            f"| {length} | {regions} | {seconds:.2f} s | {ray_regions} | {solves:,} | {ray_seconds * 1e3:.1f} ms |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
