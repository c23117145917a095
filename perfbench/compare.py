"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BEFORE.log AFTER.log

Each file holds the standard output of any number of `run.py` runs, one
after another.  For every workload and metric the two sets share, it prints
each side's median, the change of the median as a share of BEFORE's, and
each side's spread (the distance between its quartiles as a share of its
median).  Runs made with different rational backends, interpreters or
machines are not comparable: the script then refuses with exit code 3.
"""

from __future__ import annotations

import json
import statistics
import sys

COMPARABLE = ("rational_backend", "python", "implementation", "cpu", "nproc")


def load(path: str) -> tuple:
    """({(workload, metric): [values]}, {comparable env fields})."""
    values: dict = {}
    envs: set = set()
    env = None
    with open(path) as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "env" in record:
                env = record["env"]
                envs.add(tuple((k, env.get(k)) for k in COMPARABLE))
            elif "metrics" in record and env is not None:
                for name, metric in record["metrics"].items():
                    values.setdefault((env["workload"], name), []).append(metric["value"])
                env = None
    return values, envs


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, env_a = load(argv[0])
    after, env_b = load(argv[1])
    envs = env_a | env_b
    if len(envs) > 1:
        print("not comparable: the runs differ in", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {dict(env)}", file=sys.stderr)
        return 3
    print(f"{'workload':<10} {'metric':<32} {'before':>12} {'after':>12} {'change':>8} "
          f"{'spread_b':>8} {'spread_a':>8}  runs")
    for key in sorted(before.keys() & after.keys()):
        a, b = before[key], after[key]
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else float("nan")
        print(f"{key[0]:<10} {key[1]:<32} {ma:>12.6g} {mb:>12.6g} {change:>+8.1%} "
              f"{spread(a):>8.1%} {spread(b):>8.1%}  {len(a)}/{len(b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
