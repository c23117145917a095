"""How the tariff price regions scale with the number of buyer samples.

For each size, draws N monotone valuation rows over K units from a fresh
`random.Random(1)` (each row the running sums of K increments in 0..9),
builds the price regions of a single tariff (L = 1, K = 8, d = 2) or of a
menu of two tariffs (L = 2, K = 4, d = 4) with `compute_price_regions`,
then finds the revenue-maximizing prices over them with `maximize_revenue`,
and prints one row of a Markdown table:

    | N | K | L | regions | time | revenue time |

Time is the wall time of `compute_price_regions` and revenue time that of
`maximize_revenue` on its regions, one run each.  Run from a source
checkout:

    python3 tools/tariff_scaling.py --singles 8 16 32 64 --menus 4 8 12
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SINGLE_UNITS = 8
MENU_UNITS = 4


def random_valuations(samples: int, units: int) -> list:
    rng = random.Random(1)
    rows = []
    for _ in range(samples):
        total, row = 0, []
        for _ in range(units):
            total += rng.randint(0, 9)
            row.append(total)
        rows.append(row)
    return rows


def measure(samples: int, units: int, menu_length: int) -> tuple:
    """(regions, seconds, revenue seconds) for one instance of this size."""
    from paramregions.tariff import TariffInstance, compute_price_regions, maximize_revenue

    instance = TariffInstance(units, random_valuations(samples, units), menu_length)
    start = time.perf_counter()
    regions = compute_price_regions(instance)
    built = time.perf_counter()
    maximize_revenue(instance, regions)
    return len(regions.cells), built - start, time.perf_counter() - built


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--singles", type=int, nargs="*", default=[8, 16, 32, 64],
                        help=f"sample counts N of the single tariffs (K = {SINGLE_UNITS})")
    parser.add_argument("--menus", type=int, nargs="*", default=[4, 8, 12],
                        help=f"sample counts N of the menus of two tariffs (K = {MENU_UNITS})")
    args = parser.parse_args(argv)
    print("| N | K | L | regions | time | revenue time |")
    print("|---|---|---|---|---|---|")
    jobs = [(n, SINGLE_UNITS, 1) for n in args.singles] + [(n, MENU_UNITS, 2) for n in args.menus]
    for samples, units, menu_length in jobs:
        regions, seconds, revenue = measure(samples, units, menu_length)
        print(f"| {samples} | {units} | {menu_length} | {regions:,} | {seconds:.2f} s | {revenue:.3f} s |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
