"""Regions of constant optimal alignment for a sequence pair.

With the two-feature cost model (mismatches, spaces) the plane of feature
costs splits into angular sectors; "AB" vs "BA" has exactly two: below the
diagonal, mismatching both characters is cheapest, above it the space-shifted
alignment wins.  The execution-DAG construction and the two-feature ray
search find the regions in different ways and then build the same partition
from them, cell for cell.
"""

from paramregions import build_execution_dag, dp_solve, get_preset, ray_search_2d
from paramregions.rationals import rat

spec = get_preset("mismatch-space")
s1, s2 = "AB", "BA"
print(f"aligning {s1!r} and {s2!r} under features {spec.features}\n")

partition = build_execution_dag(spec, s1, s2)
for key, a in partition.regions.items():
    witness = partition.cells[key].witness
    print(f"region with witness {tuple(str(w) for w in witness)}:")
    print(f"  {a.t1}")
    print(f"  {a.t2}")
    print(f"  feature counts {a.counts}")

ray, calls = ray_search_2d(spec, s1, s2)
print(f"\nray search found {len(ray.regions)} sectors in {calls} DP solves")
print(f"same partition as the DAG: {ray.to_json() == partition.to_json()}")

for rho in ((rat(3), rat(1)), (rat(1), rat(3))):
    cost, align = dp_solve(spec, s1, s2, rho)
    print(f"\nat rho={tuple(str(r) for r in rho)}: cost {cost}, alignment {align.t1} / {align.t2}")

gap_spec = get_preset("mismatch-space-gap")
cost, align = dp_solve(gap_spec, "AA", "A", (rat(1), rat(1), rat(5)))
print(f"\naffine-gap model on 'AA' vs 'A' at (1,1,5): cost {cost} = one space + one gap")
print(f"  {align.t1} / {align.t2}")
