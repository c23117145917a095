"""Price-space regions and revenue maximization for two-part tariffs.

One buyer sample valuing 1 unit at 3 and 2 units at 5 splits the
(fee, unit-price) quadrant into three regions: buy two, buy one, buy
nothing.  Revenue is affine on each region, so one LP per region finds the
revenue-maximizing tariff exactly: full surplus 5, extracted anywhere on the
segment p1 + 2 p2 = 5 with p2 <= 2.  One builder serves both a single
tariff, whose regions are labeled by quantities, and a menu of two tariffs,
whose regions are labeled by (quantity, tariff) pairs.
"""

from paramregions import (
    TariffInstance,
    buyer_choice,
    check_piece_bound,
    compute_price_regions,
    maximize_revenue,
)
from paramregions.rationals import format_rational, rat

instance = TariffInstance(units=2, valuations=[(3, 5)])
regions = compute_price_regions(instance)

print(f"K={instance.units}, one sample with v(1)=3, v(2)=5, price cap {instance.price_cap}\n")
for label in sorted(regions.cells):
    cell = regions.cells[label]
    w = tuple(format_rational(c) for c in cell.witness)
    print(f"region q={label[0]}: witness {w}, {len(cell.constraints)} facets")

prices, revenue, label = maximize_revenue(instance, regions)
print(f"\noptimal tariff: prices {tuple(format_rational(p) for p in prices)}")
print(f"revenue {format_rational(revenue)} on region q={label[0]}")

report = check_piece_bound(instance, regions)
print(f"\npieces {report['pieces']} <= bound {report['bound']}: {report['pieces_ok']}")
print(f"boundary lines per sample {report['lines_per_sample']} (cap {report['line_bound']})")

menu = TariffInstance(units=1, valuations=[(3,), (1,)], menu_length=2)
menu_regions = compute_price_regions(menu)
print(f"\nmenu of two tariffs, two samples: {len(menu_regions.cells)} regions in 4D price space")
probe = (rat(1, 2), rat(1, 2), rat(2), rat(2))
choices = [buyer_choice(menu, i, probe) for i in range(menu.n_samples)]
print(f"at prices {tuple(str(p) for p in probe)} the buyers pick (q, tariff) = {choices}")
