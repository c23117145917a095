"""Exact correctness check of one benchmark job's output file.

Region outputs (cluster-regions, align-regions, tariff-regions) get three
tests, all in exact rationals and all against the library's own simulators
(`simulate_merge_sequence`, `dp_solve`, `buyer_choice`):

1. at each cell's witness the simulator gives the cell's label;
2. seeded rational probe points in the parent each lie in some closed cell,
   in at most one open cell, and a probe inside exactly one open cell has
   that cell's label;
3. in d <= 2 the cells' lengths or polygon areas sum to the parent's.

A tariff-optimize output must state a revenue that the reported prices earn
under the reported region's revenue form, and that no probe point (nor the
reported prices themselves) beats under the buyers' real choices.

`check_job` returns the list of reasons the output is wrong; empty means
correct.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from paramregions import cli, clustering, seqalign, tariff
from paramregions.geometry import (
    ConvexCell,
    GeometryError,
    dot,
    polygon_area,
    polygon_vertices,
)
from paramregions.rationals import ZERO, Rational, parse_rational, parse_vector

PROBES = 4


def check_job(job: dict, indir: Path, output: Path, seed: int) -> list:
    meta = job["meta"]
    try:
        payload = json.loads(output.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    rng = random.Random(f"probe:{seed}:{job['id']}")
    try:
        return CHECKS[meta["kind"]](meta, payload, indir, rng)
    except (GeometryError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


# --------------------------------------------------------------------------
# Domain checks
# --------------------------------------------------------------------------

def _check_cluster(meta, payload, indir, rng) -> list:
    inst = cli.load_cluster_instance(json.loads((indir / meta["instance"]).read_text()))
    family = clustering.MergeFamily(tuple(meta["linkages"].split(",")), ("euclidean",))
    d = family.dimension

    def simulate(point):
        return clustering.simulate_merge_sequence(inst, family, point)

    def probe():
        weights = [rng.randint(1, 60) for _ in range(d + 1)]
        return tuple(Rational(w, sum(weights)) for w in weights[:d])

    return _check_regions(payload, simulate, probe)


def _check_align(meta, payload, indir, rng) -> list:
    spec = seqalign.get_preset(meta["preset"])
    s1, s2 = meta["s1"], meta["s2"]

    def simulate(point):
        _, alignment = seqalign.dp_solve(spec, s1, s2, point)
        return (alignment.t1, alignment.t2)

    def probe():
        return tuple(Rational(rng.randint(1, 999), 1000) for _ in range(spec.dimension))

    return _check_regions(payload, simulate, probe)


def _tariff_instance(meta, indir):
    return cli.load_tariff_instance(json.loads((indir / meta["instance"]).read_text()), meta["menu"])


def _price_probe(inst, rng):
    return lambda: tuple(inst.price_cap * Rational(rng.randint(1, 999), 1000)
                         for _ in range(inst.dimension))


def _check_tariff_regions(meta, payload, indir, rng) -> list:
    inst = _tariff_instance(meta, indir)

    def simulate(point):
        return tuple(tariff.buyer_choice(inst, i, point) for i in range(inst.n_samples))

    return _check_regions(payload, simulate, _price_probe(inst, rng), tariff.normalize_profile)


def _check_tariff_optimize(meta, payload, indir, rng) -> list:
    inst = _tariff_instance(meta, indir)
    prices = parse_vector(payload["prices"])
    revenue = parse_rational(payload["revenue"])
    label = cli.decode_label(payload["region_label"])
    errors = []
    if dot(tariff.revenue_form(inst, label), prices) != revenue:
        errors.append("stated revenue differs from the region's revenue at the stated prices")
    probe = _price_probe(inst, rng)
    for point in [prices] + [probe() for _ in range(PROBES)]:
        earned = _revenue_at(inst, point)
        if earned > revenue:
            errors.append(f"prices {_fmt(point)} earn {earned} > stated optimum {revenue}")
            break
    return errors


def _revenue_at(inst, prices):
    total = ZERO
    for i in range(inst.n_samples):
        q, j = tariff.buyer_choice(inst, i, prices)
        if q > 0:
            total += prices[2 * (j - 1)] + q * prices[2 * (j - 1) + 1]
    return total


CHECKS = {
    "cluster": _check_cluster,
    "align": _check_align,
    "tariff-regions": _check_tariff_regions,
    "tariff-optimize": _check_tariff_optimize,
}


# --------------------------------------------------------------------------
# The shared three-part region check
# --------------------------------------------------------------------------

def _check_regions(payload, simulate, probe, normalize=lambda label: label) -> list:
    parent = ConvexCell.from_json(payload["parent"], cli.decode_label)
    cells = []
    errors = []
    for entry in payload["cells"]:
        label = normalize(cli.decode_label(entry["label"]))
        cell = ConvexCell.from_json(entry, cli.decode_label)  # raises unless strictly interior
        if cell.witness is None:
            errors.append(f"cell {_short(label)} has no witness")
        elif simulate(cell.witness) != label:
            errors.append(f"witness {_fmt(cell.witness)} of cell {_short(label)} "
                          f"simulates to {_short(simulate(cell.witness))}")
        cells.append((label, cell))
    if not cells:
        return errors + ["no cells"]

    for _ in range(PROBES):
        point = probe()
        if not parent.contains(point, strict=True):
            continue
        closed = [label for label, cell in cells if cell.contains(point)]
        inside = [label for label, cell in cells if cell.contains(point, strict=True)]
        if not closed:
            errors.append(f"probe {_fmt(point)} lies in no cell")
        elif len(inside) > 1:
            errors.append(f"probe {_fmt(point)} lies inside {len(inside)} cells")
        elif len(inside) == 1 and simulate(point) != inside[0]:
            errors.append(f"probe {_fmt(point)} simulates to {_short(simulate(point))}, "
                          f"not its cell's {_short(inside[0])}")

    if parent.dimension <= 2:
        total = sum((_measure(cell) for _, cell in cells), ZERO)
        whole = _measure(parent)
        if total != whole:
            errors.append(f"cells cover {total} of the parent's {whole}")
    return errors


def _measure(cell):
    """Exact length (d=1) or area (d=2) of a bounded cell."""
    if cell.dimension == 2:
        return polygon_area(polygon_vertices(cell))
    lo = max(h.offset / h.normal[0] for h in cell.constraints if h.normal[0] < 0)
    hi = min(h.offset / h.normal[0] for h in cell.constraints if h.normal[0] > 0)
    return max(hi - lo, ZERO)


def _fmt(point) -> str:
    return "(" + ", ".join(str(c) for c in point) + ")"


def _short(label, limit: int = 60) -> str:
    text = repr(label)
    return text if len(text) <= limit else text[: limit - 3] + "..."
