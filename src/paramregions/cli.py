"""Command-line surface: region computation, optimization, dataset
generation, oracle checks and 2D plot-data export.

Everything runs exactly (there is no floating-point mode to switch off);
``--seed`` (or the PARAMREGIONS_SEED environment variable) fixes every
randomized choice, so reruns are byte-identical.

Exit codes: 0 ok, 2 parse error, 3 infeasible configuration, 4 oracle-check
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import clustering, seqalign, tariff
from .geometry import ConvexCell, GeometryError, Halfspace, polygon_vertices, solve_lp
from .rationals import Rational, as_rational, format_rational, format_vector, rat
from .regions import Subdivision, cells_share_facet
from .seqalign import AlignmentDPSpec, get_preset

SCHEMA_VERSION = 1
SEED_ENV = "PARAMREGIONS_SEED"


class ParseFailure(Exception):
    pass


class InfeasibleConfig(Exception):
    pass


class OracleFailure(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    instance: Optional[str] = None
    output: Optional[str] = None
    seed: int = 0
    oracle_check: bool = False
    density: int = 50
    linkages: tuple = ("single", "complete")
    metrics: tuple = ("euclidean",)
    restrict: tuple = ()
    preset: Optional[str] = None
    spec_file: Optional[str] = None
    s1: Optional[str] = None
    s2: Optional[str] = None
    fasta: Optional[str] = None
    method: str = "dag"
    menu: Optional[int] = None
    name: Optional[str] = None
    regions: Optional[str] = None
    kind: Optional[str] = None


def canonical_dumps(obj) -> str:
    """The one serializer all commands use; reruns and round-trips are
    byte-identical because every list is built in canonical order."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _write(config: RunConfig, obj) -> None:
    text = canonical_dumps(obj)
    if config.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(config.output, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _coord(value):
    if isinstance(value, float):
        return clustering.snap(value)
    return as_rational(value)


def load_cluster_instance(data: dict) -> clustering.ClusteringInstance:
    try:
        if "metrics" in data:
            inst = clustering.ClusteringInstance.from_json(data)
        else:
            inst = clustering.ClusteringInstance.from_points(
                [tuple(_coord(c) for c in p) for p in data["points"]],
                tuple(data.get("metric_names", ("euclidean",))),
                target=data.get("target"),
                k=data.get("k"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad clustering instance: {exc}") from exc
    return inst


def load_tariff_instance(data: dict, menu: Optional[int]) -> tariff.TariffInstance:
    try:
        inst = tariff.TariffInstance.from_json(data)
        if menu is not None and menu != inst.menu_length:
            inst = tariff.TariffInstance(
                units=inst.units,
                valuations=inst.valuations,
                menu_length=menu,
                price_cap=inst.price_cap,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad tariff instance: {exc}") from exc
    return inst


def load_sequences(config: RunConfig) -> tuple:
    if config.fasta:
        records = _parse_fasta(config.fasta)
        if len(records) < 2:
            raise ParseFailure("FASTA input needs at least two records")
        pair = records[0], records[1]
    elif config.s1 is None or config.s2 is None:
        raise ParseFailure("provide --s1 and --s2, or --fasta")
    else:
        pair = config.s1, config.s2
    if any(seqalign.SPACE in s for s in pair):
        raise ParseFailure(f"sequences must not contain the space character {seqalign.SPACE!r}")
    return pair


def _parse_fasta(path: str) -> list:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseFailure(str(exc)) from exc
    records = []
    current = None
    for line in lines:
        if line.startswith(">"):
            records.append([])
            current = records[-1]
        elif line.strip():
            if current is None:
                records.append([])
                current = records[-1]
            current.append(line.strip())
    return ["".join(r) for r in records]


def load_alignment_spec(config: RunConfig) -> AlignmentDPSpec:
    if config.spec_file:
        try:
            return AlignmentDPSpec.from_json(_load_json(config.spec_file))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseFailure(f"bad DP spec: {exc}") from exc
    try:
        return get_preset(config.preset or "mismatch-space")
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _parse_restrictions(items, dimension) -> list:
    out = []
    for text in items:
        try:
            coeff_text, offset_text = text.split(":")
            coeffs = tuple(as_rational(c) for c in coeff_text.split(","))
            if len(coeffs) != dimension:
                raise ValueError("coefficient count")
            out.append(Halfspace(coeffs, as_rational(offset_text)))
        except (ValueError, GeometryError) as exc:
            raise ParseFailure(f"bad restriction {text!r}: {exc}") from exc
    return out


# --------------------------------------------------------------------------
# Label codecs
# --------------------------------------------------------------------------

def encode_label(label):
    if isinstance(label, tuple):
        return [encode_label(x) for x in label]
    return label


def decode_label(data):
    if isinstance(data, list):
        return tuple(decode_label(x) for x in data)
    return data


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_cluster_regions(config: RunConfig) -> dict:
    data = _load_json(config.instance)
    inst = load_cluster_instance(data)
    try:
        family = clustering.MergeFamily(config.linkages, config.metrics)
        for m in family.metrics:
            if m not in inst.metrics:
                raise InfeasibleConfig(f"instance has no metric {m!r}")
        parent = family.simplex_cell()
        extra = _parse_restrictions(config.restrict, family.dimension)
        if extra:
            parent = ConvexCell(family.dimension, parent.constraints + tuple(extra))
        root = clustering.build_execution_tree(inst, family, parent=parent, seed=config.seed)
    except (ValueError, GeometryError) as exc:
        if isinstance(exc, (InfeasibleConfig, ParseFailure)):
            raise
        raise InfeasibleConfig(str(exc)) from exc

    leaves = clustering.leaf_subdivision(root)
    losses = {}
    if inst.target is not None and inst.k is not None:
        for merges in leaves:
            tree = clustering.ClusterTree.from_merges(inst.n_points, merges)
            losses[merges] = clustering.hamming_loss(tree, inst.target, inst.k)

    keys = sorted(leaves)
    adjacency = frozenset(
        (keys[i], keys[j])
        for i in range(len(keys))
        for j in range(i + 1, len(keys))
        if cells_share_facet(leaves[keys[i]], leaves[keys[j]], config.seed)
    )

    def extras(merges):
        out = {"merges": encode_label(merges)}
        if merges in losses:
            out["loss"] = format_rational(losses[merges])
        return out

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cluster-regions",
        "dimension": family.dimension,
        "linkages": list(family.linkages),
        "metrics": list(family.metrics),
    }
    payload.update(Subdivision(root.region, leaves, adjacency).to_json(encode_label, extras))
    if losses:
        # best_parameter's tie rule: the smallest merge sequence of least loss.
        best = min(keys, key=losses.__getitem__)
        payload["best"] = {
            "rho": format_vector(leaves[best].witness),
            "loss": format_rational(losses[best]),
            "label": encode_label(best),
        }
    if config.oracle_check:
        agreement = _cluster_oracle_agreement(inst, family, leaves, config)
        payload["oracle_agreement"] = agreement
        if agreement < 1:
            _write(config, payload)
            raise OracleFailure(f"cluster oracle agreement {agreement}")
    _write(config, payload)
    return payload


def cmd_align_regions(config: RunConfig) -> dict:
    spec = load_alignment_spec(config)
    s1, s2 = load_sequences(config)
    method = config.method
    if method == "ray" and spec.dimension != 2:
        raise InfeasibleConfig("the ray-search path needs a two-feature spec")
    run_ray = method in ("ray", "both") and spec.dimension == 2
    run_dag = method in ("dag", "both") or not run_ray
    dag = seqalign.build_execution_dag(spec, s1, s2, seed=config.seed) if run_dag else None
    ray = ray_calls = None
    if run_ray:
        ray, ray_calls = seqalign.ray_search_2d(spec, s1, s2, seed=config.seed)
    if dag is not None and ray is not None:
        if dag.boundary_keys() != ray.boundary_keys():
            raise OracleFailure("DAG and ray-search partitions disagree")
    part = dag if dag is not None else ray
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "align-regions",
        "spec": spec.name,
        "method": method,
        "s1": s1,
        "s2": s2,
    }
    payload.update(part.to_json())
    if ray_calls is not None:
        payload["ray_dp_solves"] = ray_calls
        payload["region_count"] = len((ray or dag).regions)
    if config.oracle_check:
        agreement = _align_oracle_agreement(spec, s1, s2, part, config)
        payload["oracle_agreement"] = agreement
        if agreement < 1:
            _write(config, payload)
            raise OracleFailure(f"alignment oracle agreement {agreement}")
    _write(config, payload)
    return payload


def _tariff_regions(config: RunConfig) -> tuple:
    """The instance and its price regions; single tariffs get the plain
    quantity-tuple labels."""
    inst = load_tariff_instance(_load_json(config.instance), config.menu)
    if inst.menu_length == 1:
        return inst, tariff.single_tariff_regions(inst, seed=config.seed)
    return inst, tariff.compute_price_regions(inst, seed=config.seed)


def cmd_tariff_regions(config: RunConfig) -> dict:
    inst, sub = _tariff_regions(config)

    def extras(label):
        return {"revenue": [format_rational(c) for c in tariff.revenue_form(inst, label)]}

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tariff-regions",
        "K": inst.units,
        "menu_length": inst.menu_length,
        "price_cap": format_rational(inst.price_cap),
    }
    payload.update(sub.to_json(encode_label, extras))
    if inst.menu_length == 1:
        report = tariff.check_piece_bound(inst, sub)
        payload["piece_bound"] = {
            "pieces": report["pieces"],
            "bound": report["bound"],
            "pieces_ok": report["pieces_ok"],
            "lines_per_sample": {str(k): v for k, v in report["lines_per_sample"].items()},
            "line_bound": report["line_bound"],
            "lines_ok": report["lines_ok"],
        }
    if config.oracle_check:
        agreement = _tariff_oracle_agreement(inst, sub, config)
        payload["oracle_agreement"] = agreement
        if agreement < 1:
            _write(config, payload)
            raise OracleFailure(f"tariff oracle agreement {agreement}")
    _write(config, payload)
    return payload


def cmd_tariff_optimize(config: RunConfig) -> dict:
    inst, sub = _tariff_regions(config)
    prices, revenue, label = tariff.maximize_revenue(inst, sub, seed=config.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tariff-optimize",
        "prices": format_vector(prices),
        "revenue": format_rational(revenue),
        "region_label": encode_label(label),
    }
    _write(config, payload)
    return payload


def cmd_gen_dataset(config: RunConfig) -> dict:
    try:
        inst = clustering.generate_dataset(config.name, config.seed, metric_names=())
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cluster-instance",
        "name": config.name,
        "seed": config.seed,
        "points": [format_vector(p) for p in inst.points],
        "metric_names": ["euclidean"],
        "target": [sorted(c) for c in inst.target],
        "k": inst.k,
    }
    _write(config, payload)
    return payload


def cmd_plot_data(config: RunConfig) -> str:
    data = _load_json(config.regions)
    if "cells" not in data:
        raise ParseFailure("regions file has no cells")
    rows = ["cell,label,vertex,x,y"]
    count = 0
    for idx, entry in enumerate(data["cells"]):
        try:
            cell = ConvexCell.from_json(entry, decode_label)
        except (KeyError, GeometryError, ValueError) as exc:
            raise ParseFailure(f"bad cell entry: {exc}") from exc
        if cell.dimension != 2:
            raise ParseFailure("plot-data needs 2D regions")
        vertices = polygon_vertices(cell)
        if not vertices:
            continue  # zero-area region
        count += 1
        label = json.dumps(entry.get("label"), sort_keys=True).replace(",", ";")
        for v_idx, (x, y) in enumerate(vertices):
            rows.append(f"{idx},{label},{v_idx},{float(x)!r},{float(y)!r}")
    text = "\n".join(rows) + "\n"
    if config.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(config.output, "w") as fh:
            fh.write(text)
    if count == 0:
        raise InfeasibleConfig("no full-dimensional regions to plot")
    return text


def cmd_oracle_check(config: RunConfig) -> dict:
    if config.kind == "cluster":
        inst = load_cluster_instance(_load_json(config.instance))
        family = clustering.MergeFamily(config.linkages, config.metrics)
        root = clustering.build_execution_tree(inst, family, seed=config.seed)
        leaves = clustering.leaf_subdivision(root)
        agreement = _cluster_oracle_agreement(inst, family, leaves, config)
    elif config.kind == "align":
        spec = load_alignment_spec(config)
        s1, s2 = load_sequences(config)
        part = seqalign.build_execution_dag(spec, s1, s2, seed=config.seed)
        agreement = _align_oracle_agreement(spec, s1, s2, part, config)
    elif config.kind == "tariff":
        inst = load_tariff_instance(_load_json(config.instance), config.menu)
        sub = tariff.compute_price_regions(inst, seed=config.seed)
        agreement = _tariff_oracle_agreement(inst, sub, config)
    else:
        raise ParseFailure(f"unknown oracle kind {config.kind!r}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "oracle-check",
        "target": config.kind,
        "agreement": agreement,
    }
    _write(config, payload)
    if agreement < 1:
        raise OracleFailure(f"oracle agreement {agreement}")
    return payload


# --------------------------------------------------------------------------
# Oracle helpers (interior grid / walk samples, exact comparisons)
# --------------------------------------------------------------------------

def _cell_box_grid(cell: ConvexCell, density: int):
    """Interior grid points of a cell, from its bounding box."""
    d = cell.dimension
    bounds = []
    for axis in range(d):
        unit = tuple(Rational(1) if t == axis else Rational(0) for t in range(d))
        hi = solve_lp(unit, list(cell.constraints), "max")
        lo = solve_lp(unit, list(cell.constraints), "min")
        if hi.status != "optimal" or lo.status != "optimal":
            return
        bounds.append((lo.value, hi.value))
    steps = density if d <= 2 else max(4, round(density ** (2 / d)))
    axes = []
    for lo, hi in bounds:
        width = hi - lo
        axes.append([lo + width * rat(i, steps + 1) for i in range(1, steps + 1)])

    def rec(prefix, axis):
        if axis == d:
            point = tuple(prefix)
            if cell.contains(point, strict=True):
                yield point
            return
        for value in axes[axis]:
            yield from rec(prefix + [value], axis + 1)

    yield from rec([], 0)


def _cluster_oracle_agreement(inst, family, leaves, config: RunConfig) -> float:
    total = 0
    good = 0
    for merges, cell in leaves.items():
        for point in _cell_box_grid(cell, config.density):
            total += 1
            if clustering.simulate_merge_sequence(inst, family, point) == merges:
                good += 1
    return 1.0 if total == 0 else good / total


def _align_oracle_agreement(spec, s1, s2, part, config: RunConfig) -> float:
    graph = seqalign.node_graph(spec, s1, s2)
    total = 0
    good = 0
    for region in part.regions:
        for cell in region.pieces:
            for point in _cell_box_grid(cell, config.density):
                total += 1
                _, align = seqalign.dp_solve_multi(spec, s1, s2, [point], graph)
                if (align.t1, align.t2) == (region.alignment.t1, region.alignment.t2):
                    good += 1
    return 1.0 if total == 0 else good / total


def _tariff_oracle_agreement(inst, sub, config: RunConfig) -> float:
    total = 0
    good = 0
    for label, cell in sub.cells.items():
        expected = tariff.normalize_profile(label)
        for point in _cell_box_grid(cell, config.density):
            total += 1
            got = tuple(tariff.buyer_choice(inst, i, point) for i in range(inst.n_samples))
            if got == expected:
                good += 1
    return 1.0 if total == 0 else good / total


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramregions",
        description="Exact parameter-space regions for linkage clustering, "
        "parametric sequence alignment and two-part tariff pricing.",
    )
    default_seed = int(os.environ.get(SEED_ENV, "0"))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle=True):
        p.add_argument("--seed", type=int, default=default_seed)
        p.add_argument("--output", "-o", default=None)
        if oracle:
            p.add_argument("--oracle-check", action="store_true")
            p.add_argument("--density", type=int, default=50)

    p = sub.add_parser("cluster-regions", help="execution-tree leaves of a merge family")
    p.add_argument("--instance", required=True)
    p.add_argument("--linkages", default="single,complete")
    p.add_argument("--metrics", default="euclidean")
    p.add_argument("--restrict", action="append", default=[], metavar="C1,..,CD:B")
    common(p)

    p = sub.add_parser("align-regions", help="optimal-alignment regions of a sequence pair")
    p.add_argument("--preset", default=None)
    p.add_argument("--spec-file", default=None)
    p.add_argument("--s1", default=None)
    p.add_argument("--s2", default=None)
    p.add_argument("--fasta", default=None)
    p.add_argument("--method", choices=("dag", "ray", "both"), default="dag")
    common(p)

    p = sub.add_parser("tariff-regions", help="purchase-profile regions of price space")
    p.add_argument("--instance", required=True)
    p.add_argument("--menu", type=int, default=None)
    common(p)

    p = sub.add_parser("tariff-optimize", help="revenue-maximizing tariff")
    p.add_argument("--instance", required=True)
    p.add_argument("--menu", type=int, default=None)
    common(p, oracle=False)

    p = sub.add_parser("gen-dataset", help="write a synthetic clustering instance")
    p.add_argument("--name", required=True, choices=clustering.DATASET_NAMES)
    common(p, oracle=False)

    p = sub.add_parser("plot-data", help="2D polygon vertex loops as CSV")
    p.add_argument("--regions", required=True)
    common(p, oracle=False)

    p = sub.add_parser("oracle-check", help="re-run a domain oracle against regions")
    p.add_argument("--kind", required=True, choices=("cluster", "align", "tariff"))
    p.add_argument("--instance", default=None)
    p.add_argument("--linkages", default="single,complete")
    p.add_argument("--metrics", default="euclidean")
    p.add_argument("--preset", default=None)
    p.add_argument("--spec-file", default=None)
    p.add_argument("--s1", default=None)
    p.add_argument("--s2", default=None)
    p.add_argument("--fasta", default=None)
    p.add_argument("--menu", type=int, default=None)
    common(p)

    return parser


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command, seed=args.seed, output=args.output)
    for field in (
        "instance",
        "preset",
        "s1",
        "s2",
        "fasta",
        "method",
        "menu",
        "name",
        "regions",
        "kind",
    ):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    if hasattr(args, "spec_file"):
        cfg.spec_file = args.spec_file
    if hasattr(args, "linkages"):
        cfg.linkages = tuple(args.linkages.split(","))
    if hasattr(args, "metrics"):
        cfg.metrics = tuple(args.metrics.split(","))
    if hasattr(args, "restrict"):
        cfg.restrict = tuple(args.restrict)
    if hasattr(args, "oracle_check"):
        cfg.oracle_check = args.oracle_check
        cfg.density = args.density
    return cfg


COMMANDS = {
    "cluster-regions": cmd_cluster_regions,
    "align-regions": cmd_align_regions,
    "tariff-regions": cmd_tariff_regions,
    "tariff-optimize": cmd_tariff_optimize,
    "gen-dataset": cmd_gen_dataset,
    "plot-data": cmd_plot_data,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        COMMANDS[config.command](config)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
