"""Command-line surface: region computation with an optional oracle
check, optimization, dataset generation and 2D plot-data export.

Everything runs exactly (there is no floating-point mode to switch off).
Every verb accepts ``--seed``, but only ``gen-dataset`` reads it, for the
dataset's draws (by default the PARAMREGIONS_SEED environment variable, or
0): regions, their witnesses and the revenue-maximizing prices are
functions of the input alone, so reruns are byte-identical under any seed.

Region outputs (schema 5) state each fact once: cells in label order, and
adjacency as the index pairs [i, j], i < j, of that list.

The parser is built once, at import; every command reads the parsed
``argparse.Namespace``.  Each domain has one region builder; its region
verb's ``--oracle-check`` re-runs the domain's algorithm against the exact
regions that verb writes.

Exit codes: 0 ok, 2 parse error, 3 infeasible configuration, 4 oracle-check
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import clustering, seqalign, tariff
from .geometry import ConvexCell, GeometryError, Halfspace, _bounded_vertices, polygon_vertices
from .rationals import Rational, as_rational, format_rational, format_vector, rat
from .regions import DegenerateCellError, Subdivision, cells_share_facet, compute_vertex_cell
from .seqalign import AlignmentDPSpec, get_preset

SCHEMA_VERSION = 5
SEED_ENV = "PARAMREGIONS_SEED"


class CliError(Exception):
    """A failure `main` reports on stderr and returns as its exit code."""

    exit_code: int


class ParseFailure(CliError):
    exit_code = 2


class InfeasibleConfig(CliError):
    exit_code = 3


class OracleFailure(CliError):
    exit_code = 4


def canonical_dumps(obj) -> str:
    """The one serializer all commands use; reruns and round-trips are
    byte-identical because every list is built in canonical order.

    Exactly `json.dumps(obj, sort_keys=True, indent=1) + "\\n"` for dict keys
    that are all str (only those are accepted: any other key raises
    TypeError).  `json` runs its C encoder only when `indent` is None, so
    with `indent=1` every value of a deeply nested output goes through its
    pure-Python generators.  One recursive join writes the golden outputs
    in 1/2 to 2/3 of their time."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """`obj` as `json.dumps(..., sort_keys=True, indent=1)` writes it at the
    depth whose line break and indent is `newline`.  A leaf that is not a
    str, int, bool or None goes to `json.dumps`, which writes a float as
    above and raises TypeError on a type json cannot write."""
    kind = type(obj)  # exact str and int first: most leaves are one or the other
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + " "
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in obj]) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("canonical JSON keys must be str")
        inner = newline + " "
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return json.dumps(obj)


def _emit(args, text: str) -> None:
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def _write(args, obj) -> None:
    _emit(args, canonical_dumps(obj))


def _fail_below_one(agreement: float, what: str) -> None:
    if agreement < 1:
        raise OracleFailure(f"{what} agreement {agreement}")


def _load_json(path: str) -> dict:
    # Text that is not UTF-8, or nesting deeper than the decoder's
    # recursion limit, is malformed input like any other.
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad clustering instance: {exc}") from exc
    return inst


def load_tariff_instance(data: dict, menu: Optional[int]) -> tariff.TariffInstance:
    try:
        inst = tariff.TariffInstance.from_json(data)
        if menu is not None and menu != inst.menu_length:
            inst = dataclasses.replace(inst, menu_length=menu)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad tariff instance: {exc}") from exc
    return inst


def load_sequences(args) -> tuple:
    if args.fasta:
        records = _parse_fasta(args.fasta)
        if len(records) < 2:
            raise ParseFailure("FASTA input needs at least two records")
        return records[0], records[1]
    if args.s1 is None or args.s2 is None:
        raise ParseFailure("provide --s1 and --s2, or --fasta")
    return args.s1, args.s2


def _parse_fasta(path: str) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def load_alignment_spec(args) -> AlignmentDPSpec:
    if args.spec_file:
        try:
            return AlignmentDPSpec.from_json(_load_json(args.spec_file))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseFailure(f"bad DP spec: {exc}") from exc
    try:
        return get_preset(args.preset or "mismatch-space")
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
            out.append(Halfspace.from_rationals(coeffs, as_rational(offset_text)))
        except (ValueError, GeometryError) as exc:
            raise ParseFailure(f"bad restriction {text!r}: {exc}") from exc
    return out


# --------------------------------------------------------------------------
# Label codecs
# --------------------------------------------------------------------------

def decode_label(data):
    if isinstance(data, list):
        return tuple(decode_label(x) for x in data)
    return data


# --------------------------------------------------------------------------
# Region builders, one per domain
# --------------------------------------------------------------------------

def _cluster_regions(args) -> tuple:
    """The instance, the merge family, the execution tree's root and its
    leaves.  Restrictions cut the simplex to a reduced cell with its
    canonical witness (`compute_vertex_cell`), like any other region.  A
    family the instance cannot run, or a restriction that leaves no
    interior, is an infeasible configuration."""
    inst = load_cluster_instance(_load_json(args.instance))
    try:
        family = clustering.MergeFamily(args.linkages, args.metrics)
        for m in family.metrics:
            if m not in inst.metrics:
                raise InfeasibleConfig(f"instance has no metric {m!r}")
        parent = family.simplex_cell()
        extra = _parse_restrictions(args.restrict, family.dimension)
        if extra:
            parent, _ = compute_vertex_cell(parent, "restricted", extra)
        root = clustering.build_execution_tree(inst, family, parent=parent)
    except DegenerateCellError:
        raise InfeasibleConfig("the restrictions leave the simplex no interior") from None
    except (ValueError, GeometryError) as exc:
        raise InfeasibleConfig(str(exc)) from exc
    return inst, family, root, clustering.leaf_subdivision(root)


def _align_regions(args) -> tuple:
    """The spec, the sequence pair, its node graph, the partition and the
    ray search's DP solve count, or None when it does not run.  One node
    graph serves every method.  The partition is the DAG's when it runs;
    with `--method both` the ray search's regions must have the DAG's keys,
    and are not partitioned again: a partition is built from its regions
    alone (`seqalign._partition`), so equal regions mean equal partitions.
    A spec whose DP has no solution for the pair is an infeasible
    configuration."""
    spec = load_alignment_spec(args)
    s1, s2 = load_sequences(args)
    try:
        graph = seqalign.node_graph(spec, s1, s2)
    except ValueError as exc:  # a sequence holds the space character
        raise ParseFailure(str(exc)) from exc
    if args.method != "dag" and spec.dimension != 2:
        raise InfeasibleConfig("the ray-search path needs a two-feature spec")
    solves = None
    try:
        if args.method == "ray":
            part, solves = seqalign.ray_search_2d(spec, s1, s2, graph=graph)
        else:
            part = seqalign.build_execution_dag(spec, s1, s2, graph=graph)
        if args.method == "both":
            regions, solves = seqalign.ray_search_regions(spec, s1, s2, graph)
    except seqalign.NoSolution as exc:
        raise InfeasibleConfig(str(exc)) from exc
    if args.method == "both" and regions.keys() != part.regions.keys():
        raise OracleFailure("DAG and ray-search partitions disagree")
    return spec, s1, s2, graph, part, solves


def _tariff_regions(args) -> tuple:
    """The instance and its price regions, from one `compute_price_regions`
    at any menu length: a single tariff's labels are plain quantities."""
    inst = load_tariff_instance(_load_json(args.instance), args.menu)
    return inst, tariff.compute_price_regions(inst)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_cluster_regions(args) -> None:
    inst, family, root, leaves = _cluster_regions(args)
    losses = best = None
    if inst.target is not None and inst.k is not None:
        losses, best = clustering.leaf_losses(inst, leaves)

    # Two leaves can share a facet only when one holds the flip of a facet
    # of the other: join the leaves on their facet rows first.
    keys = sorted(leaves)
    owners: dict = {}  # facet row -> indices of the leaves that hold it
    for i, merges in enumerate(keys):
        for h in leaves[merges].constraints:
            owners.setdefault(h.int_row, []).append(i)
    pairs = {
        (i, j)
        for i, merges in enumerate(keys)
        for h in leaves[merges].constraints
        for j in owners.get(h.flipped_key(), ())
        if i < j
    }
    adjacency = frozenset(
        (keys[i], keys[j])
        for i, j in pairs
        if cells_share_facet(leaves[keys[i]], leaves[keys[j]])
    )

    def extras(merges):
        return {"loss": format_rational(losses[merges])}

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cluster-regions",
        "dimension": family.dimension,
        "linkages": list(family.linkages),
        "metrics": list(family.metrics),
    }
    payload.update(Subdivision(root.region, leaves, adjacency).to_json(extras if losses else None))
    if losses:
        payload["best"] = {
            "rho": format_vector(leaves[best].witness),
            "loss": format_rational(losses[best]),
            "label": best,
        }
    if args.oracle_check:
        payload["oracle_agreement"] = _cluster_agreement(inst, family, leaves, args.density)
    _write(args, payload)
    _fail_below_one(payload.get("oracle_agreement", 1), "cluster oracle")


def cmd_align_regions(args) -> None:
    spec, s1, s2, graph, part, solves = _align_regions(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "align-regions",
        "spec": spec.name,
        "method": args.method,
        "s1": s1,
        "s2": s2,
    }
    payload.update(part.to_json())
    if solves is not None:
        payload["ray_dp_solves"] = solves
        payload["region_count"] = len(part.regions)
    if args.oracle_check:
        payload["oracle_agreement"] = _align_agreement(spec, s1, s2, part, args.density, graph)
    _write(args, payload)
    _fail_below_one(payload.get("oracle_agreement", 1), "alignment oracle")


def cmd_tariff_regions(args) -> None:
    inst, sub = _tariff_regions(args)

    def extras(label):
        return {"revenue": [format_rational(c) for c in tariff.revenue_form(inst, label)]}

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tariff-regions",
        "K": inst.units,
        "menu_length": inst.menu_length,
        "price_cap": format_rational(inst.price_cap),
    }
    payload.update(sub.to_json(extras))
    if inst.menu_length == 1:
        report = tariff.check_piece_bound(inst, sub)
        payload["piece_bound"] = {
            **report,
            "lines_per_sample": {str(k): v for k, v in report["lines_per_sample"].items()},
        }
    if args.oracle_check:
        payload["oracle_agreement"] = _tariff_agreement(inst, sub, args.density)
    _write(args, payload)
    _fail_below_one(payload.get("oracle_agreement", 1), "tariff oracle")


def cmd_tariff_optimize(args) -> None:
    inst, sub = _tariff_regions(args)
    prices, revenue, label = tariff.maximize_revenue(inst, sub)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tariff-optimize",
        "prices": format_vector(prices),
        "revenue": format_rational(revenue),
        "region_label": label,
    }
    _write(args, payload)


def cmd_gen_dataset(args) -> None:
    seed = _seed_from_env() if args.seed is None else args.seed
    try:
        inst = clustering.generate_dataset(args.name, seed, metric_names=())
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cluster-instance",
        "name": args.name,
        "seed": seed,
        "points": [format_vector(p) for p in inst.points],
        "metric_names": ["euclidean"],
        "target": [sorted(c) for c in inst.target],
        "k": inst.k,
    }
    _write(args, payload)


def cmd_plot_data(args) -> None:
    data = _load_json(args.regions)
    if not isinstance(data, dict) or not isinstance(data.get("cells"), list):
        raise ParseFailure("regions file has no list of cells")
    rows = ["cell,label,vertex,x,y"]
    count = 0
    for idx, entry in enumerate(data["cells"]):
        try:
            cell = ConvexCell.from_json(entry, decode_label)
        except (KeyError, GeometryError, TypeError, ValueError) as exc:
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
    if count == 0:
        raise InfeasibleConfig("no full-dimensional regions to plot")
    _emit(args, "\n".join(rows) + "\n")


# --------------------------------------------------------------------------
# Oracle helpers (interior grid samples, exact comparisons)
# --------------------------------------------------------------------------

def _cell_box_grid(cell: ConvexCell, density: int):
    """Interior grid points of a bounded cell, from its bounding box: each
    axis's range runs from the least to the greatest coordinate of the
    cell's vertices (`geometry._bounded_vertices`).  No point for an
    unbounded or empty cell."""
    vertices = _bounded_vertices(cell)
    if not vertices:
        return
    d = cell.dimension
    bounds = []
    for axis in range(d):
        coords = [Rational(v[axis], v[-1]) for v in vertices]
        bounds.append((min(coords), max(coords)))
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


def _agreement(pieces, density: int, behavior) -> float:
    """Share of the sampled points of each (expected, cell) piece at which
    `behavior(point) == expected`: its interior grid points and its witness,
    so that every cell with a witness is checked at least once, however
    small; 1.0 when no point is sampled."""
    total = 0
    good = 0
    for expected, cell in pieces:
        witness = () if cell.witness is None else (cell.witness,)
        for point in chain(_cell_box_grid(cell, density), witness):
            total += 1
            good += behavior(point) == expected
    return 1.0 if total == 0 else good / total


def _cluster_agreement(inst, family, leaves, density: int) -> float:
    return _agreement(
        leaves.items(), density, lambda p: clustering.simulate_merge_sequence(inst, family, p)
    )


def _align_agreement(spec, s1, s2, part, density: int, graph) -> float:
    def behavior(point):
        _, align = seqalign.dp_solve(spec, s1, s2, point, graph)
        return align.t1, align.t2

    return _agreement(part.cells.items(), density, behavior)


def _tariff_agreement(inst, sub, density: int) -> float:
    pieces = ((tariff.normalize_profile(label), cell) for label, cell in sub.cells.items())
    return _agreement(pieces, density, lambda p: tariff.buyer_choices(inst, p))


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _names(text: str) -> tuple:
    return tuple(text.split(","))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _seed_from_env() -> int:
    text = os.environ.get(SEED_ENV, "0")
    try:
        return int(text)
    except ValueError:
        raise ParseFailure(f"{SEED_ENV} must be an integer, not {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramregions",
        description="Exact parameter-space regions for linkage clustering, "
        "parametric sequence alignment and two-part tariff pricing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, run, help, oracle=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--seed", type=int, default=None)  # only gen-dataset reads it; None: SEED_ENV
        p.add_argument("--output", "-o", default=None)
        if oracle:
            p.add_argument("--oracle-check", action="store_true")
            p.add_argument("--density", type=positive_int, default=50)
        return p

    p = verb("cluster-regions", cmd_cluster_regions, "execution-tree leaves of a merge family")
    p.add_argument("--instance", required=True)
    p.add_argument("--linkages", type=_names, default="single,complete")
    p.add_argument("--metrics", type=_names, default="euclidean")
    p.add_argument("--restrict", action="append", default=[], metavar="C1,..,CD:B")

    p = verb("align-regions", cmd_align_regions, "optimal-alignment regions of a sequence pair")
    for flag in ("--preset", "--spec-file", "--s1", "--s2", "--fasta"):
        p.add_argument(flag, default=None)
    p.add_argument("--method", choices=("dag", "ray", "both"), default="dag")

    p = verb("tariff-regions", cmd_tariff_regions, "purchase-profile regions of price space")
    p.add_argument("--instance", required=True)
    p.add_argument("--menu", type=int, default=None)

    p = verb("tariff-optimize", cmd_tariff_optimize, "revenue-maximizing tariff", oracle=False)
    p.add_argument("--instance", required=True)
    p.add_argument("--menu", type=int, default=None)

    p = verb("gen-dataset", cmd_gen_dataset, "write a synthetic clustering instance", oracle=False)
    p.add_argument("--name", required=True, choices=clustering.DATASET_NAMES)

    p = verb("plot-data", cmd_plot_data, "2D polygon vertex loops as CSV", oracle=False)
    p.add_argument("--regions", required=True)
    return parser


PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        args.run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
