"""Command-line surface: region computation, optimization, dataset
generation, oracle checks and 2D plot-data export.

Everything runs exactly (there is no floating-point mode to switch off);
``--seed`` (or the PARAMREGIONS_SEED environment variable) fixes every
randomized choice, so reruns are byte-identical.

The parser is built once, at import; every command reads the parsed
``argparse.Namespace``.  Each domain has one region builder, shared by its
region verb and by ``oracle-check --kind``, so both map errors the same way.

Exit codes: 0 ok, 2 parse error, 3 infeasible configuration, 4 oracle-check
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Optional

from . import clustering, seqalign, tariff
from .geometry import ConvexCell, GeometryError, Halfspace, polygon_vertices, solve_lp
from .rationals import Rational, as_rational, format_rational, format_vector, rat
from .regions import Subdivision, cells_share_facet
from .seqalign import AlignmentDPSpec, get_preset

SCHEMA_VERSION = 1
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
    byte-identical because every list is built in canonical order."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


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


def load_sequences(args) -> tuple:
    if args.fasta:
        records = _parse_fasta(args.fasta)
        if len(records) < 2:
            raise ParseFailure("FASTA input needs at least two records")
        pair = records[0], records[1]
    elif args.s1 is None or args.s2 is None:
        raise ParseFailure("provide --s1 and --s2, or --fasta")
    else:
        pair = args.s1, args.s2
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


def load_alignment_spec(args) -> AlignmentDPSpec:
    if args.spec_file:
        try:
            return AlignmentDPSpec.from_json(_load_json(args.spec_file))
        except (KeyError, TypeError, ValueError) as exc:
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
    leaves.  A family the instance cannot run, or a restriction that leaves
    no interior, is an infeasible configuration."""
    inst = load_cluster_instance(_load_json(args.instance))
    try:
        family = clustering.MergeFamily(args.linkages, args.metrics)
        for m in family.metrics:
            if m not in inst.metrics:
                raise InfeasibleConfig(f"instance has no metric {m!r}")
        parent = family.simplex_cell()
        extra = _parse_restrictions(args.restrict, family.dimension)
        if extra:
            parent = ConvexCell(family.dimension, parent.constraints + tuple(extra))
        root = clustering.build_execution_tree(inst, family, parent=parent, seed=args.seed)
    except (ValueError, GeometryError) as exc:
        raise InfeasibleConfig(str(exc)) from exc
    return inst, family, root, clustering.leaf_subdivision(root)


def _align_regions(args) -> tuple:
    """The spec, the sequence pair, the partition (the DAG's when it runs)
    and the ray search's (partition, DP solve count), or None when it does
    not run.  When both run, their regions must agree: both partitions are
    built from their regions alone (`seqalign._partition`), so equal regions
    mean equal partitions.  A spec whose DP has no solution for the pair is
    an infeasible configuration."""
    spec = load_alignment_spec(args)
    s1, s2 = load_sequences(args)
    if args.method != "dag" and spec.dimension != 2:
        raise InfeasibleConfig("the ray-search path needs a two-feature spec")
    dag = None
    ray = None
    try:
        if args.method != "ray":
            dag = seqalign.build_execution_dag(spec, s1, s2, seed=args.seed)
        if args.method != "dag":
            ray = seqalign.ray_search_2d(spec, s1, s2, seed=args.seed)
    except seqalign.NoSolution as exc:
        raise InfeasibleConfig(str(exc)) from exc
    if dag is not None and ray is not None and dag.regions.keys() != ray[0].regions.keys():
        raise OracleFailure("DAG and ray-search partitions disagree")
    return spec, s1, s2, (dag if dag is not None else ray[0]), ray


def _tariff_regions(args) -> tuple:
    """The instance and its price regions; single tariffs get the plain
    quantity-tuple labels."""
    inst = load_tariff_instance(_load_json(args.instance), args.menu)
    if inst.menu_length == 1:
        return inst, tariff.single_tariff_regions(inst, seed=args.seed)
    return inst, tariff.compute_price_regions(inst, seed=args.seed)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_cluster_regions(args) -> None:
    inst, family, root, leaves = _cluster_regions(args)
    losses = {}
    if inst.target is not None and inst.k is not None:
        for merges in leaves:
            tree = clustering.ClusterTree.from_merges(inst.n_points, merges)
            losses[merges] = clustering.hamming_loss(tree, inst.target, inst.k)

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
        for i, j in sorted(pairs)
        if cells_share_facet(leaves[keys[i]], leaves[keys[j]], args.seed)
    )

    def extras(merges):
        out = {"merges": merges}
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
    payload.update(Subdivision(root.region, leaves, adjacency).to_json(extras))
    if losses:
        # best_parameter's tie rule: the smallest merge sequence of least loss.
        best = min(keys, key=losses.__getitem__)
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
    spec, s1, s2, part, ray = _align_regions(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "align-regions",
        "spec": spec.name,
        "method": args.method,
        "s1": s1,
        "s2": s2,
    }
    payload.update(part.to_json())
    if ray is not None:
        payload["ray_dp_solves"] = ray[1]
        payload["region_count"] = len(ray[0].regions)
    if args.oracle_check:
        payload["oracle_agreement"] = _align_agreement(spec, s1, s2, part, args.density)
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
            "pieces": report["pieces"],
            "bound": report["bound"],
            "pieces_ok": report["pieces_ok"],
            "lines_per_sample": {str(k): v for k, v in report["lines_per_sample"].items()},
            "line_bound": report["line_bound"],
            "lines_ok": report["lines_ok"],
        }
    if args.oracle_check:
        payload["oracle_agreement"] = _tariff_agreement(inst, sub, args.density)
    _write(args, payload)
    _fail_below_one(payload.get("oracle_agreement", 1), "tariff oracle")


def cmd_tariff_optimize(args) -> None:
    inst, sub = _tariff_regions(args)
    prices, revenue, label = tariff.maximize_revenue(inst, sub, seed=args.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tariff-optimize",
        "prices": format_vector(prices),
        "revenue": format_rational(revenue),
        "region_label": label,
    }
    _write(args, payload)


def cmd_gen_dataset(args) -> None:
    try:
        inst = clustering.generate_dataset(args.name, args.seed, metric_names=())
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cluster-instance",
        "name": args.name,
        "seed": args.seed,
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
    _emit(args, "\n".join(rows) + "\n")
    if count == 0:
        raise InfeasibleConfig("no full-dimensional regions to plot")


def cmd_oracle_check(args) -> None:
    if args.kind != "align" and args.instance is None:
        raise ParseFailure(f"oracle-check --kind {args.kind} needs --instance")
    if args.kind == "cluster":
        inst, family, _, leaves = _cluster_regions(args)
        agreement = _cluster_agreement(inst, family, leaves, args.density)
    elif args.kind == "align":
        spec, s1, s2, part, _ = _align_regions(args)
        agreement = _align_agreement(spec, s1, s2, part, args.density)
    else:
        inst, sub = _tariff_regions(args)
        agreement = _tariff_agreement(inst, sub, args.density)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "oracle-check",
        "target": args.kind,
        "agreement": agreement,
    }
    _write(args, payload)
    _fail_below_one(agreement, "oracle")


# --------------------------------------------------------------------------
# Oracle helpers (interior grid samples, exact comparisons)
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


def _align_agreement(spec, s1, s2, part, density: int) -> float:
    graph = seqalign.node_graph(spec, s1, s2)

    def behavior(point):
        _, align = seqalign.dp_solve_multi(spec, s1, s2, [point], graph)
        return align.t1, align.t2

    return _agreement(part.cells.items(), density, behavior)


def _tariff_agreement(inst, sub, density: int) -> float:
    pieces = ((tariff.normalize_profile(label), cell) for label, cell in sub.cells.items())
    return _agreement(
        pieces,
        density,
        lambda p: tuple(tariff.buyer_choice(inst, i, p) for i in range(inst.n_samples)),
    )


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
        p.add_argument("--seed", type=int, default=None)  # None: read SEED_ENV
        p.add_argument("--output", "-o", default=None)
        if oracle:
            p.add_argument("--oracle-check", action="store_true")
            density_option(p)
        return p

    def density_option(p):
        p.add_argument("--density", type=positive_int, default=50)

    def family_options(p):
        p.add_argument("--linkages", type=_names, default="single,complete")
        p.add_argument("--metrics", type=_names, default="euclidean")

    def sequence_options(p):
        for flag in ("--preset", "--spec-file", "--s1", "--s2", "--fasta"):
            p.add_argument(flag, default=None)

    p = verb("cluster-regions", cmd_cluster_regions, "execution-tree leaves of a merge family")
    p.add_argument("--instance", required=True)
    family_options(p)
    p.add_argument("--restrict", action="append", default=[], metavar="C1,..,CD:B")

    p = verb("align-regions", cmd_align_regions, "optimal-alignment regions of a sequence pair")
    sequence_options(p)
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

    # This verb always checks: it takes --density, but no --oracle-check.
    p = verb("oracle-check", cmd_oracle_check, "re-run a domain oracle against regions", oracle=False)
    density_option(p)
    p.add_argument("--kind", required=True, choices=("cluster", "align", "tariff"))
    p.add_argument("--instance", default=None)
    family_options(p)
    sequence_options(p)
    p.add_argument("--menu", type=int, default=None)
    # The builders' inputs that this verb fixes: the whole simplex, the DAG.
    p.set_defaults(restrict=(), method="dag")
    return parser


PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _seed_from_env()
        args.run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
