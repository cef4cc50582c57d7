"""Command-line harness: generate instances, run coloring pipelines, verify
colorings, and sweep the dilation diagnostic.

Reports are JSON with sorted keys and no timestamps, so identical configs
produce byte-identical output.  Every report carries both the proved bound
and the measured maximum; the proved constants are loose by design and the
measured values are the useful numbers.  Exit status is nonzero exactly when
something failed: 1 for a failed verification, 2 for bad input.

`run planar` and `run layered` go through one slab driver; the only slab
setting is --slab-width-factor, the slab width in units of ell, a rational
of at least 4 such as 9/2, and every slab is padded by 2*ell.  A tree
decomposition that `run tw`, `run partition` or `dilation` computes itself
comes from an exhaustive search up to 20 vertices and min-fill beyond.
`verify` exits 2 before building a power graph of more than
MAX_POWER_VERTICES (10**6) vertices, and every command exits 2 before
parsing a rational, in a flag or an edge list, whose text stands for more
than graph.MAX_RATIONAL_DIGITS (10**5) digits, its exponent counted.

A process builds one argument parser, on the first call of `main`, and
every later call reuses it; each call parses into a fresh namespace, so no
value carries over from one call to the next.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import (
    GraphError,
    WeightedGraph,
    as_fraction,
    cut_frac,
    frac_str,
    json_int,
    json_int_key,
    parse_edge_list,
    power_graph_vertex_count,
    quoted_prefix,
    write_edge_list,
)
from .partition import (
    Coloring,
    ColorResult,
    ContractViolation,
    coloring_to_partition,
    measure_dilation,
    verify_weak_diameter,
)
from .treedec import RootedTreeDecomposition
from .twcolor import color_bounded_treewidth
from .geodesic import color_layered, color_planar
from .generators import (
    FAMILIES,
    GeneratorSpec,
    generate,
    layering_from_json,
    layering_to_json,
    rotation_from_json,
    rotation_to_json,
    tripods_to_json,
)

SCHEMA = "wdcolor-report/1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2

#: Largest power graph `verify` builds; an edge of weight w adds about
#: 2*w/ell vertices, so one heavy edge could otherwise ask for billions.
MAX_POWER_VERTICES = 10 ** 6


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def indented_json(obj: object) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    That call runs json's pure-Python encoder, one generator step per
    value.  Here the C encoder does the encoding, a few calls per nesting
    level (`_indented_level`): each dict or list whose values are all
    scalars (a colouring's assignment, a bag, a rotation order) is encoded
    with the newline and indent of its level as the item separator, all
    such containers of one level in one call, and so are the level's bare
    scalars and each new tuple of sorted keys.  A call's text is cut back
    into its items at its separators: the separator holds a raw newline,
    which the encoder never writes inside a string, and a scalar's text
    never ends in a bracket or brace.  A dict with a key that is no string
    goes to json.dumps whole, re-indented to its level."""
    return _indented_level([obj], "\n", {})[0]


def _indented_level(objs: List[object], nl: str, memo: Dict[object, object]) -> List[str]:
    """The indented texts of objs, each written at the level whose line
    break is `nl`.  `memo` holds one C encoder per item separator and the
    key texts per key tuple, each made on first use."""
    inner = nl + "  "
    sep = "," + inner
    encode = memo.get(sep)
    if encode is None:
        encode = memo[sep] = json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode
    texts: List[str] = [""] * len(objs)
    leaves: List[int] = []
    flat: Dict[str, List[int]] = {"[]": [], "{}": []}
    deep: List[Tuple[int, Optional[List[str]], int]] = []
    pool: List[object] = []
    for i, x in enumerate(objs):
        if isinstance(x, dict):
            brackets, values = "{}", x.values()
        elif isinstance(x, (list, tuple)):
            brackets, values = "[]", x
        else:
            leaves.append(i)
            continue
        if not x:
            texts[i] = brackets
        elif set(map(type, values)) <= _SCALAR_TYPES:
            flat[brackets].append(i)
        elif brackets == "[]":
            pool.extend(x)
            deep.append((i, None, len(pool)))
        elif set(map(type, x)) != {str}:
            texts[i] = json.dumps(x, sort_keys=True, indent=2).replace("\n", nl)
        else:
            keys = tuple(sorted(x))
            key_texts = memo.get(keys)
            if key_texts is None:
                key_texts = memo[keys] = json.dumps(keys, separators=("\n", ":"))[1:-1].split("\n")
            pool.extend([x[k] for k in keys])
            deep.append((i, key_texts, len(pool)))
    if leaves:
        leaf_texts = json.dumps([objs[i] for i in leaves], separators=("\n", ":"))[1:-1].split("\n")
        for i, text in zip(leaves, leaf_texts):
            texts[i] = text
    for brackets, idx in flat.items():
        if idx:
            cut = brackets[1] + sep + brackets[0]
            for i, body in zip(idx, encode([objs[i] for i in idx])[2:-2].split(cut)):
                texts[i] = brackets[0] + inner + body + nl + brackets[1]
    if pool:
        pool_texts = _indented_level(pool, inner, memo)
        start = 0
        for i, key_texts, stop in deep:
            items = pool_texts[start:stop]
            if key_texts is None:
                texts[i] = "[" + inner + sep.join(items) + nl + "]"
            else:
                texts[i] = "{" + inner + sep.join([k + ": " + v for k, v in zip(key_texts, items)]) + nl + "}"
            start = stop
    return texts


def _emit(payload: dict, out: Optional[str]) -> None:
    text = indented_json(payload) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _fail(code: str, message: str, status: int) -> int:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}, sort_keys=True) + "\n")
    return status


def _load_graph(path: str) -> WeightedGraph:
    try:
        with open(path) as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise CliError("parse-error", "cannot read graph file: %s" % exc)
    except GraphError as exc:
        raise CliError("parse-error", "bad graph file %s: %s" % (path, exc))


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("parse-error", "cannot read %s file: %s" % (what, exc))
    except json.JSONDecodeError as exc:
        raise CliError("parse-error", "bad %s JSON in %s: %s" % (what, path, exc))


def _load_certificate(path: str, what: str, loader):
    """A JSON input file read by `loader`; a GraphError from the loader is a
    parse error of that file."""
    data = _load_json(path, what)
    try:
        return loader(data)
    except GraphError as exc:
        raise CliError("parse-error", "bad %s file %s: %s" % (what, path, exc))


def _parse_frac(text: str, what: str) -> Fraction:
    try:
        return as_fraction(text)
    except GraphError as exc:
        raise CliError("parse-error", "bad %s value: %s" % (what, exc))
    except (ValueError, ZeroDivisionError):
        raise CliError("parse-error", "bad %s value %s" % (what, quoted_prefix(text)))


def _parse_scale(text: str, flag: str) -> Fraction:
    """The value of a scale flag (--ell, --r, --eps0, each of --scales): a
    positive rational."""
    value = _parse_frac(text, flag)
    if value <= 0:
        raise CliError("invalid-input", "--%s must be positive, got %s" % (flag, cut_frac(value)))
    return value


def coloring_to_json(c: Coloring) -> dict:
    return {
        "num_colors": c.num_colors,
        "assignment": {str(v): col for v, col in sorted(c.assignment.items())},
    }


def coloring_from_json(data: dict) -> Coloring:
    try:
        assignment = data["assignment"]
        if not isinstance(assignment, dict):
            raise GraphError("assignment must be an object, got %r" % (assignment,))
        return Coloring(
            {json_int_key(v, "vertex id"): json_int(col, "colour") for v, col in assignment.items()},
            json_int(data["num_colors"], "num_colors"),
        )
    except (KeyError, TypeError, ValueError, GraphError) as exc:
        raise CliError("parse-error", "bad coloring JSON: %s" % exc)


def _report_payload(args: argparse.Namespace, pipeline: str, extra: dict) -> dict:
    payload = {
        "schema": SCHEMA,
        "pipeline": pipeline,
        "seed": args.seed,
    }
    payload.update(extra)
    return payload


# -- gen ------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    prefix = args.out
    if not prefix:
        raise CliError("invalid-input", "gen needs --out PREFIX")
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        rows=args.rows,
        cols=args.cols,
        k=args.k,
        seed=args.seed,
        weight_lo=_parse_frac(args.weight_lo, "weight-lo"),
        weight_hi=_parse_frac(args.weight_hi, "weight-hi"),
        weight_den=args.weight_den,
    )
    base = _load_graph(args.base) if args.base else None
    try:
        inst = generate(spec, base=base)
    except GraphError as exc:
        raise CliError("invalid-input", str(exc))
    written: List[str] = []

    def save(path: str, text: str) -> None:
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)

    save(prefix + ".txt", write_edge_list(inst.graph))
    if inst.td is not None:
        save(prefix + ".td.json", indented_json(inst.td.to_json_dict()) + "\n")
    if inst.rotation is not None:
        save(prefix + ".rotation.json", indented_json(rotation_to_json(inst.rotation)) + "\n")
    if inst.layering is not None:
        save(prefix + ".layers.json", indented_json(layering_to_json(inst.layering)) + "\n")
    if inst.tripods is not None:
        inst.tripods.verify(inst.graph)
        save(prefix + ".tripods.json", indented_json(tripods_to_json(inst.tripods)) + "\n")
    _emit(
        {
            "schema": SCHEMA,
            "family": inst.family,
            "seed": args.seed,
            "vertices": len(inst.graph),
            "edges": len(inst.graph.edges),
            "written": written,
        },
        None,
    )
    return EXIT_OK


# -- run ------------------------------------------------------------------------


def _coloring_report(lf: Fraction, res: ColorResult) -> dict:
    """The report keys every colouring pipeline writes; a pipeline adds
    its own (`width`, `slabs`), and `_emit` sorts them all."""
    return {
        "ell": frac_str(lf),
        "colors": res.report.colors,
        "proved_bound": frac_str(res.bound),
        "measured": res.report.to_json_dict(),
        "coloring": coloring_to_json(res.coloring),
        "ok": res.report.ok,
    }


def _run_tw(args: argparse.Namespace, g: WeightedGraph, lf: Fraction) -> dict:
    td = None
    if args.td:
        td = _load_certificate(args.td, "decomposition", RootedTreeDecomposition.from_json_dict)
    res = color_bounded_treewidth(g, lf, td=td)
    return dict(_coloring_report(lf, res), width=res.width)


def _run_planar(args: argparse.Namespace, g: WeightedGraph, lf: Fraction) -> dict:
    rotation = None
    if args.rotation:
        rotation = _load_certificate(args.rotation, "rotation", rotation_from_json)
    res = color_planar(g, lf, rotation, slab_width_factor=args.slab_width_factor)
    slabs = [
        {"family": s.family, "index": s.index, "owned": len(s.owned)}
        for system in res.systems
        for s in system.slabs
    ]
    return dict(_coloring_report(lf, res), slabs=slabs)


def _run_layered(args: argparse.Namespace, g: WeightedGraph, lf: Fraction) -> dict:
    if not args.layers:
        raise CliError("invalid-input", "layered pipeline needs --layers FILE")
    if not args.eps0:
        raise CliError("invalid-input", "layered pipeline needs --eps0")
    eps0 = _parse_scale(args.eps0, "eps0")
    layering = _load_certificate(args.layers, "layering", layering_from_json)
    res = color_layered(g, lf, layering, eps0, slab_width_factor=args.slab_width_factor)
    return _coloring_report(lf, res)


def _run_partition(args: argparse.Namespace, g: WeightedGraph) -> dict:
    if not args.r:
        raise CliError("invalid-input", "partition pipeline needs --r")
    rf = _parse_scale(args.r, "r")
    res = color_bounded_treewidth(g, rf)
    family = coloring_to_partition(g, rf, res.coloring, res.bound)
    return {
        "r": frac_str(rf),
        "colors": res.report.colors,
        "proved_bound": frac_str(res.bound),
        "measured": res.report.to_json_dict(),
        "partition": family.to_json_dict(),
        "ok": res.report.ok,
    }


def _run_verify(args: argparse.Namespace, g: WeightedGraph, lf: Fraction) -> dict:
    if not args.coloring:
        raise CliError("invalid-input", "verify needs --coloring FILE")
    coloring = coloring_from_json(_load_json(args.coloring, "coloring"))
    missing = g.vertex_set() - coloring.domain
    if missing:
        raise ContractViolation(
            "coloring misses %d of %d graph vertices: %s"
            % (len(missing), len(g), sorted(missing)[:5])
        )
    alien = coloring.domain - g.vertex_set()
    if alien:
        raise ContractViolation(
            "coloring names %d ids that are not graph vertices: %s"
            % (len(alien), sorted(alien)[:5])
        )
    bound = _parse_frac(args.bound, "bound") if args.bound else None
    if bound is not None and bound < 0:
        raise CliError("invalid-input", "bound must be nonnegative, got %s" % cut_frac(bound))
    size = power_graph_vertex_count(g, lf)
    if size > MAX_POWER_VERTICES:
        raise CliError(
            "precondition-failed",
            "the power graph at ell=%s has %d vertices, above the limit of %d"
            % (cut_frac(lf), size, MAX_POWER_VERTICES),
        )
    report = verify_weak_diameter(g, lf, coloring, bound=bound)
    payload = {
        "ell": frac_str(lf),
        "colors": report.colors,
        "measured": report.to_json_dict(),
        "ok": report.ok,
    }
    if not report.ok:
        worst = max(report.per_component, key=lambda s: s.hops)
        payload["failure"] = (
            "component with min vertex %d has weak diameter %d hops"
            % (worst.min_vertex, worst.hops)
        )
    return payload


def cmd_run(args: argparse.Namespace) -> int:
    if not args.graph:
        raise CliError("invalid-input", "run needs --graph FILE")
    if args.pipeline in ("planar", "layered"):
        swf = _parse_frac(args.slab_width_factor, "slab-width-factor")
        if swf < 4:
            raise CliError("invalid-input", "--slab-width-factor must be at least 4, got %s" % cut_frac(swf))
        args.slab_width_factor = swf
    g = _load_graph(args.graph)
    try:
        if args.pipeline == "partition":
            extra = _run_partition(args, g)
        else:
            if not args.ell:
                raise CliError("invalid-input", "pipeline %s needs --ell" % args.pipeline)
            lf = _parse_scale(args.ell, "ell")
            if args.pipeline == "tw":
                extra = _run_tw(args, g, lf)
            elif args.pipeline == "planar":
                extra = _run_planar(args, g, lf)
            elif args.pipeline == "layered":
                extra = _run_layered(args, g, lf)
            elif args.pipeline == "verify":
                extra = _run_verify(args, g, lf)
            else:
                raise CliError("invalid-input", "unknown pipeline %r" % args.pipeline)
    except ContractViolation as exc:
        _emit(
            _report_payload(args, args.pipeline, {"ok": False, "failure": str(exc)}),
            args.out,
        )
        return EXIT_VERIFICATION
    except GraphError as exc:
        raise CliError("precondition-failed", str(exc))
    _emit(_report_payload(args, args.pipeline, extra), args.out)
    return EXIT_OK if extra.get("ok", False) else EXIT_VERIFICATION


# -- dilation ---------------------------------------------------------------------


def _scale_weights(g: WeightedGraph, factor: Fraction) -> WeightedGraph:
    return WeightedGraph(g.vertices, [(u, v, w * factor) for (u, v, w) in g.edges])


DEFAULT_SCALES = ["1/8", "1/4", "1/2", "1", "2", "4", "8", "16", "32", "64"]


def cmd_dilation(args: argparse.Namespace) -> int:
    if not args.graph:
        raise CliError("invalid-input", "dilation needs --graph FILE")
    g = _load_graph(args.graph)
    # a given --scales, the empty one included, is a list to parse
    texts = DEFAULT_SCALES if args.scales is None else args.scales.split(",")
    scales = [_parse_scale(s, "scales") for s in texts]

    def pipeline(gg: WeightedGraph, sf: Fraction):
        return color_bounded_treewidth(_scale_weights(gg, sf), sf).report

    rows = measure_dilation(pipeline, g, scales)
    ratios = {row.get("ratio") for row in rows if "ratio" in row}
    ok = all(row.get("ok", False) for row in rows) and len(ratios) <= 1
    _emit(
        {
            "schema": SCHEMA,
            "pipeline": "dilation",
            "seed": args.seed,
            "rows": rows,
            "scale_covariant": len(ratios) <= 1,
            "ok": ok,
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


# -- argument wiring -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wdcolor", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance with its certificates")
    gen.add_argument("family", choices=FAMILIES, help="instance family")
    gen.add_argument("--n", type=int, default=0, help="vertex count (all families but grid and the overlay)")
    gen.add_argument("--rows", type=int, default=0, help="grid rows")
    gen.add_argument("--cols", type=int, default=0, help="grid columns")
    gen.add_argument("--k", type=int, default=2, help="ktree width")
    gen.add_argument("--seed", type=int, default=0, help="PRNG seed; the same seed writes the same files")
    gen.add_argument("--weight-lo", default="1", help="smallest edge weight, a rational")
    gen.add_argument("--weight-hi", default="1", help="largest edge weight, a rational")
    gen.add_argument("--weight-den", type=int, default=1, help="weights are multiples of 1/DEN")
    gen.add_argument("--base", help="base graph file for the weight overlay")
    gen.add_argument("--out", help="output path prefix")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run a pipeline and write its report")
    run.add_argument("pipeline", choices=("tw", "planar", "layered", "partition", "verify"), help="pipeline to run")
    run.add_argument("--graph", help="edge-list file: one 'u v weight' line per edge")
    run.add_argument("--ell", help="scale of the power graph, a positive rational")
    run.add_argument("--r", help="separation scale of the partition pipeline")
    run.add_argument("--eps0", help="layer resolution of the layered pipeline")
    run.add_argument("--td", help="tree-decomposition JSON for tw (computed when absent)")
    run.add_argument("--rotation", help="rotation-system JSON for planar")
    run.add_argument("--layers", help="layering JSON for layered")
    run.add_argument("--coloring", help="coloring JSON for verify")
    run.add_argument("--bound", help="weak-diameter bound in hops for verify")
    run.add_argument("--seed", type=int, default=0, help="seed echoed in the report")
    run.add_argument("--out", help="also write the report to this file")
    run.add_argument("--slab-width-factor", default="8", help="slab width in units of ell, a rational of at least 4")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="shorthand for: run verify")
    ver.add_argument("--graph", help="edge-list file: one 'u v weight' line per edge")
    ver.add_argument("--ell", help="scale of the power graph, a positive rational")
    ver.add_argument("--coloring", help="coloring JSON to check")
    ver.add_argument("--bound", help="weak-diameter bound in hops")
    ver.add_argument("--seed", type=int, default=0, help="seed echoed in the report")
    ver.add_argument("--out", help="also write the report to this file")
    ver.set_defaults(func=cmd_run, pipeline="verify")

    dil = sub.add_parser("dilation", help="sweep the coloring across scales")
    dil.add_argument("--graph", help="edge-list file: one 'u v weight' line per edge")
    dil.add_argument("--scales", help="comma-separated rational scales")
    dil.add_argument("--seed", type=int, default=0, help="seed echoed in the report")
    dil.add_argument("--out", help="also write the report to this file")
    dil.set_defaults(func=cmd_dilation)
    return top


#: A negative value: a minus sign, then a digit or a point.  argparse takes
#: one that is not a plain number, such as -1/2, for an option.
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """Write '--bound -1/2' as '--bound=-1/2', so that a negative rational
    after its option reaches the value checks and their JSON error, not
    argparse's usage error.  Every long option but --help takes a value."""
    out: List[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev and prev not in ("--", "--help")
        if takes_value and _NEGATIVE_VALUE.match(arg):
            out[-1] = prev + "=" + arg
        else:
            out.append(arg)
    return out


#: The parser `main` builds on its first call and reuses.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except CliError as exc:
        return _fail(exc.code, str(exc), EXIT_INPUT)
    except ContractViolation as exc:
        return _fail("verification-failed", str(exc), EXIT_VERIFICATION)
    except GraphError as exc:
        return _fail("invalid-input", str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
