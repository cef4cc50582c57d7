"""Outside-in per-layer trace of wdcolor.

The library has no spans of its own, so the benchmark wraps the public
functions and methods named in LAYERS.  A function is replaced in every
wdcolor module namespace that binds it, because the modules import each
other's functions by name; a method is replaced on its class.  Each span
records calls and self time (its duration minus the time of the spans it
contains).  Wrapping must not change behaviour: the benchmark compares the
traced pass's reports byte for byte with the untraced pass.
"""

import functools
import inspect
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional

# (module, attribute path, metric prefix)
LAYERS = [
    ("graph", "power_graph", "graph.power_graph"),
    ("graph", "subdivision_graph", "graph.subdivision_graph"),
    ("graph", "WeightedGraph.__init__", "graph.WeightedGraph.init"),
    ("graph", "WeightedGraph.induced", "graph.WeightedGraph.induced"),
    ("graph", "WeightedGraph.distances_from", "graph.WeightedGraph.distances_from"),
    ("graph", "HopGraph.hop_distances", "graph.HopGraph.hop_distances"),
    ("graph", "parse_edge_list", "graph.parse_edge_list"),
    ("partition", "verify_weak_diameter", "partition.verify_weak_diameter"),
    ("partition", "monochromatic_components", "partition.monochromatic_components"),
    ("partition", "coloring_to_partition", "partition.coloring_to_partition"),
    ("partition", "verify_partition_family", "partition.verify_partition_family"),
    ("patching", "patch_colorings", "patching.patch_colorings"),
    ("patching", "centered_color", "patching.centered_color"),
    ("patching", "patch_bound", "patching.patch_bound"),
    ("treedec", "condense", "treedec.condense"),
    ("treedec", "lift_condensation_coloring", "treedec.lift_condensation_coloring"),
    ("treedec", "validate_td", "treedec.validate_td"),
    ("twcolor", "compute_tree_decomposition", "twcolor.compute_tree_decomposition"),
    ("twcolor", "color_bounded_treewidth", "twcolor.color_bounded_treewidth"),
    ("twcolor", "tree_extension_bound", "twcolor.tree_extension_bound"),
    ("geodesic", "bfs_geodesic_tree", "geodesic.bfs_geodesic_tree"),
    ("geodesic", "tripod_decomposition", "geodesic.tripod_decomposition"),
    ("geodesic", "GeodesicCertificate.verify", "geodesic.GeodesicCertificate.verify"),
    ("geodesic", "make_slabs", "geodesic.make_slabs"),
    ("geodesic", "layering_projection", "geodesic.layering_projection"),
    ("geodesic", "color_centered_bags", "geodesic.color_centered_bags"),
    ("geodesic", "ControlConstruction.validate", "geodesic.ControlConstruction.validate"),
    ("geodesic", "combine_slab_colorings", "geodesic.combine_slab_colorings"),
    ("geodesic", "color_planar", "geodesic.color_planar"),
    ("geodesic", "color_layered", "geodesic.color_layered"),
    ("generators", "rotation_from_json", "generators.rotation_from_json"),
    ("generators", "layering_from_json", "generators.layering_from_json"),
    ("cli", "main", "cli.main"),
]

# counters recorded next to the spans: (metric name, unit, better)
EXTRAS = [
    ("graph.power_graph.vertices", "count", "lower"),
    ("graph.WeightedGraph.init.edges", "count", "lower"),
    ("partition.verify_weak_diameter.vacuous_frac", "ratio", "lower"),
    ("partition.verify_weak_diameter.skipped", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
]


def per_layer_metric_names() -> List[tuple]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for (_, _, prefix) in LAYERS:
        out.append((prefix + ".calls", "count", "lower"))
        out.append((prefix + ".self_s", "s", "lower"))
    return out + EXTRAS


class Tracer:
    """Span recorder: `install` patches wdcolor, `snapshot` reads it out."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {p: 0 for (_, _, p) in LAYERS}
        self.self_s: Dict[str, float] = {p: 0.0 for (_, _, p) in LAYERS}
        self.counts: Dict[str, int] = {
            "power_graph.vertices": 0, "init.edges": 0, "verify.vacuous": 0, "verify.skipped": 0,
        }
        # child time of each open span, innermost last
        self._open: List[List[float]] = []

    def _charge_bookkeeping(self, seconds: float) -> None:
        # time spent on extras is removed from the enclosing span's self time
        if self._open:
            self._open[-1][0] += seconds

    def _wrap(self, prefix: str, fn: Callable, before=None, after=None) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                b0 = clock()
                before(args, kwargs)
                self._charge_bookkeeping(clock() - b0)
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[prefix] += 1
                self_s[prefix] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                a0 = clock()
                after(args, result)
                self._charge_bookkeeping(clock() - a0)
            return result

        return functools.wraps(fn)(span)

    def _hooks(self, prefix: str, fn: Callable):
        counts = self.counts
        if prefix == "graph.power_graph":
            def after(args, result):
                counts["power_graph.vertices"] += len(result.vertices)
            return None, after
        if prefix == "graph.WeightedGraph.init":
            def after(args, result):
                counts["init.edges"] += len(args[0].edges)
            return None, after
        if prefix == "partition.verify_weak_diameter":
            sig = inspect.signature(fn)
            from wdcolor.graph import as_fraction

            def before(args, kwargs):
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                a = call.arguments
                if a["bound"] is None:
                    return
                if int(as_fraction(a["bound"])) >= _host_size(a["g"], as_fraction(a["ell"]), a["power"]) - 1:
                    counts["verify.vacuous"] += 1
                    if not a["exact"]:
                        counts["verify.skipped"] += 1
            return before, None
        return None, None

    def install(self) -> None:
        """Patch every layer in every loaded wdcolor module namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "wdcolor" or name.startswith("wdcolor."))]
        for (mod, path, prefix) in LAYERS:
            owner = sys.modules["wdcolor." + mod]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            before, after = self._hooks(prefix, original)
            wrapped = self._wrap(prefix, original, before, after)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}


def layer_metrics(snap: dict, traced_wall: float, overhead_frac: float, scale: float) -> Dict[str, float]:
    """Per-layer metrics from a traced pass's snapshot.  Self times are
    multiplied by `scale`, the pass's speed-probe factor."""
    out: Dict[str, float] = {}
    for (_, _, prefix) in LAYERS:
        out[prefix + ".calls"] = snap["calls"][prefix]
        out[prefix + ".self_s"] = snap["self_s"][prefix] * scale
    counts = snap["counts"]
    verifies = snap["calls"]["partition.verify_weak_diameter"]
    out["graph.power_graph.vertices"] = counts["power_graph.vertices"]
    out["graph.WeightedGraph.init.edges"] = counts["init.edges"]
    out["partition.verify_weak_diameter.vacuous_frac"] = counts["verify.vacuous"] / verifies if verifies else 0.0
    out["partition.verify_weak_diameter.skipped"] = counts["verify.skipped"]
    out["trace.overhead_frac"] = overhead_frac
    # the share of the traced pass inside no layer below the CLI
    attributed = sum(v for k, v in snap["self_s"].items() if k != "cli.main")
    out["trace.unattributed_frac"] = (traced_wall - attributed) / traced_wall
    return out


def _host_size(g, ell: Fraction, power: Optional[object]) -> int:
    """Vertex count of the scale-ell power graph of g: each edge becomes two
    paths with ceil(w/ell) - 1 inner vertices each."""
    if power is not None:
        return len(power.vertices)
    inner = 0
    for (_, _, w) in g.edges:
        if w > ell:
            inner += 2 * (-((-w) // ell) - 1)
    return len(g.vertices) + inner
