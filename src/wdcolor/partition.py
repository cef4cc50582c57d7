"""Colorings, monochromatic components, weak-diameter verification, and the
conversion from a power-graph coloring to a separated partition family.

Verification is never skipped: every converter re-checks the object it
returns and raises ContractViolation naming the offender when a claimed
bound fails.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from wdcolor.graph import (
    ContractViolation,
    GraphError,
    HopGraph,
    PowerGraph,
    Record,
    WeightedGraph,
    as_fraction,
    central_vertex,
    cut_frac,
    frac_str,
    metric_set_diameter,
    neighborhood,
    power_graph,
    power_graph_new_ids,
    set_diameter,
)


#: The zero metric of a report that measured nothing; Fractions are immutable, so one serves all.
_ZERO = Fraction(0)


class Coloring(Record):
    """Vertex -> color map with colors in 1..num_colors."""

    __slots__ = ("assignment", "num_colors")

    def __init__(self, assignment: Dict[int, int], num_colors: int) -> None:
        for v, c in assignment.items():
            if not 1 <= c <= num_colors:
                raise GraphError("color %s of vertex %s outside 1..%s" % (c, v, num_colors))
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "num_colors", num_colors)

    @property
    def domain(self) -> FrozenSet[int]:
        return frozenset(self.assignment)

    def color(self, v: int) -> int:
        return self.assignment[v]

    def restrict(self, keep: Iterable[int]) -> "Coloring":
        ks = set(keep)
        return Coloring({v: c for v, c in self.assignment.items() if v in ks}, self.num_colors)

    def filled(self, vertices: Iterable[int]) -> "Coloring":
        """This coloring on `vertices`, in sorted order, with color
        num_colors wherever it has none."""
        a = self.assignment
        return Coloring({v: a.get(v, self.num_colors) for v in sorted(vertices)}, self.num_colors)

    def union(self, other: "Coloring") -> "Coloring":
        """Union of two colorings; self wins on overlapping vertices."""
        merged = dict(other.assignment)
        merged.update(self.assignment)
        return Coloring(merged, max(self.num_colors, other.num_colors))

    @staticmethod
    def constant(vertices: Iterable[int], num_colors: int = 1, color: int = 1) -> "Coloring":
        return Coloring({v: color for v in vertices}, num_colors)

    @staticmethod
    def empty(num_colors: int = 1) -> "Coloring":
        return Coloring({}, num_colors)


class PartitionFamily(Record):
    """m collections of vertex sets with a separation scale and a diameter
    certificate: within one collection distinct sets sit at pairwise distance
    > r, and every set has weak diameter <= diameter_bound, both in the host
    graph the family was extracted from."""

    __slots__ = ("collections", "r", "diameter_bound")

    @property
    def num_collections(self) -> int:
        return len(self.collections)

    def to_json_dict(self) -> dict:
        return {
            "m": self.num_collections,
            "r": frac_str(self.r),
            "diameterBound": frac_str(self.diameter_bound),
            "collections": [
                [sorted(part) for part in coll] for coll in self.collections
            ],
        }


class ComponentStat(Record):
    __slots__ = ("size", "min_vertex", "hops", "metric")

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "minVertex": self.min_vertex,
            "hops": self.hops,
            "metric": frac_str(self.metric),
        }


class VerificationReport(Record):
    __slots__ = (
        "colors",
        "max_weak_diameter_hops",
        "max_weak_diameter_metric",
        "separation_ok",
        "bound",
        "ratio",
        "per_component",
        "ok",
    )

    def to_json_dict(self) -> dict:
        return {
            "colors": self.colors,
            "maxWeakDiameterHops": self.max_weak_diameter_hops,
            "maxWeakDiameterMetric": frac_str(self.max_weak_diameter_metric),
            "separationOk": self.separation_ok,
            "bound": frac_str(self.bound) if self.bound is not None else None,
            "ratio": frac_str(self.ratio),
            "ok": self.ok,
            "perComponent": [c.to_json_dict() for c in self.per_component],
        }


class ColorResult(Record):
    """A coloring, the bound it was verified at, and that verification."""

    __slots__ = ("coloring", "bound", "report")


def monochromatic_components(
    h: HopGraph,
    c: Coloring,
    within: Optional[Iterable[int]] = None,
    centres: Optional[List[int]] = None,
) -> List[Tuple[int, ...]]:
    """Components of the same-color subgraph of h, each sorted, listed by
    ascending minimum vertex.  `within` restricts the vertex pool.

    Each component is walked by a BFS from its least vertex.  centres: a
    list to which a central member of each component is appended, in the
    order of the components.  Only then does the walk keep the component's
    own same-colour adjacency, which graph.central_vertex sweeps, taking
    the walk as its first sweep.  A component of at most two
    members appends its least vertex."""
    vset = h.vertex_set()
    pool = vset if within is None else vset.intersection(within)
    colour = c.assignment
    missing = [v for v in pool if v not in colour]
    if missing:
        raise GraphError("vertices without a color: %s" % sorted(missing)[:5])
    # the pool split by colour: one membership test finds a same-colour neighbour
    classes: Dict[int, Set[int]] = {}
    for v in pool:
        classes.setdefault(colour[v], set()).add(v)
    # hops from the first vertex of the component, over same-colour edges
    seen: Dict[int, int] = {}
    out: List[Tuple[int, ...]] = []
    for v in sorted(pool):
        if v in seen:
            continue
        same_colour = classes[colour[v]]
        seen[v] = 0
        order = [v]
        inner: Optional[Dict[int, List[int]]] = None if centres is None else {}
        for x in order:
            d = seen[x] + 1
            same = [n for n in h.neighbors(x) if n in same_colour]
            if inner is not None:
                inner[x] = same
            for n in same:
                if n not in seen:
                    seen[n] = d
                    order.append(n)
        out.append(tuple(sorted(order)))
        if centres is not None:
            centres.append(central_vertex(inner, order, seen) if len(order) > 2 else v)
    return out


def verify_weak_diameter(
    g: WeightedGraph,
    ell: object,
    coloring: Coloring,
    restrict_to: Optional[Iterable[int]] = None,
    bound: object = None,
    power: Optional[PowerGraph] = None,
    exact: bool = True,
) -> VerificationReport:
    """Measure every monochromatic component of the scale-ell power graph.
    Hops are measured in the full power graph, exactly and once per
    component; the metric diameter is measured in the power graph's metric
    host (g itself when no edge of g is heavier than ell, the subdivided
    graph otherwise).  Both are graph.set_diameter, iFUB from a central
    member.  The component walk of monochromatic_components keeps each
    component's same-colour adjacency, and graph.central_vertex sweeps it
    for that member.  Hops inside the component are never fewer than hops
    in the power graph, so the sweeps only choose the centre: the hop
    diameter comes from searches of the whole power graph, the first one
    from the centre.

    Each power-graph hop joins two host vertices at metric distance at
    most ell, so two members H hops apart are at most ell*H apart in the
    host: with H the component's hop diameter, ell*H bounds every member's
    metric eccentricity.  That bound caps every metric search and seeds
    set_diameter, which searches an end of the farthest hop pair first;
    where the metric is ell times the hops, that search meets the bound
    and is the only one.  Otherwise the hop centre orders the rest.

    No metric search runs at all when the host is g itself, every edge of
    g weighs the same w and ell < 2w.  Then the power graph is g's own
    adjacency, so a hop is an edge of weight w, and hop distances are
    graph distances over w: the metric diameter is exactly w times the
    hops.  The metric searches that do run are graph.WeightedGraph._search:
    a BFS by levels when every edge of the host weighs the same, a heap
    Dijkstra otherwise.  They agree exactly, since with one weight the
    heap settles the vertices level by level and each level in vertex-id
    order, which is the order the BFS takes.

    restrict_to: only these vertices are grouped into components.
    bound: claimed weak-diameter bound in hops; ok=False if exceeded.
    exact: with exact=False and a bound no smaller than the host vertex
        count minus one, the bound holds for every connected component and
        the per-component measurement is skipped; the report then carries
        only what was measured (no stats, zero maxima).  The host vertex
        count is computed in O(E) from the weights, so a skipped check
        never builds the power graph.
    power: a prebuilt power_graph(g, ell) to measure in, for callers that
        have built it already; built here when needed.
    """
    lf = as_fraction(ell)
    bf: Optional[Fraction] = as_fraction(bound) if bound is not None else None
    # hop counts are integers: the floor of the bound is what they meet
    bound_hops = None if bf is None else bf.numerator // bf.denominator
    if not exact and bound_hops is not None:
        vset, new_ids = g.vertex_set(), power_graph_new_ids(g, lf)

        def in_host(v: int) -> bool:
            return v in vset or v in new_ids

        if bound_hops >= len(vset) + len(new_ids) - 1:
            # each component is connected inside the host, so its hop diameter
            # stays below the host vertex count and the bound holds unmeasured
            # by position, since every vacuous check returns here: nothing measured, no component listed
            colors = _colors_in_host(coloring, restrict_to, in_host)
            return VerificationReport(colors, 0, _ZERO, True, bf, _ZERO, (), True)
    p = power if power is not None else power_graph(g, lf)
    assignment = coloring.assignment
    pool = {v for v in (p.vertices if restrict_to is None else restrict_to) if v in assignment}
    centres: List[int] = []
    comps = monochromatic_components(p, coloring, within=pool, centres=centres)
    # every hop is one edge of g's single weight, g._step in units of 1/scale
    one_edge_hops = (
        p.metric is g and g._wrange is not None and g._step is not None and g._one_hop_per_edge(lf)
    )
    stats: List[ComponentStat] = []
    max_hops = 0
    max_metric = _ZERO
    for comp, centre in zip(comps, centres):
        members = set(comp)
        hops, end = set_diameter(comp, lambda u: p.hop_distances([u], targets=members), centre=centre)
        if one_edge_hops:
            metric = Fraction(g._step * hops, g._scale)
        else:
            metric = metric_set_diameter(p.metric, comp, lf * hops, proven=True, first=end, centre=centre)
        stats.append(ComponentStat(len(comp), comp[0], hops, metric))
        max_hops = max(max_hops, hops)
        max_metric = max(max_metric, metric)
    colors_used = len({coloring.color(v) for c in comps for v in c})
    ok = bf is None or max_hops <= bf
    return VerificationReport(colors_used, max_hops, max_metric, True, bf, max_metric / lf, tuple(stats), ok)


def _colors_in_host(
    coloring: Coloring,
    restrict_to: Optional[Iterable[int]],
    in_host: Callable[[int], bool],
) -> int:
    """Colours used on V(host) & restrict_to & domain."""
    assignment = coloring.assignment
    pool = assignment if restrict_to is None else set(restrict_to)
    return len({assignment[v] for v in pool if v in assignment and in_host(v)})


def check_weak_diameter(
    g: WeightedGraph,
    ell: object,
    coloring: Coloring,
    bound: object,
    what: str,
    restrict_to: Optional[Iterable[int]] = None,
    exact: bool = True,
    power: Optional[PowerGraph] = None,
) -> VerificationReport:
    """verify_weak_diameter that raises ContractViolation on failure."""
    report = verify_weak_diameter(
        g, ell, coloring, restrict_to=restrict_to, bound=bound, power=power, exact=exact
    )
    if not report.ok:
        raise ContractViolation(
            "%s: weak diameter %d hops exceeds claimed bound %s"
            % (what, report.max_weak_diameter_hops, frac_str(report.bound))
        )
    return report


def coloring_to_partition(
    g: WeightedGraph, r: object, coloring: Coloring, n_bound: object
) -> PartitionFamily:
    """Traces of monochromatic power-graph components on V(g), grouped by
    color: within one collection sets are > r separated and every set has
    weak diameter <= r * n_bound in (g, weights).  Both re-verified."""
    rf = as_fraction(r)
    nf = as_fraction(n_bound)
    p = power_graph(g, rf)
    if not p.vertex_set() <= coloring.domain:
        missing = sorted(p.vertex_set() - coloring.domain)
        raise GraphError("coloring must cover the power graph; missing %s" % missing[:5])
    comps = monochromatic_components(p, coloring)
    originals = g.vertex_set()
    by_color: Dict[int, List[FrozenSet[int]]] = {}
    for comp in comps:
        trace = frozenset(v for v in comp if v in originals)
        if trace:
            by_color.setdefault(coloring.color(comp[0]), []).append(trace)
    collections = tuple(
        tuple(sorted(by_color.get(i, []), key=lambda s: min(s)))
        for i in range(1, coloring.num_colors + 1)
    )
    diameter_bound = rf * nf
    fam = PartitionFamily(collections, rf, diameter_bound)
    verify_partition_family(g, fam)
    return fam


def verify_partition_family(g: WeightedGraph, fam: PartitionFamily) -> None:
    """Exhaustive separation and weak-diameter checks; raises on failure."""
    for ci, coll in enumerate(fam.collections, 1):
        owner: Dict[int, int] = {}
        for si, part in enumerate(coll):
            for v in part:
                if v in owner:
                    raise ContractViolation(
                        "collection %d: vertex %s in two sets" % (ci, v)
                    )
                owner[v] = si
        for si, part in enumerate(coll):
            near = sorted(v for v in neighborhood(g, part, fam.r) if owner.get(v, si) != si)
            if near:
                raise ContractViolation(
                    "collection %d: sets %d and %d within distance %s (vertex %s)"
                    % (ci, si, owner[near[0]], cut_frac(fam.r), near[0])
                )
        for si, part in enumerate(coll):
            # every search is capped at the bound, so a set wider than the
            # bound leaves some member out of reach of some search
            try:
                metric_set_diameter(g, sorted(part), radius=fam.diameter_bound)
            except ContractViolation as exc:
                raise ContractViolation(
                    "collection %d set %d: weak diameter exceeds %s (%s)"
                    % (ci, si, cut_frac(fam.diameter_bound), exc)
                ) from None


def measure_dilation(
    pipeline: Callable[[WeightedGraph, Fraction], VerificationReport],
    g: WeightedGraph,
    scales: Sequence[object],
) -> List[dict]:
    """Run a colorer across scales and tabulate the dilation diagnostic.

    Each row records colors, max weak diameter (hops and metric), and the
    ratio metric/ell; a row is flagged when its ratio exceeds every smaller
    scale's ratio (the dilation growing with scale)."""
    rows: List[dict] = []
    best_ratio: Optional[Fraction] = None
    for s in scales:
        sf = as_fraction(s)
        row: dict = {"ell": frac_str(sf)}
        try:
            report = pipeline(g, sf)
        except Exception as exc:  # recorded, not fatal
            row["error"] = "%s: %s" % (type(exc).__name__, exc)
            rows.append(row)
            continue
        row.update(
            colors=report.colors,
            maxWeakDiameterHops=report.max_weak_diameter_hops,
            maxWeakDiameterMetric=frac_str(report.max_weak_diameter_metric),
            ratio=frac_str(report.ratio),
            ok=report.ok,
        )
        row["anomaly"] = best_ratio is not None and report.ratio > best_ratio
        if best_ratio is None or report.ratio > best_ratio:
            best_ratio = report.ratio
        rows.append(row)
    return rows
