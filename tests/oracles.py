"""Independent brute-force oracles used to freeze expected values.

Most of this is deliberately written against networkx or plain dicts,
not against the library under test, so the two sides can disagree.  The
rest are copies of library code from before a rewrite, kept so that tests
can require the rewritten code to give the same results.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from wdcolor.graph import INF, ContractViolation, WeightedGraph, frac_str


def to_networkx(g: WeightedGraph) -> nx.MultiGraph:
    m = nx.MultiGraph()
    m.add_nodes_from(g.vertices)
    for (u, v, w) in g.edges:
        m.add_edge(u, v, weight=w)
    return m


def all_pairs_distances(g: WeightedGraph) -> Dict[Tuple[int, int], object]:
    """Exact all-pairs distances via networkx Dijkstra; INF where unreachable."""
    m = to_networkx(g)
    out: Dict[Tuple[int, int], object] = {}
    lengths = dict(nx.all_pairs_dijkstra_path_length(m, weight="weight"))
    for u in g.vertices:
        du = lengths.get(u, {})
        for v in g.vertices:
            out[(u, v)] = du.get(v, INF)
    return out


def brute_power_edges(g: WeightedGraph, ell: Fraction) -> Set[Tuple[int, int]]:
    """Power-graph edge set computed from scratch: subdivide by hand, then
    threshold exact all-pairs distances."""
    sub = brute_subdivide(g, ell)
    dist = all_pairs_distances(sub)
    edges: Set[Tuple[int, int]] = set()
    for (u, v) in combinations(sub.vertices, 2):
        d = dist[(u, v)]
        if d is not INF and d <= ell:
            edges.add((u, v))
    return edges


def brute_subdivide(g: WeightedGraph, r: Fraction) -> WeightedGraph:
    """Independent subdivision: two paths per edge, small weight at the
    designated end, remaining edges of weight r."""
    verts = list(g.vertices)
    nid = max(g.vertices) + 1 if g.vertices else 0
    edges: List[Tuple[int, int, Fraction]] = []
    for (u, v, w) in g.edges:
        k = -((-w.numerator * r.denominator) // (w.denominator * r.numerator))
        first = w - r * (k - 1)
        for (a, b) in ((u, v), (v, u)):
            prev = a
            wt = first
            for _ in range(k - 1):
                verts.append(nid)
                edges.append((prev, nid, wt))
                prev = nid
                nid += 1
                wt = r
            edges.append((prev, b, wt))
    return WeightedGraph(verts, edges)


def brute_weak_diameter(g: WeightedGraph, s: Iterable[int]) -> object:
    ss = sorted(set(s))
    if len(ss) <= 1:
        return Fraction(0)
    dist = all_pairs_distances(g)
    best: object = Fraction(0)
    for (u, v) in combinations(ss, 2):
        d = dist[(u, v)]
        if d is INF:
            return INF
        if d > best:
            best = d
    return best


def brute_hop_components(
    vertices: Iterable[int],
    edges: Iterable[Tuple[int, int]],
    keep: Optional[Set[int]] = None,
) -> List[Tuple[int, ...]]:
    """Components of a simple graph via union-find, optionally induced."""
    vs = [v for v in vertices if keep is None or v in keep]
    parent = {v: v for v in vs}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in edges:
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups: Dict[int, List[int]] = {}
    for v in vs:
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(c)) for c in groups.values()), key=lambda c: c[0])


def brute_hop_diameter(
    vertices: Iterable[int], edges: Iterable[Tuple[int, int]], s: Iterable[int]
) -> object:
    """Max pairwise hop distance within s, measured in the full simple graph."""
    m = nx.Graph()
    m.add_nodes_from(vertices)
    m.add_edges_from(edges)
    ss = sorted(set(s))
    best = 0
    for (u, v) in combinations(ss, 2):
        try:
            d = nx.shortest_path_length(m, u, v)
        except nx.NetworkXNoPath:
            return INF
        best = max(best, d)
    return best


def brute_chain_level(
    g: WeightedGraph,
    part: Set[int],
    ground: Iterable[int],
    eps: Fraction,
    i: int,
) -> Tuple[Tuple[int, ...], ...]:
    """Level-i partition of ground, from scratch: inside the induced part,
    keep vertices within i*eps of ground and edges of weight at most i*eps,
    take components, trace onto ground."""
    gs = sorted(set(ground))
    m = nx.MultiGraph()
    m.add_nodes_from(v for v in g.vertices if v in part)
    for (u, v, w) in g.edges:
        if u in part and v in part:
            m.add_edge(u, v, weight=w)
    dist = nx.multi_source_dijkstra_path_length(m, set(gs), weight="weight") if gs else {}
    limit = eps * i
    allowed = {v for v, d in dist.items() if d <= limit}
    h = nx.Graph()
    h.add_nodes_from(allowed)
    for (u, v, data) in m.edges(data=True):
        if u in allowed and v in allowed and data["weight"] <= limit:
            h.add_edge(u, v)
    comp_of = {}
    for idx, comp in enumerate(nx.connected_components(h)):
        for v in comp:
            comp_of[v] = idx
    groups: Dict[int, List[int]] = {}
    for x in gs:
        groups.setdefault(comp_of[x], []).append(x)
    return tuple(sorted((tuple(sorted(s)) for s in groups.values()), key=lambda s: s[0]))


def lift_zones(cond) -> Dict[int, int]:
    """Zone of each vertex a condensation lift reaches: for every frontier
    edge with a nonempty adhesion, the vertices of its part within 3*ell of
    the adhesion, inside the part, get zone max(1, ceil(d / ell)); a vertex
    reached from two edges keeps the smaller zone."""
    import math

    zones: Dict[int, int] = {}
    for e in cond.u_e:
        x_e = cond.td.adhesion_of(e)
        if not x_e:
            continue
        part = set(cond.td.subtree_vertices(e))
        m = nx.MultiGraph()
        m.add_nodes_from(part)
        for (u, v, w) in cond.g.edges:
            if u in part and v in part:
                m.add_edge(u, v, weight=w)
        dist = nx.multi_source_dijkstra_path_length(m, set(x_e), weight="weight")
        for v, d in dist.items():
            if d <= 3 * cond.ell:
                zone = max(1, math.ceil(d / cond.ell))
                zones[v] = min(zones.get(v, zone), zone)
    return zones


def check_quasi_isometry(g: WeightedGraph, cond) -> None:
    """Exhaustive distance comparison between the graph and its condensation
    on the shared vertices: short distances never grow, and condensed
    distances stretch back by at most 4*(3*theta+1)*(theta+mu/ell).  Meant
    for small instances."""
    shared = sorted(cond.base_vertices & g.vertex_set())
    lift_factor = 4 * (3 * cond.theta + 1) * (cond.theta + cond.mu / cond.ell)
    horizon = 3 * cond.ell + cond.mu
    for x in shared:
        dg = g.distances_from([x])
        d0 = cond.g0.distances_from([x])
        for y in shared:
            if y <= x:
                continue
            a, b = dg.get(y), d0.get(y)
            if a is not None and a <= horizon:
                if b is None or b > a:
                    raise ContractViolation(
                        "distance (%s,%s): %s in the graph but %s condensed"
                        % (x, y, frac_str(a), "inf" if b is None else frac_str(b))
                    )
            if b is not None:
                if a is None or a > lift_factor * b:
                    raise ContractViolation(
                        "distance (%s,%s): %s condensed lifts beyond factor %s"
                        % (x, y, frac_str(b), frac_str(lift_factor))
                    )


def window_segments(
    nodes: Iterable[int],
    paths: Dict[int, Tuple[Tuple[int, ...], ...]],
    wset: Set[int],
) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
    """Per node, the window slices of its certified paths, rescanning every
    path of every node.  With `restrict_tripods`, the reference for
    `tripods._restrict_tripods`."""
    segs: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
    for t in nodes:
        out: List[Tuple[int, ...]] = []
        for path in paths[t]:
            idx = [i for i, v in enumerate(path) if v in wset]
            if not idx:
                continue
            if idx[-1] - idx[0] != len(idx) - 1:
                raise ValueError("a path's window slice is not contiguous")
            out.append(tuple(path[idx[0]:idx[-1] + 1]))
        segs[t] = tuple(out)
    return segs


def restrict_tripods(
    nodes: Iterable[int],
    tree_edges: Iterable[Tuple[int, int]],
    root: int,
    window_segs: Dict[int, Tuple[Tuple[int, ...], ...]],
    keep: Set[int],
) -> Tuple[Dict[int, frozenset], List[Tuple[int, int]], int, Dict[int, Tuple[int, ...]]]:
    """With `window_segments`, the reference for `tripods._restrict_tripods`,
    node by node and slice by slice: keep the slices inside `keep`, contract
    every node whose bag sits inside a neighbour's, and return the surviving
    bags, the tree edges in breadth-first order from the surviving root,
    that root, and each node's centres (the top of each kept slice)."""
    segs: Dict[int, List[Tuple[int, ...]]] = {}
    bags: Dict[int, frozenset] = {}
    for t in nodes:
        out: List[Tuple[int, ...]] = []
        for sl in window_segs[t]:
            if sl[0] not in keep:
                if any(v in keep for v in sl):
                    raise ValueError("a window slice straddles two window components")
                continue
            if not all(v in keep for v in sl):
                raise ValueError("a window slice straddles two window components")
            out.append(sl)
        segs[t] = out
        bags[t] = frozenset(v for s in out for v in s)
    alive = set(bags)
    adj: Dict[int, Set[int]] = {t: set() for t in alive}
    for (p, ch) in tree_edges:
        adj[p].add(ch)
        adj[ch].add(p)
    work = list(tree_edges)
    while work:
        a, b = work.pop()
        if a not in alive or b not in alive or b not in adj[a]:
            continue
        if bags[a] <= bags[b]:
            a, b = b, a
        if not bags[b] <= bags[a]:
            continue
        adj[a].discard(b)
        for n in adj[b]:
            adj[n].discard(b)
            if n != a:
                adj[n].add(a)
                adj[a].add(n)
                work.append((a, n))
        alive.discard(b)
        if root == b:
            root = a
    seen = {root}
    edges: List[Tuple[int, int]] = []
    queue = [root]
    for t in queue:
        for n in sorted(adj[t]):
            if n not in seen:
                seen.add(n)
                edges.append((t, n))
                queue.append(n)
    if seen != alive:
        raise ValueError("slab restriction disconnected the decomposition")
    centers = {t: tuple(sorted({s[-1] for s in segs[t]})) for t in alive}
    return {t: bags[t] for t in alive}, edges, root, centers


# -- the adhesion recursion, copied before its rewrite -------------------------
#
# Reference for `twcolor.color_bounded_treewidth` and
# `twcolor.color_adhesion_construction`: the recursion as it stood when each
# level copied its far parts (`induced`), rebuilt their decompositions and
# merged one colouring per part.  It calls the library's condensation,
# lift, patch and check functions, whose results the rewrite keeps, so the
# two sides must return the same colouring and bound.

from dataclasses import dataclass  # noqa: E402
from typing import FrozenSet, Sequence  # noqa: E402

from wdcolor.graph import GraphError, as_fraction, frac_str, neighborhood, require_light_edges  # noqa: E402
from wdcolor.partition import Coloring, ContractViolation, check_weak_diameter  # noqa: E402
from wdcolor.patching import CenterCertificate, centered_color, patch_bound, patch_colorings  # noqa: E402
from wdcolor.treedec import (  # noqa: E402
    RootedTreeDecomposition,
    ball_region,
    condense,
    lift_condensation_coloring,
)
from wdcolor.twcolor import (  # noqa: E402
    AdhesionConstruction,
    _exact_order,
    _simple_adjacency,
    compute_tree_decomposition,
    cover_piece_bound,
    tree_extension_bound,
)


def reference_reroot(td: RootedTreeDecomposition, new_root: int) -> RootedTreeDecomposition:
    """The same tree rooted at another of its nodes, rebuilt through the
    constructor."""
    if new_root not in td.bags:
        raise GraphError("unknown node %s" % (new_root,))
    return RootedTreeDecomposition(dict(td.bags), list(td.tree_edges), new_root)


def reference_subdivide_edge(td: RootedTreeDecomposition, e, new_node: int, bag) -> RootedTreeDecomposition:
    """The tree edge e = (p, c) replaced by (p, new_node) and (new_node, c),
    with new_node holding `bag`, rebuilt through the constructor."""
    p, c = td.check_edge(e)
    if new_node in td.bags:
        raise GraphError("node id %s already used" % (new_node,))
    bags = dict(td.bags)
    bags[new_node] = frozenset(bag)
    edges = [(a, b) for (a, b) in td.tree_edges if (a, b) != (p, c)]
    edges += [(p, new_node), (new_node, c)]
    return RootedTreeDecomposition(bags, edges, td.root)


def reference_rerooted(td: RootedTreeDecomposition, top: int, bag, at) -> RootedTreeDecomposition:
    """RootedTreeDecomposition.rerooted through the constructor: `top`
    subdivides the tree edge `at`, or hangs on the node `at`, and is the
    root."""
    if isinstance(at, tuple):
        return reference_reroot(reference_subdivide_edge(td, at, top, bag), top)
    if top in td.bags:
        raise GraphError("node id %s already used" % (top,))
    if at not in td.bags:
        raise GraphError("unknown node %s" % (at,))
    bags = dict(td.bags)
    bags[top] = frozenset(bag)
    return RootedTreeDecomposition(bags, list(td.tree_edges) + [(top, at)], top)


@dataclass
class _Ctx:
    lf: Fraction
    theta: int
    piece_bound: Fraction
    deep: bool


def reference_far_side_decomposition(
    td0: RootedTreeDecomposition, z0: FrozenSet[int], top: Optional[int], what: str
) -> RootedTreeDecomposition:
    """The condensed far side's decomposition as the adhesion engine built
    it before it derived the tree from td0's: td0's bags minus z0 and, with
    a fresh id `top`, one far vertex pulled up to a new root `top`, all
    through the RootedTreeDecomposition constructor."""
    bags00 = {t: b - z0 for t, b in td0.bags.items()}
    edges00 = list(td0.tree_edges)
    root00 = td0.root
    if top is not None:
        # pull one far vertex up to a fresh root; all bags strictly
        # between the root and its holder are empty, so adhesions stay 1
        dist0 = {td0.root: 0}
        frontier = [td0.root]
        t_far: Optional[int] = None
        while frontier and t_far is None:
            hits = [t for t in frontier if bags00[t]]
            if hits:
                t_far = min(hits)
                break
            step: List[int] = []
            for t in frontier:
                for ch in td0.children[t]:
                    if ch not in dist0:
                        dist0[ch] = dist0[t] + 1
                        step.append(ch)
            frontier = sorted(step)
        if t_far is None:
            raise ContractViolation("%s: no far vertex found outside the ball" % what)
        v0 = min(bags00[t_far])
        t = td0.parent[t_far]
        while t is not None:
            if bags00[t]:
                raise ContractViolation(
                    "%s: nonempty bag strictly between root and its far holder" % what
                )
            bags00[t] = frozenset({v0})
            t = td0.parent[t]
        root00 = top
        bags00[root00] = frozenset({v0})
        edges00.append((root00, td0.root))
    return RootedTreeDecomposition(bags00, edges00, root00)


def _paint_piece(ctx: _Ctx, h: WeightedGraph, what: str) -> Coloring:
    c = Coloring.constant(h.vertex_set(), 2)
    check_weak_diameter(h, ctx.lf, c, bound=ctx.piece_bound, what=what, exact=False)
    return c


def _merge_disjoint(parts: Iterable[Coloring], what: str) -> Coloring:
    out: Dict[int, int] = {}
    for part in parts:
        for v, col in part.assignment.items():
            if out.get(v, col) != col:
                raise ContractViolation("%s: colorings disagree on vertex %s" % (what, v))
            out[v] = col
    return Coloring(out, 2)


def _color_rec(
    ctx: _Ctx,
    g: WeightedGraph,
    td: RootedTreeDecomposition,
    eta: int,
    zset: FrozenSet[int],
    c: Coloring,
    parent_measure: Optional[Tuple[int, int]],
    what: str,
) -> Coloring:
    lf = ctx.lf
    AdhesionConstruction(td, eta, ctx.theta, ctx.piece_bound).validate(g, full=ctx.deep)
    if zset - g.vertex_set():
        raise GraphError("%s: precolored vertices outside the graph" % what)
    if c.domain != zset:
        raise GraphError("%s: precoloring domain differs from the precolored set" % what)
    root_bag = td.bags[td.root]
    ball = frozenset(neighborhood(g, root_bag, 3 * lf))
    if zset - ball:
        raise ContractViolation(
            "%s: precolored set reaches beyond distance 3*ell of the root bag" % what
        )
    measure = (eta, len(td) + (len(g) - len(zset)) + len(g))
    if parent_measure is not None and not measure < parent_measure:
        raise ContractViolation(
            "%s: recursion measure did not decrease (%s -> %s)"
            % (what, parent_measure, measure)
        )
    bound = tree_extension_bound(eta, ctx.theta, lf, ctx.piece_bound)

    # everything already precolored: the root bag centers the whole graph
    if zset == g.vertex_set():
        cert = CenterCertificate.build(g, sorted(root_bag), 3 * lf, sorted(zset), ctx.theta)
        centered_color(g, lf, (), cert, coloring=c, what=what + ": fully precolored", exact=False)
        return c

    if eta == 0:
        return _color_flat(ctx, g, td, zset, c, bound, what)

    comps = g.connected_components()
    if len(comps) != 1:
        return _color_split(ctx, g, td, eta, zset, c, measure, comps, what)

    # saturate the precolored set to the full ball around the root bag
    z0 = ball
    c_sat = c.filled(z0)
    if z0 == g.vertex_set():
        cert = CenterCertificate.build(g, sorted(root_bag), 3 * lf, sorted(z0), ctx.theta)
        centered_color(g, lf, (), cert, coloring=c_sat, what=what + ": saturated ball", exact=False)
        return c_sat

    # the tree region whose bags meet the ball, and the frontier leaving it
    _, u_e = ball_region(td, z0, what)
    cond = condense(g, td, u_e, u_e, lf, ctx.theta, 0)
    g0, td0 = cond.g0, cond.td0
    if z0 - g0.vertex_set():
        raise ContractViolation("%s: ball leaks out of the condensed graph" % what)

    # color the condensed graph beyond the ball one guard level down
    n_prev = tree_extension_bound(eta - 1, ctx.theta, lf, ctx.piece_bound)
    rest0 = g0.vertex_set() - z0
    fresh_node = max(td.nodes) + 1
    if rest0:
        top = None
        if eta - 1 >= 1:
            top = fresh_node
            fresh_node += 1
        td00 = reference_far_side_decomposition(td0, z0, top, what)
        c0_rest = _color_rec(
            ctx,
            g0.without(z0),
            td00,
            eta - 1,
            frozenset(),
            Coloring.empty(2),
            measure,
            what + ": condensed far side",
        )
    else:
        c0_rest = Coloring.empty(2)

    # glue the saturated ball colors over the condensed coloring
    cert0 = CenterCertificate.build(g0, sorted(root_bag), 3 * lf, sorted(z0), ctx.theta)
    mr = patch_colorings(
        g0, lf, cert0, (), c_sat, c0_rest,
        n_claimed=n_prev, what=what + ": ball patch", exact=False,
    )

    # lift the condensed coloring back to the graph around the region
    lift_claim = patch_bound(ctx.theta, 3 * lf, lf, n_prev)
    if mr.bound != lift_claim:
        raise ContractViolation("%s: patch bound bookkeeping drifted" % what)
    lr = lift_condensation_coloring(cond, mr, what=what + ": lift", exact=False)
    if lr.bound != bound:
        raise ContractViolation(
            "%s: lift bound %s differs from the level bound %s"
            % (what, frac_str(lr.bound), frac_str(bound))
        )
    c3 = lr.coloring

    # recurse into each far part with the lifted boundary colors
    parts_out: List[Coloring] = []
    for e in u_e:
        part = td.subtree_vertices(e)
        x_e = td.adhesion_of(e)
        if not x_e:
            if part:
                raise ContractViolation(
                    "%s: empty shared set on a populated part of a connected graph" % what
                )
            continue
        g_e = g.induced(part)
        z_e = frozenset(neighborhood(g_e, x_e, 3 * lf))
        missing = z_e - c3.domain
        if missing:
            raise ContractViolation(
                "%s: lift left part vertices uncolored: %s" % (what, sorted(missing)[:5])
            )
        c_e = Coloring({v: c3.color(v) for v in z_e}, 2)
        if len(x_e) > eta:
            # oversized shared set: the part is one childless bag, any
            # completion has components of at most |part| vertices
            part_limit = ctx.theta + ctx.theta * ctx.theta
            if len(part) > part_limit:
                raise ContractViolation(
                    "%s: oversized-adhesion part has %d > theta + theta**2 = %d vertices"
                    % (what, len(part), part_limit)
                )
            c_e_full = c_e.filled(part)
            check_weak_diameter(
                g_e, lf, c_e_full,
                bound=Fraction(part_limit),
                what=what + ": oversized part",
                exact=False,
            )
            parts_out.append(c_e_full)
            continue
        sub_nodes = td.subtree_nodes(e)
        bags_e: Dict[int, FrozenSet[int]] = {t: td.bags[t] for t in sub_nodes}
        bags_e[fresh_node] = x_e
        keep_e = set(sub_nodes)
        edges_e = [(p, ch) for (p, ch) in td.tree_edges if p in keep_e and ch in keep_e]
        edges_e.append((fresh_node, e[1]))
        td_e = RootedTreeDecomposition(bags_e, edges_e, fresh_node)
        fresh_node += 1
        sub = _color_rec(ctx, g_e, td_e, eta, z_e, c_e, measure, what + ": far part")
        parts_out.append(sub)

    keep0 = cond.base_vertices & g.vertex_set()
    out = _merge_disjoint([c3.restrict(keep0)] + parts_out, what)
    if out.domain != g.vertex_set():
        raise ContractViolation("%s: assembled coloring misses vertices" % what)
    for v in sorted(zset):
        if out.color(v) != c.color(v):
            raise ContractViolation("%s: precolored vertex %s was recolored" % (what, v))
    if ctx.deep:
        check_weak_diameter(g, lf, out, bound=bound, what=what + ": assembled", exact=False)
    return out


def _color_flat(
    ctx: _Ctx,
    g: WeightedGraph,
    td: RootedTreeDecomposition,
    zset: FrozenSet[int],
    c: Coloring,
    bound: Fraction,
    what: str,
) -> Coloring:
    """No guard levels left: empty-adhesion tree edges split the tree into
    stars whose vertex sets are pairwise disconnected; color each star piece
    with one constant color, patching the precolored ball into the root piece."""
    lf = ctx.lf
    tops = [
        t
        for t in td.nodes
        if td.parent[t] is None or not td.adhesion_of((td.parent[t], t))
    ]
    pieces: List[Coloring] = []
    seen: Set[int] = set()
    for top in sorted(tops):
        members = [top] + [ch for ch in td.children[top] if td.adhesion_of((top, ch))]
        verts = td.bag_union(members)
        if verts & seen:
            raise ContractViolation("%s: star pieces share vertices" % what)
        seen |= verts
        if zset & verts:
            if td.root not in members:
                raise ContractViolation(
                    "%s: precolored vertices in a piece away from the root" % what
                )
            h = g.induced(verts)
            cp = _paint_piece(ctx, g.induced(verts - zset), what + ": root piece")
            cert = CenterCertificate.build(
                h, sorted(td.bags[td.root]), 3 * lf, sorted(zset), ctx.theta
            )
            mr = patch_colorings(
                h, lf, cert, (), c, cp,
                n_claimed=ctx.piece_bound,
                what=what + ": root piece patch",
                exact=False,
            )
            pieces.append(mr.coloring)
        else:
            pieces.append(_paint_piece(ctx, g.induced(verts), what + ": piece"))
    out = _merge_disjoint(pieces, what)
    if out.domain != g.vertex_set():
        raise ContractViolation("%s: star pieces miss vertices" % what)
    if ctx.deep:
        check_weak_diameter(g, lf, out, bound=bound, what=what + ": assembled", exact=False)
    return out


def _color_split(
    ctx: _Ctx,
    g: WeightedGraph,
    td: RootedTreeDecomposition,
    eta: int,
    zset: FrozenSet[int],
    c: Coloring,
    measure: Tuple[int, int],
    comps: Sequence[Tuple[int, ...]],
    what: str,
) -> Coloring:
    """Color each connected component under its own restricted decomposition,
    adding a one-vertex root bag to components the root bag does not meet."""
    pieces: List[Coloring] = []
    fresh_node = max(td.nodes) + 1
    for comp in comps:
        cs = frozenset(comp)
        td_c = reference_component_decomposition(td, cs, what)
        g_c = g.induced(cs)
        z_c = zset & cs
        if td.root not in td_c.bags:
            if z_c:
                raise ContractViolation(
                    "%s: precolored vertices in a component away from the root" % what
                )
            bags_c = dict(td_c.bags)
            bags_c[fresh_node] = frozenset({min(td_c.bags[td_c.root])})
            edges_c = list(td_c.tree_edges) + [(fresh_node, td_c.root)]
            td_c = RootedTreeDecomposition(bags_c, edges_c, fresh_node)
            fresh_node += 1
        pieces.append(
            _color_rec(
                ctx, g_c, td_c, eta, z_c, c.restrict(z_c), measure, what + ": component"
            )
        )
    out = _merge_disjoint(pieces, what)
    if out.domain != g.vertex_set():
        raise ContractViolation("%s: component colorings miss vertices" % what)
    return out


def reference_color_adhesion_construction(g, ell, con, z=(), precoloring=None):
    """(coloring, bound) of the copied recursion on a validated construction."""
    lf = as_fraction(ell)
    require_light_edges(g, lf)
    zf = frozenset(z)
    if precoloring is None:
        precoloring = Coloring.constant(zf)
    con.validate(g)
    ctx = _Ctx(lf, con.theta, con.piece_bound, False)
    out = _color_rec(
        ctx, g, con.td, con.eta, zf, Coloring(dict(precoloring.assignment), 2),
        None, "adhesion coloring",
    )
    return out, tree_extension_bound(con.eta, con.theta, lf, con.piece_bound)


def reference_color_bounded_treewidth(g, ell, td=None):
    """(coloring, bound) of the copied recursion, one component at a time."""
    lf = as_fraction(ell)
    require_light_edges(g, lf)
    if td is None:
        td = compute_tree_decomposition(g)
    theta = max(td.width, 0) + 1
    piece_bound = cover_piece_bound(theta, lf)
    ctx = _Ctx(lf, theta, piece_bound, False)
    pieces: List[Coloring] = []
    fresh_node = max(td.nodes) + 1
    for comp in g.connected_components():
        td_c = reference_component_decomposition(td, comp, "treewidth coloring")
        g_c = g.induced(comp)
        if len(td_c) == 1:
            pieces.append(_paint_piece(ctx, g_c, "treewidth coloring: single bag"))
            continue
        e0 = min(td_c.tree_edges)
        x0 = td_c.adhesion_of(e0)
        td_c = reference_reroot(reference_subdivide_edge(td_c, e0, fresh_node, x0), fresh_node)
        fresh_node += 1
        pieces.append(
            _color_rec(
                ctx, g_c, td_c, theta, frozenset(), Coloring.empty(2),
                None, "treewidth coloring: component",
            )
        )
    out = _merge_disjoint(pieces, "treewidth coloring")
    return out, tree_extension_bound(theta, theta, lf, piece_bound)


# -- min-fill, copied before fill counts were kept -------------------------------
#
# Reference for `twcolor._min_fill_order`: the lazy heap as it stood when
# every vertex within two steps of an eliminated one had its fill recounted
# from scratch.  The keys are the same (fill, degree, id), so the two sides
# must give the same order.

import heapq  # noqa: E402


def _reference_eliminate_in_place(work: Dict[int, Set[int]], v: int) -> Set[int]:
    ns = work.pop(v)
    for a in ns:
        nbrs = work[a]
        nbrs.discard(v)
        nbrs |= ns
        nbrs.discard(a)
    return ns


def _reference_fill_key(work: Dict[int, Set[int]], v: int) -> Tuple[int, int, int]:
    ns = sorted(work[v])
    fill = sum(1 for i, a in enumerate(ns) for b in ns[i + 1:] if b not in work[a])
    return (fill, len(ns), v)


def reference_min_fill_order(adj: Dict[int, Set[int]]) -> List[int]:
    """Repeatedly eliminate the vertex of least (fill, degree, id).  Keys
    sit in a lazy heap; eliminating v changes only the keys of N(v) and of
    their neighbours, so only those are recomputed."""
    work = {v: set(ns) for v, ns in adj.items()}
    key = {v: _reference_fill_key(work, v) for v in work}
    heap = list(key.values())
    heapq.heapify(heap)
    order: List[int] = []
    while work:
        k = heapq.heappop(heap)
        v = k[2]
        if key.get(v) != k:
            continue
        del key[v]
        order.append(v)
        ns = _reference_eliminate_in_place(work, v)
        stale = set(ns)
        for a in ns:
            stale |= work[a]
        for u in stale:
            key[u] = _reference_fill_key(work, u)
            heapq.heappush(heap, key[u])
    return order


# -- the elimination decomposition, copied before min-fill kept its neighbourhoods
#
# Reference for `twcolor.compute_tree_decomposition`: the order is found as
# there, then eliminated a second time to read off the bags.


def reference_order_to_td(g: WeightedGraph, order: Sequence[int]) -> RootedTreeDecomposition:
    """Bags {v} + later fill-neighbors; each bag hangs below its earliest
    later member, and leftover roots chain up to the final vertex."""
    pos = {v: i for i, v in enumerate(order)}
    work = _simple_adjacency(g)
    bags: Dict[int, FrozenSet[int]] = {}
    parent_of: Dict[int, Optional[int]] = {}
    for v in order:
        later = {u for u in work[v] if pos[u] > pos[v]}
        bags[v] = frozenset({v} | later)
        parent_of[v] = min(later, key=lambda u: pos[u]) if later else None
        _reference_eliminate_in_place(work, v)
    edges: List[Tuple[int, int]] = []
    prev_root: Optional[int] = None
    for v in order:
        p = parent_of[v]
        if p is not None:
            edges.append((p, v))
        else:
            if prev_root is not None:
                edges.append((v, prev_root))
            prev_root = v
    return RootedTreeDecomposition(bags, edges, order[-1])


def reference_tree_decomposition(g: WeightedGraph, exact_max: int = 20) -> RootedTreeDecomposition:
    """The min-fill order, or the exhaustive search's up to exact_max
    vertices, eliminated again by `reference_order_to_td`."""
    adj = _simple_adjacency(g)
    order = reference_min_fill_order(adj)
    if len(g) <= exact_max:
        work = {v: set(ns) for v, ns in adj.items()}
        width = max(len(_reference_eliminate_in_place(work, v)) for v in order)
        _, order = _exact_order(adj, order, width)
    return reference_order_to_td(g, order)


# -- the tripod decomposition, its check and the slab cutter, copied before their rewrite
#
# `full_tripods` is `geodesic.tripod_decomposition`'s wedge recursion as it
# stood when every node listed the whole root paths of its corners and the
# contraction ran on that full decomposition afterwards.
# `reference_certificate_verify` is `GeodesicCertificate.verify` as it stood
# when a certificate listed every node's bag and paths.
# `reference_make_slabs` is `geodesic.make_slabs` as it stood when it cut on
# `Fraction` projections.

import bisect  # noqa: E402

from wdcolor.geodesic import Slab, SlabSystem  # noqa: E402
from wdcolor.tripods import GeodesicTree, _check_rotation, _check_simple, _trace_faces  # noqa: E402
from wdcolor.treedec import validate_td  # noqa: E402


@dataclass(frozen=True)
class BagTripods:
    """A tripod decomposition in bag form: every node's bag and the at most
    three vertical paths (bottom to top) whose union it is."""

    tree: GeodesicTree
    td: RootedTreeDecomposition
    paths: Dict[int, Tuple[Tuple[int, ...], ...]]


def certificate_paths(cert) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
    """Each node's paths of a corner-form certificate, bottom to top: from a
    corner up the tree to the node's top.  A walk that reaches the root, or
    runs as long as the tree, without meeting the top ends with the top, so
    that path breaks the parent chain."""
    tree = cert.tree
    out: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
    for t, cs in cert.corners.items():
        top = cert.tops[t]
        paths = []
        for c in cs:
            path = [c]
            while path[-1] != top and tree.parent.get(path[-1]) is not None and len(path) <= len(tree.parent):
                path.append(tree.parent[path[-1]])
            if path[-1] != top:
                path.append(top)
            paths.append(tuple(path))
        out[t] = tuple(paths)
    return out


def certificate_bags(cert) -> BagTripods:
    """A corner-form certificate with every bag and path listed."""
    paths = certificate_paths(cert)
    bags = {t: frozenset(v for p in ps for v in p) for t, ps in paths.items()}
    return BagTripods(cert.tree, RootedTreeDecomposition(bags, cert.tree_edges, cert.root), paths)


def reference_certificate_verify(cert: BagTripods, g: WeightedGraph) -> None:
    """The tree, the decomposition and every listed path, bag by bag."""
    tree = cert.tree
    vset = g.vertex_set()
    if tree.root not in vset:
        raise ContractViolation("certificate root is not a vertex")
    dist = g._scaled_distances([tree.root])
    if set(tree.dist) != vset or set(tree.parent) != vset:
        raise ContractViolation("certificate tree does not cover the vertices")
    scale, sadj = g._scale, g._sadj
    for v in g.vertices:
        if v == tree.root:
            if tree.parent[v] is not None or tree.dist[v] != 0:
                raise ContractViolation("certificate root data is wrong")
            continue
        p = tree.parent[v]
        w = None
        if p in vset:
            for (u, wu) in sadj[v]:
                if u == p and (w is None or wu < w):
                    w = wu
        if w is None:
            raise ContractViolation("tree parent of %s is not a neighbor" % v)
        dv, dp = tree.dist[v], tree.dist[p]
        if dv.numerator * scale != dist[v] * dv.denominator:
            raise ContractViolation("certified distance of %s is off" % v)
        if dp.numerator * scale != (dist[v] - w) * dp.denominator:
            raise ContractViolation("tree edge into %s is not on a shortest path" % v)
    validate_td(g, cert.td, "certified decomposition invalid")
    if set(cert.paths) != set(cert.td.nodes):
        raise ContractViolation("certificate paths do not cover the nodes")
    for t in cert.td.nodes:
        ps = cert.paths[t]
        if len(ps) > 3:
            raise ContractViolation("node %s carries %d > 3 paths" % (t, len(ps)))
        union: Set[int] = set()
        for path in ps:
            if not path:
                raise ContractViolation("node %s carries an empty path" % t)
            for i in range(len(path) - 1):
                if tree.parent[path[i]] != path[i + 1]:
                    raise ContractViolation(
                        "node %s path breaks the parent chain at %s" % (t, path[i])
                    )
            union.update(path)
        if frozenset(union) != cert.td.bags[t]:
            raise ContractViolation("node %s bag is not the union of its paths" % t)


def full_tripods(
    g: WeightedGraph,
    rotation: Optional[Dict[int, Sequence[int]]],
    tree: GeodesicTree,
) -> BagTripods:
    """The uncontracted, unverified tripod decomposition: one node per wedge
    visited and one per face split, each listing the root paths of its
    corners."""
    _check_simple(g)
    verts = list(g.vertices)
    if not verts:
        raise GraphError("nothing to decompose")
    if not g.is_connected():
        raise GraphError("tripod decomposition needs a connected graph")
    root = tree.root
    if len(verts) == 1:
        td = RootedTreeDecomposition({0: frozenset(verts)}, [], 0)
        return BagTripods(tree, td, {0: (tuple(verts),)})
    if len(g.edges) == len(verts) - 1:
        bags = {root: frozenset((root,))}
        edges: List[Tuple[int, int]] = []
        paths: Dict[int, Tuple[Tuple[int, ...], ...]] = {root: ((root,),)}
        for v in verts:
            if v == root:
                continue
            p = tree.parent[v]
            bags[v] = frozenset((v, p))
            edges.append((p, v))
            paths[v] = ((v, p),)
        td = RootedTreeDecomposition(bags, edges, root)
        return BagTripods(tree, td, paths)
    if rotation is None:
        raise GraphError("a rotation system is required once the graph has cycles")
    _check_rotation(g, rotation)
    faces = _trace_faces(g, rotation)
    third: Dict[Tuple[int, int], int] = {}
    star_parent: Dict[int, int] = {}
    next_star = max(verts) + 1
    star_edges = 0
    for face in faces:
        k = len(face)
        if k == 3:
            a, b, ccc = face
            third[(a, b)] = ccc
            third[(b, ccc)] = a
            third[(ccc, a)] = b
        else:
            s = next_star
            next_star += 1
            star_parent[s] = face[0]
            star_edges += k
            for i in range(k):
                x, y = face[i], face[(i + 1) % k]
                third[(x, y)] = s
                third[(y, s)] = x
                third[(s, x)] = y
    if len(third) != 2 * (len(g.edges) + star_edges):
        raise ContractViolation("triangulation left directed edges uncovered")
    parent_h: Dict[int, Optional[int]] = dict(tree.parent)
    parent_h.update(star_parent)
    tree_pairs = {frozenset((v, p)) for v, p in parent_h.items() if p is not None}
    path_cache: Dict[int, Tuple[int, ...]] = {root: (root,)}

    def rp(x: int) -> Tuple[int, ...]:
        stackx = []
        while x not in path_cache:
            stackx.append(x)
            x = parent_h[x]
        for y in reversed(stackx):
            path_cache[y] = (y,) + path_cache[parent_h[y]]
        return path_cache[stackx[0]] if stackx else path_cache[x]

    def real_path(x: int) -> Tuple[int, ...]:
        p = rp(x)
        return p[1:] if x in star_parent else p

    bags2: Dict[int, FrozenSet[int]] = {}
    paths2: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
    td_edges: List[Tuple[int, int]] = []
    counter = [0]

    def new_node(corners: Tuple[int, ...], parent_node: Optional[int]) -> int:
        nid = counter[0]
        counter[0] += 1
        ps: List[Tuple[int, ...]] = []
        for x in corners:
            px = real_path(x)
            if px and px not in ps:
                ps.append(px)
        bag: Set[int] = set()
        for px in ps:
            bag.update(px)
        bags2[nid] = frozenset(bag)
        paths2[nid] = tuple(ps)
        if parent_node is not None:
            td_edges.append((parent_node, nid))
        return nid

    nontree = sorted(
        (min(u, v), max(u, v)) for (u, v, _) in g.edges if frozenset((u, v)) not in tree_pairs
    )
    a0, b0 = nontree[0]
    root_node = new_node((a0, b0), None)
    stack: List[Tuple[int, int, int]] = [(b0, a0, root_node), (a0, b0, root_node)]
    seen_states: Set[Tuple[int, int]] = {(a0, b0), (b0, a0)}
    faces_done: Set[Tuple[int, int, int]] = set()
    while stack:
        a, b, pnode = stack.pop()
        snode = new_node((a, b), pnode)
        w = third[(a, b)]
        key = min(((a, b, w), (b, w, a), (w, a, b)))
        if key in faces_done:
            raise ContractViolation("wedge recursion met the same face twice")
        faces_done.add(key)
        mnode = new_node((a, b, w), snode)
        for (x, y) in ((a, w), (w, b)):
            if frozenset((x, y)) in tree_pairs:
                continue
            if (x, y) in seen_states:
                raise ContractViolation("wedge recursion met the same directed edge twice")
            seen_states.add((x, y))
            stack.append((x, y, mnode))
    if 3 * len(faces_done) != len(third):
        raise ContractViolation(
            "wedge recursion covered %d of %d faces" % (len(faces_done), len(third) // 3)
        )
    return BagTripods(tree, RootedTreeDecomposition(bags2, td_edges, root_node), paths2)


def reference_make_slabs(
    g: WeightedGraph,
    ell: object,
    projection: Dict[int, Fraction],
    slab_width_factor: object = 8,
) -> SlabSystem:
    """Cut the projection range into two slab families with `Fraction`
    arithmetic throughout."""
    lf = as_fraction(ell)
    if lf <= 0:
        raise GraphError("slab scale must be positive")
    swf = as_fraction(slab_width_factor)
    if swf < 4:
        raise GraphError("slab width must be at least 4*ell")
    width = swf * lf
    pad = 2 * lf
    missing = g.vertex_set() - set(projection)
    if missing:
        raise GraphError("projection misses vertices %s" % sorted(missing)[:5])
    for (u, v, w) in g.edges:
        if abs(projection[u] - projection[v]) > w:
            raise GraphError("projection is not 1-Lipschitz across edge (%s, %s)" % (u, v))
    half = width / 2
    owner_of: Dict[int, Tuple[str, int]] = {}
    owned: Dict[Tuple[str, int], List[int]] = {}
    for v in g.vertices:
        f = projection[v]
        j = (f / width).__floor__()
        depth_a = min(f - j * width, (j + 1) * width - f)
        k = ((f - half) / width).__floor__()
        depth_b = min(f - (k * width + half), (k + 1) * width + half - f)
        key = ("a", j) if depth_a >= depth_b else ("b", k)
        owner_of[v] = key
        owned.setdefault(key, []).append(v)
    by_f = sorted(g.vertices, key=lambda v: (projection[v], v))
    fvals = [projection[v] for v in by_f]
    slabs: List[Slab] = []
    for (family, index) in sorted(owned):
        lo = index * width + (half if family == "b" else 0)
        hi = lo + width
        wlo, whi = lo - pad, hi + pad
        left = bisect.bisect_left(fvals, wlo)
        right = bisect.bisect_left(fvals, whi)
        window = tuple(sorted(by_f[left:right]))
        slabs.append(
            Slab(family, index, lo, hi, wlo, whi, tuple(sorted(owned[(family, index)])), window)
        )
    return SlabSystem(lf, width, pad, dict(projection), tuple(slabs), owner_of)


# The binary-heap Dijkstra that ran every search before uniform-weight graphs
# got their level search, and the geodesic tree that added a `Fraction` on
# every edge.  On one edge weight the level search must return the heap's
# dict, in the heap's order; the integer geodesic tree must equal this one on
# any weights.


def heap_search(
    g: WeightedGraph,
    srcs: Sequence[int],
    cap: Optional[int],
    within,
    targets: Optional[Set[int]],
) -> Dict[int, int]:
    """WeightedGraph._search as a heap loop, on g's scaled adjacency.  For a
    view, pass its vertex set met with `within` as `within`."""
    sadj = g._sadj
    dist: Dict[int, int] = {}
    remaining = set(targets) if targets is not None else None
    heap: List[Tuple[int, int]] = []
    for s in srcs:
        if within is not None and s not in within:
            continue
        if s not in dist:
            dist[s] = 0
            heapq.heappush(heap, (0, s))
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] != d:
            continue
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for (n, w) in sadj[v]:
            if within is not None and n not in within:
                continue
            nd = d + w
            if cap is not None and nd > cap:
                continue
            if n not in dist or nd < dist[n]:
                dist[n] = nd
                heapq.heappush(heap, (nd, n))
    # each heap entry still holding its vertex's distance is a vertex
    # reached but not settled (only after an early stop)
    for (d, v) in heap:
        if dist.get(v) == d:
            del dist[v]
    return dist


def reference_bfs_geodesic_tree(g: WeightedGraph, root: int) -> GeodesicTree:
    """bfs_geodesic_tree with `Fraction` distances and weights throughout."""
    if root not in g.vertex_set():
        raise GraphError("unknown root %s" % (root,))
    dist = g.distances_from([root])
    missing = g.vertex_set() - set(dist)
    if missing:
        raise GraphError("graph is disconnected; unreached %s" % sorted(missing)[:5])
    parent: Dict[int, Optional[int]] = {root: None}
    for v in g.vertices:
        if v == root:
            continue
        best: Optional[int] = None
        for (u, w) in g.neighbors(v):
            if dist[u] + w == dist[v] and (best is None or u < best):
                best = u
        if best is None:
            raise ContractViolation("no predecessor reproduces the distance of %s" % v)
        parent[v] = best
    return GeodesicTree(root, parent, dist)


# The read path before ingest was checked line by line and the diameter
# loops were tightened: the edge-list parser that validated twice (once per
# line, once more in WeightedGraph.__init__), the BFS that discarded each
# reached target on its own, and the Takes-Kosters loop on builtin min and
# max.  The rewritten functions must give the same graphs, dicts, sources
# and results.


def reference_parse_edge_list(text: str) -> WeightedGraph:
    """Parse the "u v w" edge-list format.

    One edge per line, weight a decimal or p/q rational; '#' starts a
    comment; a line holding a single vertex id declares an isolated vertex.
    """
    verts: Set[int] = set()
    edges: List[Tuple[int, int, Fraction]] = []
    # a file repeats a few weight texts over many lines: parse each once
    weights: Dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) == 1:
                verts.add(int(parts[0]))
            elif len(parts) == 3:
                u, v = int(parts[0]), int(parts[1])
                w = weights.get(parts[2])
                if w is None:
                    w = weights[parts[2]] = as_fraction(parts[2])
                verts.add(u)
                verts.add(v)
                edges.append((u, v, w))
            else:
                raise ValueError("expected 'u v w' or a bare vertex id")
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise GraphError("edge list line %d: %s" % (lineno, exc)) from exc
    return WeightedGraph(verts, edges)


def reference_power_graph(g: WeightedGraph, ell: Fraction):
    """power_graph as it was built from an edge list: g's own edges when
    every edge weighs in (ell/2, ell], otherwise one search per host vertex
    capped at ell, each pair listed once, turned into sorted neighbour
    tuples by HopGraph's constructor."""
    from wdcolor.graph import HopGraph, power_graph_new_ids, subdivision_graph

    if g._one_hop_per_edge(ell):
        return HopGraph(g.vertices, [(u, v) for (u, v, _) in g.edges])
    host = subdivision_graph(g, ell) if power_graph_new_ids(g, ell) else g
    edges = [(v, n) for v in host.vertices for n in host.distances_from([v], radius=ell) if n > v]
    return HopGraph(host.vertices, edges)


def reference_hop_distances(h, sources, targets=None) -> Dict[int, int]:
    """HopGraph.hop_distances, each reached target discarded as it is reached."""
    frontier = list(sources)
    dist: Dict[int, int] = {s: 0 for s in frontier}
    remaining = set(targets) - set(frontier) if targets is not None else None
    depth = 0
    while frontier:
        if remaining is not None and not remaining:
            break
        depth += 1
        nxt: List[int] = []
        for v in frontier:
            for n in h.neighbors(v):
                if n in dist:
                    continue
                dist[n] = depth
                nxt.append(n)
                if remaining is not None:
                    remaining.discard(n)
        frontier = nxt
    return dist


def reference_set_diameter(members, search, bound=INF, first=None):
    """The exact set diameter by the eccentricity bounds of Takes and
    Kosters (CIKM 2011), the routine graph.set_diameter replaced: after
    `first`, sources alternate between the member of largest upper bound
    and the one of smallest lower bound, until no member's upper bound
    exceeds the longest distance found."""
    if len(members) <= 1:
        return 0, (members[0] if members else None)
    lo: Dict[int, int] = dict.fromkeys(members, 0)
    hi: Dict[int, object] = dict.fromkeys(members, bound)
    live = set(members)
    best, end = 0, members[0]
    widest = first is None
    u = first
    while live:
        if u is None:
            if widest:
                u = min(live, key=lambda w: (-hi[w], w))
            else:
                u = min(live, key=lambda w: (lo[w], w))
            widest = not widest
        d = search(u)
        try:
            e = max(d[w] for w in members)
        except KeyError as exc:
            raise ContractViolation("search from %s does not reach member %s" % (u, exc.args[0])) from None
        if e > best:
            best, end = e, u
        for w in live:
            dw = d[w]
            lo[w] = max(lo[w], dw, e - dw)
            hi[w] = min(hi[w], e + dw)
        live = {w for w in live if hi[w] > best}
        u = None
    return best, end


# -- the adhesion level before its fixed costs were cut ------------------------
#
# The hierarchy check that built a WeightedGraph over the forest, the
# condensed graph built from a copy of the base (`induced`) through the
# public constructor, and the per-component decomposition that scanned the
# whole decomposition once per component.  The rewritten code must give the
# same verdicts and messages, the same graph fields and the same
# decompositions.


def reference_hierarchy_graph(h) -> WeightedGraph:
    """The forest as a WeightedGraph over its ids."""
    return WeightedGraph([v for i in h.levels for v in h.ids[i]], h.edges)


def reference_hierarchy_verify(h) -> None:
    """Hierarchy.verify as the partition chain's check followed by the
    forest's check on a WeightedGraph over the forest."""
    PartitionChain(h.ground, h.eps, max(h.levels, default=0), {i: h.parts[i] for i in h.levels}).verify()
    half = h.ell / 2
    for (_, _, w) in h.edges:
        if not 0 < w <= half:
            raise ContractViolation("hierarchy edge weight %s outside (0, %s]" % (w, half))
    if not h.ground:
        return
    g = reference_hierarchy_graph(h)
    reach = neighborhood(g, h.ids[0], half)
    if reach != g.vertex_set():
        raise ContractViolation("hierarchy vertex farther than %s from the base" % (half,))
    for comp in g.connected_components():
        src = comp[0]
        dist = g.distances_from([src], within=comp)
        for v in comp:
            if dist[v] > h.ell:
                raise ContractViolation(
                    "hierarchy component pair at distance %s > %s" % (frac_str(dist[v]), h.ell)
                )
    n_base = len(h.parts[0])
    n_upper = sum(len(h.parts[i]) for i in h.levels if i != 0)
    if n_upper > n_base * n_base:
        raise ContractViolation("hierarchy has %d non-base vertices > |B|^2 = %d" % (n_upper, n_base**2))


def reference_condensed_graph(cond) -> WeightedGraph:
    """A condensation's graph as condense built it: a copy of g on the base,
    its edges followed by the shortcut edges in frontier order and then the
    hierarchy edges, through the public constructor."""
    extra: List[Tuple[int, int, Fraction]] = []
    for e in cond.u_e:
        if e in cond.shortcut_parts:
            extra.extend(cond.shortcut_parts[e].shortcuts)
    vertices = set(cond.base_vertices)
    for e in cond.u_e:
        if e in cond.hierarchies:
            h = cond.hierarchies[e].hierarchy
            extra.extend(h.edges)
            vertices.update(v for i in h.levels for v in h.ids[i])
    base_graph = cond.g.induced(cond.base_vertices)
    return WeightedGraph(vertices, list(base_graph.edges) + extra)


def reference_condense_shortcuts(cond, e) -> Tuple[FrozenSet[int], Tuple[Tuple[int, int, Fraction], ...]]:
    """A shortcut part's fringe reach and shortcut edges by full searches:
    networkx Dijkstra inside the part, from X_e out to ell for the reach,
    then from each fringe vertex u out to 3*ell + mu, keeping every later
    fringe vertex it reaches at weight ell * d / (3*ell + mu)."""
    part = to_networkx(cond.g).subgraph(cond.shortcut_parts[e].part_vertices)
    x_e = cond.td.adhesion_of(e)
    reach = frozenset(nx.multi_source_dijkstra_path_length(part, x_e, cutoff=cond.ell, weight="weight"))
    span = 3 * cond.ell + cond.mu
    fringe = sorted(reach - x_e)
    out = []
    for u in fringe:
        dist = nx.single_source_dijkstra_path_length(part, u, cutoff=span, weight="weight")
        out.extend((u, v, cond.ell * dist[v] / span) for v in fringe if v > u and v in dist)
    return reach, tuple(sorted(out))


def reference_condensed_decomposition(cond) -> RootedTreeDecomposition:
    """A condensation's decomposition as condense built it: the root side's
    bags and tree edges, one leaf per frontier edge, through the
    constructor."""
    td, cut = cond.td, set(cond.u_e)
    reached = [td.root]
    for t in reached:
        reached.extend(ch for ch in td.children[t] if (t, ch) not in cut)
    t0_nodes = sorted(reached)
    bags0 = {t: td.bags[t] for t in t0_nodes}
    for e in cond.u_e:
        if e in cond.hierarchies:
            h = cond.hierarchies[e].hierarchy
            bags0[e[1]] = frozenset(v for i in h.levels for v in h.ids[i])
        else:
            bags0[e[1]] = cond.shortcut_parts[e].reach
    edges0 = [(td.parent[t], t) for t in t0_nodes if t != td.root] + list(cond.u_e)
    return RootedTreeDecomposition(bags0, edges0, td.root)


def reference_component_decomposition(td, comp, what):
    """One component's cut (treedec.component_decompositions), scanning
    every node and tree edge."""
    cs = frozenset(comp)
    keep = {t for t in td.nodes if td.bags[t] & cs}
    tops = [t for t in keep if td.parent[t] not in keep]
    if len(tops) != 1:
        raise ContractViolation("%s: component bags do not span a subtree" % what)
    bags = {t: td.bags[t] & cs for t in sorted(keep)}
    edges = [(p, ch) for (p, ch) in td.tree_edges if p in keep and ch in keep]
    return RootedTreeDecomposition(bags, edges, tops[0])


# -- the partition chain and the Fraction adjacency --------------------------
#
# Before the forest became the only record of an adhesion's partitions, a
# `PartitionChain` held them, found by a union-find sweep on Fraction
# distances and the graph's Fraction adjacency, and the forest was built
# from the chain.  The certificate's tree check read the same adjacency.
# The rewritten code runs on the integer adhesion and must give the same
# forests, and the same exception type and first message.

import math  # noqa: E402

from wdcolor.treedec import Hierarchy, TreeEdge, _DSU  # noqa: E402


@dataclass(frozen=True)
class PartitionChain:
    """Partitions of a ground set indexed by level; level 0 is singletons,
    each level refines the next, and only change points are stored."""

    ground: Tuple[int, ...]
    eps: Fraction
    max_level: int
    partitions: Dict[int, Tuple[FrozenSet[int], ...]]  # change levels (and 0) -> parts

    def partition_at(self, i: int) -> Tuple[FrozenSet[int], ...]:
        if i < 0 or i > self.max_level:
            raise GraphError("level %s outside 0..%s" % (i, self.max_level))
        best = max(k for k in self.partitions if k <= i)
        return self.partitions[best]

    @property
    def change_levels(self) -> Tuple[int, ...]:
        return tuple(sorted(k for k in self.partitions if k > 0))

    def verify(self) -> None:
        if 0 not in self.partitions:
            raise ContractViolation("chain misses level 0")
        if self.partitions[0] != tuple(frozenset([x]) for x in self.ground):
            raise ContractViolation("level 0 is not the singleton partition")
        levels = sorted(self.partitions)
        gset = set(self.ground)
        for k in levels:
            parts = self.partitions[k]
            seen: Set[int] = set()
            for part in parts:
                if part & seen:
                    raise ContractViolation("level %s parts overlap" % (k,))
                seen |= part
            if seen != gset:
                raise ContractViolation("level %s does not cover the ground set" % (k,))
        for a, b in zip(levels, levels[1:]):
            coarse = {x: i for i, part in enumerate(self.partitions[b]) for x in part}
            for part in self.partitions[a]:
                if len({coarse[x] for x in part}) != 1:
                    raise ContractViolation("level %s does not refine level %s" % (a, b))


def reference_adhesion_partition_chain(
    g: WeightedGraph, td: RootedTreeDecomposition, e: TreeEdge, eps: object, max_level: int
) -> PartitionChain:
    """The bottleneck union-find sweep on Fraction distances and weights."""
    ef = as_fraction(eps)
    if ef <= 0 or max_level < 0:
        raise GraphError("need positive eps and nonnegative max level")
    td.check_edge(e)
    x_e = td.adhesion_of(e)
    part = td.subtree_vertices(e)
    ground = tuple(sorted(x_e))
    partitions: Dict[int, Tuple[FrozenSet[int], ...]] = {0: tuple(frozenset([x]) for x in ground)}
    if len(ground) > 1 and max_level > 0:
        radius = ef * max_level
        dist = g.distances_from(ground, radius=radius, within=part)
        events: List[Tuple[Fraction, int, int]] = []
        for u, du in dist.items():
            for (v, w) in g.neighbors(u):
                if u < v and v in dist:
                    t = max(w, du, dist[v])
                    if t <= radius:
                        events.append((t, u, v))
        events.sort()
        dsu = _DSU(dist.keys())
        marks = {x: x for x in ground}

        def snapshot() -> Tuple[FrozenSet[int], ...]:
            groups: Dict[int, Set[int]] = {}
            for x in ground:
                groups.setdefault(dsu.find(x), set()).add(x)
            return tuple(sorted((frozenset(s) for s in groups.values()), key=min))

        idx = 0
        while idx < len(events):
            level = max(1, math.ceil(events[idx][0] / ef))
            if level > max_level:
                break
            changed = False
            while idx < len(events) and max(1, math.ceil(events[idx][0] / ef)) == level:
                _, u, v = events[idx]
                ru, rv = dsu.find(u), dsu.find(v)
                if ru != rv:
                    mu_, mv_ = marks.get(ru), marks.get(rv)
                    dsu.union(u, v)
                    r = dsu.find(u)
                    if mu_ is not None and mv_ is not None:
                        changed = True
                    keep = [m for m in (mu_, mv_) if m is not None]
                    if keep:
                        marks[r] = min(keep)
                idx += 1
            if changed:
                partitions[level] = snapshot()
    chain = PartitionChain(ground, ef, max_level, partitions)
    chain.verify()
    return chain


def reference_hierarchy_ids(
    levels: Sequence[int], parts: Dict[int, Tuple[FrozenSet[int], ...]], next_id: int
) -> Dict[Tuple[int, FrozenSet[int]], int]:
    """The ids condense gave a forest's (level, part) vertices: a level-0
    part its member, and each upper part the next free id from next_id on,
    in (level, part) order."""
    ids: Dict[Tuple[int, FrozenSet[int]], int] = {}
    for i in levels:
        for y in parts[i]:
            if i == 0:
                ids[(0, y)] = min(y)
            else:
                ids[(i, y)] = next_id
                next_id += 1
    return ids


def reference_forest_edges(
    levels: Sequence[int], parts: Dict[int, Tuple[FrozenSet[int], ...]], unit: Fraction
) -> List[Tuple[Tuple[int, FrozenSet[int]], Tuple[int, FrozenSet[int]], Fraction]]:
    """The forest's edges between (level, part) vertices: each part to the
    part holding its smallest member one recorded level up, at (j-i)*unit."""
    edges = []
    for i, j in zip(levels, levels[1:]):
        parent_of = {x: yj for yj in parts[j] for x in yj}
        for yi in parts[i]:
            edges.append(((i, yi), (j, parent_of[min(yi)]), (j - i) * unit))
    return edges


def reference_build_hierarchy(
    chain: PartitionChain, ell: object, theta: int, mu: object, next_id: int
) -> Hierarchy:
    """The forest assembled from a chain, not checked: levels {0, 1} plus the
    chain's change levels, edge weights (j-i)*eps / (8*(theta+mu/ell)), the
    vertices numbered by `reference_hierarchy_ids`."""
    lf = as_fraction(ell)
    mf = as_fraction(mu)
    if chain.eps > lf:
        raise GraphError("eps %s exceeds ell %s" % (chain.eps, lf))
    if theta < 1 or mf < 0:
        raise GraphError("need theta >= 1 and mu >= 0")
    if chain.max_level < 1:
        raise GraphError("hierarchy needs a chain reaching level 1")
    levels = tuple(sorted({0, 1} | {i for i in chain.change_levels if 1 <= i <= chain.max_level}))
    parts = {i: chain.partition_at(i) for i in levels}
    unit = chain.eps / (8 * (theta + mf / lf))
    ids = reference_hierarchy_ids(levels, parts, next_id)
    edges = tuple((ids[a], ids[b], w) for (a, b, w) in reference_forest_edges(levels, parts, unit))
    per_level = {i: tuple(ids[(i, y)] for y in parts[i]) for i in levels}
    return Hierarchy(chain.ground, levels, parts, per_level, edges, lf, chain.eps, theta, mf)


def reference_certificate_tree_check(cert, g: WeightedGraph) -> None:
    """The tree part of GeodesicCertificate.verify, on Fraction distances
    and the Fraction weights `neighbors` gives."""
    tree = cert.tree
    if tree.root not in g.vertex_set():
        raise ContractViolation("certificate root is not a vertex")
    dist = g.distances_from([tree.root])
    if set(tree.dist) != g.vertex_set() or set(tree.parent) != g.vertex_set():
        raise ContractViolation("certificate tree does not cover the vertices")
    for v in g.vertices:
        if v == tree.root:
            if tree.parent[v] is not None or tree.dist[v] != 0:
                raise ContractViolation("certificate root data is wrong")
            continue
        p = tree.parent[v]
        w = None
        for (u, wu) in g.neighbors(v):
            if u == p and (w is None or wu < w):
                w = wu
        if w is None:
            raise ContractViolation("tree parent of %s is not a neighbor" % v)
        if tree.dist[v] != dist[v]:
            raise ContractViolation("certified distance of %s is off" % v)
        if tree.dist[p] + w != tree.dist[v]:
            raise ContractViolation("tree edge into %s is not on a shortest path" % v)


# -- the bound recursions, copied before their closed forms ---------------------

import math  # noqa: E402

from wdcolor.treedec import con_color_bound  # noqa: E402


def reference_patch_bound(k: int, r, ell, n) -> Fraction:
    """patch_bound as a loop of k steps over y_0 = n,
    y_{i+1} = ceil((4/ell)*(ell+r+ell*y_i)) + y_i."""
    rf, lf, nf = Fraction(r), Fraction(ell), Fraction(n)
    step = 2 * math.ceil(2 * (lf + rf) / lf)
    y = nf
    for _ in range(k):
        y = math.ceil(Fraction(4) / lf * (lf + rf + lf * y)) + y
    return 2 ** k * y + step * (2 ** k - 1)


def reference_tree_extension_bound(eta: int, theta: int, ell, n) -> Fraction:
    """tree_extension_bound as a loop over its eta guard levels."""
    lf, nf = Fraction(ell), Fraction(n)
    out = (
        nf
        + reference_patch_bound(theta, 3 * lf, lf, 1)
        + reference_patch_bound(theta, 3 * lf, lf, nf)
        + theta * theta
        + theta
    )
    for _ in range(eta):
        out = con_color_bound(lf, reference_patch_bound(theta, 3 * lf, lf, out), theta, 0)
    return out
