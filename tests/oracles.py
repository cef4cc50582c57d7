"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against networkx or plain dicts,
not against the library under test, so the two sides can disagree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from wdcolor.graph import INF, WeightedGraph


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


def window_segments(
    nodes: Iterable[int],
    paths: Dict[int, Tuple[Tuple[int, ...], ...]],
    wset: Set[int],
) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
    """Per node, the window slices of its certified paths, rescanning every
    path of every node.  Reference for `geodesic._window_segments`."""
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
    """Reference for `geodesic._restrict_tripods`, node by node and slice by
    slice: keep the slices inside `keep`, contract every node whose bag sits
    inside a neighbour's, and return the surviving bags, the tree edges in
    breadth-first order from the surviving root, that root, and each node's
    centres (the top of each kept slice)."""
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
