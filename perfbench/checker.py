"""Independent output checks for the wdcolor benchmark.

Nothing here imports wdcolor: the library's verifier is one of the layers
being measured, so every expected value comes from plain Dijkstra and BFS
written here.  Only the case the workloads use is supported: every edge
weight is at most ell, so the scale-ell power graph has no subdivision
vertices and lives on V(g) itself.
"""

import heapq
import json
import math
from collections import deque
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Adjacency = Dict[int, Set[int]]
Edge = Tuple[int, int, Fraction]


class CheckFailed(Exception):
    """An operation's output disagrees with the independent measurement."""


def parse_edge_list(text: str) -> Tuple[List[int], List[Edge]]:
    """Parse the "u v w" edge-list format (a bare id declares a vertex)."""
    verts: Set[int] = set()
    edges: List[Edge] = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if len(parts) == 1:
            verts.add(int(parts[0]))
        elif len(parts) == 3:
            u, v = int(parts[0]), int(parts[1])
            verts.update((u, v))
            edges.append((u, v, Fraction(parts[2])))
        elif parts:
            raise ValueError("bad edge-list line %r" % raw)
    return sorted(verts), edges


def power_adjacency(vertices: Sequence[int], edges: Sequence[Edge], ell: Fraction) -> Adjacency:
    """Join every pair at metric distance <= ell, by Dijkstra from each
    vertex with cutoff ell on integer-scaled weights."""
    if any(w > ell for (_, _, w) in edges):
        raise ValueError("an edge heavier than ell would need subdivision vertices")
    scale = 1
    for (_, _, w) in edges:
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    scale = scale * ell.denominator // math.gcd(scale, ell.denominator)
    cutoff = int(ell * scale)
    nbrs: Dict[int, List[Tuple[int, int]]] = {v: [] for v in vertices}
    for (u, v, w) in edges:
        nbrs[u].append((v, int(w * scale)))
        nbrs[v].append((u, int(w * scale)))
    adj: Adjacency = {}
    for s in vertices:
        dist = {s: 0}
        heap = [(0, s)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            for (y, w) in nbrs[x]:
                nd = d + w
                if nd <= cutoff and nd < dist.get(y, cutoff + 1):
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
        del dist[s]
        adj[s] = set(dist)
    return adj


def monochromatic_components(adj: Adjacency, color: Dict[int, int]) -> List[List[int]]:
    seen: Set[int] = set()
    out: List[List[int]] = []
    for v in sorted(adj):
        if v in seen:
            continue
        seen.add(v)
        comp, stack = [v], [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen and color[y] == color[v]:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        out.append(sorted(comp))
    return out


def hop_diameter(adj: Adjacency, comp: Sequence[int]) -> int:
    """Weak diameter in hops: the largest host BFS distance between two
    members, each search stopping once every member is reached."""
    best = 0
    for s in comp:
        left = set(comp)
        left.discard(s)
        dist = {s: 0}
        queue = deque([s])
        while queue and left:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    left.discard(y)
                    queue.append(y)
        if left:
            raise CheckFailed("component member %d not connected to %d in the host" % (min(left), s))
        best = max(best, max(dist[v] for v in comp))
    return best


def max_weak_hops(adj: Adjacency, color: Dict[int, int]) -> int:
    return max((hop_diameter(adj, c) for c in monochromatic_components(adj, color)), default=0)


# -- colourings the benchmark builds itself --------------------------------------


def block_grid_coloring(rows: int, cols: int, block: int) -> Dict[int, int]:
    """B x B checkerboard blocks of the row-major grid ids i*cols + j."""
    return {i * cols + j: (i // block + j // block) % 2 + 1 for i in range(rows) for j in range(cols)}


def block_path_coloring(vertices: Iterable[int], block: int) -> Dict[int, int]:
    return {v: (v // block) % 2 + 1 for v in vertices}


def annulus_coloring(adj: Adjacency, root: int, width: int) -> Dict[int, int]:
    """Alternate two colours over BFS annuli `width` layers thick."""
    layer = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in layer:
                layer[y] = layer[x] + 1
                queue.append(y)
    if len(layer) != len(adj):
        raise ValueError("annulus colouring needs a connected graph")
    return {v: (d // width) % 2 + 1 for v, d in layer.items()}


def coloring_json(color: Dict[int, int]) -> str:
    """The CLI's colouring file format."""
    return json.dumps(
        {"num_colors": max(color.values()), "assignment": {str(v): c for v, c in sorted(color.items())}},
        sort_keys=True,
    ) + "\n"


# -- report checks ---------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _measured_hops(report: dict) -> int:
    hops = report.get("measured", {}).get("maxWeakDiameterHops")
    _require(isinstance(hops, int), "report has no measured maxWeakDiameterHops")
    return hops


def check_coloring_report(report: dict, adj: Adjacency, max_colors: int) -> int:
    """A run pipeline's report: full coverage of V(power graph), colours in
    range, and a reported hop diameter equal to the one measured here.
    Returns the measured hops."""
    _require(report.get("ok") is True, "report is not ok")
    col = report.get("coloring", {})
    _require(col.get("num_colors", 0) <= max_colors, "num_colors %s exceeds %d" % (col.get("num_colors"), max_colors))
    color = {int(v): c for v, c in col.get("assignment", {}).items()}
    missing = set(adj) - set(color)
    _require(not missing, "colouring misses vertices %s" % sorted(missing)[:5])
    _require(set(color) == set(adj), "colouring names vertices outside the graph")
    _require(all(1 <= c <= max_colors for c in color.values()), "colour outside 1..%d" % max_colors)
    _require(report.get("colors") == len(set(color.values())), "reported colour count is wrong")
    hops = max_weak_hops(adj, color)
    _require(_measured_hops(report) == hops, "reported %s hops, measured %d" % (_measured_hops(report), hops))
    return hops


def check_partition_report(report: dict, adj: Adjacency, max_colors: int) -> int:
    """`run partition`: the collections' sets cover V(g) exactly once; with
    no subdivision vertices each set is a whole monochromatic component, so
    the colouring is rebuilt from them and its hops measured here."""
    _require(report.get("ok") is True, "report is not ok")
    collections = report.get("partition", {}).get("collections", [])
    _require(len(collections) <= max_colors, "more than %d collections" % max_colors)
    color: Dict[int, int] = {}
    sets: Set[Tuple[int, ...]] = set()
    for ci, coll in enumerate(collections, 1):
        for part in coll:
            for v in part:
                _require(v not in color, "vertex %d in two partition sets" % v)
                color[v] = ci
            sets.add(tuple(sorted(part)))
    _require(set(color) == set(adj), "partition sets do not cover V(g) exactly")
    _require(sets == {tuple(c) for c in monochromatic_components(adj, color)},
             "partition sets are not the monochromatic components")
    hops = max_weak_hops(adj, color)
    _require(_measured_hops(report) == hops, "reported %s hops, measured %d" % (_measured_hops(report), hops))
    return hops


def check_verify_report(report: dict, hops: int, colors: int, expect_ok: bool) -> int:
    _require(report.get("ok") is expect_ok, "verify ok=%s, expected %s" % (report.get("ok"), expect_ok))
    _require(report.get("colors") == colors, "verify reported %s colours, expected %d" % (report.get("colors"), colors))
    _require(_measured_hops(report) == hops, "reported %s hops, measured %d" % (_measured_hops(report), hops))
    return hops
