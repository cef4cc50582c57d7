"""Rooted tree decompositions and the condensation machinery built on them.

A condensation compresses everything hanging below a frontier of tree edges
into small certified gadgets: parts with a small adhesion become layered
forests recording how the adhesion merges as the allowed search radius
grows, and parts with a large adhesion become direct shortcut edges.  A
coloring of the condensed graph then lifts back to a zone around the
frontier with a computable weak-diameter bound.

A forest (`Hierarchy`) is the only record of its adhesion's partitions:
`adhesion_hierarchy` finds them in one union-find sweep over the part's
integer distances, keeps each level where two parts merge as a layer of
the forest, and checks the partitions and the forest together.  The lift
reads a vertex's part off the forest's layer.

A forest is numbered once, in the condensed graph's ids, and has no other
numbering: a level-0 part is its ground vertex, and the upper parts take
the free ids from the first one `condense` passes, in (level, part) order,
each level's parts sorted by their smallest member.  So `condense` adds
the forest's edges to the condensed graph as they are, the condensed
decomposition's leaf holds the forest's ids, and the lift reads a part's
id off `Hierarchy.ids`.  These ids sort in (level, smallest member) order,
so the forest's check searches its id adjacency directly, with the graph's
own heap loop (`graph._heap_search`).

Everything a condensation reads of the graph and the decomposition lies in
the tree region above the frontier or within a bounded radius below it.
So the graph and decomposition may be views of a far part (see
SubtreeIndex), and a condensation then costs what its region costs.

The constructor searches and checks only trees that come from outside a
checked tree: an elimination order, a cut to one component, tripods, a
JSON file or a generator.  Every other tree is derived from one already
held, with no search: `rerooted` hangs a fresh root on a node or on a
subdivided edge, `_rebagged` swaps the bags, and a condensation keeps the
root side.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type, Union

from wdcolor.graph import (
    GraphError,
    _heap_search,
    _weight_scale,
    SubgraphView,
    WeightedGraph,
    as_fraction,
    frac_str,
    json_int,
    require_light_edges,
)
from wdcolor.partition import (
    Coloring,
    ColorResult,
    ContractViolation,
    check_weak_diameter,
)
from wdcolor.patching import CenterCertificate

TreeEdge = Tuple[int, int]  # (parent, child)


@functools.lru_cache(maxsize=None, typed=True)
def con_color_bound(ell: object, n: object, theta: int, mu: object) -> Fraction:
    """Weak-diameter bound for a lifted condensation coloring:
    (28 + 8*mu/ell)*theta + (16*(theta+mu/ell)*(3*theta+1) + 4)
    + 8*(theta+mu/ell)*(3*theta+1)*n."""
    lf = as_fraction(ell)
    nf = as_fraction(n)
    mf = as_fraction(mu)
    if lf <= 0 or nf <= 0 or mf < 0 or theta < 1:
        raise GraphError("invalid lift-bound parameters")
    t = theta + mf / lf
    return (28 + 8 * mf / lf) * theta + (16 * t * (3 * theta + 1) + 4) + 8 * t * (3 * theta + 1) * nf


class RootedTreeDecomposition:
    """Tree of bags with parent pointers; edges identified as (parent, child)."""

    def __init__(self, bags: Dict[int, Iterable[int]], edges: Iterable[Tuple[int, int]], root: int):
        bag_map = {int(t): frozenset(bs) for t, bs in bags.items()}
        if root not in bag_map:
            raise GraphError("root %s has no bag" % (root,))
        adj: Dict[int, Set[int]] = {t: set() for t in bag_map}
        n_edges = 0
        for (a, b) in edges:
            if a not in bag_map or b not in bag_map:
                raise GraphError("tree edge (%s,%s) references an unknown node" % (a, b))
            if a == b or b in adj[a]:
                raise GraphError("bad tree edge (%s,%s)" % (a, b))
            adj[a].add(b)
            adj[b].add(a)
            n_edges += 1
        if n_edges != len(bag_map) - 1:
            raise GraphError("decomposition graph is not a tree (%d nodes, %d edges)" % (len(bag_map), n_edges))
        parent: Dict[int, Optional[int]] = {root: None}
        order = [root]
        for t in order:
            for s in sorted(adj[t]):
                if s not in parent:
                    parent[s] = t
                    order.append(s)
        if len(order) != len(bag_map):
            raise GraphError("decomposition tree is disconnected")
        self.bags: Dict[int, FrozenSet[int]] = bag_map
        self.root: int = root
        self.parent: Dict[int, Optional[int]] = parent
        self.nodes: Tuple[int, ...] = tuple(sorted(bag_map))
        children: Dict[int, List[int]] = {t: [] for t in bag_map}
        for t in self.nodes:
            p = parent[t]
            if p is not None:
                children[p].append(t)
        self.children: Dict[int, Tuple[int, ...]] = {t: tuple(sorted(cs)) for t, cs in children.items()}
        self.tree_edges: Tuple[TreeEdge, ...] = tuple(
            sorted((parent[t], t) for t in self.nodes if parent[t] is not None)
        )
        self._subtree_cache: Dict[int, Tuple[int, ...]] = {}
        self._holders: Optional[Dict[int, Tuple[int, ...]]] = None

    @classmethod
    def _derived(
        cls,
        bags: Dict[int, FrozenSet[int]],
        parent: Dict[int, Optional[int]],
        children: Dict[int, Tuple[int, ...]],
        nodes: Tuple[int, ...],
        tree_edges: Tuple[TreeEdge, ...],
        root: int,
    ) -> "RootedTreeDecomposition":
        """A decomposition over a tree already checked, from every field
        the constructor would compute for it: no check and no search."""
        td = cls.__new__(cls)
        td.bags, td.root, td.parent, td.children = bags, root, parent, children
        td.nodes, td.tree_edges = nodes, tree_edges
        td._subtree_cache = {}
        td._holders = None
        return td

    def _rebagged(self, bags: Dict[int, FrozenSet[int]]) -> "RootedTreeDecomposition":
        """This tree with other bags, frozensets keyed by node: what
        RootedTreeDecomposition(bags, tree_edges, root) gives, sharing this
        tree's fields."""
        return self._derived(
            bags, self.parent, self.children, self.nodes, self.tree_edges, self.root
        )

    def rerooted(self, top: int, bag: Iterable[int], at: Union[int, TreeEdge]) -> "RootedTreeDecomposition":
        """This tree with one more node `top`, holding `bag`, as its root:
        hung on `at` if `at` is a node, subdividing `at` if it is a (parent,
        child) tree edge.  Every field is what the constructor gives for
        this tree's bags and edges with that change, rooted at `top`; but
        the tree is not searched or checked again, for only the nodes on
        the path from `at` up to the old root, and a subdivided edge's
        child, change parent."""
        if top in self.bags:
            raise GraphError("node id %s already used" % (top,))
        parent, children = dict(self.parent), dict(self.children)
        parent[top], changed = None, []
        if isinstance(at, tuple):
            t, below = self.check_edge(at)
            parent[below] = top
            changed.append(below)
            children[top] = tuple(sorted(at))
        elif at in self.bags:
            t, below, children[top] = at, None, (at,)
        else:
            raise GraphError("unknown node %s" % (at,))
        # each node on the path takes the one below it as its parent, and
        # its old parent as a child
        up = top
        while t is not None:
            p = self.parent[t]
            kids = [s for s in self.children[t] if s != below]
            children[t] = tuple(sorted(kids if p is None else kids + [p]))
            parent[t] = up
            changed.append(t)
            up, below, t = t, t, p
        old = {(self.parent[t], t) for t in changed}
        edges = [e for e in self.tree_edges if e not in old] + [(parent[t], t) for t in changed]
        bags = dict(self.bags)
        bags[top] = frozenset(bag)
        return RootedTreeDecomposition._derived(
            bags, parent, children, tuple(sorted(self.nodes + (top,))), tuple(sorted(edges)), top
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def check_edge(self, e: TreeEdge) -> TreeEdge:
        p, c = e
        if self.parent.get(c) != p:
            raise GraphError("(%s,%s) is not a (parent, child) tree edge" % (p, c))
        return (p, c)

    def adhesion_of(self, e: TreeEdge) -> FrozenSet[int]:
        p, c = self.check_edge(e)
        return self.bags[p] & self.bags[c]

    def subtree_nodes(self, e: TreeEdge) -> Tuple[int, ...]:
        """Nodes of the component of T - e away from the root."""
        p, c = self.check_edge(e)
        if c not in self._subtree_cache:
            out = [c]
            for t in out:
                out.extend(self.children[t])
            self._subtree_cache[c] = tuple(sorted(out))
        return self._subtree_cache[c]

    def subtree_vertices(self, e: TreeEdge) -> AbstractSet:
        return self.bag_union(self.subtree_nodes(e))

    def holders_of(self, v: int) -> Tuple[int, ...]:
        """The nodes whose bags hold v (an index built on first use)."""
        if self._holders is None:
            hs: Dict[int, List[int]] = {}
            for t in self.nodes:
                for u in self.bags[t]:
                    hs.setdefault(u, []).append(t)
            self._holders = {u: tuple(ts) for u, ts in hs.items()}
        return self._holders.get(v, ())

    def bag_union(self, nodes: Iterable[int]) -> FrozenSet[int]:
        out: Set[int] = set()
        for t in nodes:
            out |= self.bags[t]
        return frozenset(out)

    def all_vertices(self) -> FrozenSet[int]:
        return self.bag_union(self.nodes)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    @property
    def adhesion(self) -> int:
        if not self.tree_edges:
            return 0
        return max(len(self.adhesion_of(e)) for e in self.tree_edges)

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"id": t, "bag": sorted(self.bags[t])} for t in self.nodes],
            "edges": [[p, c] for (p, c) in self.tree_edges],
            "root": self.root,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "RootedTreeDecomposition":
        try:
            nodes = [
                (json_int(nd["id"], "node id"), [json_int(v, "bag member") for v in nd["bag"]])
                for nd in data["nodes"]
            ]
            edges = [(json_int(a, "tree edge end"), json_int(b, "tree edge end")) for a, b in data["edges"]]
            root = json_int(data["root"], "root")
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError("malformed tree-decomposition JSON: %s" % (exc,))
        bags: Dict[int, List[int]] = {}
        for t, bag in nodes:
            if t in bags:
                raise GraphError("tree-decomposition node id %s appears twice" % (t,))
            bags[t] = bag
        return RootedTreeDecomposition(bags, edges, root)


def validate_td(
    g: WeightedGraph,
    td: RootedTreeDecomposition,
    what: str,
    error: Type[Exception] = ContractViolation,
) -> None:
    """Check the decomposition axioms.  On failure raise `error` with the
    message "what: " and every failure found, joined by "; ".  A
    decomposition built by the library fails with ContractViolation; a
    caller checking one the user supplied passes GraphError.

    One pass over the bags maps each vertex to the nodes holding it; an
    edge is covered when its ends share a holder, and a vertex's holders
    are connected when exactly one of them has its parent outside them."""
    failures: List[str] = []
    holders: Dict[int, Set[int]] = {}
    for t, bag in td.bags.items():
        for v in bag:
            holders.setdefault(v, set()).add(t)
    covered = holders.keys()
    missing = g.vertex_set() - covered
    if missing:
        failures.append("vertices not in any bag: %s" % sorted(missing)[:5])
    alien = covered - g.vertex_set()
    if alien:
        failures.append("bags contain unknown vertices: %s" % sorted(alien)[:5])
    nobody: Set[int] = set()
    for (u, v, _) in g.edges:
        if not holders.get(u, nobody) & holders.get(v, nobody):
            failures.append("edge (%s,%s) is in no bag" % (u, v))
            break
    parent = td.parent
    for v in g.vertices:
        hs = holders.get(v)
        if not hs:
            continue
        if sum(1 for t in hs if parent[t] not in hs) != 1:
            failures.append("bags containing vertex %s are not connected in the tree" % (v,))
            break
    if failures:
        raise error("%s: %s" % (what, "; ".join(failures)))


def ball_region(
    td: RootedTreeDecomposition, ball: FrozenSet[int], what: str
) -> Tuple[FrozenSet[int], Tuple[TreeEdge, ...]]:
    """The nodes whose bags meet `ball`, checked to form a subtree holding
    the root, and the tree edges leaving that subtree, in sorted order.
    Found from the holders of the ball's vertices, at the region's cost."""
    nodes = frozenset(t for v in ball for t in td.holders_of(v))
    if td.root not in nodes:
        raise ContractViolation("%s: the root bag misses the ball" % what)
    for t in nodes:
        if t != td.root and td.parent[t] not in nodes:
            raise ContractViolation("%s: ball bags do not form a rooted subtree" % what)
    frontier = tuple(sorted((t, ch) for t in nodes for ch in td.children[t] if ch not in nodes))
    return nodes, frontier


def component_decomposition(
    td: RootedTreeDecomposition, comp: Iterable[int], what: str
) -> RootedTreeDecomposition:
    """The nodes whose bags meet one connected component, with their bags
    cut down to it, rooted at the topmost of them."""
    return next(component_decompositions(td, [comp], what))


def component_decompositions(
    td: RootedTreeDecomposition, comps: Sequence[Iterable[int]], what: str
) -> Iterator[RootedTreeDecomposition]:
    """component_decomposition of each of the disjoint vertex sets `comps`,
    in order, from one pass over td: each node is filed under the
    components its bag meets, with its bag cut down to each, as it is
    read.  Each decomposition is built, and checked to span a subtree,
    when it is asked for; the iterator then lets go of what it filed for
    that component, so a caller coloring one component at a time holds no
    second copy of it."""
    sets = [frozenset(comp) for comp in comps]
    comp_of = {v: i for i, cs in enumerate(sets) for v in cs}
    keep: List[Set[int]] = [set() for _ in sets]
    cut: List[Dict[int, FrozenSet[int]]] = [{} for _ in sets]
    bags = td.bags
    for t in td.nodes:
        bag = bags[t]
        for i in {comp_of[v] for v in bag if v in comp_of}:
            keep[i].add(t)
            cut[i][t] = bag & sets[i]
    del sets, comp_of
    keep.reverse()
    cut.reverse()
    while keep:
        yield _cut_decomposition(td, keep.pop(), cut.pop(), what)


def _cut_decomposition(
    td: RootedTreeDecomposition, kept: Set[int], bags: Dict[int, FrozenSet[int]], what: str
) -> RootedTreeDecomposition:
    """The nodes `kept` of td with their cut `bags`, rooted at the one of
    them whose parent is not kept."""
    parent = td.parent
    tops = [t for t in kept if parent[t] not in kept]
    if len(tops) != 1:
        raise ContractViolation("%s: component bags do not span a subtree" % what)
    edges = sorted((parent[t], t) for t in kept if parent[t] in kept)
    return RootedTreeDecomposition({t: bags[t] for t in kept}, edges, tops[0])


class SubtreeIndex:
    """Aggregates over every subtree of one decomposition of one graph,
    computed once in O(|V| + |E| + total bag size), so that each far part
    (the vertices and nodes below a tree edge (p, c), under a fresh root
    bag holding the edge's adhesion) is a view built in O(1).

    Nodes are numbered in preorder, so c's subtree is an interval of that
    order.  Each vertex is filed under its top holder, the holder nearest
    the root: the part below (p, c) is the vertices filed in c's interval
    plus the adhesion, whose top holders all sit above c.  Each edge is
    filed under the deeper top holder of its two ends, which is the top of
    the nodes holding both: the part's edges are those filed in c's
    interval plus those joining two adhesion vertices.  Expects td to be a
    validated decomposition of g."""

    def __init__(self, g: WeightedGraph, td: RootedTreeDecomposition):
        self.g, self.td = g, td
        pre: List[int] = []
        stack = [td.root]
        while stack:
            t = stack.pop()
            pre.append(t)
            stack.extend(reversed(td.children[t]))
        tin = {t: i for i, t in enumerate(pre)}
        par = [tin[td.parent[t]] if i else -1 for i, t in enumerate(pre)]
        end = list(range(1, len(pre) + 1))
        pos: Dict[int, int] = {}
        for i, t in enumerate(pre):
            for v in td.bags[t]:
                pos.setdefault(v, i)
        order = sorted(pos, key=pos.__getitem__)
        # first[i]: where the vertices filed at node i start in `order`
        first = [0] * (len(pre) + 1)
        for v in order:
            first[pos[v] + 1] += 1
        for i in range(len(pre)):
            first[i + 1] += first[i]
        vmax = [-1] * len(pre)
        for v, i in pos.items():
            vmax[i] = max(vmax[i], v)
        inf = float("inf")
        wlo = [inf] * len(pre)
        whi = [-1] * len(pre)
        for u, nbrs in g._sadj.items():
            pu = pos[u]
            for (v, w) in nbrs:
                if u < v:
                    i = max(pu, pos[v])
                    wlo[i] = min(wlo[i], w)
                    whi[i] = max(whi[i], w)
        for i in range(len(pre) - 1, 0, -1):
            p = par[i]
            end[p] = max(end[p], end[i])
            vmax[p] = max(vmax[p], vmax[i])
            wlo[p] = min(wlo[p], wlo[i])
            whi[p] = max(whi[p], whi[i])
        self.pre, self.tin, self.end, self.pos = pre, tin, end, pos
        self.order, self.first, self.vmax, self.wlo, self.whi = order, first, vmax, wlo, whi

    def part(self, c: int) -> "_PartVertices":
        """The vertices below the tree edge into c."""
        td = self.td
        return _PartVertices(self, self.tin[c], td.bags[c] & td.bags[td.parent[c]])

    def far_part(self, c: int, fresh: int) -> Tuple[SubgraphView, "SubtreeDecomposition"]:
        """g[part] and the subtree below c under the fresh root node `fresh`
        holding c's adhesion to its parent, both as views."""
        part = self.part(c)
        adh = part.adhesion
        i = self.tin[c]
        lo, hi = self.wlo[i], self.whi[i]
        sadj = self.g._sadj
        for a in adh:
            for (b, w) in sadj[a]:
                if a < b and b in adh:
                    lo, hi = min(lo, w), max(hi, w)
        top = max(self.vmax[i], max(adh, default=-1))
        view = SubgraphView(self.g, part, None if hi < 0 else (lo, hi), top)
        return view, SubtreeDecomposition(self, c, fresh, adh)


class _PartVertices(AbstractSet):
    """The vertices below a tree edge (see SubtreeIndex): membership and
    size in O(1), listing on demand.  Set operations with an ordinary set
    iterate that set where they can (`z - part`, `z & part`, `z <= part`)."""

    __slots__ = ("_pos", "_lo", "_hi", "adhesion", "_order", "_a", "_b")

    def __init__(self, index: SubtreeIndex, i: int, adh: FrozenSet[int]):
        self._pos, self._lo, self._hi, self.adhesion = index.pos, i, index.end[i], adh
        self._order, self._a, self._b = index.order, index.first[i], index.first[index.end[i]]

    def __contains__(self, v: object) -> bool:
        return self._lo <= self._pos.get(v, -1) < self._hi or v in self.adhesion

    def __len__(self) -> int:
        return self._b - self._a + len(self.adhesion)

    def __iter__(self):
        yield from self._order[self._a:self._b]
        yield from self.adhesion

    @classmethod
    def _from_iterable(cls, it: Iterable[int]) -> FrozenSet[int]:
        return frozenset(it)


class _SubtreeMap(Mapping):
    """A node-keyed map of an indexed decomposition, cut down to the
    preorder interval [lo, hi), with a few entries replaced or added."""

    __slots__ = ("_base", "_index", "_tin", "_lo", "_hi", "_extra")

    def __init__(self, base: Mapping, index: SubtreeIndex, lo: int, hi: int, extra: dict):
        self._base, self._index, self._lo, self._hi, self._extra = base, index, lo, hi, extra
        self._tin = index.tin

    def __getitem__(self, t: int):
        if t in self._extra:
            return self._extra[t]
        if self._lo <= self._tin.get(t, -1) < self._hi:
            return self._base[t]
        raise KeyError(t)

    def _added(self) -> List[int]:
        return [t for t in self._extra if not self._lo <= self._tin.get(t, -1) < self._hi]

    def __iter__(self):
        yield from self._index.pre[self._lo:self._hi]
        yield from self._added()

    def __len__(self) -> int:
        return self._hi - self._lo + len(self._added())


class SubtreeDecomposition(RootedTreeDecomposition):
    """The subtree of an indexed decomposition below node c, under a fresh
    root node whose bag is c's adhesion to its parent: a view built in
    O(1).  Its one tree edge not in the indexed decomposition is
    (fresh, c); every other edge keeps its bags and children, so an edge
    is checked, and its adhesion read, off the indexed tree directly."""

    def __init__(self, index: SubtreeIndex, c: int, fresh: int, adh: FrozenSet[int]):
        base = index.td
        if fresh in index.tin:
            raise GraphError("node id %s already used" % (fresh,))
        lo, hi = index.tin[c], index.end[index.tin[c]]
        self.index, self.root, self._lo, self._hi = index, fresh, lo, hi
        self._top, self._adh = c, adh
        self.bags = _SubtreeMap(base.bags, index, lo, hi, {fresh: adh})
        self.parent = _SubtreeMap(base.parent, index, lo, hi, {fresh: None, c: fresh})
        self.children = _SubtreeMap(base.children, index, lo, hi, {fresh: (c,)})
        self._subtree_cache: Dict[int, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return self._hi - self._lo + 1

    def check_edge(self, e: TreeEdge) -> TreeEdge:
        """One preorder interval test: (fresh root, c) is the new edge, and
        any other edge is the indexed tree's, strictly inside c's interval."""
        p, ch = e
        if ch == self._top:
            ok = p == self.root
        else:
            ok = self._lo < self.index.tin.get(ch, -1) < self._hi and self.index.td.parent[ch] == p
        if not ok:
            raise GraphError("(%s,%s) is not a (parent, child) tree edge" % (p, ch))
        return (p, ch)

    def adhesion_of(self, e: TreeEdge) -> FrozenSet[int]:
        p, ch = self.check_edge(e)
        bags = self.index.td.bags
        return (self._adh if p == self.root else bags[p]) & bags[ch]

    @property
    def nodes(self) -> Tuple[int, ...]:  # type: ignore[override]
        return tuple(sorted(self.bags))

    @property
    def tree_edges(self) -> Tuple[TreeEdge, ...]:  # type: ignore[override]
        return tuple(sorted((self.parent[t], t) for t in self.bags if t != self.root))

    def subtree_vertices(self, e: TreeEdge) -> AbstractSet:
        return self.index.part(self.check_edge(e)[1])

    def holders_of(self, v: int) -> Tuple[int, ...]:
        tin, lo, hi = self.index.tin, self._lo, self._hi
        inside = tuple(t for t in self.index.td.holders_of(v) if lo <= tin[t] < hi)
        return inside + ((self.root,) if v in self.bags[self.root] else ())


class _DSU:
    def __init__(self, items: Iterable[int]):
        self.up = {x: x for x in items}

    def find(self, x: int) -> int:
        while self.up[x] != x:
            self.up[x] = self.up[self.up[x]]
            x = self.up[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.up[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class Hierarchy:
    """Layered forest over the partitions of a ground set (an adhesion) at
    levels 0 and 1 and at each level where two parts merge.  Level-0
    vertices (the base B) are the singletons of the ground set; each part
    links to its parent at the next recorded level.  Each level's parts
    have vertex ids, aligned with `parts`, and the edges join ids: a
    level-0 part's id is its ground vertex, and the upper parts count up
    from a first free id in (level, part) order."""

    ground: Tuple[int, ...]
    levels: Tuple[int, ...]
    parts: Dict[int, Tuple[FrozenSet[int], ...]]
    ids: Dict[int, Tuple[int, ...]]
    edges: Tuple[Tuple[int, int, Fraction], ...]
    ell: Fraction
    eps: Fraction
    theta: int
    mu: Fraction

    def verify(self) -> None:
        """Check the partitions, then the forest.  The recorded levels hold
        level 0, which is the singletons of the ground set; each level's
        parts partition the ground set; and each level refines the next.

        The forest's invariants are checked on its own edge list, with no
        graph built: every edge weighs in (0, ell/2]; every vertex lies within
        ell/2 of the base; in each component, the smallest vertex reaches
        the whole component within ell; and there are at most |B|**2
        non-base vertices.  Distances are exact integers in units of
        1/scale, scale the least common denominator of the weights and
        ell/2.  Components come in the order of their smallest ids and each
        is read in id order, so a failure names the distance that the same
        searches on the forest as a WeightedGraph over its ids would."""
        self._verify_partitions()
        # ell/2 = ell.numerator / half_den, not reduced: any common multiple
        # of the denominators serves as the scale
        half_den = 2 * self.ell.denominator
        scale = math.lcm(half_den, _weight_scale(self.edges))
        half_s = self.ell.numerator * (scale // half_den)
        scaled = {id(w): w.numerator * (scale // w.denominator) for (_, _, w) in self.edges}
        for (_, _, w) in self.edges:
            if not 0 < scaled[id(w)] <= half_s:
                raise ContractViolation("hierarchy edge weight %s outside (0, %s]" % (w, self.ell / 2))
        if not self.ground:
            return
        adj: Dict[int, List[Tuple[int, int]]] = {v: [] for i in self.levels for v in self.ids[i]}
        for (a, b, w) in self.edges:
            if a == b:
                raise GraphError("self-loop at vertex %s" % (a,))
            s = scaled[id(w)]
            adj[a].append((b, s))
            adj[b].append((a, s))
        if len(_heap_search(adj, self.ids[0], half_s, None, None)) != len(adj):
            raise ContractViolation("hierarchy vertex farther than %s from the base" % (self.ell / 2,))
        ell_s = 2 * half_s
        seen: Set[int] = set()
        for src in sorted(adj):
            if src in seen:
                continue
            dist = _heap_search(adj, (src,), None, None, None)
            seen.update(dist)
            for v in sorted(dist):
                if dist[v] > ell_s:
                    raise ContractViolation(
                        "hierarchy component pair at distance %s > %s"
                        % (frac_str(Fraction(dist[v], scale)), self.ell)
                    )
        n_base = len(self.parts[0])
        n_upper = sum(len(self.parts[i]) for i in self.levels if i != 0)
        if n_upper > n_base * n_base:
            raise ContractViolation("hierarchy has %d non-base vertices > |B|^2 = %d" % (n_upper, n_base**2))

    def _verify_partitions(self) -> None:
        if 0 not in self.levels:
            raise ContractViolation("chain misses level 0")
        if self.parts[0] != tuple(frozenset([x]) for x in self.ground):
            raise ContractViolation("level 0 is not the singleton partition")
        levels = sorted(self.levels)
        gset = set(self.ground)
        for k in levels:
            seen: Set[int] = set()
            for part in self.parts[k]:
                if part & seen:
                    raise ContractViolation("level %s parts overlap" % (k,))
                seen |= part
            if seen != gset:
                raise ContractViolation("level %s does not cover the ground set" % (k,))
        for a, b in zip(levels, levels[1:]):
            coarse = {x: i for i, part in enumerate(self.parts[b]) for x in part}
            for part in self.parts[a]:
                if len({coarse[x] for x in part}) != 1:
                    raise ContractViolation("level %s does not refine level %s" % (a, b))


def adhesion_hierarchy(
    g: WeightedGraph,
    td: RootedTreeDecomposition,
    e: TreeEdge,
    eps: object,
    max_level: int,
    ell: object,
    theta: int,
    mu: object,
    next_id: int,
) -> Hierarchy:
    """The checked layered forest of the adhesion X_e below e, its upper
    parts numbered from the free vertex id `next_id` on.

    Its level-i partition of X_e puts two members together when a path
    inside the subtree part joins them using only vertices within i*eps of
    X_e and edges of weight at most i*eps.  A path works at level i exactly
    when its bottleneck (the largest of its vertex distances to X_e and its
    edge weights) is at most i*eps, so the levels where parts merge come
    out of one bottleneck union-find sweep over the edges that the search
    within the part reaches.  The sweep runs on the search's integers, in
    units of 1/scale: a bottleneck t lies at level max(1, ceil(t*den /
    (num*scale))) for eps = num/den.

    The forest's levels are 0, 1 and each merge level up to max_level; its
    edges join each part to the part holding it one recorded level up and
    weigh (j-i)*eps / (8*(theta+mu/ell))."""
    ef = as_fraction(eps)
    if ef.numerator <= 0 or max_level < 0:
        raise GraphError("need positive eps and nonnegative max level")
    td.check_edge(e)
    lf = as_fraction(ell)
    mf = as_fraction(mu)
    # parameter checks and the unit weight on numerators and denominators
    if ef.numerator * lf.denominator > lf.numerator * ef.denominator:
        raise GraphError("eps %s exceeds ell %s" % (ef, lf))
    if theta < 1 or mf.numerator < 0:
        raise GraphError("need theta >= 1 and mu >= 0")
    if max_level < 1:
        raise GraphError("hierarchy needs a chain reaching level 1")
    if next_id <= g.max_vertex():
        raise GraphError("hierarchy id %s is a vertex id of the graph" % (next_id,))
    ground = tuple(sorted(td.adhesion_of(e)))
    parts: Dict[int, Tuple[FrozenSet[int], ...]] = {0: tuple(frozenset([x]) for x in ground)}
    if len(ground) > 1:
        radius = ef * max_level
        cap = radius.numerator * g._scale // radius.denominator
        dist = g._scaled_distances(ground, radius=radius, within=td.subtree_vertices(e))
        num, den = ef.numerator * g._scale, ef.denominator
        # each reached edge, filed under the level of its bottleneck; a
        # neighbour outside the part, or outside a view, is unreached
        joins: Dict[int, List[Tuple[int, int]]] = {}
        for u, du in dist.items():
            for (v, w) in g._sadj[u]:
                if u < v and v in dist:
                    t = max(w, du, dist[v])
                    if t <= cap:
                        joins.setdefault(max(1, -(-t * den // num)), []).append((u, v))
        dsu = _DSU(dist)
        for level in sorted(joins):
            for (u, v) in joins[level]:
                dsu.union(u, v)
            groups: Dict[int, List[int]] = {}
            for x in ground:
                groups.setdefault(dsu.find(x), []).append(x)
            if len(groups) < len(parts[max(parts)]):
                parts[level] = tuple(frozenset(y) for y in sorted(groups.values()))
    parts.setdefault(1, parts[0])
    levels = tuple(sorted(parts))
    # eps / (8*(theta + mu/ell)), with ell >= eps > 0
    lm = lf.numerator * mf.denominator
    unit = Fraction(
        ef.numerator * lm, 8 * ef.denominator * (theta * lm + mf.numerator * lf.denominator)
    )
    ids: Dict[int, Tuple[int, ...]] = {0: ground}
    for i in levels[1:]:
        ids[i] = tuple(range(next_id, next_id + len(parts[i])))
        next_id += len(parts[i])
    edges: List[Tuple[int, int, Fraction]] = []
    for i, j in zip(levels, levels[1:]):
        id_of = {x: yid for yj, yid in zip(parts[j], ids[j]) for x in yj}
        w = unit if j - i == 1 else (j - i) * unit
        for yi, yid in zip(parts[i], ids[i]):
            edges.append((yid, id_of[min(yi)], w))
    h = Hierarchy(ground, levels, parts, ids, tuple(edges), lf, ef, theta, mf)
    h.verify()
    return h


@dataclass(frozen=True)
class HierarchyAttachment:
    part_vertices: FrozenSet[int]
    hierarchy: Hierarchy


@dataclass(frozen=True)
class ShortcutAttachment:
    part_vertices: FrozenSet[int]
    reach: FrozenSet[int]  # ball of radius ell around X_e inside the part
    shortcuts: Tuple[Tuple[int, int, Fraction], ...]


@dataclass(frozen=True)
class Condensation:
    g: WeightedGraph
    td: RootedTreeDecomposition
    g0: WeightedGraph
    td0: RootedTreeDecomposition  # decomposition of g0, see condense
    u_e: Tuple[TreeEdge, ...]
    ell: Fraction
    theta: int
    mu: Fraction
    eps: Fraction
    t0_vertices: FrozenSet[int]
    base_vertices: FrozenSet[int]  # V(G0) shared with V(G)
    hierarchies: Dict[TreeEdge, HierarchyAttachment]
    shortcut_parts: Dict[TreeEdge, ShortcutAttachment]


def condense(
    g: WeightedGraph,
    td: RootedTreeDecomposition,
    u_e: Iterable[TreeEdge],
    u_e_prime: Iterable[TreeEdge],
    ell: object,
    theta: int,
    mu: object,
) -> Condensation:
    """Build the condensed graph over the frontier u_e: the root side plus,
    per frontier edge, either an attached hierarchy forest (u_e_prime) or
    the radius-ell fringe with distance-scaled shortcut edges.

    The condensed graph g0 is built once, with no copy of g's part in it:
    its base edges are g's own edges inside the base, read off g's
    edge index in edge order (g's base graph for a view), and only
    the shortcut and hierarchy edges are checked, as the WeightedGraph
    constructor checks an edge.  g0's fields are those the constructor
    gives WeightedGraph(V(G0), base edges + new edges).

    The condensed graph comes with a validated decomposition td0: the root
    side's bags, plus one leaf per frontier edge, at the edge's child node,
    holding the edge's hierarchy vertices or its fringe reach.  Every leaf
    keeps the adhesion its edge has in td."""
    lf = as_fraction(ell)
    mf = as_fraction(mu)
    if theta < 1 or lf.numerator <= 0 or mf.numerator < 0:
        raise GraphError("need theta >= 1, ell > 0, mu >= 0")
    require_light_edges(g, lf)
    frontier = tuple(sorted(td.check_edge(e) for e in set(u_e)))
    prime = tuple(sorted(td.check_edge(e) for e in set(u_e_prime)))
    if set(prime) - set(frontier):
        raise GraphError("u_e_prime must be a subset of u_e")
    # the nodes reached from the root without crossing the frontier
    cut = set(frontier)
    reached = [td.root]
    for t in reached:
        reached.extend(ch for ch in td.children[t] if (t, ch) not in cut)
    t0_nodes = tuple(sorted(reached))
    kept = set(t0_nodes)
    for (p, c) in frontier:
        if p not in kept:
            raise GraphError(
                "frontier edge (%s,%s) hangs below another frontier edge" % (p, c)
            )
    adhesions = {e: td.adhesion_of(e) for e in frontier}
    for e in prime:
        if len(adhesions[e]) > theta:
            raise GraphError("adhesion of %s has more than theta=%d vertices" % (e, theta))
    ew = g.min_edge_weight()
    eps = ew if ew is not None else lf
    # max_level = ceil((3 ell + mu) / eps), on numerators and denominators
    span_num = 3 * lf.numerator * mf.denominator + mf.numerator * lf.denominator
    span_den = lf.denominator * mf.denominator
    max_level = -(-span_num * eps.denominator // (span_den * eps.numerator))

    t0_vertices = td.bag_union(t0_nodes)
    base: Set[int] = set(t0_vertices)
    shortcut_parts: Dict[TreeEdge, ShortcutAttachment] = {}
    extra_edges: List[Tuple[int, int, Fraction]] = []
    shortcut_edges = [e for e in frontier if e not in prime]
    if shortcut_edges:
        # the shortcut searches run on g's integer distances s = d * scale,
        # capped at (3 lf + mu) * scale, and a kept shortcut weighs
        # lf * d / (3 lf + mu), that is s * per_unit
        cap = span_num * g._scale // span_den
        per_unit = lf * Fraction(span_den, span_num * g._scale)
    for e in shortcut_edges:
        x_e = adhesions[e]
        part = td.subtree_vertices(e)
        reach = frozenset(g._scaled_distances(x_e, radius=lf, within=part))
        base |= reach
        fringe = sorted(reach - x_e)
        fset = set(fringe)
        shortcuts: List[Tuple[int, int, Fraction]] = []
        for u in fringe:
            du = g._search((u,), cap, part, None)
            for v, s in du.items():
                if v in fset and v > u:
                    shortcuts.append((u, v, per_unit * s))
        shortcuts.sort()
        extra_edges.extend(shortcuts)
        shortcut_parts[e] = ShortcutAttachment(part, reach, tuple(shortcuts))

    hierarchies: Dict[TreeEdge, HierarchyAttachment] = {}
    vertices = set(base)
    next_id = g.max_vertex() + 1
    for e in prime:
        hier = adhesion_hierarchy(g, td, e, eps, max_level, lf, theta, mf, next_id)
        extra_edges.extend(hier.edges)
        next_id += sum(len(hier.ids[i]) for i in hier.levels[1:])
        vertices.update(*hier.ids.values())
        hierarchies[e] = HierarchyAttachment(td.subtree_vertices(e), hier)

    g0 = g._induced_plus(base, vertices, extra_edges)
    if not g0._no_heavier_than(lf):
        raise ContractViolation("condensed graph carries weight %s > ell" % (g0.max_edge_weight(),))
    td0 = _condensed_decomposition(td, t0_nodes, frontier, hierarchies, shortcut_parts)
    validate_td(g0, td0, "condensed decomposition invalid")
    for e in frontier:
        if td0.adhesion_of(e) != adhesions[e]:
            raise ContractViolation("condensed leaf %s changed its adhesion" % (e,))
    return Condensation(
        g=g, td=td, g0=g0, td0=td0, u_e=frontier, ell=lf, theta=theta, mu=mf,
        eps=eps, t0_vertices=t0_vertices, base_vertices=frozenset(base),
        hierarchies=hierarchies, shortcut_parts=shortcut_parts,
    )


def _condensed_decomposition(
    td: RootedTreeDecomposition,
    t0_nodes: Tuple[int, ...],
    frontier: Tuple[TreeEdge, ...],
    hierarchies: Dict[TreeEdge, HierarchyAttachment],
    shortcut_parts: Dict[TreeEdge, ShortcutAttachment],
) -> RootedTreeDecomposition:
    """td's root side with one leaf per frontier edge, at the edge's child
    node: what RootedTreeDecomposition(bags0, root-side edges + frontier,
    td.root) gives, read off td's tree with no search.  Every child of a
    root-side node is root-side or a frontier child, so a root-side node
    keeps its children and a leaf has none."""
    bags0: Dict[int, FrozenSet[int]] = {t: td.bags[t] for t in t0_nodes}
    parent0: Dict[int, Optional[int]] = {t: td.parent[t] for t in t0_nodes}
    children0: Dict[int, Tuple[int, ...]] = {t: td.children[t] for t in t0_nodes}
    for e in frontier:
        p, c = e
        if e in hierarchies:
            bags0[c] = frozenset().union(*hierarchies[e].hierarchy.ids.values())
        else:
            bags0[c] = shortcut_parts[e].reach
        parent0[c] = p
        children0[c] = ()
    edges0 = tuple(sorted((parent0[t], t) for t in parent0 if t != td.root))
    return RootedTreeDecomposition._derived(
        bags0, parent0, children0, tuple(sorted(parent0)), edges0, td.root
    )


def lift_condensation_coloring(
    cond: Condensation,
    patched: ColorResult,
    deleted: Iterable[int] = (),
    centers_per_big_adhesion: Optional[Dict[TreeEdge, Iterable[int]]] = None,
    what: str = "condensation lift",
    exact: bool = True,
) -> ColorResult:
    """Pull a checked coloring of the condensed graph back to the frontier zone.

    `patched` is the result of checking a coloring c0 of the condensed
    graph, as patch_colorings returns it: its report measures c0 over
    V(G0) minus `deleted` in the power graph of G0.  Its bound is the
    claimed input bound n and its report the input measurement; the lift
    checks that the report holds at n and does not measure c0 again.

    Vertices of the root side and the fringe keep their condensed color; a
    vertex at distance d of an adhesion with a hierarchy inherits the color
    of the hierarchy part its nearest adhesion vertex sits in at level
    ceil(d/eps); the two outer zones (distance in (ell,2*ell] and
    (2*ell,3*ell] of an adhesion) take guard colors 1 and 2, so the result
    has at least two colors and as many as c0 has.  It is re-verified at the
    lift bound con_color_bound(ell, n, theta, mu).

    Each frontier edge costs one search per adhesion vertex when it has a
    hierarchy: the distances to X_e are the least of those single-source
    distances, the same dict the multi-source search gives.  A shortcut
    part, whose colors need no single-source distance, runs the one
    multi-source search instead.  Distances stay the searches' integers
    (units of 1/scale), and zones and levels come from integer divisions,
    so no Fraction is built per reached vertex.
    """
    g, td, lf = cond.g, cond.td, cond.ell
    c0 = patched.coloring
    rset = set(deleted)
    if rset - g.vertex_set():
        raise GraphError("deleted set contains unknown vertices")
    centers = {td.check_edge(e): a for e, a in (centers_per_big_adhesion or {}).items()}
    for e in cond.u_e:
        x_e = td.adhesion_of(e)
        if len(x_e) <= cond.theta:
            continue
        if e not in centers:
            raise GraphError("adhesion of %s exceeds theta and has no center certificate" % (e,))
        CenterCertificate.build(g, centers[e], cond.mu, x_e, cond.theta)

    pool0 = set(cond.g0.vertices) - rset
    uncolored = pool0 - c0.domain
    if uncolored:
        raise GraphError(
            "input coloring misses condensed vertices %s" % sorted(uncolored)[:5]
        )
    rep0, nf = patched.report, patched.bound
    measured0 = max(1, rep0.max_weak_diameter_hops)
    if measured0 * nf.denominator > nf.numerator or not rep0.ok or rep0.bound != nf:
        raise ContractViolation(
            "%s: input coloring measures %s hops, claimed %s" % (what, measured0, frac_str(nf))
        )

    assignment: Dict[int, int] = {}
    for v in cond.t0_vertices:
        if v not in rset:
            assignment[v] = c0.color(v)
    # distances stay integers in units of 1/scale: the zone of a distance
    # d is ceil(d / (ell * scale)), one integer division
    radius, scale = 3 * lf, g._scale
    zone_den, zone_num = lf.denominator, scale * lf.numerator
    for e in cond.u_e:
        x_e = td.adhesion_of(e)
        if not x_e:
            continue
        part = (
            cond.hierarchies[e].part_vertices
            if e in cond.hierarchies
            else cond.shortcut_parts[e].part_vertices
        )
        att = cond.hierarchies.get(e)
        per_source: Dict[int, Dict[int, int]] = {}
        if att is None:
            dist = g._scaled_distances(sorted(x_e), radius=radius, within=part)
        else:
            # the multi-source distance is the least single-source one, and
            # each single source is searched anyway for the hierarchy colors
            dist = {}
            for x in sorted(x_e):
                per_source[x] = dx = g._scaled_distances([x], radius=radius, within=part)
                for v, d in dx.items():
                    if v not in dist or d < dist[v]:
                        dist[v] = d
        for v, d in sorted(dist.items()):
            zone = max(1, -(-d * zone_den // zone_num))
            if v in rset or (v in assignment and zone == 1):
                continue
            if zone == 1:
                if v in cond.base_vertices:
                    assignment[v] = c0.color(v)
                else:
                    if att is None:
                        raise ContractViolation(
                            "fringe vertex %s of %s missing from the condensed graph" % (v, e)
                        )
                    assignment[v] = c0.color(_hierarchy_color_vertex(cond, att, per_source, v, d, scale))
            elif v not in assignment:
                assignment[v] = zone - 1
    domain = set(assignment)
    coloring = Coloring(assignment, max(2, c0.num_colors))
    bound = con_color_bound(lf, nf, cond.theta, cond.mu)
    report = check_weak_diameter(
        g, lf, coloring, bound=bound, what=what, restrict_to=domain, exact=exact
    )
    return ColorResult(coloring, bound, report)


def _hierarchy_color_vertex(
    cond: Condensation,
    att: HierarchyAttachment,
    per_source: Dict[int, Dict[int, int]],
    v: int,
    d: int,
    scale: int,
) -> int:
    """The condensed vertex whose color a fringe vertex inherits: the part,
    at the deepest recorded level not above ceil(d/eps), holding the nearest
    adhesion vertex.  Nearness ties break by ascending vertex id, and the
    part is checked to be the only one within reach.  Distances are in
    units of 1/scale, so each comparison with a multiple of eps is one
    integer comparison."""
    num, den = cond.eps.numerator * scale, cond.eps.denominator
    p_v = max(1, -(-d * den // num))
    j_v = max(i for i in att.hierarchy.levels if i <= p_v)
    nearest = min(
        (x for x in per_source if v in per_source[x]),
        key=lambda x: (per_source[x][v], x),
    )
    parts = att.hierarchy.parts[j_v]
    k_v = next(k for k, y in enumerate(parts) if nearest in y)
    # dy <= p_v * eps, in units of 1/scale
    reach = p_v * num
    for k, y in enumerate(parts):
        dy = min((per_source[x][v] for x in y if v in per_source[x]), default=None)
        if k == k_v:
            if dy is None or dy * den > reach:
                raise ContractViolation("nearest part of %s is out of reach" % (v,))
        elif dy is not None and dy * den <= reach:
            raise ContractViolation("vertex %s reaches two level-%d parts" % (v, j_v))
    return att.hierarchy.ids[j_v][k_v]
