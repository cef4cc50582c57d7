"""Geodesic trees and tripod certificates, the tree decompositions the
planar pipeline colors through: every bag is a union of at most three
vertical paths of a shortest-path tree.

`tripod_decomposition` runs the wedge recursion over a component's faces,
recording each node by its at most three corners, and verifies the
contracted result once as a `GeodesicCertificate` in corner form: no bag is
ever listed, so the certificate's size is linear in the graph's.

The public `tripod_decomposition` checks simplicity, connectivity and the
rotation's entries; the planar pipeline checks them once per graph.  Both
run the core, `_tripod_certificate`, which checks the rest: the rotation's
cover and sphere (`_trace_faces`), the wedge walk and the certificate.

`_TripodWindows` indexes a certificate for slab windows, and each window
piece (`_restrict_tripods`) visits only the nodes whose integer depth
interval meets its window, found by a sweep over the windows in slab order,
cuts each corner's slice by integer depth arithmetic, and contracts those
nodes.
"""

import heapq
import math
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import GraphError, Record, WeightedGraph
from .partition import ContractViolation
from .treedec import RootedTreeDecomposition, TreeEdge


class GeodesicTree(Record):
    """Shortest-path tree: parent links plus exact root distances."""

    __slots__ = ("root", "parent", "dist")


def bfs_geodesic_tree(g: WeightedGraph, root: int) -> GeodesicTree:
    """Exact-distance shortest-path tree from root; the parent is always the
    smallest-id neighbor lying on some shortest path.

    Distances come from one search in units of 1/scale,
    WeightedGraph._search: a BFS by levels when every edge weighs the same,
    a heap Dijkstra otherwise.  They agree exactly, since with one weight
    the heap settles the vertices level by level and each level in
    vertex-id order, which is the order the BFS takes.  Parents are picked
    on those integers and the scaled weights, and each distance becomes a
    Fraction once, at the end."""
    if root not in g.vertex_set():
        raise GraphError("unknown root %s" % (root,))
    sdist = g._scaled_distances([root])
    missing = g.vertex_set() - set(sdist)
    if missing:
        raise GraphError("graph is disconnected; unreached %s" % sorted(missing)[:5])
    sadj = g._sadj
    parent: Dict[int, Optional[int]] = {root: None}
    for v in g.vertices:
        if v == root:
            continue
        dv = sdist[v]
        best: Optional[int] = None
        for (u, w) in sadj[v]:
            # a neighbour outside a view is unreached, so it has no distance
            du = sdist.get(u)
            if du is not None and du + w == dv and (best is None or u < best):
                best = u
        if best is None:
            raise ContractViolation("no predecessor reproduces the distance of %s" % v)
        parent[v] = best
    scale = g._scale
    return GeodesicTree(root, parent, {v: Fraction(d, scale) for v, d in sdist.items()})


class _Ranks:
    """The vertices of a rooted tree, given by parent links, in preorder,
    for ancestor tests and lowest common ancestors on positions: the vertex
    at i is an ancestor-or-self of the one at j iff i <= j < end[i].
    `up[k][i]` is the position 2**k steps above i (the root is its own
    parent), so a common ancestor or a depth cut takes O(log depth) steps."""

    def __init__(self, root: int, parent_of: Dict[int, Optional[int]], verts: Sequence[int]):
        children: Dict[int, List[int]] = {v: [] for v in verts}
        if root not in children:
            raise ContractViolation("certificate root is not a vertex")
        for v in verts:
            p = parent_of.get(v)
            if v != root and p in children:
                children[p].append(v)
        order: List[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(children[v])
        if len(order) != len(verts):
            raise ContractViolation("certificate tree does not cover the vertices")
        n = len(order)
        rank = {v: i for i, v in enumerate(order)}
        parent = [0] * n
        depth = [0] * n
        for i in range(1, n):
            parent[i] = p = rank[parent_of[order[i]]]
            depth[i] = depth[p] + 1
        end = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            p = parent[i]
            if end[i] > end[p]:
                end[p] = end[i]
        up = [parent]
        for _ in range(max(depth).bit_length() - 1):
            row = up[-1]
            up.append([row[row[i]] for i in range(n)])
        self.order, self.rank, self.end, self.parent, self.up = order, rank, end, parent, up

    def lca(self, i: int, j: int) -> int:
        end = self.end
        if i <= j < end[i]:
            return i
        if j <= i < end[j]:
            return j
        for row in reversed(self.up):
            a = row[i]
            if not a <= j < end[a]:
                i = a
        return self.parent[i]


def _root_marks(ranks: _Ranks, points: Iterable[int], top: int, sign: int, w: List[int]) -> None:
    """Add `sign` times the indicator of the vertices on a path from one of
    `points` up to `top`, all of them in top's subtree, to the subtree sums
    of w: +sign at each point, -sign at the common ancestor of each pair of
    points adjacent in preorder, and -sign above top."""
    pts = sorted(set(points))
    if not pts:
        return
    for i in pts:
        w[i] += sign
    for a, b in zip(pts, pts[1:]):
        w[ranks.lca(a, b)] -= sign
    if top:
        w[ranks.parent[top]] -= sign


class GeodesicCertificate(Record):
    """Checkable witness that a tree decomposition is made of vertical
    paths of a shortest-path tree, in corner form: node t's bag is every
    vertex on a tree path from one of its at most three `corners[t]` up to
    `tops[t]`.  A corner stands for its whole path, so no bag is listed;
    for a graph with a cycle every top is the tree root and a corner
    stands for its root path.  The nodes form a tree by their (parent,
    child) `tree_edges` under `root`."""

    __slots__ = ("tree", "corners", "tops", "tree_edges", "root")

    def verify(self, g: WeightedGraph) -> None:
        """Check the tree, the vertical paths and the decomposition; raises
        ContractViolation on failure.  This is the one place that checks
        that certified paths are vertical: every consumer of a certificate
        reads its paths from corners and tops and trusts that each top
        sits above its corners.

        The tree is checked on g's integer distances and scaled weights
        (units of 1/scale): a certified distance p/q equals a distance
        d/scale exactly when p*scale == d*q, so no Fraction is built.  The
        rest runs on preorder positions (`_Ranks`).  A vertex's holders
        form a forest of (bags holding it) - (adhesions holding it)
        components, and every bag and adhesion is a union of paths up to
        one top, so one subtree sum per vertex counts both: each must be 1.
        An edge lies in a bag iff the highest holder of one end holds the
        other, since holders are subtrees."""
        tree = self.tree
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
        nodes = self.corners
        if set(self.tops) != set(nodes):
            raise ContractViolation("certificate tops do not match its nodes")
        node_parent: Dict[int, int] = {}
        kids: Dict[int, List[int]] = {t: [] for t in nodes}
        for (p, c) in self.tree_edges:
            if p not in nodes or c not in nodes or c == self.root or c in node_parent or p == c:
                raise ContractViolation("certificate edge (%s,%s) breaks its node tree" % (p, c))
            node_parent[c] = p
            kids[p].append(c)
        if self.root not in nodes:
            raise ContractViolation("certificate root node %s is not a node" % (self.root,))
        by_depth = [self.root]
        for t in by_depth:
            by_depth.extend(kids[t])
        if len(by_depth) != len(nodes):
            raise ContractViolation("certificate nodes do not form one tree under its root")
        ranks = _Ranks(tree.root, tree.parent, list(g.vertices))
        rank, end, order = ranks.rank, ranks.end, ranks.order
        pos: Dict[int, Tuple[int, ...]] = {}
        top: Dict[int, int] = {}
        for t in by_depth:
            cs = nodes[t]
            if len(cs) > 3:
                raise ContractViolation("node %s carries %d > 3 paths" % (t, len(cs)))
            if self.tops[t] not in vset or not vset.issuperset(cs):
                raise ContractViolation("node %s names a vertex outside the graph" % t)
            h = top[t] = rank[self.tops[t]]
            pos[t] = tuple(rank[c] for c in cs)
            for c in pos[t]:
                if not h <= c < end[h]:
                    raise ContractViolation(
                        "node %s path from %s does not climb to its top %s"
                        % (t, order[c], self.tops[t])
                    )
        w = [0] * len(order)
        for t in by_depth:
            _root_marks(ranks, pos[t], top[t], 1, w)
            p = node_parent.get(t)
            if p is None:
                continue
            # the adhesion: paths up to the lower top from the common
            # ancestors of corner pairs, where that top is above them
            hp, ht = top[p], top[t]
            h = ht if hp <= ht < end[hp] else hp if ht <= hp < end[ht] else None
            if h is not None:
                meets = (ranks.lca(a, b) for a in pos[p] for b in pos[t])
                _root_marks(ranks, (x for x in meets if h <= x < end[h]), h, -1, w)
        parent = ranks.parent
        for i in range(len(order) - 1, 0, -1):
            w[parent[i]] += w[i]
        for i, count in enumerate(w):
            if count != 1:
                raise ContractViolation(
                    "certified decomposition invalid: %s"
                    % ("vertex %s is in no bag" % order[i] if count == 0 else
                       "bags containing vertex %s are not connected in the tree" % order[i])
                )
        # the highest holder of each vertex: nodes by depth claim their
        # unclaimed path vertices, found by jumping over claimed ones
        n = len(order)
        holder = [0] * n
        jump = list(range(n + 1))
        above = parent + [n]
        above[0] = n

        def free(x: int) -> int:
            while jump[x] != x:
                jump[x] = jump[jump[x]]
                x = jump[x]
            return x

        for t in by_depth:
            h = top[t]
            for c in pos[t]:
                x = free(c)
                while x < n and h <= x < end[h]:
                    holder[x] = t
                    jump[x] = above[x]
                    x = free(x)

        def holds(t: int, x: int) -> bool:
            h, e = top[t], end[x]
            if h <= x < end[h]:
                for c in pos[t]:
                    if x <= c < e:
                        return True
            return False

        for (u, v, _) in g.edges:
            a, b = rank[u], rank[v]
            if not holds(holder[a], b) and not holds(holder[b], a):
                raise ContractViolation(
                    "certified decomposition invalid: edge (%s,%s) is in no bag" % (u, v)
                )


def _check_simple(g: WeightedGraph) -> None:
    seen: Set[Tuple[int, int]] = set()
    for (u, v, _) in g.edges:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError("parallel edge (%s, %s); the embedding machinery needs a simple graph" % key)
        seen.add(key)


def _check_rotation(g: WeightedGraph, rotation: Dict[int, Sequence[int]]) -> None:
    """Every vertex the rotation system names is g's, and its order lists
    its neighbours in g exactly once.  A vertex it misses is not checked."""
    vset = g.vertex_set()
    alien = set(rotation) - vset
    if alien:
        raise GraphError("rotation names unknown vertices %s" % sorted(alien)[:5])
    for v in sorted(rotation):
        order = rotation[v]
        # a view shares its base's adjacency, so its neighbours are filtered
        around = sorted(n for (n, _) in g._sadj[v] if n in vset)
        if sorted(order) != around or len(set(order)) != len(order):
            raise GraphError("rotation at %s does not list its neighbors exactly once" % v)


def _trace_faces(
    g: WeightedGraph, rotation: Dict[int, Sequence[int]]
) -> List[Tuple[int, ...]]:
    """Face walks of a rotation system with checked entries; checks that it
    covers g's vertices, the Euler count and that each walk is a simple cycle."""
    if set(rotation) != g.vertex_set():
        raise GraphError("rotation system must cover the vertices exactly")
    # the dart (a, b) is followed by (b, succ[b][a])
    succ: Dict[int, Dict[int, int]] = {}
    for v in g.vertices:
        order = tuple(rotation[v])
        succ[v] = dict(zip(order, order[1:] + order[:1]))
    unseen = {v: set(out) for v, out in succ.items()}
    faces: List[Tuple[int, ...]] = []
    # faces start at, and come in the order of, their least darts
    for v in g.vertices:
        for u in sorted(succ[v]):
            if u not in unseen[v]:
                continue
            walk: List[int] = []
            a, b = v, u
            while True:
                unseen[a].remove(b)
                walk.append(a)
                a, b = b, succ[b][a]
                if a == v and b == u:
                    break
            if len(set(walk)) != len(walk):
                raise GraphError(
                    "a face walk revisits a vertex; the embedding must be 2-connected"
                )
            faces.append(tuple(walk))
    if len(g) - len(g.edges) + len(faces) != 2:
        raise GraphError("rotation system does not describe a sphere embedding")
    return faces


def tripod_decomposition(
    g: WeightedGraph,
    rotation: Optional[Dict[int, Sequence[int]]],
    tree: GeodesicTree,
    ranks: Optional[_Ranks] = None,
) -> GeodesicCertificate:
    """Tree decomposition of a connected embedded graph into bags made of at
    most three vertical paths of `tree`, returned as a contracted
    certificate in corner form that has been verified against g
    (`GeodesicCertificate.verify`), so callers need not verify it again.
    `ranks`, the preorder of `tree` over g's sorted vertices, is built here
    unless the caller passes the one it keeps for the window cuts; the
    check builds its own, so a wrong one fails it.

    It checks its input and runs `_tripod_certificate` (module notes).

    Faces longer than a triangle are star-triangulated with throwaway apex
    vertices (leaves of the tree, stripped from the output).  The recursion
    walks wedges: regions bounded by two root paths and an edge, split at
    the apex of the boundary face, with one node per wedge visited and one
    per face split.  A node's bag is the union of its corners' root paths
    (an apex stands for the face vertex it hangs from), so the recursion
    records only the corners and compares bags by an interval test on the
    preorder of `tree` (`_within`).  A new node whose bag sits strictly
    inside its parent's is absorbed at once (`_wedge_corners`); every node
    left whose bag sits inside a neighbour's is then contracted away
    (`_contract`).  Node ids count creations, absorbed nodes included.
    Trees need no rotation system: one node per vertex v holds the tree
    edge (v, parent), a corner v with top parent.  On a unit grid this
    leaves one node per pair of adjacent columns.
    """
    _check_simple(g)
    if not g.vertices:
        raise GraphError("nothing to decompose")
    if not g.is_connected():
        raise GraphError("tripod decomposition needs a connected graph")
    if rotation is not None:
        _check_rotation(g, rotation)
    return _tripod_certificate(g, rotation, tree, ranks)


def _tripod_certificate(
    g: WeightedGraph,
    rotation: Optional[Dict[int, Sequence[int]]],
    tree: GeodesicTree,
    ranks: Optional[_Ranks],
) -> GeodesicCertificate:
    """`tripod_decomposition` on an input its caller has checked."""
    verts = list(g.vertices)
    root = tree.root
    if len(verts) == 1:
        corners, tops, edges, top = {0: (root,)}, {0: root}, [], 0
    elif len(g.edges) == len(verts) - 1:
        # a tree: one node per vertex v holding its tree edge (v, parent)
        tops = {v: tree.parent[v] for v in verts if v != root}
        tops[root] = root
        bags = {v: frozenset((v, p)) for v, p in tops.items()}
        alive, edges, top = _contract(
            verts, sorted((p, v) for v, p in tops.items() if v != root), root,
            lambda s, t: bags[s] <= bags[t],
        )
        corners = {t: (t,) for t in alive}
        tops = {t: tops[t] for t in alive}
    else:
        ranks = ranks or _Ranks(root, tree.parent, verts)
        found, tree_edges = _wedge_corners(g, rotation, tree, ranks)
        alive, edges, top = _contract(
            sorted(found), sorted(tree_edges), 0, lambda s, t: _within(found[s], found[t], ranks.end)
        )
        order = ranks.order
        corners = {t: tuple(order[c] for c in found[t]) for t in alive}
        tops = {t: root for t in alive}
    cert = GeodesicCertificate(tree, corners, tops, _oriented(edges, top), top)
    cert.verify(g)
    return cert


def _oriented(edges: Iterable[TreeEdge], root: int) -> Tuple[TreeEdge, ...]:
    """The tree `edges` as sorted (parent, child) pairs under `root`."""
    adj: Dict[int, List[int]] = {root: []}
    for (a, b) in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    out: List[TreeEdge] = []
    seen = {root}
    stack = [root]
    while stack:
        t = stack.pop()
        for n in adj[t]:
            if n not in seen:
                seen.add(n)
                out.append((t, n))
                stack.append(n)
    return tuple(sorted(out))


def _within(cs: Tuple[int, ...], ts: Tuple[int, ...], end: List[int]) -> bool:
    """Whether the root paths from corner positions cs lie inside those
    from ts: each corner of cs is an ancestor-or-self of one of ts."""
    for c in cs:
        e = end[c]
        for x in ts:
            if c <= x < e:
                break
        else:
            return False
    return True


def _wedge_corners(
    g: WeightedGraph,
    rotation: Optional[Dict[int, Sequence[int]]],
    tree: GeodesicTree,
    ranks: _Ranks,
) -> Tuple[Dict[int, Tuple[int, ...]], List[TreeEdge]]:
    """The wedge recursion of `tripod_decomposition` on a graph with a
    cycle: per node id (from 0, the root node), the preorder positions of
    its distinct corners, and the (parent, child) edges between node ids.
    A new node whose bag sits strictly inside its parent's is absorbed into
    the parent as it is made: it gets an id but no entry, and its children
    hang on the parent.  Each wedge (a, b) takes the three directed edges
    of the face beyond it out of the face map, so a face or a wedge met
    twice finds an edge missing."""
    if rotation is None:
        raise GraphError("a rotation system is required once the graph has cycles")
    faces = _trace_faces(g, rotation)
    end = ranks.end
    # a star apex hangs from, and stands for, its face's first vertex
    up: Dict[int, Optional[int]] = dict(tree.parent)
    pos = dict(ranks.rank)
    third: Dict[Tuple[int, int], int] = {}
    next_star = max(g.vertices) + 1
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
            up[s] = face[0]
            pos[s] = pos[face[0]]
            star_edges += k
            for i in range(k):
                x, y = face[i], face[(i + 1) % k]
                third[(x, y)] = s
                third[(y, s)] = x
                third[(s, x)] = y
    if len(third) != 2 * (len(g.edges) + star_edges):
        raise ContractViolation("triangulation left directed edges uncovered")
    a0, b0 = min((min(u, v), max(u, v)) for (u, v, _) in g.edges if up[u] != v and up[v] != u)
    ra, rb = pos[a0], pos[b0]
    corners: Dict[int, Tuple[int, ...]] = {0: (ra,) if ra == rb else (ra, rb)}
    tree_edges: List[TreeEdge] = []
    made = 1
    stack: List[Tuple[int, int, int]] = [(b0, a0, 0), (a0, b0, 0)]
    while stack:
        a, b, node = stack.pop()
        w = third.pop((a, b), None)
        if w is None or third.pop((b, w), None) != a or third.pop((w, a), None) != b:
            raise ContractViolation("wedge recursion met the same face twice")
        ra, rb, rw = pos[a], pos[b], pos[w]
        cs = (ra,) if ra == rb else (ra, rb)
        cm = cs if rw in cs else cs + (rw,)
        # ids count creations: the wedge's node, then its face's
        pc = corners[node]
        if not _within(cs, pc, end) or _within(pc, cs, end):
            corners[made] = pc = cs
            tree_edges.append((node, made))
            node = made
        if not _within(cm, pc, end) or _within(pc, cm, end):
            corners[made + 1] = cm
            tree_edges.append((node, made + 1))
            node = made + 1
        made += 2
        # the wedges beyond the face's other two edges, if not tree edges
        uw = up[w]
        if uw != a and up[a] != w:
            stack.append((a, w, node))
        if uw != b and up[b] != w:
            stack.append((w, b, node))
    if third:
        raise ContractViolation("wedge recursion missed %d faces" % (len(third) // 3))
    return corners, tree_edges


def _contract(
    nodes: Iterable[int],
    tree_edges: Sequence[TreeEdge],
    root: int,
    within: Callable[[int, int], bool],
) -> Tuple[Set[int], List[TreeEdge], int]:
    """The tree on `nodes` given by `tree_edges` and `root`, with every node
    whose bag sits inside a neighbour's absorbed into that neighbour, which
    keeps its node id; `within(s, t)` says whether s's bag sits inside t's.
    Tree edges are taken last first, so the same input keeps the same ids.
    Returns the surviving nodes, the edges between them and the root."""
    alive = set(nodes)
    adj: Dict[int, Set[int]] = {t: set() for t in alive}
    for (p, ch) in tree_edges:
        adj[p].add(ch)
        adj[ch].add(p)
    work = list(tree_edges)
    while work:
        a, b = work.pop()
        if a not in alive or b not in adj[a]:
            continue
        # absorb b into a below; flip first if a's bag is the smaller one
        if within(a, b):
            a, b = b, a
        elif not within(b, a):
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
    edges = [(t, n) for t in alive for n in adj[t] if t < n]
    return alive, edges, root


# -- window cuts ------------------------------------------------------------------


class _TripodWindows:
    """A component's certificate indexed for cutting to slab windows.

    Depths are the tree's root distances scaled once to integers, as
    `make_slabs` scales its projection.  A node's depth interval runs from
    the common ancestor of its corners (those below no other corner) to
    its deepest corner.  A window that misses the interval from below cuts
    nothing from the node's bag; one that lies wholly above it cuts from
    the bag one slice of the paths above that common ancestor, which a
    neighbour holds as well.  `meeting` finds the nodes whose interval
    meets a window by a sweep: windows of one slab family come in rising
    order, and a lower window starts the sweep again.  `ranks` is the
    preorder of the certificate's tree, the one `tripod_decomposition`
    was given."""

    def __init__(self, cert: GeodesicCertificate, ranks: _Ranks):
        tree = cert.tree
        end = ranks.end
        scale = math.lcm(*(d.denominator for d in tree.dist.values()))
        depth = [tree.dist[v].numerator * (scale // tree.dist[v].denominator) for v in ranks.order]
        lows: Dict[int, int] = {}
        highs: Dict[int, int] = {}
        spans: Dict[int, Tuple[int, ...]] = {}
        for t, cs in cert.corners.items():
            ps = {ranks.rank[c] for c in cs}
            spans[t] = low = tuple(sorted(c for c in ps if not any(c < d < end[c] for d in ps)))
            if not low:
                continue
            m = low[0]
            for c in low[1:]:
                m = ranks.lca(m, c)
            lows[t], highs[t] = depth[m], max(depth[c] for c in low)
        self.cert, self.ranks, self.scale, self.depth = cert, ranks, scale, depth
        self.spans, self.lows, self.highs = spans, lows, highs
        self.top = {t: ranks.rank[v] for t, v in cert.tops.items()}
        self.node_parent = {c: p for (p, c) in cert.tree_edges}
        self.node_kids: Dict[int, Tuple[int, ...]] = {t: () for t in cert.corners}
        for (p, c) in cert.tree_edges:
            self.node_kids[p] += (c,)
        self.node_ranks = _Ranks(cert.root, self.node_parent, list(cert.corners))
        self._by_low = sorted(lows, key=lambda t: (lows[t], t))
        self._floor: Optional[int] = None

    def meeting(self, wlo: int, whi: int) -> List[int]:
        """The nodes whose depth interval meets [wlo, whi), sorted."""
        if self._floor is None or wlo < self._floor:
            self._next = 0
            self._active: Set[int] = set()
            self._expiry: List[Tuple[int, int]] = []
        self._floor = wlo
        lows, by_low, active = self.lows, self._by_low, self._active
        while self._next < len(by_low) and lows[by_low[self._next]] < whi:
            t = by_low[self._next]
            self._next += 1
            active.add(t)
            heapq.heappush(self._expiry, (self.highs[t], t))
        while self._expiry and self._expiry[0][0] < wlo:
            active.discard(heapq.heappop(self._expiry)[1])
        return sorted(t for t in active if lows[t] < whi)

    def span(self, held: Sequence[int]) -> Set[int]:
        """The nodes of the smallest subtree of the node tree holding
        `held`: climb from the first held node to the top of them all, then
        from each until the climbs meet."""
        if not held:
            return set()
        up, rank, end = self.node_parent, self.node_ranks.rank, self.node_ranks.end
        root = held[0]
        nodes = {root}
        for t in held:
            while not rank[root] <= rank[t] < end[rank[root]]:
                root = up[root]
                nodes.add(root)
        for t in held:
            while t not in nodes:
                nodes.add(t)
                t = up[t]
        return nodes


def _restrict_tripods(
    windows: _TripodWindows,
    lo: Fraction,
    hi: Fraction,
    piece: Set[int],
) -> Tuple[RootedTreeDecomposition, Dict[int, Tuple[int, ...]]]:
    """Cut the certificate to the padded window of projections [lo, hi),
    keep the slices inside one window piece (a connected component of the
    window), contract redundant nodes away, and return the pruned
    decomposition together with its min-projection path centers.

    Only the nodes whose depth interval meets the window are visited.
    Each corner's slice is found on integer depths: the deepest vertex of
    its path above hi by binary lifting, then the path up to lo or to the
    node's top.  A slice lies in one piece or misses it.  The nodes whose
    slices meet the piece are contracted together with the nodes on the
    node tree's paths between them, so that they form a subtree.  A node
    left out holds one slice, which a neighbour holds as well; when that
    slice is a surviving bag, its copies hanging off the subtree join the
    contraction, since one of them may keep the id.  Should the subtree's
    bags still miss a vertex of the piece, every node is cut."""
    scale, depth = windows.scale, windows.depth
    wlo = -((-lo.numerator * scale) // lo.denominator)
    whi = -((-hi.numerator * scale) // hi.denominator)
    ranks = windows.ranks
    order, parent, end, up = ranks.order, ranks.parent, ranks.end, ranks.up
    bags: Dict[int, FrozenSet[int]] = {}
    tops: Dict[int, Tuple[int, ...]] = {}

    longest: Dict[int, int] = {}

    def cut(nodes: Iterable[int]) -> None:
        for t in nodes:
            if t in bags:
                continue
            h = windows.top[t]
            kept: List[int] = []
            heads: Set[int] = set()
            longest[t] = 0
            for x in windows.spans[t] if whi > 0 else ():
                if depth[x] >= whi:
                    for row in reversed(up):
                        if depth[row[x]] >= whi:
                            x = row[x]
                    x = parent[x]
                if depth[x] < wlo or not h <= x < end[h]:
                    continue
                sl = [order[x]]
                while x != h:
                    x = parent[x]
                    if depth[x] < wlo:
                        break
                    sl.append(order[x])
                n_in = len(piece.intersection(sl))
                if 0 < n_in < len(sl):
                    raise ContractViolation("a window slice straddles two window components")
                if n_in:
                    kept.extend(sl)
                    heads.add(sl[-1])
                    longest[t] = max(longest[t], len(sl))
            bags[t] = frozenset(kept)
            tops[t] = tuple(sorted(heads))

    up_node = windows.node_parent

    def contract(nodes: Set[int]) -> Tuple[Set[int], List[TreeEdge], int]:
        root = next(t for t in nodes if up_node.get(t) not in nodes)
        tree_edges = sorted((up_node[t], t) for t in nodes if t != root)
        return _contract(sorted(nodes), tree_edges, root, lambda s, t: bags[s] <= bags[t])

    meeting = windows.meeting(wlo, whi)
    cut(meeting)
    nodes = windows.span([t for t in meeting if bags[t]])
    cut(nodes)
    if len(piece) != len(set().union(*(bags[t] for t in nodes))):
        # a piece vertex only nodes off the span hold: cut every node
        nodes = set(windows.cert.corners)
        cut(nodes)
    alive, edges, root = contract(nodes)
    # A node off the span holds one slice, inside the bag of the span node
    # it hangs from.  When that slice is a surviving bag, its copies off the
    # span join the contraction too, since one of them may keep the id.
    segments = {bags[t] for t in alive if len(bags[t]) == longest[t]}
    copies: Set[int] = set()
    stack = [t for t in nodes if bags[t] in segments]
    while stack:
        t = stack.pop()
        for n in windows.node_kids[t] + (() if up_node.get(t) is None else (up_node[t],)):
            if n not in nodes and n not in copies:
                cut((n,))
                if bags[n] == bags[t]:
                    copies.add(n)
                    stack.append(n)
    if copies:
        alive, edges, root = contract(nodes | copies)
    td = RootedTreeDecomposition({t: bags[t] for t in alive}, edges, root)
    return td, {t: tops[t] for t in td.nodes}
