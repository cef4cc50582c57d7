"""Two-colorings of bounded-treewidth weighted graphs with weak-diameter bounds.

The recursion peels the radius-3*ell ball around the root bag, condenses
everything beyond the surrounding tree region into a bounded stand-in graph,
colors that stand-in one guard level down, lifts the coloring back through
the condensation, and recurses into each far part with the lifted boundary
colors.  Every merge re-verifies its claimed bound; the public entry points
verify the assembled coloring end to end.

Each level costs what its own region costs (its root ball, the bags
meeting it and the frontier), not what lies below it:
- A far part is a view, not a copy: a SubgraphView of the graph the
  recursion was handed and a SubtreeDecomposition of its decomposition,
  both backed by one SubtreeIndex built once per handed-in pair.  The
  decomposition is validated where it is handed in; a far part checks
  only its root bag and its one new tree edge.
- A far part of a connected level is connected exactly when one search
  from a root-bag vertex reaches the rest of its root bag, since each of
  its components meets the root bag; full components are computed only
  when that search fails.
- Each ball is searched once: a far part's ball is its precolored set,
  which its parent searched around the part's root bag in the part's
  view.  A ball covering its level is checked at the centered bound with
  no certificate, validation having capped the root bag at theta; and
  the lift takes the ball patch's checked result instead of re-measuring.
- Levels write into one shared coloring, where a vertex written twice
  must keep its color, and wait on an explicit work stack instead of the
  call stack.  A level runs its own checks before it pushes its far
  parts, so it keeps no frame once they are pushed; a split's coverage
  check and deep verification, which need the parts' colors, wait on the
  stack below them.  Only the condensed call one guard level down stays a
  call, at most theta deep, so the recursion limit is never raised.
- A level's bounds depend only on its guard level, theta, ell and the
  piece bound, so they are computed once per run (_Ctx) and read off that
  table; the condensed far side's decomposition is the condensed tree's,
  derived from it rather than rebuilt.
"""

import functools
import heapq
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .graph import GraphError, Record, WeightedGraph, as_fraction, frac_str, neighborhood, require_light_edges
from .partition import (
    Coloring,
    ColorResult,
    ContractViolation,
    check_weak_diameter,
)
from .patching import (
    CenterCertificate,
    centered_bound,
    patch_bound,
    patch_colorings,
    vertex_cover_bound,
)
from .treedec import (
    RootedTreeDecomposition,
    SubtreeDecomposition,
    SubtreeIndex,
    TreeEdge,
    ball_region,
    component_decompositions,
    con_color_bound,
    condense,
    lift_condensation_coloring,
    validate_td,
)

# -- tree-decomposition search ----------------------------------------------

#: Graphs of at most this many vertices get the exhaustive elimination search.
EXACT_MAX = 20


def _simple_adjacency(g: WeightedGraph) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {v: set() for v in g.vertices}
    for (u, v, _) in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _eliminate_in_place(work: Dict[int, Set[int]], v: int) -> Set[int]:
    """Remove v and make its neighbourhood a clique; returns the neighbourhood."""
    ns = work.pop(v)
    for a in ns:
        nbrs = work[a]
        nbrs.discard(v)
        nbrs |= ns
        nbrs.discard(a)
    return ns


def _common(x: Set[int], y: Set[int]) -> Set[int]:
    """The members of both sets.  Every adjacency test min-fill makes goes
    through here, one per member of the smaller set."""
    return x & y


def _min_fill_order(adj: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
    """Repeatedly eliminate the vertex of least (fill, degree, id), where
    fill(v) counts the non-adjacent pairs in N(v).  Returns each vertex, in
    elimination order, with N(v) as it was eliminated.  Keys sit in a lazy
    heap.

    Fill is counted once, from the edges among each neighbourhood, then
    kept up to date through each elimination of a vertex v:
    - removing v lowers fill(u) for each u in N(v) by |N(u) \\ N[v]|;
    - adding a fill edge {a, b} lowers fill(w) by 1 for each common
      neighbour w of a and b, and raises fill(a) by |N(a) \\ N(b)| and
      fill(b) by |N(b) \\ N(a)|, in the adjacency just before the edge.
    So an elimination costs one intersection per neighbour of v and one per
    fill edge, and only a vertex whose (fill, degree) changed gets a new
    heap key."""
    work = {v: set(ns) for v, ns in adj.items()}
    fill: Dict[int, int] = {}
    for v, ns in work.items():
        # each edge among N(v) is met from both of its ends
        inner = sum(len(_common(ns, work[u])) for u in ns) // 2
        fill[v] = len(ns) * (len(ns) - 1) // 2 - inner
    key = {v: (fill[v], len(ns), v) for v, ns in work.items()}
    heap = list(key.values())
    heapq.heapify(heap)
    elim: Dict[int, Set[int]] = {}
    while work:
        k = heapq.heappop(heap)
        v = k[2]
        if key.get(v) != k:
            continue
        del key[v]
        elim[v] = ns = work.pop(v)
        touched = set(ns)
        missing: List[Tuple[int, int]] = []
        for u in ns:
            nu = work[u]
            nu.discard(v)
            inside = _common(nu, ns)
            fill[u] -= len(nu) - len(inside)
            if k[0]:  # N(v) is not a clique yet
                missing.extend((u, b) for b in ns - inside if b > u)
        for a, b in missing:
            na, nb = work[a], work[b]
            both = _common(na, nb)
            for w in both:
                fill[w] -= 1
            touched |= both
            fill[a] += len(na) - len(both)
            fill[b] += len(nb) - len(both)
            na.add(b)
            nb.add(a)
        for u in touched:
            new = (fill[u], len(work[u]), u)
            if new != key[u]:
                key[u] = new
                heapq.heappush(heap, new)
    return elim


def _mmd_lower_bound(adj: Dict[int, Set[int]]) -> int:
    """Peel minimum-degree vertices; the largest degree seen lower-bounds the width."""
    work = {v: set(ns) for v, ns in adj.items()}
    out = 0
    while work:
        v = min(work, key=lambda u: (len(work[u]), u))
        out = max(out, len(work[v]))
        for a in work.pop(v):
            work[a].discard(v)
    return out


def _exact_order(
    adj: Dict[int, Set[int]], upper_order: Sequence[int], upper_width: int
) -> Tuple[int, List[int]]:
    """Branch and bound over elimination orders, seeded by the heuristic order."""
    best_width = upper_width
    best_order = list(upper_order)
    memo: Dict[FrozenSet[int], int] = {}

    def rec(work: Dict[int, Set[int]], cur: int, prefix: List[int]) -> None:
        nonlocal best_width, best_order
        if cur >= best_width:
            return
        if len(work) <= 1:
            best_width = cur
            best_order = prefix + sorted(work)
            return
        key = frozenset(work)
        seen = memo.get(key)
        if seen is not None and seen <= cur:
            return
        memo[key] = cur
        if max(cur, _mmd_lower_bound(work)) >= best_width:
            return
        # a vertex whose neighborhood is a clique is always safe to take first
        pick: Optional[int] = None
        for v in sorted(work):
            ns = sorted(work[v])
            if all(b in work[a] for i, a in enumerate(ns) for b in ns[i + 1:]):
                pick = v
                break
        cand = [pick] if pick is not None else sorted(work, key=lambda v: (len(work[v]), v))
        for v in cand:
            nxt = {u: set(ns) for u, ns in work.items()}
            _eliminate_in_place(nxt, v)
            rec(nxt, max(cur, len(work[v])), prefix + [v])

    rec({v: set(ns) for v, ns in adj.items()}, 0, [])
    return best_width, best_order


def _elimination_parents(elim: Dict[int, Set[int]], pos: Dict[int, int]) -> Dict[int, Optional[int]]:
    """Each vertex's parent in the elimination tree, in elimination order:
    the member of N(v) eliminated first; a vertex eliminated with no
    neighbour becomes the parent of the root before it, so the roots chain
    up to the final vertex, which has none."""
    parent: Dict[int, Optional[int]] = {}
    prev_root: Optional[int] = None
    for v, ns in elim.items():
        if ns:
            parent[v] = min(ns, key=pos.__getitem__)
        else:
            if prev_root is not None:
                parent[prev_root] = v
            parent[v] = None
            prev_root = v
    return parent


def compute_tree_decomposition(g: WeightedGraph) -> RootedTreeDecomposition:
    """Rooted tree decomposition from an elimination order: exhaustive search
    up to EXACT_MAX vertices, min-fill heuristic beyond that.  The bags come
    from the min-fill pass; the exhaustive search's order is eliminated once
    more.

    Bag {v} + N(v) hangs below its parent (_elimination_parents), which is
    eliminated after it (Bodlaender and Koster, "Treewidth computations I.
    Upper bounds", 2010).  So the bags in reverse elimination order come
    parents first, and the tree is grown in that order
    (RootedTreeDecomposition._grown), not built by the general
    constructor; validate_td checks the result."""
    if len(g) == 0:
        return RootedTreeDecomposition({0: ()}, [], 0)
    adj = _simple_adjacency(g)
    elim = _min_fill_order(adj)
    if len(g) <= EXACT_MAX:
        _, order = _exact_order(adj, list(elim), max(len(ns) for ns in elim.values()))
        work = {v: set(ns) for v, ns in adj.items()}
        elim = {v: _eliminate_in_place(work, v) for v in order}
    parent = _elimination_parents(elim, {v: i for i, v in enumerate(elim)})
    bags = {v: frozenset({v} | elim[v]) for v in reversed(elim)}
    td = RootedTreeDecomposition._grown(bags, parent)
    validate_td(g, td, "elimination decomposition failed validation")
    return td


# -- constructions ------------------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)
def cover_piece_bound(theta: int, ell: object) -> Fraction:
    """Hop bound of a constant coloring of a graph where some <= theta
    vertices cover all but components of <= theta**2 vertices, or of a graph
    on at most 2*theta**2 + theta vertices."""
    if theta < 0:
        raise GraphError("need theta >= 0")
    return max(
        vertex_cover_bound(theta, theta * theta, ell),
        Fraction(2 * theta * theta + theta),
    )


class AdhesionConstruction(Record):
    """Rooted tree decomposition of adhesion at most theta whose oversized
    adhesions (more than eta shared vertices) occur only on leaf-attached
    edges adding at most theta**2 new vertices.  Every star piece is painted
    with one constant color, checked against piece_bound hops."""

    __slots__ = ("td", "eta", "theta", "piece_bound")

    def validate(self, g: WeightedGraph, full: bool = True) -> None:
        """Structural checks, linear in the tree; full validation also
        re-checks the decomposition axioms against g.  The adhesion
        recursion validates each decomposition it is handed once; a far
        part, which keeps every bag and tree edge below its root, adds one
        tree edge and is checked by validate_far_part instead."""
        self._check_root()
        if full:
            validate_td(g, self.td, "invalid decomposition")
        for e in self.td.tree_edges:
            self._check_edge(e)

    def validate_far_part(self) -> None:
        """The checks a far part adds to its validated parent: its root bag
        and the one tree edge below the root."""
        self._check_root()
        root = self.td.root
        (child,) = self.td.children[root]
        self._check_edge((root, child))

    def _check_root(self) -> None:
        if not 0 <= self.eta <= self.theta:
            raise ContractViolation(
                "need 0 <= eta <= theta, got eta=%d theta=%d" % (self.eta, self.theta)
            )
        root_bag = self.td.bags[self.td.root]
        if len(root_bag) > self.theta:
            raise ContractViolation(
                "root bag has %d > theta=%d vertices" % (len(root_bag), self.theta)
            )
        if self.eta >= 1 and not root_bag:
            raise ContractViolation("root bag must be nonempty when eta >= 1")

    def _check_edge(self, e: TreeEdge) -> None:
        """Check one edge read off the tree itself, so its adhesion is read
        off the bags with no edge check; a far part's bags map its fresh
        root to the adhesion it was cut at."""
        td = self.td
        p, ch = e
        x_e = td.bags[p] & td.bags[ch]
        if len(x_e) > self.theta:
            raise ContractViolation(
                "adhesion of %s has %d > theta=%d vertices" % (e, len(x_e), self.theta)
            )
        if len(x_e) > self.eta:
            new_limit = self.theta * self.theta
            if td.children[ch]:
                raise ContractViolation(
                    "edge %s shares %d > eta=%d vertices but its lower end has children"
                    % (e, len(x_e), self.eta)
                )
            if len(td.bags[ch] - td.bags[p]) > new_limit:
                raise ContractViolation(
                    "leaf below %s adds %d > %d new vertices"
                    % (e, len(td.bags[ch] - td.bags[p]), new_limit)
                )


# -- bound calculators --------------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)
def tree_extension_bound(eta: int, theta: int, ell: object, n: object) -> Fraction:
    """Hop bound achieved by color_adhesion_construction: the level-0 term
    covers pieces, the patch over the root ball, and bag sizes; each further
    guard level routes through one condensation round trip, which maps the
    bound x to con_color_bound(ell, patch_bound(theta, 3*ell, ell, x), theta, 0).

    That map is a + b*patch_bound(theta, 3*ell, ell, x) with
    b = 8*theta*(3*theta+1) and a = 28*theta + 2*b + 4, and at r = 3*ell a
    whole x patches to 10**theta*x + 16*(2**theta*(5**theta+3)/4 - 1).  So
    a whole bound follows x -> alpha + beta*x with beta = b*10**theta, and
    the remaining levels sum a geometric series.  A bound that is not whole
    takes its levels one at a time until it is."""
    if not 0 <= eta <= theta:
        raise GraphError("need 0 <= eta <= theta, got eta=%d theta=%d" % (eta, theta))
    lf = as_fraction(ell)
    nf = as_fraction(n)
    if lf <= 0 or nf <= 0:
        raise GraphError("need ell > 0 and n > 0")
    out = (
        nf
        + centered_bound(theta, 3 * lf, lf)
        + patch_bound(theta, 3 * lf, lf, nf)
        + theta * theta
        + theta
    )
    while eta and out.denominator != 1:
        out = con_color_bound(lf, patch_bound(theta, 3 * lf, lf, out), theta, 0)
        eta -= 1
    b = 8 * theta * (3 * theta + 1)
    alpha = 28 * theta + 2 * b + 4 + 16 * b * (2 ** theta * (5 ** theta + 3) // 4 - 1)
    rise = (b * 10 ** theta) ** eta
    return rise * out + alpha * (rise - 1) // (b * 10 ** theta - 1)


def treewidth_color_bound(width: int, ell: object) -> Fraction:
    """Hop bound achieved by color_bounded_treewidth at the given width."""
    theta = width + 1
    return tree_extension_bound(theta, theta, ell, cover_piece_bound(theta, ell))


# -- the recursion -------------------------------------------------------------


class TwColorResult(ColorResult):
    __slots__ = ("td", "width", "theta")


#: The adhesion engine condenses with no deleted set: mu = 0, one object for every level.
_NO_MU = Fraction(0)


class _Ctx(Record):
    """What every level of one run reads.  A level's bounds depend only on
    its guard level eta and on theta, ell and the piece bound, which are
    fixed for the run, so this per-run table holds them all, computed once:
    a level reads its entries instead of calling the memoised bound
    functions, each call of which hashes Fractions of many digits.
    - level_bound[eta] = tree_extension_bound(eta, theta, ell, piece_bound)
      for eta = 0..theta, the bound a level of guard eta is checked at;
    - centered = centered_bound(theta, 3*ell, ell), the bound of any
      coloring once the root bag's ball is the whole graph;
    - lift_claim[eta] = patch_bound(theta, 3*ell, ell, level_bound[eta-1])
      for eta >= 1 (None at 0), the ball patch's bound, which the lift
      raises to level_bound[eta];
    - r3 = 3*ell, the radius of the root bag's ball."""

    __slots__ = ("lf", "theta", "piece_bound", "deep", "r3", "level_bound", "centered", "lift_claim")

    def __init__(self, lf: Fraction, theta: int, piece_bound: Fraction, deep: bool) -> None:
        r3 = 3 * lf
        level_bound = tuple(tree_extension_bound(eta, theta, lf, piece_bound) for eta in range(theta + 1))
        object.__setattr__(self, "lf", lf)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "piece_bound", piece_bound)
        object.__setattr__(self, "deep", deep)
        object.__setattr__(self, "r3", r3)
        object.__setattr__(self, "level_bound", level_bound)
        object.__setattr__(self, "centered", centered_bound(theta, r3, lf))
        object.__setattr__(
            self, "lift_claim", (None,) + tuple(patch_bound(theta, r3, lf, n) for n in level_bound[:-1])
        )


def _paint_piece(ctx: _Ctx, h: WeightedGraph, what: str) -> Coloring:
    c = Coloring.constant(h.vertex_set(), 2)
    check_weak_diameter(h, ctx.lf, c, bound=ctx.piece_bound, what=what, exact=False)
    return c


def _write(out: Dict[int, int], part: Coloring, what: str) -> None:
    """Add a part's colors to the shared output; a vertex already there
    must keep its color."""
    for v, col in part.assignment.items():
        if out.setdefault(v, col) != col:
            raise ContractViolation("%s: colorings disagree on vertex %s" % (what, v))


def _merge_disjoint(parts: Iterable[Coloring], what: str) -> Coloring:
    out: Dict[int, int] = {}
    for part in parts:
        _write(out, part, what)
    return Coloring(out, 2)


class _Label:
    """A far part's label, kept as its parent's label and one suffix and
    rendered only when a message formats it, so a level d far parts deep
    builds no text of length d.  Adding a suffix makes another label."""

    __slots__ = ("parent", "suffix")

    def __init__(self, parent: "Union[str, _Label]", suffix: str) -> None:
        self.parent = parent
        self.suffix = suffix

    def __add__(self, suffix: str) -> "_Label":
        return _Label(self, suffix)

    def __str__(self) -> str:
        parts = []
        label: Union[str, _Label] = self
        while isinstance(label, _Label):
            parts.append(label.suffix)
            label = label.parent
        parts.append(label)
        return "".join(reversed(parts))


class _Level(NamedTuple):
    """One node of the adhesion recursion, waiting on the work stack.  A
    far part below a connected level comes as views: td is then a
    SubtreeDecomposition."""

    g: WeightedGraph
    td: RootedTreeDecomposition
    eta: int
    zset: FrozenSet[int]
    c: Coloring
    parent_measure: Optional[Tuple[int, int]]
    what: Union[str, _Label]


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
    """Extend c to all of g.  Levels wait on an explicit work stack and
    write into one shared output; a far part goes on the stack after its
    level, so the descent through far parts and components uses no call
    depth.  Deferred checks (a split's coverage, deep verification) go on
    the stack as callables below the levels they wait for."""
    out: Dict[int, int] = {}
    stack: List[object] = [_Level(g, td, eta, zset, c, parent_measure, what)]
    while stack:
        item = stack.pop()
        if isinstance(item, _Level):
            _color_level(ctx, item, out, stack)
        else:
            item()
    return Coloring(out, 2)


def _color_level(ctx: _Ctx, lv: _Level, out: Dict[int, int], stack: List[object]) -> None:
    """Color one level's region, write it to `out`, and push its far parts.
    Every bound and the ball radius come off the run's table in ctx (see
    _Ctx), so a level computes no bound and no radius of its own."""
    g, td, eta, zset, c, what = lv.g, lv.td, lv.eta, lv.zset, lv.c, lv.what
    lf, r3 = ctx.lf, ctx.r3
    far = isinstance(td, SubtreeDecomposition)
    # fresh tree-node ids start above max(td.nodes), which for a far part
    # is its fresh root: fresh ids exceed every node of the indexed tree
    fresh_node = td.root + 1 if far else max(td.nodes) + 1
    con = AdhesionConstruction(td, eta, ctx.theta, ctx.piece_bound)
    if far and not ctx.deep:
        con.validate_far_part()
    else:
        con.validate(g, full=ctx.deep)
    if zset - g.vertex_set():
        raise GraphError("%s: precolored vertices outside the graph" % what)
    if c.domain != zset:
        raise GraphError("%s: precoloring domain differs from the precolored set" % what)
    root_bag = td.bags[td.root]
    if far:
        ball = zset  # searched by the parent, see the module notes
    else:
        ball = frozenset(neighborhood(g, root_bag, r3))
        if zset - ball:
            raise ContractViolation(
                "%s: precolored set reaches beyond distance 3*ell of the root bag" % what
            )
    measure = (eta, len(td) + (len(g) - len(zset)) + len(g))
    if lv.parent_measure is not None and not measure < lv.parent_measure:
        raise ContractViolation(
            "%s: recursion measure did not decrease (%s -> %s)"
            % (what, lv.parent_measure, measure)
        )
    bound = ctx.level_bound[eta]
    # the root bag holds at most theta vertices (validated above), so once
    # the ball is all of g, any coloring of g meets the centered bound
    centered = ctx.centered

    # everything already precolored: the root bag centers the whole graph
    if zset == g.vertex_set():
        check_weak_diameter(g, lf, c, bound=centered, what=what + ": fully precolored", exact=False)
        _write(out, c, what)
        return

    if eta == 0:
        _write(out, _color_flat(ctx, g, td, zset, c, bound, what), what)
        return

    if far:
        # every component of a far part meets its root bag (a vertex off
        # the root bag has all its neighbours in the part), so the part is
        # connected when one search inside it joins the root bag
        x = sorted(root_bag)
        reached = g._scaled_distances(x[:1], targets=set(x))
        comps = None if len(reached.keys() & root_bag) == len(x) else g.connected_components()
    else:
        comps = g.connected_components()
    if comps is not None and len(comps) != 1:
        _color_split(ctx, lv, measure, comps, fresh_node, out, stack)
        return

    # saturate the precolored set to the full ball around the root bag
    z0 = ball
    c_sat = c.filled(z0)
    if z0 == g.vertex_set():
        check_weak_diameter(g, lf, c_sat, bound=centered, what=what + ": saturated ball", exact=False)
        _write(out, c_sat, what)
        return

    # the tree region whose bags meet the ball, and the frontier leaving it
    _, u_e = ball_region(td, z0, what)
    cond = condense(g, td, u_e, u_e, lf, ctx.theta, _NO_MU)
    g0, td0 = cond.g0, cond.td0
    if z0 - g0.vertex_set():
        raise ContractViolation("%s: ball leaks out of the condensed graph" % what)

    # color the condensed graph beyond the ball one guard level down
    n_prev = ctx.level_bound[eta - 1]
    rest0 = g0.vertex_set() - z0
    if rest0:
        top: Optional[int] = None
        if eta - 1 >= 1:
            top = fresh_node
            fresh_node += 1
        td00 = _far_side_decomposition(td0, z0, top, what)
        # a call, not a stack entry: it nests at most eta <= theta deep
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
    cert0 = CenterCertificate.build(g0, sorted(root_bag), r3, sorted(z0), ctx.theta)
    mr = patch_colorings(
        g0, lf, cert0, (), c_sat, c0_rest,
        n_claimed=n_prev, what=what + ": ball patch", exact=False,
    )

    # lift the condensed coloring back to the graph around the region
    if mr.bound != ctx.lift_claim[eta]:
        raise ContractViolation("%s: patch bound bookkeeping drifted" % what)
    lr = lift_condensation_coloring(cond, mr, what=what + ": lift", exact=False)
    if lr.bound != bound:
        raise ContractViolation(
            "%s: lift bound %s differs from the level bound %s"
            % (what, frac_str(lr.bound), frac_str(bound))
        )
    c3 = lr.coloring

    # the region's own vertices take their lifted colors; each far part
    # covers its own part, so together they cover g
    keep0 = cond.base_vertices & g.vertex_set()
    if keep0 - c3.domain:
        raise ContractViolation("%s: assembled coloring misses vertices" % what)
    for v in sorted(zset):
        if c3.color(v) != c.color(v):
            raise ContractViolation("%s: precolored vertex %s was recolored" % (what, v))
    _write(out, c3.restrict(keep0), what)
    if ctx.deep:
        # runs once the far parts below have written their colors
        stack.append(functools.partial(_check_assembled, ctx, g, out, bound, what))

    # recurse into each far part with the lifted boundary colors
    index: Optional[SubtreeIndex] = None
    parts: List[object] = []
    for e in u_e:
        x_e = td.adhesion_of(e)
        if not x_e:
            if td.subtree_vertices(e):
                raise ContractViolation(
                    "%s: empty shared set on a populated part of a connected graph" % what
                )
            continue
        if index is None:
            index = td.index if far else SubtreeIndex(g, td)
        g_e, td_e = index.far_part(e[1], fresh_node)
        part = g_e.vertex_set()
        z_e = frozenset(neighborhood(g_e, x_e, r3))
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
            parts.append(functools.partial(_write, out, c_e_full, what))
            continue
        parts.append(_Level(g_e, td_e, eta, z_e, c_e, measure, _Label(what, ": far part")))
        fresh_node += 1
    stack.extend(reversed(parts))


def _far_side_decomposition(
    td0: RootedTreeDecomposition, z0: FrozenSet[int], top: Optional[int], what: str
) -> RootedTreeDecomposition:
    """The decomposition of the condensed graph beyond the ball z0: td0's
    tree with z0 removed from every bag.  With a fresh node id `top` (when
    the level below still has guard levels), one far vertex is pulled up to
    a new root `top` above td0's root, and onto every bag between them.
    The tree is td0's, plus that one root edge, so it is derived from td0
    (_rebagged, then rerooted), not rebuilt and checked again."""
    bags00 = {t: b - z0 for t, b in td0.bags.items()}
    if top is None:
        return td0._rebagged(bags00)
    # pull the far vertex up to the fresh root; all bags strictly between
    # the root and its holder are empty, so adhesions stay 1
    frontier = [td0.root]
    t_far: Optional[int] = None
    while frontier:
        hits = [t for t in frontier if bags00[t]]
        if hits:
            t_far = min(hits)
            break
        frontier = sorted(ch for t in frontier for ch in td0.children[t])
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
    return td0._rebagged(bags00).rerooted(top, (v0,), td0.root)


def _check_assembled(
    ctx: _Ctx, g: WeightedGraph, out: Dict[int, int], bound: Fraction, what: str
) -> None:
    """Deep verification of one level's assembled coloring."""
    mine = Coloring({v: out[v] for v in g.vertices if v in out}, 2)
    check_weak_diameter(g, ctx.lf, mine, bound=bound, what=what + ": assembled", exact=False)


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
                h, sorted(td.bags[td.root]), ctx.r3, sorted(zset), ctx.theta
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
    lv: _Level,
    measure: Tuple[int, int],
    comps: Sequence[Tuple[int, ...]],
    fresh_node: int,
    out: Dict[int, int],
    stack: List[object],
) -> None:
    """Push each connected component with its own restricted decomposition,
    adding a one-vertex root bag to components the root bag does not meet,
    and a check that they covered the level.  The decompositions come from
    one pass over the level's decomposition, not one per component."""
    g, td, zset, c, what = lv.g, lv.td, lv.zset, lv.c, lv.what
    items: List[object] = []
    for comp, td_c in zip(comps, component_decompositions(td, comps, what)):
        cs = frozenset(comp)
        g_c = g.induced(cs)
        z_c = zset & cs
        if td.root not in td_c.bags:
            if z_c:
                raise ContractViolation(
                    "%s: precolored vertices in a component away from the root" % what
                )
            td_c = td_c.rerooted(fresh_node, (min(td_c.bags[td_c.root]),), td_c.root)
            fresh_node += 1
        items.append(
            _Level(g_c, td_c, lv.eta, z_c, c.restrict(z_c), measure, what + ": component")
        )
    stack.append(functools.partial(_check_covered, g, out, what))
    stack.extend(reversed(items))


def _check_covered(g: WeightedGraph, out: Dict[int, int], what: str) -> None:
    if any(v not in out for v in g.vertices):
        raise ContractViolation("%s: component colorings miss vertices" % what)


# -- public entry points --------------------------------------------------------


def color_adhesion_construction(
    g: WeightedGraph,
    ell: object,
    con: AdhesionConstruction,
    z: Iterable[int] = (),
    precoloring: Optional[Coloring] = None,
    deep_verify: bool = False,
    exact_check: bool = True,
) -> ColorResult:
    """Extend a precoloring of Z (within distance 3*ell of the root bag) to
    a two-coloring of all of g, with monochromatic components of weak
    diameter at most the computed level bound in the power graph.  The
    precoloring (color 1 by default) is kept verbatim."""
    lf = as_fraction(ell)
    if lf <= 0:
        raise GraphError("need ell > 0")
    require_light_edges(g, lf)
    zf = frozenset(z)
    if precoloring is None:
        precoloring = Coloring.constant(zf)
    if precoloring.domain != zf:
        raise GraphError("precoloring domain differs from the precolored set")
    if precoloring.num_colors > 2:
        raise GraphError("precoloring uses more than 2 colors")
    con.validate(g)
    ctx = _Ctx(lf, con.theta, con.piece_bound, deep_verify)
    out = _color_rec(
        ctx, g, con.td, con.eta, zf,
        Coloring(dict(precoloring.assignment), 2),
        None, "adhesion coloring",
    )
    bound = ctx.level_bound[con.eta]
    report = check_weak_diameter(
        g, lf, out, bound=bound, what="adhesion coloring", exact=exact_check
    )
    return ColorResult(out, bound, report)


def color_bounded_treewidth(
    g: WeightedGraph,
    ell: object,
    td: Optional[RootedTreeDecomposition] = None,
    deep_verify: bool = False,
    exact_check: bool = True,
) -> TwColorResult:
    """Two-coloring of a weighted graph with all weights at most ell, with
    monochromatic components of weak diameter bounded by a constant that
    depends only on the decomposition width.

    Each connected component's decomposition gets one tree edge subdivided
    into a fresh root bag (the edge's shared set), which yields a
    construction with all guard levels available; star pieces get the
    constant coloring certified through the vertex-cover route.  A
    connected input whose bags are all nonempty is colored on td itself;
    a disconnected one, or a supplied td with an empty bag, is cut into
    its components' decompositions in one pass (component_decompositions)."""
    lf = as_fraction(ell)
    if lf <= 0:
        raise GraphError("need ell > 0")
    require_light_edges(g, lf)
    if td is None:
        td = compute_tree_decomposition(g)
    else:
        validate_td(g, td, "invalid decomposition", GraphError)
    width = max(td.width, 0)
    theta = width + 1
    ctx = _Ctx(lf, theta, cover_piece_bound(theta, lf), deep_verify)
    bound = ctx.level_bound[theta]
    pieces: List[Coloring] = []
    fresh_node = max(td.nodes) + 1
    comps = g.connected_components()
    if len(comps) == 1 and all(td.bags.values()):
        # a connected graph's decomposition with no empty bag is its own
        # component's: the cut would keep every node and bag as they are
        tds: Iterable[RootedTreeDecomposition] = (td,)
    else:
        tds = component_decompositions(td, comps, "treewidth coloring")
    for comp, td_c in zip(comps, tds):
        g_c = g if len(comps) == 1 else g.induced(comp)
        if len(td_c) == 1:
            pieces.append(_paint_piece(ctx, g_c, "treewidth coloring: single bag"))
            continue
        e0 = min(td_c.tree_edges)
        x0 = td_c.adhesion_of(e0)
        if not x0:
            raise ContractViolation("empty shared set inside a connected component")
        td_c = td_c.rerooted(fresh_node, x0, e0)
        fresh_node += 1
        pieces.append(
            _color_rec(
                ctx, g_c, td_c, theta, frozenset(), Coloring.empty(2),
                None, "treewidth coloring: component",
            )
        )
    out = _merge_disjoint(pieces, "treewidth coloring")
    if out.domain != g.vertex_set():
        raise ContractViolation("treewidth coloring misses vertices")
    report = check_weak_diameter(
        g, lf, out, bound=bound, what="treewidth coloring", exact=exact_check
    )
    return TwColorResult(out, bound, report, td, width, theta)
