"""Coloring engine driven by guarded tree decompositions, plus the slab
pipelines that four-color planar and layered graphs from two-colored slabs.

The central object is a control construction: a rooted tree decomposition
whose root and edges carry small guard triples.  The guards certify that
the part of the graph still waiting for a color is either reachable only
through few vertices or very far from the precolored zone, which is what
the recursive engine needs to extend a partial coloring across the whole
graph at a fixed weak-diameter bound.  The engine has two public entries:
`color_control_construction` takes a construction and its center map,
`color_centered_bags` derives the construction from a center map.  Each
checks its own input once, the center map with `_check_centers`, and
then enters the shared core `_run_engine`; the engine checks each
construction it builds once, at the start of the level that colors it.
`color_centered_bags` checks its construction's guard cover against the
center balls its center check searched, so it runs no search at the guard
radius.  A run's level bounds depend only on the budget eta, so the engine
computes them once per run.  No power graph passes between levels: each
weak-diameter check inside the engine decides from its host's vertex
count, computed from the weights, whether its bound is vacuous, and builds
the power graph of its own host only when it has to measure.

Both slab pipelines run one driver, `_color_slabs`.  Per connected
component it cuts the graph into two interleaved families of slabs over a
1-Lipschitz projection (`slabs.make_slabs`), two-colors each connected
piece of each padded window, and combines the slabs into four colors
(`slabs.combine_slab_colorings`).  One power graph per component serves
that combination and the final check.  The pipelines differ only in what
they hand the driver.  The planar pipeline projects onto root distances of
a shortest-path tree and colors a window piece through the tripod tree
decomposition restricted to it (every bag is a union of at most three
vertical paths of the tree): per component one certificate from
`tripods._tripod_certificate`, cut to each window piece by
`tripods._restrict_tripods`.  The layered pipeline projects onto eps0
times the layer index and colors a window piece with the bounded-treewidth
colorer.
"""

import sys
from fractions import Fraction
from typing import AbstractSet, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import (
    GraphError,
    PowerGraph,
    Record,
    WeightedGraph,
    as_fraction,
    cut_frac,
    frac_str,
    neighborhood,
    power_graph,
    reached,
    require_light_edges,
)
from .partition import (
    Coloring,
    ColorResult,
    ContractViolation,
    check_weak_diameter,
)
from .patching import (
    CenterCertificate,
    centered_bound,
    centered_color,
    control_radii,
    patch_bound,
    patch_colorings,
)
from .treedec import (
    RootedTreeDecomposition,
    TreeEdge,
    ball_region,
    con_color_bound,
    condense,
    lift_condensation_coloring,
    validate_td,
)
from .slabs import Slab, SlabColoring, SlabSystem, combine_slab_colorings, make_slabs
from .tripods import (  # the benchmark tracer finds GeodesicCertificate and tripod_decomposition here
    GeodesicCertificate,
    _Ranks,
    _TripodWindows,
    _check_rotation,
    _check_simple,
    _restrict_tripods,
    _tripod_certificate,
    bfs_geodesic_tree,
    tripod_decomposition,
)
from .twcolor import color_bounded_treewidth

_RECURSION_HEADROOM = 20000


# -- control constructions ---------------------------------------------------


class GuardTriple(Record):
    """Guard sets attached to one site (the root or one tree edge).

    free:    guards outside the removed set; together with `both` they must
             cover the non-removed part of the site's bag within radius mu.
    removed: guards inside the removed set; together with `both` they must
             cover the removed part of the bag within radius mu.
    both:    guards usable on either side.
    """

    __slots__ = ("free", "removed", "both")

    @property
    def anchor(self) -> FrozenSet[int]:
        """Guards that anchor the colored zone: free | both."""
        return self.free | self.both

    @property
    def all_guards(self) -> FrozenSet[int]:
        return self.free | self.removed | self.both

    @staticmethod
    def single(v: int) -> "GuardTriple":
        return GuardTriple(frozenset((v,)), frozenset(), frozenset((v,)))


class ControlConstruction(Record):
    """Rooted tree decomposition with guard triples for the coloring engine.

    removed: vertex set R cut out of the graph; the engine colors V - R and
             weak diameters are still measured in the full power graph.
    eta:     recursion budget; an edge whose anchor exceeds eta must end in
             a childless node whose bag stays within ell of the adhesion.
    theta:   cap on the total size of every triple.
    mu:      guard coverage radius.
    ell:     coloring scale; also caps edge weights.
    """

    __slots__ = ("td", "removed", "eta", "theta", "mu", "ell", "root_triple", "edge_triples")

    def _sites(self) -> List[Tuple[object, int, FrozenSet[int], GuardTriple]]:
        """(site, node, bag, triple): the root bag at the root, and each
        tree edge's adhesion at its upper end."""
        out: List[Tuple[object, int, FrozenSet[int], GuardTriple]] = [
            ("root", self.td.root, self.td.bags[self.td.root], self.root_triple)
        ]
        for e in self.td.tree_edges:
            out.append((e, e[0], self.td.adhesion_of(e), self.edge_triples[e]))
        return out

    def validate(
        self,
        g: WeightedGraph,
        full: bool = True,
        center_balls: Optional[Tuple[Dict[int, Tuple[int, ...]], Callable[[int], Set[int]]]] = None,
    ) -> None:
        """Check the construction against g; raises on failure.

        Structural checks always run.  `full` adds the metric checks: bag
        coverage by the guards, the two root exclusion balls, and the reach
        of oversized-anchor edges.  Every one of them asks only whether
        named vertices lie in a ball, so each search stops at its targets
        (`reached`) and none reads a whole ball.  Coverage searches the
        mu-ball of each distinct guard set once, with every vertex a site
        or an exclusion check asks of that set as targets, unless
        `center_balls` = (centers, ball) comes from a checked center map
        whose `ball(c)` is the radius mu/2 ball of center c.  Then a site's
        vertex counts as covered when it lies in the ball of a center of
        the site's node that also holds a guard, since it is within
        2 * mu/2 = mu of that guard, and no search runs.  A check made that
        way can only be stricter.  The two exclusion balls target the
        removed adhesion vertices no guard covers, and an oversized-anchor
        edge's ball the bag at its lower end.
        """
        if self.theta < 1 or not 0 <= self.eta <= self.theta:
            raise GraphError(
                "need 1 <= theta and 0 <= eta <= theta, got eta=%s theta=%s"
                % (self.eta, self.theta)
            )
        if self.mu < 0 or self.ell <= 0:
            raise GraphError("need mu >= 0 and ell > 0")
        vset = g.vertex_set()
        if not self.removed <= vset:
            raise GraphError(
                "removed set has unknown vertices %s" % sorted(self.removed - vset)[:5]
            )
        if self.td.all_vertices() != vset:
            raise GraphError("tree decomposition does not cover the graph exactly")
        keys = set(self.edge_triples)
        edges = set(self.td.tree_edges)
        if keys != edges:
            raise GraphError(
                "edge triples do not match the tree edges (missing %s, extra %s)"
                % (sorted(edges - keys)[:3], sorted(keys - edges)[:3])
            )
        for site, _, bag, tri in self._sites():
            if not tri.free <= bag - self.removed:
                raise ContractViolation("site %s: free guards leave bag - removed" % (site,))
            if not tri.removed <= bag & self.removed:
                raise ContractViolation("site %s: removed guards leave bag & removed" % (site,))
            if not tri.both <= bag:
                raise ContractViolation("site %s: shared guards leave the bag" % (site,))
            if len(tri.all_guards) > self.theta:
                raise ContractViolation(
                    "site %s: %d guards exceed theta=%d"
                    % (site, len(tri.all_guards), self.theta)
                )
        for e in self.td.tree_edges:
            tri = self.edge_triples[e]
            if len(tri.anchor) > self.eta and self.td.children[e[1]]:
                raise ContractViolation(
                    "edge %s has %d anchors > eta=%d but its lower end has children"
                    % (e, len(tri.anchor), self.eta)
                )
        if not full:
            return
        require_light_edges(g, self.ell)
        validate_td(g, self.td, "tree decomposition invalid")
        covers: List[Tuple[object, str, int, FrozenSet[int], FrozenSet[int]]] = []
        for site, t, bag, tri in self._sites():
            for kind, need, guards in (
                ("free", bag - self.removed, tri.free | tri.both),
                ("removed", bag & self.removed, tri.removed | tri.both),
            ):
                if need:
                    covers.append((site, kind, t, need, guards))
        unguarded: List[Tuple[TreeEdge, FrozenSet[int], FrozenSet[int]]] = []
        for e in self.td.tree_edges:
            cand = self.td.adhesion_of(e) & self.removed
            if cand:
                unguarded.append((e, cand, self.edge_triples[e].both))
        if center_balls is None:
            asked: Dict[FrozenSet[int], Set[int]] = {}
            for _, _, _, need, guards in covers:
                asked.setdefault(guards, set()).update(need)
            for _, cand, both in unguarded:
                asked.setdefault(both, set()).update(cand)
            near = {guards: reached(g, guards, self.mu, need) for guards, need in asked.items()}

            def beyond(t: int, need: AbstractSet[int], guards: FrozenSet[int]) -> AbstractSet[int]:
                return need - near[guards]
        else:
            centers, ball = center_balls

            def beyond(t: int, need: AbstractSet[int], guards: FrozenSet[int]) -> AbstractSet[int]:
                return need.difference(*[b for b in map(ball, centers[t]) if not b.isdisjoint(guards)])

        for site, kind, t, need, guards in covers:
            if not guards:
                raise ContractViolation("site %s: no %s-side guards but the bag needs them" % (site, kind))
            stray = beyond(t, need, guards)
            if stray:
                raise ContractViolation(
                    "site %s: %s-side vertices %s beyond radius mu of their guards"
                    % (site, kind, sorted(stray)[:5])
                )
        exsets: List[Tuple[TreeEdge, AbstractSet[int]]] = []
        for e, cand, both in unguarded:
            rest = beyond(e[0], cand, both)
            if rest:
                exsets.append((e, rest))
        if exsets:
            anchor = self.root_triple.anchor
            named = set().union(*[cand for _, cand in exsets])
            near_zone = reached(g, anchor - self.removed, 3 * self.ell + self.mu, named)
            a_eta = control_radii(self.theta, self.mu, self.ell, self.eta)[-1]
            near_far = reached(g, vset - (self.removed | anchor), a_eta, named)
            for e, cand in exsets:
                hit = cand & near_zone
                if hit:
                    raise ContractViolation(
                        "edge %s: unguarded removed vertices %s sit near the root zone"
                        % (e, sorted(hit)[:5])
                    )
                hit = cand & near_far
                if hit:
                    raise ContractViolation(
                        "edge %s: unguarded removed vertices %s sit near unanchored territory"
                        % (e, sorted(hit)[:5])
                    )
        for e in self.td.tree_edges:
            tri = self.edge_triples[e]
            if len(tri.anchor) <= self.eta:
                continue
            end_bag = self.td.bags[e[1]]
            stray = end_bag - reached(g, self.td.adhesion_of(e), self.ell, end_bag)
            if stray:
                raise ContractViolation(
                    "edge %s exceeds eta but its end bag strays %s beyond radius ell"
                    % (e, sorted(stray)[:5])
                )


def _control_levels(eta: int, theta: int, mu: object, ell: object) -> Tuple[List[Fraction], List[Fraction]]:
    """The control radii a_0..a_{eta-1}, and control_extension_bound at
    every budget 0..eta in one pass, each level starting from the one
    below."""
    mf = as_fraction(mu)
    lf = as_fraction(ell)
    if theta < 1 or not 0 <= eta <= theta:
        raise GraphError("need 1 <= theta and 0 <= eta <= theta")
    if mf < 0 or lf <= 0:
        raise GraphError("need mu >= 0 and ell > 0")
    radii = control_radii(theta, mf, lf, eta - 1) if eta else []
    bounds = [patch_bound(theta, 4 * lf + mf, lf, 1)]
    for a in radii:
        patched = patch_bound(theta, 3 * lf + 3 * mf + a, lf, bounds[-1])
        bounds.append(con_color_bound(lf, patched, theta, a + mf))
    return radii, bounds


def control_extension_bound(eta: int, theta: int, mu: object, ell: object) -> Fraction:
    """Weak-diameter bound for extending a zone coloring to a two-coloring
    along a control construction with the given parameters."""
    return _control_levels(eta, theta, mu, ell)[1][-1]


def centered_bags_bound(theta: int, radius: object, ell: object) -> Fraction:
    """Bound for color_centered_bags: every bag is within `radius` of at
    most theta centers, and the derived construction runs at mu=2*radius."""
    return control_extension_bound(theta, theta, 2 * as_fraction(radius), ell)


# -- the extension engine ----------------------------------------------------


class _EngineCtx(Record):
    """What every level of one engine run reads.  The constructions of a
    run share theta and mu, and a level's bounds depend only on its budget
    eta, so they are computed once per run: level_bound[eta] is
    control_extension_bound at eta, radii[eta-1] the condensation radius of
    a level of budget eta, and centered the zone-saturated finish's bound."""

    __slots__ = ("lf", "deep", "level_bound", "radii", "centered")

    def __init__(self, lf: Fraction, deep: bool, theta: int, mu: Fraction, eta: int) -> None:
        radii, level_bound = _control_levels(eta, theta, mu, lf)
        object.__setattr__(self, "lf", lf)
        object.__setattr__(self, "deep", deep)
        object.__setattr__(self, "level_bound", level_bound)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "centered", centered_bound(theta, 3 * lf + mu, lf))


def _check_centers(
    g: WeightedGraph,
    td: RootedTreeDecomposition,
    centers: Dict[int, Tuple[int, ...]],
    theta: int,
    radius: Fraction,
    metric: bool,
    what: str,
) -> Callable[[int], Set[int]]:
    """Check the center map: it covers the nodes, every node's centers are
    at most theta vertices of its bag, and with `metric` every bag lies
    within `radius` of its centers.  A set's ball is the union of its
    members' balls, so each center's ball is searched once per call; the
    memo is returned for the caller to reuse at the same radius."""
    balls: Dict[int, Set[int]] = {}

    def ball(v: int) -> Set[int]:
        found = balls.get(v)
        if found is None:
            found = balls[v] = neighborhood(g, (v,), radius)
        return found

    if set(centers) != set(td.nodes):
        raise GraphError("%s: center map must cover the nodes exactly" % what)
    for t in td.nodes:
        bag = td.bags[t]
        cs = centers[t]
        if len(set(cs)) > theta:
            raise ContractViolation("%s: node %s carries %d centers > theta" % (what, t, len(cs)))
        if not set(cs) <= bag:
            raise ContractViolation("%s: node %s centers leave its bag" % (what, t))
        if bag and not cs:
            raise ContractViolation("%s: node %s has a nonempty bag but no centers" % (what, t))
        if metric:
            stray = bag.difference(*[ball(v) for v in cs])
            if stray:
                raise ContractViolation(
                    "%s: node %s bag strays %s beyond the center radius"
                    % (what, t, sorted(stray)[:5])
                )
    return ball


def _inherited_triple(triples: Dict[TreeEdge, GuardTriple], e: TreeEdge) -> GuardTriple:
    """The guard triple of tree edge e before a re-rooting, which turns the
    edges on the path to the old root around: that of e or of e reversed."""
    tri = triples.get(e) or triples.get((e[1], e[0]))
    if tri is None:
        raise ContractViolation("rebuilt edge %s has no guard triple to inherit" % (e,))
    return tri


def _pick_attach(
    g: WeightedGraph,
    con: ControlConstruction,
    candidates: Sequence[int],
) -> int:
    """Node to hang a fresh root bag on so that no re-oriented edge ends up
    with an oversized anchor above a node that has children."""
    td = con.td
    cands = sorted(set(candidates))
    if not cands:
        raise ContractViolation("no node available to attach a fresh root to")
    for t in cands:
        if td.children[t]:
            return t
    for t in cands:
        p = td.parent[t]
        if p is None:
            return t
        if len(con.edge_triples[(p, t)].anchor) <= con.eta:
            return t
    for t in cands:
        p = td.parent[t]
        if p is None or p != td.root or len(td.children[p]) != 1:
            continue
        x_e = td.adhesion_of((p, t))
        if x_e and td.bags[p] <= reached(g, x_e, con.ell, td.bags[p]):
            return t
    raise ContractViolation(
        "no safe attachment node: every candidate is a leaf whose tree edge "
        "carries more than eta anchors"
    )


def _fresh_root(
    ctx: _EngineCtx,
    g: WeightedGraph,
    con: ControlConstruction,
    centers: Dict[int, Tuple[int, ...]],
    t0: int,
    v: int,
    removed: FrozenSet[int],
    edge_triples: Dict[TreeEdge, GuardTriple],
    parent_measure: Tuple[int, int],
    what: str,
) -> Tuple[Coloring, Optional[ColorResult]]:
    """Hang a fresh root bag {v}, centered and guarded by v alone, on node
    t0 and extend the coloring that gives v color 2 across the re-rooted
    construction with the given removed set and edge triples; returns what
    `_control_rec` returns for it."""
    td = con.td
    t1 = max(td.nodes) + 1
    td1 = td.rerooted(t1, (v,), t0)
    triples1 = {(t1, t0): GuardTriple.single(v)}
    triples1.update((e, _inherited_triple(edge_triples, e)) for e in td1.tree_edges if e != (t1, t0))
    con1 = ControlConstruction(
        td1, removed, con.eta, con.theta, con.mu, ctx.lf, GuardTriple.single(v), triples1
    )
    centers1 = dict(centers)
    centers1[t1] = (v,)
    return _control_rec(
        ctx, g, con1, frozenset((v,)), Coloring({v: 2}, 2), centers1, parent_measure, what,
    )


def _color_stars(
    ctx: _EngineCtx,
    g: WeightedGraph,
    con: ControlConstruction,
    zset: FrozenSet[int],
    c: Coloring,
    centers: Dict[int, Tuple[int, ...]],
    level_bound: Fraction,
    what: str,
) -> Coloring:
    """eta = 0: every anchored edge ends in a childless bag, so the tree
    splits along anchor-free edges into stars and each star's bag union is
    centered at its middle node.  Any coloring then meets the bound."""
    td, rset = con.td, con.removed
    vfree = g.vertex_set() - rset
    loose = {e for e in td.tree_edges if not con.edge_triples[e].anchor}
    adj: Dict[int, List[int]] = {t: [] for t in td.nodes}
    for (p, ch) in td.tree_edges:
        if (p, ch) in loose:
            continue
        adj[p].append(ch)
        adj[ch].append(p)
    seen: Set[int] = set()
    merged: Dict[int, int] = {}
    for start in td.nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for t in comp:
            for n in adj[t]:
                if n not in seen:
                    seen.add(n)
                    comp.append(n)
        if len(comp) == 1:
            center_node = comp[0]
        else:
            parents = {td.parent[t] for t in comp if td.parent[t] in comp}
            kids = set(comp) - parents
            if len(parents) != 1 or any(td.children[t] for t in kids):
                raise ContractViolation(
                    "%s: anchored edges were expected to form a star around one node" % what
                )
            center_node = next(iter(parents))
        piece = td.bag_union(comp) - rset
        if not piece:
            continue
        overlap = piece & set(merged)
        if overlap:
            raise ContractViolation(
                "%s: star pieces overlap outside the removed set at %s"
                % (what, sorted(overlap)[:5])
            )
        cert = CenterCertificate.build(
            g,
            centers[center_node],
            4 * con.ell + con.mu,
            covered=sorted(piece),
            k=con.theta,
        )
        res = centered_color(
            g,
            ctx.lf,
            sorted(g.vertex_set() - piece),
            cert,
            coloring=c.filled(piece),
            what="%s: star piece at node %s" % (what, center_node),
            exact=False,
        )
        merged.update(res.coloring.assignment)
    if set(merged) != vfree:
        raise ContractViolation("%s: star pieces fail to cover everything uncolored" % what)
    out = Coloring(merged, 2)
    check_weak_diameter(
        g, ctx.lf, out, level_bound, "%s: merged star pieces" % what,
        restrict_to=vfree, exact=False,
    )
    return out


def _control_rec(
    ctx: _EngineCtx,
    g: WeightedGraph,
    con: ControlConstruction,
    zset: FrozenSet[int],
    c: Coloring,
    centers: Dict[int, Tuple[int, ...]],
    parent_measure: Optional[Tuple[int, int]],
    what: str,
) -> Tuple[Coloring, Optional[ColorResult]]:
    """Extend c from zset to all of V - R at the construction's level bound.
    Returns the coloring and, when the level's lift colored every free
    vertex with no far part left, that lift's result: a check of the same
    coloring of g over V - R at the level bound, made with exact=False.
    Each construction the engine builds (con0, con_star, con1) is checked
    here once; the top one was checked by its public entry.

    Three checks here ask only whether named vertices lie in a ball, and
    their searches stop once those are settled (`reached`): the guard hits
    of the zone adhesions, one search per distinct adhesion with the
    anchors of all its edges as targets; the free guards promoted near the
    patch region rp; and the far branch's guard set wset.  The zone ball
    `z_ball`, rp and each far part's fringe z_e are read as whole sets,
    and so are searched whole."""
    if parent_measure is not None:
        con.validate(g, full=ctx.deep)
        _check_centers(g, con.td, centers, con.theta, 3 * con.ell + con.mu, ctx.deep, what)
    td, rset, eta, theta = con.td, con.removed, con.eta, con.theta
    lf, mu = ctx.lf, con.mu
    vset = g.vertex_set()
    vfree = vset - rset
    if not zset <= vfree or c.domain != zset:
        raise ContractViolation("%s: precolored set out of step with the removed set" % what)
    root_anchor = con.root_triple.anchor
    far_count = len(vset - (rset | root_anchor))
    measure = (eta, (len(vfree) - len(zset)) + far_count)
    if parent_measure is not None and not measure < parent_measure:
        raise ContractViolation(
            "%s: recursion measure failed to drop (%s -> %s)" % (what, parent_measure, measure)
        )
    level_bound = ctx.level_bound[eta]
    if not vfree:
        return Coloring.empty(2), None
    if eta == 0:
        return _color_stars(ctx, g, con, zset, c, centers, level_bound, what), None
    zone = root_anchor - rset
    if not zone:
        # nothing anchors the zone yet: hang a fresh single-vertex root on a
        # safely chosen node and restart with that vertex as the whole zone
        if zset:
            raise ContractViolation("%s: precolored vertices without an anchored zone" % what)
        cands = [t for t in td.nodes if td.bags[t] - rset]
        t0 = _pick_attach(g, con, cands)
        return _fresh_root(
            ctx, g, con, centers, t0, min(td.bags[t0] - rset), rset, con.edge_triples,
            measure, what + " >restart",
        )
    z_ball = frozenset(neighborhood(g, sorted(zone), 3 * lf + mu))
    zsat = z_ball - rset
    if not zset <= zsat:
        raise ContractViolation("%s: precolored vertices outside the zone ball" % what)
    c_sat = c.filled(zsat)
    measure_sat = (eta, (len(vfree) - len(zsat)) + far_count)
    if vfree <= zsat:
        # the zone ball swallows everything: the uncolored part lies within
        # 3*ell+mu of the zone anchors, at most theta of them (validated
        # above), so any coloring of it meets the centered bound
        centered = ctx.centered
        if centered > level_bound:
            raise ContractViolation("%s: centered shortcut bound exceeds the level bound" % what)
        check_weak_diameter(
            g, lf, c_sat, centered, "%s: zone-saturated finish" % what,
            restrict_to=vfree, exact=False,
        )
        return c_sat, None
    # main branch: condense everything beyond the zone's bag neighborhood,
    # color the condensed graph one budget level down, patch the zone over
    # the result, lift the patched coloring back, then finish the far parts
    a_prev = ctx.radii[eta - 1]
    nf_prev = ctx.level_bound[eta - 1]
    t0set, u_edges = ball_region(td, z_ball, what)
    cond = condense(g, td, u_edges, (), lf, theta, a_prev + mu)
    g0, td0 = cond.g0, cond.td0
    # edges may share a zone adhesion: one search per distinct one, until
    # the anchors of all its edges are settled
    zxs = {e: td.adhesion_of(e) & z_ball for e in td0.tree_edges if e not in cond.shortcut_parts}
    zx_anchors: Dict[FrozenSet[int], Set[int]] = {}
    for e, zx in zxs.items():
        zx_anchors.setdefault(zx, set()).update(con.edge_triples[e].anchor)
    zx_near: Dict[FrozenSet[int], Set[int]] = {}
    r_zs: Dict[TreeEdge, FrozenSet[int]] = dict.fromkeys(cond.shortcut_parts, frozenset())
    for e, zx in zxs.items():
        if not zx:
            raise ContractViolation("%s: zone-internal edge %s misses the zone ball" % (what, e))
        if zx not in zx_near:
            zx_near[zx] = reached(g, zx, mu, zx_anchors[zx])
        hits = con.edge_triples[e].anchor & zx_near[zx]
        if not hits:
            raise ContractViolation("%s: edge %s has no guard within mu of the zone" % (what, e))
        r_zs[e] = hits
    r_root = frozenset(zone)
    all_rz: Set[int] = set(r_root)
    for hits in r_zs.values():
        all_rz |= hits
    v0 = g0.vertex_set()
    if not all_rz <= v0:
        raise ContractViolation("%s: zone guards fell outside the condensed graph" % what)
    rp = frozenset((rset & v0) | neighborhood(g0, sorted(all_rz), a_prev + mu))
    # a free guard within mu of rp is promoted to a shared one
    free_guards = set(con.root_triple.free).union(*[con.edge_triples[e].free for e in td0.tree_edges])
    promotable = reached(g0, rp, mu, free_guards)

    def derive(tri: GuardTriple, r_z: FrozenSet[int]) -> GuardTriple:
        promoted = frozenset(v for v in tri.free if v in promotable)
        return GuardTriple(tri.free - rp, tri.removed | r_z, (tri.both | promoted) - r_z)

    triples0: Dict[TreeEdge, GuardTriple] = {}
    centers0: Dict[int, Tuple[int, ...]] = {t: centers[t] for t in t0set}
    for e in td0.tree_edges:
        base = con.edge_triples[e]
        triples0[e] = derive(base, r_zs[e])
        if e in cond.shortcut_parts:
            centers0[e[1]] = tuple(sorted(base.all_guards))
    con0 = ControlConstruction(
        td0, rp, eta - 1, theta, mu, lf, derive(con.root_triple, r_root), triples0
    )
    c0 = _control_rec(
        ctx, g0, con0, frozenset(), Coloring.empty(2), centers0,
        measure, what + " >condensed",
    )[0]
    if not zsat <= rp:
        raise ContractViolation("%s: the zone escaped the patch region" % what)
    covered = rp - rset
    c_z = c_sat.filled(covered)
    cert = CenterCertificate.build(
        g0, sorted(r_root), 3 * lf + 3 * mu + a_prev, covered=sorted(covered), k=theta
    )
    patched = patch_colorings(
        g0, lf, cert, sorted(rset & v0), c_z, c0,
        n_claimed=nf_prev, what="%s: zone patch" % what, exact=False,
    )
    big_centers: Dict[TreeEdge, List[int]] = {}
    for e in u_edges:
        if len(td.adhesion_of(e)) > theta:
            big_centers[e] = sorted(con.edge_triples[e].all_guards)
    lr = lift_condensation_coloring(
        cond, patched, deleted=sorted(rset), centers_per_big_adhesion=big_centers,
        what="%s: zone lift" % what, exact=False,
    )
    if lr.bound != level_bound:
        raise ContractViolation(
            "%s: lift bound %s drifted from the level bound %s"
            % (what, frac_str(lr.bound), frac_str(level_bound))
        )
    cprime = lr.coloring
    out = dict(cprime.assignment)
    lifted = lr
    for e in u_edges:
        part = td.subtree_vertices(e)
        part_free = part - rset
        missing = part_free - set(out)
        if not missing:
            continue
        tri = con.edge_triples[e]
        if len(tri.anchor) > eta:
            raise ContractViolation(
                "%s: edge %s exceeds eta yet its part was not finished by the lift" % (what, e)
            )
        if part & (root_anchor - rset):
            raise ContractViolation("%s: far part %s contains zone anchors" % (what, e))
        x_e = td.adhesion_of(e)
        z_e = frozenset(g._scaled_distances(x_e, radius=3 * lf, within=part))
        wset = frozenset(reached(g, z_e - rset, 3 * lf + mu, tri.all_guards))
        rstar = frozenset(((part & (rset | root_anchor)) - wset) | (vset - part))
        if rstar & (part - rset):
            raise ContractViolation("%s: far guard set bit into the part itself" % what)
        if not (z_ball | rset) <= (z_e | rstar):
            raise ContractViolation("%s: far re-rooting shrank the zone" % what)
        anchor_star = tri.anchor | wset
        if not (rset | root_anchor) <= (rstar | anchor_star):
            raise ContractViolation("%s: far re-rooting shrank the anchored territory" % what)
        m_new = len(vset - (z_e | rstar)) + len(vset - (rstar | anchor_star))
        if m_new > measure_sat[1]:
            raise ContractViolation("%s: far measure grew at edge %s" % (what, e))
        q = max(td.nodes) + 1
        if m_new < measure_sat[1]:
            td_star = td.rerooted(q, x_e, e)
            below = set(td.subtree_nodes(e))
            split = GuardTriple(tri.free - rstar, tri.removed - wset, tri.free | tri.both)
            triples_star: Dict[TreeEdge, GuardTriple] = {(q, e[1]): split, (q, e[0]): split}
            for ne in td_star.tree_edges:
                if ne in triples_star:
                    continue
                # re-rooting at q flips only edges above e, so ne[0] tells the side
                t2 = _inherited_triple(con.edge_triples, ne)
                if ne[0] in below:
                    triples_star[ne] = GuardTriple(
                        t2.free - rstar, t2.removed - wset, t2.free | t2.both
                    )
                else:
                    triples_star[ne] = GuardTriple(
                        t2.free - rstar,
                        (t2.all_guards) - ((wset & rset) | (x_e - rset)),
                        t2.free | t2.both,
                    )
            root_star = GuardTriple(tri.free - rstar, tri.removed - wset, tri.free | tri.both | wset)
            con_star = ControlConstruction(td_star, rstar, eta, theta, mu, lf, root_star, triples_star)
            centers_star = dict(centers)
            centers_star[q] = tuple(sorted(tri.all_guards))
            zstar = z_e - rstar
            sub = _control_rec(
                ctx, g, con_star, zstar, cprime.filled(zstar), centers_star,
                measure_sat, what + " >far",
            )[0]
            if not part_free <= sub.domain:
                raise ContractViolation("%s: far coloring misses part of edge %s" % (what, e))
            c_e = {v: sub.assignment[v] for v in part_free}
        else:
            # measure tie: the part holds no fresh zone at all, so restart
            # inside it from one untouched vertex with everything colored so
            # far stamped into the removed set
            if not z_e <= rset or not rstar <= (z_ball | rset):
                raise ContractViolation("%s: stalled far part is not in the endgame shape" % what)
            leftover = vfree - z_ball
            if not leftover or not leftover <= part:
                raise ContractViolation("%s: endgame leftover strayed outside the part" % what)
            v_star = min(leftover)
            cands = [t for t in td.subtree_nodes(e) if v_star in td.bags[t]]
            t0 = _pick_attach(g, con, cands)
            r1 = frozenset(z_ball | rset)
            derived1 = {
                fe: GuardTriple(t2.free - r1, t2.removed, t2.free | t2.both)
                for fe, t2 in con.edge_triples.items()
            }
            sub = _fresh_root(
                ctx, g, con, centers, t0, v_star, r1, derived1, measure_sat, what + " >endgame",
            )[0]
            if not part_free <= sub.domain:
                raise ContractViolation("%s: endgame coloring misses part of edge %s" % (what, e))
            c_e = {v: sub.assignment[v] for v in part_free}
        lifted = None
        for v, col in c_e.items():
            if v in out and out[v] != col:
                raise ContractViolation("%s: far parts disagree at vertex %s" % (what, v))
            out[v] = col
    if set(out) != vfree:
        raise ContractViolation("%s: merged coloring does not cover everything uncolored" % what)
    for v in zset:
        if out[v] != c.assignment[v]:
            raise ContractViolation("%s: the extension changed a precolored vertex" % what)
    result = Coloring(out, 2)
    if ctx.deep:
        check_weak_diameter(
            g, lf, result, level_bound, "%s: level check" % what,
            restrict_to=vfree, exact=False,
        )
    return result, lifted


def color_control_construction(
    g: WeightedGraph,
    ell: object,
    con: ControlConstruction,
    bag_centers: Dict[int, Iterable[int]],
    z: Iterable[int] = (),
    precoloring: Optional[Coloring] = None,
    deep_verify: bool = False,
) -> ColorResult:
    """Extend a coloring of the guarded zone to all of V - removed.

    bag_centers maps every node to at most theta vertices of its bag
    covering the bag within radius 3*ell+mu.  z must sit inside the radius
    3*ell+mu ball of the root anchors; the precoloring (color 2 by default)
    uses at most two colors and is kept verbatim.  The result is a
    two-coloring whose monochromatic components have weak diameter at most
    control_extension_bound hops in the full power graph, re-verified
    before returning.
    """
    lf = as_fraction(ell)
    if lf != con.ell:
        raise GraphError("scale %s does not match the construction's %s" % (cut_frac(lf), cut_frac(con.ell)))
    con.validate(g, full=True)
    centers = {t: tuple(sorted(set(cs))) for t, cs in bag_centers.items()}
    _check_centers(g, con.td, centers, con.theta, 3 * lf + con.mu, True, "control coloring")
    zf = frozenset(z)
    unknown = zf - g.vertex_set()
    if unknown:
        raise GraphError("precolored vertices %s are not in the graph" % sorted(unknown)[:5])
    if not zf <= reached(g, con.root_triple.anchor - con.removed, 3 * lf + con.mu, zf):
        raise GraphError("the precolored set must sit inside the guarded zone ball")
    if precoloring is None:
        precoloring = Coloring.constant(zf, 2, color=2)
    if precoloring.domain != zf:
        raise GraphError("precoloring domain must equal the precolored set")
    if precoloring.num_colors > 2:
        raise GraphError("precoloring uses more than 2 colors")
    zset = zf - con.removed
    c0 = Coloring({v: precoloring.assignment[v] for v in zset}, 2)
    return _run_engine(g, lf, con, zset, c0, centers, deep_verify, True, "control coloring")


def _run_engine(
    g: WeightedGraph,
    lf: Fraction,
    con: ControlConstruction,
    zset: FrozenSet[int],
    c0: Coloring,
    centers: Dict[int, Tuple[int, ...]],
    deep_verify: bool,
    exact_check: bool,
    what: str,
) -> ColorResult:
    """The engine behind both public entries, once each has checked its
    construction, center map and precoloring: extend c0 from zset and
    verify the result at the construction's bound.  When the top level's
    lift colored everything and the check asked for is not exact, that
    lift already checked this coloring of g over V - R at this bound, and
    its report stands."""
    ctx = _EngineCtx(lf, deep_verify, con.theta, con.mu, con.eta)
    limit = 6 * len(g) + _RECURSION_HEADROOM
    old_limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(max(old_limit, limit))
        out, lifted = _control_rec(ctx, g, con, zset, c0, centers, None, what)
    finally:
        sys.setrecursionlimit(old_limit)
    bound = ctx.level_bound[con.eta]
    if lifted is not None and not exact_check and lifted.bound == bound and lifted.coloring == out:
        return ColorResult(out, bound, lifted.report)
    report = check_weak_diameter(
        g, lf, out, bound, what,
        restrict_to=g.vertex_set() - con.removed, exact=exact_check,
    )
    return ColorResult(out, bound, report)


def color_centered_bags(
    g: WeightedGraph,
    ell: object,
    td: RootedTreeDecomposition,
    centers: Dict[int, Iterable[int]],
    radius: object,
    removed: Iterable[int] = (),
    exact_check: bool = True,
    what: str = "centered bags",
) -> ColorResult:
    """Two-color a graph whose tree decomposition has every bag within
    `radius` of a few per-node centers.

    Per tree edge the parent's centers are re-anchored inside the adhesion
    (one witness per center whose ball meets the adhesion), which turns the
    center map into a control construction at mu = 2*radius whose exclusion
    conditions hold vacuously for any removed set.  The map is checked once,
    at `radius`; that also covers every bag within the engine's 3*ell + mu.
    The construction's cover check reads the center balls that check
    searched (see ControlConstruction.validate), so no search runs at
    radius mu: every adhesion vertex lies in the ball of a parent center,
    and that center's witness lies in the same ball.
    """
    lf = as_fraction(ell)
    rf = as_fraction(radius)
    if rf < 0:
        raise GraphError("center radius must be nonnegative")
    cmap = {t: tuple(sorted(set(cs))) for t, cs in centers.items()}
    theta = max([1] + [len(cs) for cs in cmap.values()])
    ball = _check_centers(g, td, cmap, theta, rf, True, what)
    triples: Dict[TreeEdge, GuardTriple] = {}
    empty = frozenset()
    for e in td.tree_edges:
        x_e = td.adhesion_of(e)
        if not x_e:
            triples[e] = GuardTriple(empty, empty, empty)
            continue
        witnesses: Set[int] = set()
        for v in cmap[e[0]]:
            hits = x_e & ball(v)
            if hits:
                witnesses.add(min(hits))
        if not witnesses:
            raise ContractViolation("%s: adhesion of %s sees no parent center" % (what, e))
        triples[e] = GuardTriple(empty, empty, frozenset(witnesses))
    root_triple = GuardTriple(empty, empty, frozenset(cmap[td.root]))
    con = ControlConstruction(
        td, frozenset(removed), theta, theta, 2 * rf, lf, root_triple, triples
    )
    con.validate(g, full=True, center_balls=(cmap, ball))
    return _run_engine(
        g, lf, con, frozenset(), Coloring.empty(2), cmap, False, exact_check, what
    )


# -- layerings -----------------------------------------------------------------


def layering_projection(
    g: WeightedGraph, layering: Sequence[Iterable[int]], eps0: object
) -> Dict[int, Fraction]:
    """eps0 * layer-index as a vertex projection.

    Every edge must join the same or adjacent layers and weigh at least
    eps0 times the layer gap, which makes the projection exactly
    1-Lipschitz.
    """
    ef = as_fraction(eps0)
    if ef <= 0:
        raise GraphError("layer resolution eps0 must be positive")
    idx: Dict[int, int] = {}
    for i, layer in enumerate(layering):
        for v in layer:
            if v in idx:
                raise GraphError("vertex %s appears in two layers" % v)
            idx[v] = i
    missing = g.vertex_set() - set(idx)
    if missing:
        raise GraphError("layering misses vertices %s" % sorted(missing)[:5])
    alien = set(idx) - g.vertex_set()
    if alien:
        raise GraphError("layering names unknown vertices %s" % sorted(alien)[:5])
    for (u, v, w) in g.edges:
        gap = abs(idx[u] - idx[v])
        if gap > 1:
            raise GraphError("edge (%s, %s) spans %d layers" % (u, v, gap))
        if ef * gap > w:
            raise GraphError(
                "edge (%s, %s) is lighter than eps0 across a layer step" % (u, v)
            )
    return {v: ef * i for v, i in idx.items()}


# -- planar and layered pipelines ---------------------------------------------


class SlabColorResult(ColorResult):
    __slots__ = ("systems",)


def _color_slabs(
    g: WeightedGraph,
    lf: Fraction,
    slab_width_factor: object,
    what: str,
    prepare: Callable[
        [WeightedGraph],
        Tuple[Dict[int, Fraction], Callable[[SlabSystem, Slab, WeightedGraph], ColorResult]],
    ],
) -> SlabColorResult:
    """The slab scheme both pipelines share.  Per connected component gc,
    `prepare(gc)` returns gc's 1-Lipschitz projection and the function
    `color_piece(system, slab, piece)` that two-colors one piece of a slab's
    padded window.  Each piece is a connected component of the window; the
    pieces' two-colorings make the slab's coloring, the two families combine
    into four colors, and the whole coloring is checked against the combined
    bound.  One power graph per component serves the combination and the
    final check: with edges no heavier than ell, the power graph of g is
    the disjoint union of its components' power graphs."""
    assign: Dict[int, int] = {}
    bound = Fraction(0)
    systems: List[SlabSystem] = []
    adj: Dict[int, Tuple[int, ...]] = {}
    comps = g.connected_components()
    for comp in comps:
        # a connected graph is its own component: no copy
        gc = g if len(comps) == 1 else g.induced(comp)
        projection, color_piece = prepare(gc)
        system = make_slabs(gc, lf, projection, slab_width_factor)
        scs: List[SlabColoring] = []
        for slab in system.slabs:
            slab_assign: Dict[int, int] = {}
            slab_bound = Fraction(0)
            window = gc.induced(slab.window)
            pieces = window.connected_components()
            for kcomp in pieces:
                # a one-piece window is its own piece: no second copy
                res = color_piece(system, slab, window if len(pieces) == 1 else gc.induced(kcomp))
                slab_assign.update(res.coloring.assignment)
                slab_bound = max(slab_bound, res.bound)
            scs.append(SlabColoring(slab.family, slab.index, Coloring(slab_assign, 2), slab_bound))
        power = power_graph(gc, lf)
        combined, cbound = combine_slab_colorings(gc, lf, system, scs, what=what, power=power)
        assign.update(combined.assignment)
        bound = max(bound, cbound)
        systems.append(system)
        adj.update(power._adj)
    coloring = Coloring(assign, 4)
    if len(comps) != 1:
        power = PowerGraph(g, {v: adj[v] for v in g.vertices})
    report = check_weak_diameter(g, lf, coloring, bound, what, power=power)
    return SlabColorResult(coloring, bound, report, tuple(systems))


def color_planar(
    g: WeightedGraph,
    ell: object,
    rotation: Optional[Dict[int, Sequence[int]]],
    slab_width_factor: object = 8,
) -> SlabColorResult:
    """Four-color an embedded planar graph so every monochromatic component
    of the scale-ell power graph has bounded weak diameter.

    Per connected component: a geodesic tree from the smallest vertex, whose
    root distances are the slab projection, and a tripod decomposition over
    the rotation system, contracted and verified as a certificate.  Each
    input fact is checked once: here, for the whole graph, that g is simple
    and that the rotation lists each named vertex's neighbours exactly
    once; the certificate build checks that it covers a component with a
    cycle and describes a sphere.  A component is connected as the driver
    splits it off.  Each
    padded window piece is colored by the guarded-bags engine over the
    certificate restricted to it (`_restrict_tripods`, over the
    `_TripodWindows` index built once per component).
    """
    lf = as_fraction(ell)
    _check_simple(g)
    require_light_edges(g, lf)
    if rotation is not None:
        _check_rotation(g, rotation)

    def prepare(gc: WeightedGraph):
        tree = bfs_geodesic_tree(gc, gc.vertices[0])
        rot_c = None if rotation is None else {v: rotation[v] for v in gc.vertices if v in rotation}
        # one preorder of the tree serves the build and the window cuts
        ranks = _Ranks(tree.root, tree.parent, gc.vertices)
        windows = _TripodWindows(_tripod_certificate(gc, rot_c, tree, ranks), ranks)

        def color_piece(system: SlabSystem, slab: Slab, gk: WeightedGraph) -> ColorResult:
            tdk, centersk = _restrict_tripods(
                windows, slab.window_lo, slab.window_hi, gk.vertex_set()
            )
            return color_centered_bags(
                gk, lf, tdk, centersk, system.width + 2 * system.pad, exact_check=False,
                what="planar coloring: slab %s%d" % (slab.family, slab.index),
            )

        return dict(tree.dist), color_piece

    return _color_slabs(g, lf, slab_width_factor, "planar coloring", prepare)


def color_layered(
    g: WeightedGraph,
    ell: object,
    layering: Sequence[Iterable[int]],
    eps0: object,
    slab_width_factor: object = 8,
) -> SlabColorResult:
    """Four-color a layered graph: slabs over the layering projection, and
    the bounded-treewidth colorer on each padded window piece.  Weights must
    sit in [eps0, ell]."""
    lf = as_fraction(ell)
    ef = as_fraction(eps0)
    mn = g.min_edge_weight()
    if mn is not None and mn < ef:
        raise GraphError("edge weight %s is below eps0" % cut_frac(mn))
    require_light_edges(g, lf)
    projection = layering_projection(g, layering, ef)

    def color_piece(system: SlabSystem, slab: Slab, gk: WeightedGraph) -> ColorResult:
        return color_bounded_treewidth(gk, lf, exact_check=False)

    def prepare(gc: WeightedGraph):
        return {v: projection[v] for v in gc.vertices}, color_piece

    return _color_slabs(g, lf, slab_width_factor, "layered coloring", prepare)
