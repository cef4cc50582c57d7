"""Guard-triple constructions, tripod decompositions, slabs, and the planar
and layered pipelines."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wdcolor.graph import GraphError, SubgraphView, WeightedGraph, neighborhood
from wdcolor.partition import Coloring, ContractViolation, verify_weak_diameter
from wdcolor.treedec import RootedTreeDecomposition, validate_td
from wdcolor.twcolor import (
    AdhesionConstruction,
    color_adhesion_construction,
    compute_tree_decomposition,
    cover_piece_bound,
)
from wdcolor.geodesic import (
    ControlConstruction,
    GuardTriple,
    centered_bags_bound,
    color_centered_bags,
    color_control_construction,
    color_layered,
    color_planar,
    combine_slab_colorings,
    control_extension_bound,
    layering_projection,
    make_slabs,
)
from wdcolor.tripods import GeodesicCertificate, GeodesicTree, bfs_geodesic_tree, tripod_decomposition
from wdcolor.generators import GeneratorSpec, generate

import oracles
from strategies import random_connected_graph, weighted_graphs


def unit_path(n):
    return WeightedGraph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def grid_graph(rows, cols, w=1):
    def vid(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j), w))
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1), w))
    return WeightedGraph(range(rows * cols), edges)


def path_centered_instance(n):
    """Unit path with the chain decomposition {v-1, v} and one center per
    bag; every bag is within radius 1 of its center."""
    g = unit_path(n)
    bags = {0: {0}}
    bags.update({v: {v - 1, v} for v in range(1, n)})
    td = RootedTreeDecomposition(bags, [(v - 1, v) for v in range(1, n)], 0)
    centers = {t: (min(td.bags[t]),) for t in td.nodes}
    return g, td, centers


# -- bound recursions, frozen against an independent evaluator ---------------


def ceil_div(a, b):
    return -((-a) // b)


def ceil_frac(x: Fraction) -> int:
    return ceil_div(x.numerator, x.denominator)


def oracle_patch(k: int, r: Fraction, ell: Fraction, n: Fraction) -> Fraction:
    if k == 0:
        return n
    inner = ceil_frac(Fraction(4, 1) / ell * (ell + r + ell * n)) + n
    return 2 * oracle_patch(k - 1, r, ell, inner) + 2 * ceil_frac(2 * (ell + r) / ell)


def oracle_con_color(ell: Fraction, n: Fraction, theta: int, mu: Fraction) -> Fraction:
    t = theta + mu / ell
    return (28 + 8 * mu / ell) * theta + (16 * t * (3 * theta + 1) + 4) + 8 * t * (3 * theta + 1) * n


def oracle_radii(theta: int, mu: Fraction, ell: Fraction, count: int):
    out = [3 * ell + mu]
    for _ in range(count):
        prev = out[-1]
        out.append(4 * (3 * theta + 1) * (theta + (prev + mu) / ell) * prev)
    return out


def oracle_extension(eta: int, theta: int, mu: Fraction, ell: Fraction) -> Fraction:
    val = oracle_patch(theta, 4 * ell + mu, ell, Fraction(1))
    if eta == 0:
        return val
    radii = oracle_radii(theta, mu, ell, eta - 1)
    for x in range(1, eta + 1):
        a = radii[x - 1]
        val = oracle_con_color(ell, oracle_patch(theta, 3 * ell + 3 * mu + a, ell, val), theta, a + mu)
    return val


def test_extension_bound_frozen_values():
    assert control_extension_bound(0, 1, 0, 1) == 70
    assert control_extension_bound(1, 1, 0, 1) == 100664
    assert centered_bags_bound(1, 2, 1) == 559992


def test_extension_bound_matches_oracle_base_cases():
    one = Fraction(1)
    assert oracle_extension(0, 1, Fraction(0), one) == 70
    assert oracle_extension(1, 1, Fraction(0), one) == 100664
    assert oracle_extension(1, 1, Fraction(4), one) == centered_bags_bound(1, 2, 1)


@settings(max_examples=50, deadline=None)
@given(
    theta=st.integers(min_value=1, max_value=3),
    eta_off=st.integers(min_value=0, max_value=3),
    mu_num=st.integers(min_value=0, max_value=6),
    ell_num=st.integers(min_value=1, max_value=4),
    ell_den=st.integers(min_value=1, max_value=3),
)
def test_extension_bound_matches_oracle(theta, eta_off, mu_num, ell_num, ell_den):
    eta = min(eta_off, theta)
    mu = Fraction(mu_num, 2)
    ell = Fraction(ell_num, ell_den)
    assert control_extension_bound(eta, theta, mu, ell) == oracle_extension(eta, theta, mu, ell)


def test_extension_bound_rejects_bad_parameters():
    with pytest.raises(GraphError):
        control_extension_bound(2, 1, 0, 1)
    with pytest.raises(GraphError):
        control_extension_bound(0, 0, 0, 1)
    with pytest.raises(GraphError):
        control_extension_bound(0, 1, -1, 1)


def test_extension_bound_grows_with_budget():
    vals = [control_extension_bound(eta, 3, 1, 1) for eta in range(4)]
    assert vals == sorted(vals) and len(set(vals)) == 4


# -- guard triples and construction validation --------------------------------


def test_guard_triple_views():
    t = GuardTriple(frozenset({1}), frozenset({2}), frozenset({3}))
    assert t.anchor == {1, 3}
    assert t.all_guards == {1, 2, 3}
    s = GuardTriple.single(7)
    assert s.anchor == {7} and s.all_guards == {7} and not s.removed


def construction_on_path(n, eta=1, theta=1, mu=0):
    g, td, centers = path_centered_instance(n)
    triples = {e: GuardTriple.single(min(td.adhesion_of(e))) for e in td.tree_edges}
    con = ControlConstruction(
        td, frozenset(), eta, theta, Fraction(mu), Fraction(1),
        GuardTriple.single(0), triples,
    )
    return g, con, centers


def test_construction_validates():
    g, con, _ = construction_on_path(6)
    con.validate(g, full=True)


def test_construction_rejects_oversized_triple():
    g = unit_path(4)
    bags = {0: {0, 1}, 1: {1, 2}, 2: {2, 3}}
    td = RootedTreeDecomposition(bags, [(0, 1), (1, 2)], 0)
    triples = {e: GuardTriple.single(min(td.adhesion_of(e))) for e in td.tree_edges}
    con = ControlConstruction(
        td, frozenset(), 1, 1, Fraction(0), Fraction(1),
        GuardTriple(frozenset({0, 1}), frozenset(), frozenset()), triples,
    )
    with pytest.raises(ContractViolation):
        con.validate(g, full=False)


def test_construction_rejects_unknown_removed():
    g, con, _ = construction_on_path(6)
    con2 = ControlConstruction(
        con.td, frozenset({99}), con.eta, con.theta, con.mu, con.ell,
        con.root_triple, con.edge_triples,
    )
    with pytest.raises(GraphError):
        con2.validate(g, full=False)


def test_construction_rejects_missing_edge_triple():
    g, con, _ = construction_on_path(6)
    partial = dict(con.edge_triples)
    partial.pop(con.td.tree_edges[-1])
    con2 = ControlConstruction(
        con.td, con.removed, con.eta, con.theta, con.mu, con.ell,
        con.root_triple, partial,
    )
    with pytest.raises(GraphError):
        con2.validate(g, full=False)


def test_construction_rejects_heavy_edge():
    g, con, _ = construction_on_path(4)
    heavy = WeightedGraph(g.vertices, [(u, v, w * 3) for (u, v, w) in g.edges])
    with pytest.raises(GraphError):
        con.validate(heavy, full=True)


def test_big_edge_must_end_childless():
    # anchor of size 2 > eta = 1 on an edge whose lower end keeps a child
    g = unit_path(4)
    bags = {0: {0, 1, 2}, 1: {1, 2, 3}, 2: {3}}
    td = RootedTreeDecomposition(bags, [(0, 1), (1, 2)], 0)
    triples = {
        (0, 1): GuardTriple(frozenset({1, 2}), frozenset(), frozenset()),
        (1, 2): GuardTriple.single(3),
    }
    con = ControlConstruction(
        td, frozenset(), 1, 2, Fraction(0), Fraction(1), GuardTriple.single(0), triples
    )
    with pytest.raises(ContractViolation):
        con.validate(g, full=False)


def two_bag_construction(n, bags, removed, root, edge, eta=1, theta=2, mu=0):
    """Unit path 0..n-1 under the chain of `bags` (node i above node i+1),
    with the root triple `root` and the same triple `edge` on every edge."""
    g = unit_path(n)
    td = RootedTreeDecomposition(
        dict(enumerate(bags)), [(i, i + 1) for i in range(len(bags) - 1)], 0
    )
    f = frozenset
    con = ControlConstruction(
        td, f(removed), eta, theta, Fraction(mu), Fraction(1),
        GuardTriple(*map(f, root)), {e: GuardTriple(*map(f, edge)) for e in td.tree_edges},
    )
    return g, con


def test_construction_flags_a_vertex_beyond_mu_of_its_guards():
    g, con = two_bag_construction(2, [{0, 1}], (), ({0}, (), {0}), ((), (), ()))
    with pytest.raises(ContractViolation, match=r"site root: free-side vertices \[1\] beyond radius mu"):
        con.validate(g, full=True)


def test_construction_flags_a_bag_side_without_guards():
    g, con = two_bag_construction(2, [{0, 1}], {1}, ({0}, (), ()), ((), (), ()))
    with pytest.raises(ContractViolation, match="site root: no removed-side guards but the bag needs them"):
        con.validate(g, full=True)


def test_construction_flags_unguarded_removed_vertices_near_the_root_zone():
    # the adhesion's removed vertex 1 is guarded only from the removed side,
    # and sits within 3*ell + mu of the zone {0}
    g, con = two_bag_construction(2, [{0, 1}, {1}], {1}, ({0}, {1}, ()), ((), {1}, ()))
    with pytest.raises(ContractViolation, match=r"edge \(0, 1\): unguarded removed vertices \[1\] sit near the root zone"):
        con.validate(g, full=True)


def test_construction_flags_unguarded_removed_vertices_near_unanchored_territory():
    # nothing anchors the zone, and vertex 1 lies unanchored next to the
    # removed adhesion vertex 0
    g, con = two_bag_construction(2, [{0}, {0, 1}], {0}, ((), {0}, ()), ((), {0}, ()), eta=0, theta=1)
    with pytest.raises(ContractViolation, match=r"edge \(0, 1\): unguarded removed vertices \[0\] sit near unanchored territory"):
        con.validate(g, full=True)


def test_construction_flags_an_oversized_anchor_whose_end_bag_strays():
    # the edge's one anchor exceeds eta = 0, so its childless end bag must sit
    # within ell of the adhesion {1}; vertex 3 is two away
    g, con = two_bag_construction(
        4, [{0, 1}, {1, 2, 3}], (), ({0}, (), {0}), ({1}, (), ()), eta=0, theta=1, mu=1
    )
    with pytest.raises(ContractViolation, match=r"edge \(0, 1\) exceeds eta but its end bag strays \[3\] beyond radius ell"):
        con.validate(g, full=True)


def test_engine_flags_a_bag_beyond_the_center_radius():
    # guards 1 and 4 cover the one bag within mu = 1, but its center 0 sees
    # vertex 5 only at distance 5 > 3*ell + mu
    g, con = two_bag_construction(6, [set(range(6))], (), ({1, 4}, (), ()), ((), (), ()), eta=0, mu=1)
    with pytest.raises(ContractViolation, match=r"node 0 bag strays \[5\] beyond the center radius"):
        color_control_construction(g, 1, con, bag_centers={0: [0]})


# -- the extension engine ------------------------------------------------------


def test_color_path_via_centered_bags():
    g, td, centers = path_centered_instance(30)
    res = color_centered_bags(g, 1, td, centers, 1)
    assert res.report.ok
    assert res.coloring.domain == g.vertex_set()
    assert res.bound == centered_bags_bound(1, 1, 1)
    assert res.report.max_weak_diameter_hops <= res.bound


def test_centered_bags_on_grid_band_decomposition():
    # adjacent-column bags walked left to right; centers are the top row
    rows, cols = 2, 12
    g = grid_graph(rows, cols)
    bags = {j: {j, j + 1, j + cols, j + cols + 1} for j in range(cols - 1)}
    td = RootedTreeDecomposition(bags, [(j - 1, j) for j in range(1, cols - 1)], 0)
    validate_td(g, td, "geodesic test")
    centers = {j: (j,) for j in range(cols - 1)}
    res = color_centered_bags(g, 1, td, centers, 2)
    assert res.report.ok and res.coloring.num_colors == 2


def test_centered_bags_respects_removed():
    g, td, centers = path_centered_instance(20)
    removed = {9, 10}
    res = color_centered_bags(g, 1, td, centers, 1, removed=removed)
    assert res.coloring.domain == g.vertex_set() - removed
    assert res.report.ok


def test_centered_bags_checks_radius_claim():
    g, td, centers = path_centered_instance(8)
    with pytest.raises(ContractViolation):
        color_centered_bags(g, 1, td, centers, 0)


def test_centered_bags_checks_the_center_map_once_at_the_claimed_radius(monkeypatch):
    import wdcolor.geodesic as geodesic

    radii = []
    check = geodesic._check_centers

    def counted(g, td, centers, theta, radius, metric, what):
        if metric:
            radii.append(radius)
        return check(g, td, centers, theta, radius, metric, what)

    monkeypatch.setattr(geodesic, "_check_centers", counted)
    g, td, centers = path_centered_instance(12)
    assert color_centered_bags(g, 1, td, centers, 1).report.ok
    assert radii == [1]
    radii.clear()
    with pytest.raises(ContractViolation, match=r"node 1 bag strays \[0\] beyond the center radius"):
        color_centered_bags(g, 1, td, {t: (max(td.bags[t]),) for t in td.nodes}, Fraction(1, 2))
    assert radii == [Fraction(1, 2)]


def _record_searches(monkeypatch, record):
    """Call record(sources, radius) before each of geodesic's reach
    searches: `neighborhood`, which reads a whole ball, and `reached`,
    which searches a ball only until its targets are settled."""
    import wdcolor.geodesic as geodesic

    search, capped = geodesic.neighborhood, geodesic.reached

    def counted(g, s, r):
        record(s, r)
        return search(g, s, r)

    def counted_capped(g, s, r, targets):
        record(s, r)
        return capped(g, s, r, targets)

    monkeypatch.setattr(geodesic, "neighborhood", counted)
    monkeypatch.setattr(geodesic, "reached", counted_capped)


def test_center_and_guard_balls_are_searched_once_per_call(monkeypatch):
    # a fan: hub 0 joined to the path 1..7, bags {0, k+1, k+2} in a chain;
    # every bag shares the center 0 and every site the guard set {0}
    import wdcolor.geodesic as geodesic

    searches = []
    _record_searches(monkeypatch, lambda s, r: searches.append((tuple(sorted(s)), r)))
    n = 8
    g = WeightedGraph(range(n), [(0, i, 1) for i in range(1, n)] + [(i, i + 1, 1) for i in range(1, n - 1)])
    td = RootedTreeDecomposition({k: {0, k + 1, k + 2} for k in range(n - 2)}, [(k, k + 1) for k in range(n - 3)], 0)
    ball = geodesic._check_centers(g, td, {t: (0,) for t in td.nodes}, 1, 1, True, "fan")
    assert searches == [((0,), 1)]
    assert ball(0) == g.vertex_set() and len(searches) == 1
    searches.clear()
    hub = GuardTriple(frozenset(), frozenset(), frozenset({0}))
    con = ControlConstruction(
        td, frozenset(), 1, 1, Fraction(1), Fraction(1), hub, {e: hub for e in td.tree_edges}
    )
    con.validate(g, full=True)
    assert searches == [((0,), 1)]


def _two_center_construction(guards):
    """A unit path 0..4 under the bags {0..4} and, below it, {0, 1, 4},
    whose adhesion {0, 1, 4} the parent's centers 1 and 3 cover at radius
    1: ball(1) = {0, 1, 2} and ball(3) = {2, 3, 4}.  The edge's guard set is
    `guards`; color_centered_bags would pick the witnesses {0, 4}.  Returns
    the graph, the construction at mu = 2 and the checked center balls."""
    import wdcolor.geodesic as geodesic

    g = unit_path(5)
    td = RootedTreeDecomposition({0: set(range(5)), 1: {0, 1, 4}}, [(0, 1)], 0)
    centers = {0: (1, 3), 1: (0, 4)}
    ball = geodesic._check_centers(g, td, centers, 2, 1, True, "two centers")
    none = frozenset()
    con = ControlConstruction(
        td, none, 2, 2, Fraction(2), Fraction(1), GuardTriple(none, none, frozenset({1, 3})),
        {(0, 1): GuardTriple(none, none, frozenset(guards))},
    )
    return g, con, (centers, ball)


def test_center_ball_cover_accepts_the_witnesses_color_centered_bags_picks(monkeypatch):
    searches = []
    _record_searches(monkeypatch, lambda s, r: searches.append((s, r)))
    g, con, balls = _two_center_construction({0, 4})
    searches.clear()
    con.validate(g, full=True, center_balls=balls)
    assert searches == []
    con.validate(g, full=True)
    assert len(searches) == 2


def test_center_ball_cover_flags_a_guard_set_that_misses_a_center():
    # the guard 0 witnesses center 1 only, and no center whose ball holds
    # the adhesion vertex 4 has a witness
    g, con, balls = _two_center_construction({0})
    with pytest.raises(ContractViolation, match=r"site \(0, 1\): free-side vertices \[4\] beyond radius mu"):
        con.validate(g, full=True, center_balls=balls)


def test_center_ball_cover_flags_a_witness_outside_its_centers_ball():
    # the guard 1, put where center 3's witness belongs, lies outside
    # ball(3): only center 1 counts, and vertex 4 is left uncovered
    g, con, balls = _two_center_construction({0, 1})
    with pytest.raises(ContractViolation, match=r"site \(0, 1\): free-side vertices \[4\] beyond radius mu"):
        con.validate(g, full=True, center_balls=balls)


def test_centered_bags_run_no_search_at_the_guard_radius(monkeypatch):
    """A count, not a timing: color_centered_bags checks its guard cover
    against the center balls its center check searched, so no validation
    of its construction searches.  On the unit 10x10 grid, whose window
    pieces all finish without condensing, `run planar` then runs no search
    at the guard radius mu = 2 * (slab width + 2 * pad) = 24 at all."""
    import wdcolor.geodesic as geodesic
    from wdcolor.graph import as_fraction

    searches, inside = [], []
    validate = geodesic.ControlConstruction.validate

    def tracked(self, *args, **kwargs):
        inside.append(self)
        try:
            return validate(self, *args, **kwargs)
        finally:
            inside.pop()

    _record_searches(monkeypatch, lambda s, r: searches.append((bool(inside), as_fraction(r))))
    monkeypatch.setattr(geodesic.ControlConstruction, "validate", tracked)
    g, td, centers = path_centered_instance(30)
    assert color_centered_bags(g, 1, td, centers, 1).report.ok
    assert searches and not any(within for within, _ in searches)
    searches.clear()
    inst = generate(GeneratorSpec(family="grid", rows=10, cols=10))
    assert color_planar(inst.graph, 1, inst.rotation).report.ok
    assert searches and Fraction(24) not in {r for _, r in searches}


def test_centered_bags_rejects_partial_center_map():
    g, td, centers = path_centered_instance(8)
    centers = dict(centers)
    centers.pop(td.tree_edges[-1][1])
    with pytest.raises(GraphError):
        color_centered_bags(g, 1, td, centers, 1)


def test_engine_star_case_without_budget():
    # three disjoint edges under a star of bags with empty adhesions: the
    # eta = 0 branch colors each piece independently
    g = WeightedGraph(range(6), [(0, 1, 1), (2, 3, 1), (4, 5, 1)])
    bags = {0: {0, 1}, 1: {2, 3}, 2: {4, 5}}
    td = RootedTreeDecomposition(bags, [(0, 1), (0, 2)], 0)
    empty = frozenset()
    triples = {e: GuardTriple(empty, empty, empty) for e in td.tree_edges}
    con = ControlConstruction(
        td, empty, 0, 1, Fraction(1), Fraction(1), GuardTriple.single(0), triples
    )
    centers = {t: (min(td.bags[t]),) for t in td.nodes}
    res = color_control_construction(g, 1, con, bag_centers=centers)
    assert res.report.ok
    assert res.bound == control_extension_bound(0, 1, 1, 1)
    assert res.coloring.domain == g.vertex_set()


def anchored_star_instance():
    """eta = 0 with anchored leaf edges: node 0 (bag {0, 1}) has anchored
    leaves 1 and 2 and a loose child 3, which has an anchored leaf 4.  The
    anchored edges join the nodes into the stars {0, 1, 2} and {3, 4}."""
    g = WeightedGraph(range(7), [(0, 1, 1), (1, 2, 1), (0, 3, 1), (4, 5, 1), (5, 6, 1)])
    bags = {0: {0, 1}, 1: {1, 2}, 2: {0, 3}, 3: {4, 5}, 4: {5, 6}}
    td = RootedTreeDecomposition(bags, [(0, 1), (0, 2), (0, 3), (3, 4)], 0)
    empty = frozenset()
    triples = {e: GuardTriple(td.adhesion_of(e), empty, empty) for e in td.tree_edges}
    triples[(0, 3)] = GuardTriple(empty, empty, empty)
    con = ControlConstruction(
        td, empty, 0, 1, Fraction(1), Fraction(1), GuardTriple.single(0), triples
    )
    centers = {0: (0,), 1: (1,), 2: (0,), 3: (4,), 4: (5,)}
    return g, con, centers


def test_engine_star_case_joins_anchored_leaves_under_one_node(monkeypatch):
    import wdcolor.geodesic as geodesic

    g, con, centers = anchored_star_instance()
    pieces = []
    centered = geodesic.centered_color

    def recording(g, ell, removed, cert, **kwargs):
        pieces.append((kwargs["what"].rsplit(" ", 1)[1], tuple(cert.covered)))
        return centered(g, ell, removed, cert, **kwargs)

    monkeypatch.setattr(geodesic, "centered_color", recording)
    res = color_control_construction(g, 1, con, bag_centers=centers)
    # one piece per star, each centred at the star's middle node
    assert pieces == [("0", (0, 1, 2, 3)), ("3", (4, 5, 6))]
    assert res.bound == control_extension_bound(0, 1, 1, 1)
    c = res.coloring
    assert c.domain == g.vertex_set() and set(c.assignment.values()) <= {1, 2}
    p_edges = oracles.brute_power_edges(g, Fraction(1))
    same = [(u, v) for (u, v) in p_edges if c.color(u) == c.color(v)]
    comps = oracles.brute_hop_components(g.vertices, same)
    hops = [oracles.brute_hop_diameter(g.vertices, p_edges, comp) for comp in comps]
    assert res.report.ok and res.report.max_weak_diameter_hops == max(hops) <= res.bound
    assert sorted(s.size for s in res.report.per_component) == sorted(len(comp) for comp in comps)


def test_star_case_rejects_anchored_edges_that_are_not_a_star():
    import wdcolor.geodesic as geodesic

    # the anchored edges (0, 3) and (3, 4) chain three nodes: no node is
    # the one middle of them all
    g, con, centers = anchored_star_instance()
    triples = dict(con.edge_triples)
    triples[(0, 3)] = GuardTriple(frozenset({4}), frozenset(), frozenset())
    bags = {t: set(con.td.bags[t]) for t in con.td.nodes}
    bags[0] |= {4}
    td = RootedTreeDecomposition(bags, con.td.tree_edges, 0)
    chain = ControlConstruction(td, con.removed, 0, 1, con.mu, con.ell, con.root_triple, triples)
    # the structural check refuses it before the engine starts ...
    with pytest.raises(ContractViolation, match="lower end has children"):
        color_control_construction(g, 1, chain, bag_centers=centers)
    # ... and the star joiner refuses it on its own
    ctx = geodesic._EngineCtx(Fraction(1), False, chain.theta, chain.mu, chain.eta)
    bound = control_extension_bound(0, 1, 1, 1)
    with pytest.raises(ContractViolation, match="star around one node"):
        geodesic._color_stars(
            ctx, g, chain, frozenset(), Coloring.empty(2), centers, bound, "chain"
        )


def test_engine_keeps_the_precolored_zone():
    g, con, centers = construction_on_path(16)
    z = {0, 1}
    pre = Coloring({0: 1, 1: 1}, 2)
    res = color_control_construction(g, 1, con, z=z, precoloring=pre, bag_centers=centers)
    assert res.report.ok
    assert res.coloring.assignment[0] == 1 and res.coloring.assignment[1] == 1


def test_engine_rejects_zone_outside_the_guard_ball():
    g, con, centers = construction_on_path(16)
    with pytest.raises(GraphError):
        color_control_construction(g, 1, con, z={15}, bag_centers=centers)


def test_engine_rejects_scale_mismatch():
    g, con, centers = construction_on_path(6)
    with pytest.raises(GraphError):
        color_control_construction(g, 2, con, bag_centers=centers)


def test_engine_requires_centers():
    g, con, _ = construction_on_path(6)
    with pytest.raises(TypeError):
        color_control_construction(g, 1, con)


def test_engine_deep_verify_agrees():
    g, con, centers = construction_on_path(12)
    plain = color_control_construction(g, 1, con, bag_centers=centers)
    deep = color_control_construction(g, 1, con, bag_centers=centers, deep_verify=True)
    assert plain.coloring.assignment == deep.coloring.assignment


def _assert_two_coloring_keeps(res, domain, pre):
    assert res.coloring.num_colors == 2
    assert set(res.coloring.assignment.values()) <= {1, 2}
    assert res.coloring.domain == domain
    assert all(res.coloring.color(v) == col for v, col in pre.assignment.items())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_engines_return_two_colorings_that_keep_the_precoloring(seed):
    rng = random.Random(seed)

    # adhesion engine: a random graph under its computed decomposition, a
    # random precoloring of part of the root bag's 3*ell ball
    ell = Fraction(rng.choice([1, 2]), rng.choice([1, 2]))
    g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 3), max_weight=ell)
    td = compute_tree_decomposition(g)
    theta = td.width + 1
    con = AdhesionConstruction(td, theta, theta, cover_piece_bound(theta, ell))
    ball = sorted(neighborhood(g, td.bags[td.root], 3 * ell))
    z = [v for v in ball if rng.random() < 0.5]
    pre = Coloring({v: rng.randint(1, 2) for v in z}, 2)
    res = color_adhesion_construction(g, ell, con, z=z, precoloring=pre)
    _assert_two_coloring_keeps(res, g.vertex_set(), pre)

    # control engine: a guarded path, precolored inside its zone ball
    g, con, centers = construction_on_path(rng.randint(2, 16))
    z = [v for v in sorted(neighborhood(g, [0], 3)) if rng.random() < 0.5]
    pre = Coloring({v: rng.randint(1, 2) for v in z}, 2)
    res = color_control_construction(g, 1, con, centers, z=z, precoloring=pre)
    _assert_two_coloring_keeps(res, g.vertex_set(), pre)

    # centered bags: no precoloring, a random removed set
    g, td, centers = path_centered_instance(rng.randint(2, 16))
    removed = {v for v in g.vertices if rng.random() < 0.2}
    res = color_centered_bags(g, 1, td, centers, 1, removed=removed)
    _assert_two_coloring_keeps(res, g.vertex_set() - removed, Coloring.empty(2))


def test_engine_handles_fractional_scale():
    g = WeightedGraph(range(10), [(i, i + 1, Fraction(1, 2)) for i in range(9)])
    bags = {0: {0}}
    bags.update({v: {v - 1, v} for v in range(1, 10)})
    td = RootedTreeDecomposition(bags, [(v - 1, v) for v in range(1, 10)], 0)
    centers = {t: (min(td.bags[t]),) for t in td.nodes}
    res = color_centered_bags(g, Fraction(1, 2), td, centers, Fraction(1, 2))
    assert res.report.ok
    assert res.bound == centered_bags_bound(1, Fraction(1, 2), Fraction(1, 2))


def test_engine_restarts_when_the_root_bag_is_removed(monkeypatch):
    # removing the root bag's only vertex leaves the zone without an anchor:
    # the engine hangs a fresh root on a node _pick_attach chooses, restarts
    # from that single vertex, and then takes the main branch
    import wdcolor.geodesic as geodesic

    picks, labels = [], []
    pick, rec = geodesic._pick_attach, geodesic._control_rec

    def counted_pick(*args):
        picks.append(args)
        return pick(*args)

    def labelled_rec(*args):
        labels.append(args[7])
        return rec(*args)

    monkeypatch.setattr(geodesic, "_pick_attach", counted_pick)
    monkeypatch.setattr(geodesic, "_control_rec", labelled_rec)
    g, td, centers = path_centered_instance(30)
    removed = {0}
    res = color_centered_bags(g, 1, td, centers, 1, removed=removed)
    assert len(picks) == 1
    assert labels[:3] == ["centered bags", "centered bags >restart", "centered bags >restart >condensed"]
    assert res.coloring.domain == g.vertex_set() - removed
    assert res.report.ok
    power_edges = oracles.brute_power_edges(g, Fraction(1))
    hops = 0
    for color in (1, 2):
        keep = {v for v, c in res.coloring.assignment.items() if c == color}
        for comp in oracles.brute_hop_components(g.vertices, power_edges, keep=keep):
            hops = max(hops, oracles.brute_hop_diameter(g.vertices, power_edges, comp))
    assert hops == res.report.max_weak_diameter_hops
    assert hops <= res.bound


def test_engine_checks_each_construction_it_builds(monkeypatch):
    """The public entry checks the construction it is handed, and the
    engine checks each one it builds at the start of the level that colors
    it: a restart whose fresh root carries a guard outside its bag is
    refused there."""
    import wdcolor.geodesic as geodesic

    def stray_guard(v):
        return GuardTriple(frozenset({v, -1}), frozenset(), frozenset({v}))

    monkeypatch.setattr(geodesic.GuardTriple, "single", staticmethod(stray_guard))
    g, td, centers = path_centered_instance(30)
    with pytest.raises(ContractViolation, match="site root: free guards leave bag - removed"):
        color_centered_bags(g, 1, td, centers, 1, removed={0})


def _brute_max_hops(g, coloring, ell):
    """Largest hop diameter of a monochromatic power-graph component of
    `coloring`, measured by the brute oracles in the full power graph."""
    power_edges = oracles.brute_power_edges(g, Fraction(ell))
    vertices = {v for e in power_edges for v in e} | g.vertex_set()
    hops = 0
    for color in set(coloring.assignment.values()):
        keep = {v for v, c in coloring.assignment.items() if c == color}
        for comp in oracles.brute_hop_components(vertices, power_edges, keep=keep):
            hops = max(hops, oracles.brute_hop_diameter(vertices, power_edges, comp))
    return hops


def _traced_engine(monkeypatch):
    """Record every _pick_attach result and every _control_rec label."""
    import wdcolor.geodesic as geodesic

    picks, labels = [], []
    pick, rec = geodesic._pick_attach, geodesic._control_rec

    def counted_pick(*args):
        picks.append(pick(*args))
        return picks[-1]

    def labelled_rec(*args):
        labels.append(args[7])
        return rec(*args)

    monkeypatch.setattr(geodesic, "_pick_attach", counted_pick)
    monkeypatch.setattr(geodesic, "_control_rec", labelled_rec)
    return picks, labels


def test_engine_restart_attaches_to_a_leaf_within_ell_of_its_adhesion(monkeypatch):
    # the only node with an unremoved vertex is a childless leaf whose edge
    # carries two anchors > eta = 1, so _pick_attach passes its first two
    # cases and takes the third: the leaf hangs under a one-child root whose
    # bag lies within ell of the adhesion
    picks, labels = _traced_engine(monkeypatch)
    g = WeightedGraph(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2}}, [(0, 1)], 0)
    none = frozenset()
    con = ControlConstruction(
        td, frozenset({0, 1}), 1, 2, Fraction(0), Fraction(1),
        GuardTriple(none, frozenset({0, 1}), none),
        {(0, 1): GuardTriple(none, none, frozenset({0, 1}))},
    )
    assert not td.children[1] and len(con.edge_triples[(0, 1)].anchor) > con.eta
    res = color_control_construction(g, 1, con, {t: (min(td.bags[t]),) for t in td.nodes})
    assert picks == [1]
    assert labels == ["control coloring", "control coloring >restart"]
    assert res.coloring.assignment == {2: 2}
    assert res.report.ok
    assert res.bound == control_extension_bound(1, 2, 0, 1)
    assert _brute_max_hops(g, res.coloring, 1) == res.report.max_weak_diameter_hops == 0


def test_engine_restart_attaches_to_a_childless_root(monkeypatch):
    # one bag holds the whole path and its middle is removed: the root
    # triple anchors nothing, so the engine restarts, and the only candidate
    # node is the root itself, childless and parentless, which _pick_attach
    # returns from its second case
    import wdcolor.geodesic as geodesic

    picks = []
    pick = geodesic._pick_attach

    def spied_pick(g, con, candidates):
        t = pick(g, con, candidates)
        picks.append((t, con.td.parent[t], con.td.children[t]))
        return t

    monkeypatch.setattr(geodesic, "_pick_attach", spied_pick)
    g = unit_path(3)
    td = RootedTreeDecomposition({0: {0, 1, 2}}, [], 0)
    none = frozenset()
    con = ControlConstruction(
        td, frozenset({1}), 1, 1, Fraction(1), Fraction(1), GuardTriple(none, none, frozenset({1})), {}
    )
    res = color_control_construction(g, 1, con, {0: [1]})
    assert picks == [(0, None, ())]
    assert res.coloring.assignment == {0: 2, 2: 2}
    assert res.report.ok
    assert _brute_max_hops(g, res.coloring, 1) == res.report.max_weak_diameter_hops


@pytest.mark.parametrize("deep", [False, True])
def test_engine_endgame_restarts_inside_a_stalled_far_part(monkeypatch, deep):
    # a unit path whose middle is removed: the condensed level colors the
    # zone {0}, and the far part beyond it holds no fresh zone (every edge
    # guard is removed), so the measure ties and the engine restarts inside
    # the part from its one untouched vertex, 9
    picks, labels = _traced_engine(monkeypatch)
    n = 10
    g = unit_path(n)
    td = RootedTreeDecomposition({i: {i, i + 1} for i in range(n - 1)}, [(i, i + 1) for i in range(n - 2)], 0)
    con = ControlConstruction(
        td, frozenset(range(1, n - 1)), 1, 2, Fraction(0), Fraction(1),
        GuardTriple(frozenset({0}), frozenset({1}), frozenset()),
        {e: GuardTriple(frozenset(), frozenset(), td.adhesion_of(e)) for e in td.tree_edges},
    )
    res = color_control_construction(
        g, 1, con, {t: (min(td.bags[t]),) for t in td.nodes}, deep_verify=deep
    )
    assert len(picks) == 1
    assert labels == ["control coloring", "control coloring >condensed", "control coloring >endgame"]
    assert res.coloring.assignment == {0: 2, 9: 2}
    assert res.report.ok
    assert _brute_max_hops(g, res.coloring, 1) == res.report.max_weak_diameter_hops
    assert res.report.max_weak_diameter_hops <= res.bound


# -- geodesic trees and projections --------------------------------------------


def test_geodesic_tree_on_grid_matches_taxicab():
    rows, cols = 3, 3
    g = grid_graph(rows, cols)
    tree = bfs_geodesic_tree(g, 0)
    for i in range(rows):
        for j in range(cols):
            assert tree.dist[i * cols + j] == i + j
    for v in g.vertices:
        p = tree.parent[v]
        if p is not None:
            assert tree.dist[p] + 1 == tree.dist[v]


def test_geodesic_tree_distances_match_oracle():
    rng = random.Random(5)
    from strategies import random_connected_graph

    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 14), rng.randint(0, 10))
        tree = bfs_geodesic_tree(g, 0)
        dist = oracles.all_pairs_distances(g)
        for v in g.vertices:
            assert tree.dist[v] == dist[(0, v)]


@settings(max_examples=100, deadline=None)
@given(weighted_graphs(max_n=10, max_extra_edges=10), st.data())
def test_geodesic_tree_on_integers_matches_the_fraction_reference(g, data):
    """Parents picked on scaled integers and distances built once at the
    end equal the tree that added a Fraction on every edge, dict order
    included, on mixed weights and on one weight."""
    root = data.draw(st.sampled_from(g.vertices))
    got, want = bfs_geodesic_tree(g, root), oracles.reference_bfs_geodesic_tree(g, root)
    assert got.root == want.root and got.parent == want.parent
    assert list(got.dist.items()) == list(want.dist.items())


def test_geodesic_tree_rejects_disconnected():
    g = WeightedGraph(range(4), [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(GraphError):
        bfs_geodesic_tree(g, 0)


def test_geodesic_tree_distances_are_lipschitz():
    g = grid_graph(4, 4)
    proj = bfs_geodesic_tree(g, 5).dist
    for (u, v, w) in g.edges:
        assert abs(proj[u] - proj[v]) <= w


def test_layering_projection_values_and_checks():
    g = grid_graph(3, 4)
    layering = [tuple(range(i * 4, (i + 1) * 4)) for i in range(3)]
    proj = layering_projection(g, layering, 1)
    assert proj[0] == 0 and proj[4] == 1 and proj[11] == 2
    with pytest.raises(GraphError):
        layering_projection(g, layering, 2)  # vertical unit edges too light
    with pytest.raises(GraphError):
        layering_projection(g, (layering[0], layering[2], layering[1]), 1)
    with pytest.raises(GraphError):
        layering_projection(g, layering[:2], 1)  # misses the last row


# -- tripod decompositions ------------------------------------------------------


def triangle():
    g = WeightedGraph(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    rotation = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
    return g, rotation


def test_tripods_on_triangle():
    g, rotation = triangle()
    tree = bfs_geodesic_tree(g, 0)
    trip = tripod_decomposition(g, rotation, tree)
    trip.verify(g)
    validate_td(g, oracles.certificate_bags(trip).td, "geodesic test")


def test_tripods_on_square_need_triangulation():
    g = WeightedGraph(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    rotation = {0: (1, 3), 1: (2, 0), 2: (3, 1), 3: (0, 2)}
    tree = bfs_geodesic_tree(g, 0)
    trip = tripod_decomposition(g, rotation, tree)
    trip.verify(g)


def test_tripods_on_tree_need_no_rotation():
    g = WeightedGraph(range(7), [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 1), (2, 6, 1)])
    tree = bfs_geodesic_tree(g, 0)
    trip = tripod_decomposition(g, None, tree)
    trip.verify(g)
    assert oracles.certificate_bags(trip).td.width <= 1


def test_tripods_on_single_vertex():
    g = WeightedGraph([0], [])
    tree = bfs_geodesic_tree(g, 0)
    trip = tripod_decomposition(g, None, tree)
    assert oracles.certificate_bags(trip).td.bags[trip.root] == {0}


def test_tripods_reject_parallel_edges():
    g = WeightedGraph(range(2), [(0, 1, 1), (0, 1, 2)])
    tree = bfs_geodesic_tree(g, 0)
    with pytest.raises(GraphError):
        tripod_decomposition(g, {0: (1,), 1: (0,)}, tree)


def test_tripods_reject_a_disconnected_graph():
    """The planar pipeline hands the certificate build connected components
    only; called directly, the public entry still searches for that."""
    g, rotation = triangle()
    two = WeightedGraph(range(6), list(g.edges) + [(3, 4, 1), (4, 5, 1), (3, 5, 1)])
    both = {**rotation, 3: (4, 5), 4: (5, 3), 5: (3, 4)}
    tree = bfs_geodesic_tree(g, 0)
    far = GeodesicTree(0, {**tree.parent, 3: 0, 4: 3, 5: 3}, {**tree.dist, 3: 1, 4: 2, 5: 2})
    with pytest.raises(GraphError, match="connected"):
        tripod_decomposition(two, both, far)


def test_tripods_reject_bad_rotation():
    g, rotation = triangle()
    tree = bfs_geodesic_tree(g, 0)
    broken = dict(rotation)
    broken[0] = (1,)
    with pytest.raises(GraphError):
        tripod_decomposition(g, broken, tree)


def test_tripods_on_generated_triangulations():
    for seed in (1, 2):
        inst = generate(GeneratorSpec(family="random-planar-triangulation", n=80, seed=seed))
        g = inst.graph
        tree = bfs_geodesic_tree(g, min(g.vertices))
        trip = tripod_decomposition(g, inst.rotation, tree)
        trip.verify(g)


def test_tripods_on_grid_rotation():
    inst = generate(GeneratorSpec(family="grid", rows=5, cols=6))
    tree = bfs_geodesic_tree(inst.graph, 0)
    trip = tripod_decomposition(inst.graph, inst.rotation, tree)
    trip.verify(inst.graph)


def test_certificate_flags_tampered_paths():
    g, rotation = triangle()
    tree = bfs_geodesic_tree(g, 0)
    trip = tripod_decomposition(g, rotation, tree)
    broken = dict(trip.corners)
    some = next(iter(broken))
    broken[some] = (99,)
    with pytest.raises(ContractViolation):
        GeodesicCertificate(tree, broken, trip.tops, trip.tree_edges, trip.root).verify(g)


def _tree_verdict(check):
    try:
        check()
    except (ContractViolation, KeyError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(weighted_graphs(max_n=9, max_extra_edges=8), st.sampled_from(["shift", "stranger", "detour", "root"]), st.data())
def test_certificate_tree_check_fails_as_the_fraction_check(g, corruption, data):
    """A corrupted geodesic tree fails the integer tree check with the
    exception type and first message of the check on Fraction distances and
    weights: a distance shifted by 1/3, a parent that is not a neighbour
    (for a view, possibly a neighbour outside it), a parent off every
    shortest path, and bad root data.  Graphs are whole or views of a ball,
    whose shortest paths stay inside it."""
    host = g
    if data.draw(st.booleans()):
        center = data.draw(st.sampled_from(g.vertices))
        ball = frozenset(neighborhood(g, [center], data.draw(st.sampled_from([1, 2, 3]))))
        inside = [(w * g._scale).numerator for (u, v, w) in g.edges if u in ball and v in ball]
        g = SubgraphView(g, ball, (min(inside), max(inside)) if inside else None, max(ball))
    root = data.draw(st.sampled_from(g.vertices))
    tree = bfs_geodesic_tree(g, root)
    parent, dist = dict(tree.parent), dict(tree.dist)
    others = [v for v in g.vertices if v != root]
    if corruption == "root":
        variant = data.draw(st.sampled_from(["absent", "parent", "distance"]))
        if variant == "absent":
            root = host.max_vertex() + 1
        elif variant == "parent":
            assume(others)
            parent[root] = data.draw(st.sampled_from(others))
        else:
            dist[root] = Fraction(1, 3)
    else:
        assume(others)
        v = data.draw(st.sampled_from(others))
        adjacent = {n for (n, _) in g.neighbors(v)}
        if corruption == "shift":
            dist[v] += Fraction(1, 3)
        elif corruption == "stranger":
            # for a view, a neighbour in its base but outside it when there is one
            strangers = [u for (u, _) in host.neighbors(v) if u not in adjacent]
            if not strangers or data.draw(st.booleans()):
                strangers = [u for u in host.vertices if u != v and u not in adjacent]
            assume(strangers)
            parent[v] = data.draw(st.sampled_from(strangers))
        else:
            detours = [u for u in sorted(adjacent) if all(dist[u] + w != dist[v] for (n, w) in g.neighbors(v) if n == u)]
            assume(detours)
            parent[v] = data.draw(st.sampled_from(detours))
    cert = GeodesicCertificate(GeodesicTree(root, parent, dist), {0: ()}, {0: root}, (), 0)
    want = _tree_verdict(lambda: oracles.reference_certificate_tree_check(cert, g))
    assert want is not None and want[0] is ContractViolation
    assert _tree_verdict(lambda: cert.verify(g)) == want


# -- slabs -----------------------------------------------------------------------


def test_slabs_partition_and_separate():
    g = unit_path(64)
    proj = bfs_geodesic_tree(g, 0).dist
    system = make_slabs(g, 1, proj, slab_width_factor=8)
    owned_all = [v for s in system.slabs for v in s.owned]
    assert sorted(owned_all) == sorted(g.vertices)
    for s in system.slabs:
        assert set(s.owned) <= set(s.window)
        for v in s.owned:
            assert s.lo <= proj[v] < s.hi
        for v in s.window:
            assert s.window_lo <= proj[v] < s.window_hi
    # same-family owned regions sit at projection distance >= width/2
    for s in system.slabs:
        for t in system.slabs:
            if s.family == t.family and s.index < t.index:
                gap = min(proj[v] for v in t.owned) - max(proj[u] for u in s.owned)
                assert gap >= system.width / 2


def test_slabs_reject_non_lipschitz_projection():
    g = unit_path(4)
    proj = {0: Fraction(0), 1: Fraction(5), 2: Fraction(2), 3: Fraction(3)}
    with pytest.raises(GraphError):
        make_slabs(g, 1, proj)


def test_slabs_reject_projection_missing_a_vertex_but_naming_an_extra_one():
    g = unit_path(4)
    proj = {0: Fraction(0), 1: Fraction(1), 2: Fraction(2), 99: Fraction(3)}
    with pytest.raises(GraphError, match="misses vertices \\[3\\]"):
        make_slabs(g, 1, proj)


def test_slabs_reject_narrow_width():
    g = unit_path(4)
    with pytest.raises(GraphError):
        make_slabs(g, 1, bfs_geodesic_tree(g, 0).dist, slab_width_factor=3)


@st.composite
def slab_inputs(draw):
    """A graph and a 1-Lipschitz projection of it: root distances of a
    random tree-plus-chords graph whose weights have denominators 1, 3, 4
    or 7, shifted by a rational offset, or eps0 = 1/3 times the row index
    of a grid."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        inst = generate(GeneratorSpec(family="grid", rows=rows, cols=cols))
        return inst.graph, layering_projection(inst.graph, inst.layering, Fraction(1, 3))
    n = draw(st.integers(1, 25))

    def weight():
        return Fraction(draw(st.integers(1, 12)), draw(st.sampled_from((1, 3, 4, 7))))

    edges = [(draw(st.integers(0, v - 1)), v, weight()) for v in range(1, n)]
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, weight()))
    g = WeightedGraph(range(n), edges)
    offset = Fraction(draw(st.integers(-30, 30)), draw(st.sampled_from((1, 2, 3, 5))))
    return g, {v: d + offset for v, d in bfs_geodesic_tree(g, 0).dist.items()}


@settings(max_examples=60, deadline=None)
@given(
    slab_inputs(),
    st.sampled_from((1, Fraction(1, 3), Fraction(5, 2), Fraction(2, 7))),
    st.sampled_from((4, 5, 8, Fraction(9, 2), Fraction(17, 4))),
)
def test_slabs_cut_on_integers_match_the_fraction_reference(instance, ell, factor):
    g, proj = instance
    assert make_slabs(g, ell, proj, factor) == oracles.reference_make_slabs(g, ell, proj, factor)


def test_slabs_reject_a_lipschitz_break_of_one_scaled_step():
    """The last edge's projection gap exceeds its weight by 1/scale, the
    smallest step of the common denominator the cut scales by."""
    import math

    g = WeightedGraph(range(4), [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 4)), (2, 3, Fraction(1, 7))])
    proj = dict(bfs_geodesic_tree(g, 0).dist)
    factor = 5  # at ell 1: width/2 = 5/2 and pad 2
    scale = math.lcm(2, *(f.denominator for f in proj.values()), *(w.denominator for (_, _, w) in g.edges))
    assert scale == 84
    assert make_slabs(g, 1, proj, factor) == oracles.reference_make_slabs(g, 1, proj, factor)
    proj[3] += Fraction(1, scale)
    for cut in (make_slabs, oracles.reference_make_slabs):
        with pytest.raises(GraphError) as err:
            cut(g, 1, proj, factor)
        assert str(err.value) == "projection is not 1-Lipschitz across edge (2, 3)"


def test_combine_rejects_missing_slab():
    g = unit_path(40)
    system = make_slabs(g, 1, bfs_geodesic_tree(g, 0).dist)
    with pytest.raises(GraphError):
        combine_slab_colorings(g, 1, system, [])


def test_combine_accepts_constant_slab_colorings():
    # the family interleave alone keeps same-family slabs apart: constant
    # per-slab colorings already satisfy the containment check
    from wdcolor.geodesic import SlabColoring

    g = unit_path(80)
    system = make_slabs(g, 1, bfs_geodesic_tree(g, 0).dist)
    scs = [
        SlabColoring(s.family, s.index, Coloring({v: 1 for v in s.owned}, 2), Fraction(10))
        for s in system.slabs
    ]
    combined, bound = combine_slab_colorings(g, 1, system, scs)
    assert combined.domain == g.vertex_set()
    assert combined.num_colors == 4
    assert bound == 10 + 2 * (system.pad / system.ell).__ceil__()


def test_combine_flags_uncolored_owned_vertex():
    from wdcolor.geodesic import SlabColoring

    g = unit_path(80)
    system = make_slabs(g, 1, bfs_geodesic_tree(g, 0).dist)
    scs = [
        SlabColoring(s.family, s.index, Coloring({v: 1 for v in s.owned if v != 40}, 2), Fraction(1))
        for s in system.slabs
    ]
    with pytest.raises(ContractViolation):
        combine_slab_colorings(g, 1, system, scs)


# -- window restriction -------------------------------------------------------


def tripod_windows(cert):
    """A certificate's window index over the tree preorder `color_planar`
    builds once per component."""
    from wdcolor.tripods import _Ranks, _TripodWindows

    tree = cert.tree
    return _TripodWindows(cert, _Ranks(tree.root, tree.parent, sorted(tree.parent)))


def path_certificate(n):
    """A unit path with one node whose corner, the far end, certifies the
    whole root path."""
    g = unit_path(n)
    tree = bfs_geodesic_tree(g, 0)
    cert = GeodesicCertificate(tree, {0: (n - 1,)}, {0: 0}, (), 0)
    cert.verify(g)
    return cert


def test_window_slice_is_cut_by_depth():
    # the path 4-3-2-1-0 meets the window of projections [2, 5) in 4, 3, 2
    from wdcolor.tripods import _restrict_tripods

    windows = tripod_windows(path_certificate(5))
    td, centers = _restrict_tripods(windows, Fraction(2), Fraction(5), {4, 3, 2})
    assert td.bags == {0: frozenset({4, 3, 2})} and centers == {0: (2,)}
    td, centers = _restrict_tripods(windows, Fraction(3, 2), Fraction(7, 2), {3, 2})
    assert td.bags == {0: frozenset({3, 2})} and centers == {0: (2,)}


@pytest.mark.parametrize("keep", [{4, 3}, {1, 0}])
def test_window_slice_must_not_straddle_window_components(keep):
    # keep {4, 3} holds the slice's bottom but not all of it; keep {1, 0}
    # misses the bottom yet holds part of the slice
    from wdcolor.tripods import _restrict_tripods

    windows = tripod_windows(path_certificate(5))
    td, centers = _restrict_tripods(windows, Fraction(0), Fraction(5), set(range(5)))
    assert td.bags == {0: frozenset(range(5))} and centers == {0: (0,)}
    with pytest.raises(ContractViolation, match="a window slice straddles two window components"):
        _restrict_tripods(windows, Fraction(0), Fraction(5), keep)


@st.composite
def planar_instances(draw):
    kind = draw(st.sampled_from(("grid", "overlay", "triangulation")))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if kind == "triangulation":
        inst = generate(GeneratorSpec(
            family="random-planar-triangulation", n=draw(st.integers(min_value=4, max_value=80)), seed=seed,
        ))
        return inst.graph, inst.rotation
    side = draw(st.integers(min_value=5, max_value=12))
    inst = generate(GeneratorSpec(family="grid", rows=side, cols=side))
    if kind == "grid":
        return inst.graph, inst.rotation
    spec = GeneratorSpec(
        family="random-weights-overlay", seed=seed,
        weight_lo=Fraction(1, 4), weight_hi=Fraction(1), weight_den=4,
    )
    return generate(spec, base=inst.graph).graph, inst.rotation


def _reference_restriction(full, slab, keep):
    """`oracles.restrict_tripods` on a bag-form decomposition: every node's
    every path rescanned for its window slice."""
    segs = oracles.window_segments(full.td.nodes, full.paths, set(slab.window))
    return oracles.restrict_tripods(full.td.nodes, full.td.tree_edges, full.td.root, segs, keep)


@settings(max_examples=12, deadline=None)
@given(planar_instances(), st.sampled_from((4, 8)))
def test_window_restriction_matches_the_reference(instance, factor):
    """Cutting only the nodes whose depth interval meets the window gives
    the node ids, bags, tree, root and centres of cutting every path of
    every node and contracting all of them."""
    from wdcolor.tripods import _restrict_tripods

    g, rotation = instance
    tree = bfs_geodesic_tree(g, g.vertices[0])
    cert = tripod_decomposition(g, rotation, tree)
    full = oracles.certificate_bags(cert)
    windows = tripod_windows(cert)
    system = make_slabs(g, 1, tree.dist, slab_width_factor=factor)
    for slab in system.slabs:
        for comp in g.induced(slab.window).connected_components():
            keep = set(comp)
            td, centers = _restrict_tripods(windows, slab.window_lo, slab.window_hi, keep)
            bags, edges, root, ref_centers = _reference_restriction(full, slab, keep)
            assert td.bags == bags
            assert list(td.tree_edges) == sorted(edges)
            assert td.root == root
            assert centers == ref_centers


@pytest.mark.parametrize(
    "rows, cols, seed, ell, factor",
    [(6, 6, 0, 1, 4), (3, 31, 934491, Fraction(5, 4), Fraction(9, 2))],
    ids=["spanned", "hanging-copy"],
)
def test_window_restriction_matches_the_reference_beyond_the_met_nodes(monkeypatch, rows, cols, seed, ell, factor):
    """Two weighted grids whose window pieces need more nodes than those
    their depth interval meets.  On the 6x6 overlay the met nodes of the
    window b-1 lie apart in the node tree, and the nodes between them join
    the contraction.  On the 3x31 overlay a met node's bag is one slice
    whose copies hang off the met nodes, and one of those copies keeps the
    id."""
    import wdcolor.tripods as tripods

    spans = []
    span = tripods._TripodWindows.span

    def recorded(self, held):
        spans.append((len(held), len(span(self, held))))
        return span(self, held)

    monkeypatch.setattr(tripods._TripodWindows, "span", recorded)
    base = generate(GeneratorSpec(family="grid", rows=rows, cols=cols))
    g = generate(GeneratorSpec(
        family="random-weights-overlay", seed=seed, weight_lo=Fraction(1, 4), weight_hi=1, weight_den=4,
    ), base=base.graph).graph
    tree = bfs_geodesic_tree(g, 0)
    cert = tripod_decomposition(g, base.rotation, tree)
    full = oracles.certificate_bags(cert)
    windows = tripod_windows(cert)
    for slab in make_slabs(g, ell, tree.dist, slab_width_factor=factor).slabs:
        for comp in g.induced(slab.window).connected_components():
            keep = set(comp)
            td, centers = tripods._restrict_tripods(windows, slab.window_lo, slab.window_hi, keep)
            bags, edges, root, ref_centers = _reference_restriction(full, slab, keep)
            assert (td.bags, list(td.tree_edges), td.root, centers) == (bags, sorted(edges), root, ref_centers)
    assert any(spanned > held for held, spanned in spans) == (rows == 6)


def _count_fallbacks(monkeypatch, inst, span=None):
    """Window pieces of `run planar` on inst at ell = 1, and how many of them
    `_restrict_tripods` restricts by cutting every node of the certificate:
    those whose first contraction takes more nodes than the span of the
    nodes their window meets.  `span` replaces _TripodWindows.span."""
    import wdcolor.tripods as tripods

    spans, contracted = [], []
    span = span or tripods._TripodWindows.span
    contract = tripods._contract

    def recorded_span(self, held):
        spans.append(span(self, held))
        return spans[-1]

    def recorded_contract(nodes, *args):
        contracted.append(nodes)
        return contract(nodes, *args)

    g = inst.graph
    tree = bfs_geodesic_tree(g, g.vertices[0])
    windows = tripod_windows(tripod_decomposition(g, inst.rotation, tree))
    pieces = fallbacks = 0
    with monkeypatch.context() as patched:
        patched.setattr(tripods._TripodWindows, "span", recorded_span)
        patched.setattr(tripods, "_contract", recorded_contract)
        for slab in make_slabs(g, 1, tree.dist).slabs:
            for comp in g.induced(slab.window).connected_components():
                spans.clear()
                contracted.clear()
                tripods._restrict_tripods(windows, slab.window_lo, slab.window_hi, set(comp))
                pieces += 1
                fallbacks += len(contracted[0]) > len(spans[0])
    return pieces, fallbacks


def test_window_restriction_never_cuts_every_node_on_grids_and_triangulations(monkeypatch):
    """A count for the open question whether real inputs reach the branch
    of `_restrict_tripods` that cuts every node of the certificate, which
    would make the window cuts quadratic: on unit grids 10/20/40/60 and
    random triangulations with n = 200 and 1,000 no window piece does.  An
    empty span forces the branch, and the count sees it."""
    specs = [GeneratorSpec(family="grid", rows=s, cols=s) for s in (10, 20, 40, 60)]
    specs += [GeneratorSpec(family="random-planar-triangulation", n=n, seed=1) for n in (200, 1000)]
    counts = [_count_fallbacks(monkeypatch, generate(spec)) for spec in specs]
    assert counts == [(6, 0), (10, 0), (20, 0), (30, 0), (2, 0), (2, 0)]
    forced = _count_fallbacks(monkeypatch, generate(specs[0]), span=lambda self, held: set())
    assert forced == (6, 6)


def _over_bags(bags, edges, root, centers):
    """A restricted decomposition with its node ids forgotten: the node
    count, each bag's centres, the tree as pairs of bags, and the root bag."""
    return (
        len(bags),
        {bags[t]: centers[t] for t in bags},
        {frozenset((bags[p], bags[c])) for (p, c) in edges},
        bags[root],
    )


@settings(max_examples=12, deadline=None)
@given(planar_instances(), st.sampled_from((4, 8)))
def test_restricting_the_contracted_certificate_matches_restricting_the_full_one(instance, factor):
    from wdcolor.tripods import _restrict_tripods

    g, rotation = instance
    tree = bfs_geodesic_tree(g, g.vertices[0])
    full = oracles.full_tripods(g, rotation, tree)
    cert = tripod_decomposition(g, rotation, tree)
    assert len(cert.corners) <= len(full.td)
    windows = tripod_windows(cert)
    system = make_slabs(g, 1, tree.dist, slab_width_factor=factor)
    for slab in system.slabs:
        for comp in g.induced(slab.window).connected_components():
            keep = set(comp)
            td, centers = _restrict_tripods(windows, slab.window_lo, slab.window_hi, keep)
            assert _over_bags(td.bags, td.tree_edges, td.root, centers) == _over_bags(
                *_reference_restriction(full, slab, keep)
            )


def _assert_contracted_reference(g, rotation):
    """tripod_decomposition equals the reference's full decomposition after
    `_contract` on plain bag inclusion: the same node ids, bags, paths
    (derived from corners), root and tree edges."""
    from wdcolor.tripods import _contract

    tree = bfs_geodesic_tree(g, g.vertices[0])
    cert = tripod_decomposition(g, rotation, tree)
    full = oracles.full_tripods(g, rotation, tree)
    bags = full.td.bags
    alive, edges, root = _contract(
        full.td.nodes, full.td.tree_edges, full.td.root, lambda s, t: bags[s] <= bags[t]
    )
    listed = oracles.certificate_bags(cert)
    assert sorted(cert.corners) == sorted(alive)
    assert listed.td.bags == {t: bags[t] for t in alive}
    assert listed.paths == {t: full.paths[t] for t in alive}
    assert cert.root == root
    assert {frozenset(e) for e in cert.tree_edges} == {frozenset(e) for e in edges}


@settings(max_examples=25, deadline=None)
@given(planar_instances())
def test_tripod_decomposition_is_the_contracted_reference(instance):
    _assert_contracted_reference(*instance)


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec(family="grid", rows=3, cols=7),
        GeneratorSpec(family="grid", rows=10, cols=10),
        GeneratorSpec(family="grid", rows=30, cols=30),
        GeneratorSpec(family="random-planar-triangulation", n=2000, seed=1),
    ],
    ids=["grid3x7", "grid10x10", "grid30x30", "triangulation2000"],
)
def test_tripod_decomposition_is_the_contracted_reference_at_size(spec):
    inst = generate(spec)
    _assert_contracted_reference(inst.graph, inst.rotation)


def test_tripod_decomposition_of_a_tree_is_the_contracted_reference():
    g = WeightedGraph(range(7), [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 1), (2, 6, 1)])
    _assert_contracted_reference(g, None)
    _assert_contracted_reference(WeightedGraph([0], []), None)


@pytest.mark.parametrize("rows, cols", [(2, 2), (3, 7), (7, 3), (10, 10), (20, 13)])
def test_unit_grid_certificate_is_the_column_comb(rows, cols):
    """A count guard: the contracted certificate of a unit grid keeps one
    node per pair of adjacent columns, the bags `generators._grid_tripods`
    certifies, in the same path."""
    from wdcolor.generators import _grid_tripods

    inst = generate(GeneratorSpec(family="grid", rows=rows, cols=cols))
    cert = tripod_decomposition(inst.graph, inst.rotation, bfs_geodesic_tree(inst.graph, 0))
    comb = _grid_tripods(rows, cols)
    comb.verify(inst.graph)
    assert len(cert.corners) == cols - 1
    listed, comb_listed = oracles.certificate_bags(cert).td, oracles.certificate_bags(comb).td
    tree_over_bags = lambda td: {frozenset((td.bags[p], td.bags[c])) for (p, c) in td.tree_edges}
    assert set(listed.bags.values()) == set(comb_listed.bags.values())
    assert tree_over_bags(listed) == tree_over_bags(comb_listed)


@pytest.mark.parametrize("rows, cols", [(3, 7), (7, 3), (10, 10), (20, 13), (5, 50), (5, 100), (5, 200)])
def test_tripod_decomposition_never_builds_the_full_decomposition(monkeypatch, rows, cols):
    """A count guard: on a unit grid the certificate keeps at most cols - 1
    nodes of at most three corners each, and builds no decomposition with
    bags.  On a 5 x cols grid the wedge recursion, which absorbs a node
    whose bag sits strictly inside its parent's as it makes it, holds at
    most 4 * cols nodes; keeping every node would hold about 8 * cols."""
    import wdcolor.tripods as tripods

    built, held = [], []
    wedges = tripods._wedge_corners

    class Counted(RootedTreeDecomposition):
        def __init__(self, bags, edges, root):
            built.append(len(bags))
            super().__init__(bags, edges, root)

    def counted(*args):
        corners, tree_edges = wedges(*args)
        held.append(len(corners))
        return corners, tree_edges

    monkeypatch.setattr(tripods, "RootedTreeDecomposition", Counted)
    monkeypatch.setattr(tripods, "_wedge_corners", counted)
    inst = generate(GeneratorSpec(family="grid", rows=rows, cols=cols))
    cert = tripod_decomposition(inst.graph, inst.rotation, bfs_geodesic_tree(inst.graph, 0))
    assert built == [] and len(cert.corners) <= cols - 1
    assert sum(len(cs) for cs in cert.corners.values()) <= 3 * (cols - 1)
    if rows == 5:
        assert held and held[0] <= 4 * cols


def test_path_window_pieces_visit_few_nodes(monkeypatch):
    """A count guard: on a unit path, whose certificate has a node per edge,
    each window piece cuts and contracts at most twice as many nodes as the
    window has vertices, not every node of the certificate."""
    import wdcolor.tripods as tripods

    met, contracted = [], []
    meeting, contract = tripods._TripodWindows.meeting, tripods._contract

    def counted_meeting(self, wlo, whi):
        found = meeting(self, wlo, whi)
        met.append(len(found))
        return found

    def counted_contract(nodes, *args):
        nodes = list(nodes)
        contracted.append(len(nodes))
        return contract(nodes, *args)

    monkeypatch.setattr(tripods._TripodWindows, "meeting", counted_meeting)
    monkeypatch.setattr(tripods, "_contract", counted_contract)
    g = unit_path(2000)
    res = color_planar(g, 1, None)
    assert res.report.ok
    windows = [len(s.window) for s in res.systems[0].slabs]
    # the certificate's own contraction runs first, over every vertex
    assert contracted[0] == 2000 and len(contracted) == len(windows) + 1
    assert len(met) == len(windows)
    for size, n_met, n_contracted in zip(windows, met, contracted[1:]):
        assert n_met <= 2 * size and n_contracted <= 2 * size


@st.composite
def planted_certificates(draw):
    """A small planar instance's certificate with at most one planted
    fault: a 4th corner, a top no ancestor of a corner, a tree parent that
    is no neighbour, a lost node edge, a corner moved to another node
    (running intersection) or dropped (a lost graph edge)."""
    kind = draw(st.sampled_from(("grid", "triangulation", "tree")))
    if kind == "grid":
        inst = generate(GeneratorSpec(family="grid", rows=draw(st.integers(2, 5)), cols=draw(st.integers(2, 5))))
        g, rotation = inst.graph, inst.rotation
    elif kind == "triangulation":
        inst = generate(GeneratorSpec(
            family="random-planar-triangulation", n=draw(st.integers(4, 25)), seed=draw(st.integers(0, 10**6)),
        ))
        g, rotation = inst.graph, inst.rotation
    else:
        g, rotation = random_connected_graph(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(2, 12)), 0), None
    tree = bfs_geodesic_tree(g, g.vertices[0])
    cert = tripod_decomposition(g, rotation, tree)
    corners, tops = dict(cert.corners), dict(cert.tops)
    tree_edges, parent = list(cert.tree_edges), dict(tree.parent)
    nodes = sorted(corners)
    verts = list(g.vertices)
    fault = draw(st.sampled_from(("none", "corner", "top", "parent", "edge", "move", "drop")))
    if fault == "corner":
        t = draw(st.sampled_from(nodes))
        corners[t] = corners[t] + tuple(draw(st.sampled_from(verts)) for _ in range(4 - len(corners[t])))
    elif fault == "top":
        t = draw(st.sampled_from(nodes))
        tops[t] = draw(st.sampled_from(verts))
    elif fault == "parent":
        v = draw(st.sampled_from(verts))
        if v != tree.root:
            parent[v] = draw(st.sampled_from([u for u in verts if u != v]))
    elif fault == "edge" and tree_edges:
        tree_edges.pop(draw(st.integers(0, len(tree_edges) - 1)))
    elif fault in ("move", "drop"):
        t = draw(st.sampled_from(nodes))
        i = draw(st.integers(0, len(corners[t]) - 1))
        c = corners[t][i]
        corners[t] = corners[t][:i] + corners[t][i + 1:]
        if fault == "move":
            s = draw(st.sampled_from(nodes))
            corners[s] = corners[s] + (c,)
    return g, GeodesicCertificate(GeodesicTree(tree.root, parent, tree.dist), corners, tops, tuple(tree_edges), cert.root)


def _accepts(check):
    try:
        check()
    except (ContractViolation, GraphError):
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(planted_certificates())
def test_corner_verify_accepts_exactly_when_the_bag_form_reference_does(instance):
    """Counting holders by subtree sums over corners decides as listing
    every bag and path does."""
    g, cert = instance
    want = _accepts(lambda: oracles.reference_certificate_verify(oracles.certificate_bags(cert), g))
    assert _accepts(lambda: cert.verify(g)) == want


# -- pipelines --------------------------------------------------------------------


def test_planar_pipeline_on_grid():
    inst = generate(GeneratorSpec(family="grid", rows=6, cols=6))
    res = color_planar(inst.graph, 1, inst.rotation)
    assert res.report.ok
    assert res.report.colors <= 4
    assert res.report.max_weak_diameter_hops <= res.bound


def test_planar_pipeline_scale_covariance():
    inst = generate(GeneratorSpec(family="grid", rows=5, cols=7))
    g1 = inst.graph
    g4 = WeightedGraph(g1.vertices, [(u, v, w * 4) for (u, v, w) in g1.edges])
    r1 = color_planar(g1, 1, inst.rotation)
    r4 = color_planar(g4, 4, inst.rotation)
    assert r1.coloring.assignment == r4.coloring.assignment
    assert r1.report.max_weak_diameter_hops == r4.report.max_weak_diameter_hops
    assert r1.report.max_weak_diameter_metric * 4 == r4.report.max_weak_diameter_metric


def test_planar_pipeline_on_triangulation_with_weights():
    inst = generate(
        GeneratorSpec(
            family="random-planar-triangulation", n=60, seed=3,
            weight_lo=Fraction(1, 4), weight_hi=Fraction(1), weight_den=8,
        )
    )
    res = color_planar(inst.graph, 1, inst.rotation)
    assert res.report.ok and res.report.colors <= 4


def test_planar_pipeline_components_stay_in_padded_slabs():
    inst = generate(GeneratorSpec(family="grid", rows=7, cols=7))
    res = color_planar(inst.graph, 1, inst.rotation)
    system = res.systems[0]
    comps = {}
    for v, col in res.coloring.assignment.items():
        comps.setdefault(col, []).append(v)
    # ownership is constant per color class only componentwise; recheck the
    # projection containment the combiner claims
    from wdcolor.graph import power_graph
    from wdcolor.partition import monochromatic_components

    pg = power_graph(inst.graph, Fraction(1))
    for comp in monochromatic_components(pg, res.coloring, within=inst.graph.vertex_set()):
        fam, idx = system.owner_of[comp[0]]
        slab = system.slab_of(fam, idx)
        for v in comp:
            assert system.owner_of[v] == (fam, idx)
            assert slab.window_lo <= system.projection[v] < slab.window_hi


def test_planar_pipeline_rejects_heavy_edges():
    g = WeightedGraph(range(3), [(0, 1, 3), (1, 2, 1), (0, 2, 1)])
    rotation = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
    with pytest.raises(GraphError):
        color_planar(g, 1, rotation)


def test_planar_pipeline_is_deterministic():
    inst = generate(GeneratorSpec(family="grid", rows=5, cols=5))
    a = color_planar(inst.graph, 1, inst.rotation)
    b = color_planar(inst.graph, 1, inst.rotation)
    assert a.coloring.assignment == b.coloring.assignment


def test_planar_pipeline_handles_disconnected_input():
    inst = generate(GeneratorSpec(family="grid", rows=3, cols=3))
    g = inst.graph
    shift = 100
    edges = list(g.edges) + [(u + shift, v + shift, w) for (u, v, w) in g.edges]
    big = WeightedGraph(list(g.vertices) + [v + shift for v in g.vertices], edges)
    rot = dict(inst.rotation)
    rot.update({v + shift: tuple(u + shift for u in order) for v, order in inst.rotation.items()})
    res = color_planar(big, 1, rot)
    assert res.report.ok and res.coloring.domain == big.vertex_set()


def _record_calls(monkeypatch, name):
    """Wrap the wdcolor function `name` in every module namespace that binds
    it; returns the list that collects each call's positional arguments."""
    import sys

    calls = []
    original = getattr(sys.modules["wdcolor.geodesic"], name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("wdcolor") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recording)
    return calls


def _two_grids(first, second, shift=1000):
    """Two unit grids side by side, the second with ids shifted, and their
    rotation systems joined."""
    a = generate(GeneratorSpec(family="grid", rows=first, cols=first))
    b = generate(GeneratorSpec(family="grid", rows=second, cols=second))
    edges = list(a.graph.edges) + [(u + shift, v + shift, w) for (u, v, w) in b.graph.edges]
    g = WeightedGraph(list(a.graph.vertices) + [v + shift for v in b.graph.vertices], edges)
    rot = dict(a.rotation)
    rot.update({v + shift: tuple(u + shift for u in order) for v, order in b.rotation.items()})
    return g, rot


def test_planar_pipeline_builds_one_power_graph_per_component(monkeypatch):
    """A count, not a timing: every check inside the control engine is
    vacuous and decided from the host vertex count, and the slab combiner
    and the final check share one power graph per connected component.
    With two components the final check reads the union of the two, and
    reports what a check that builds the whole power graph reports."""
    inst = generate(GeneratorSpec(family="grid", rows=10, cols=10))
    built = _record_calls(monkeypatch, "power_graph")
    res = color_planar(inst.graph, 1, inst.rotation)
    assert res.report.ok and res.report.per_component
    assert [len(g) for g, _ in built] == [100]
    g, rot = _two_grids(10, 6)
    built.clear()
    res = color_planar(g, 1, rot)
    assert [len(h) for h, _ in built] == [100, 36]
    assert res.report == verify_weak_diameter(g, 1, res.coloring, bound=res.bound)
    assert res.report.per_component and max(s.min_vertex for s in res.report.per_component) >= 1000


def test_planar_grid_validates_its_tripod_decomposition_once(monkeypatch):
    """A count, not a timing: the certificate build color_planar runs (the
    core of tripod_decomposition) returns a verified certificate, and
    color_planar does not verify it again."""
    import wdcolor.geodesic as geodesic

    inst = generate(GeneratorSpec(family="grid", rows=10, cols=10))
    verified, certs = [], []
    tripods, verify = geodesic._tripod_certificate, geodesic.GeodesicCertificate.verify

    def kept(*args):
        certs.append(tripods(*args))
        return certs[-1]

    monkeypatch.setattr(geodesic, "_tripod_certificate", kept)
    monkeypatch.setattr(geodesic.GeodesicCertificate, "verify", lambda self, g: verified.append(self) or verify(self, g))
    assert color_planar(inst.graph, 1, inst.rotation).report.ok
    assert len(certs) == 1 and verified == certs


def test_planar_grid_checks_each_input_fact_once(monkeypatch):
    """A count guard: color_planar checks the rotation system and the
    graph's simplicity once for the whole graph, and searches no component
    for connectivity, since the driver split each one off."""
    import wdcolor.geodesic as geodesic
    import wdcolor.graph as graph
    import wdcolor.tripods as tripods

    calls = []

    def counted(name):
        original = getattr(tripods, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        for owner in (tripods, geodesic):
            monkeypatch.setattr(owner, name, wrapper)

    counted("_check_rotation")
    counted("_check_simple")
    is_connected = graph.WeightedGraph.is_connected
    monkeypatch.setattr(graph.WeightedGraph, "is_connected", lambda self: calls.append("is_connected") or is_connected(self))
    inst = generate(GeneratorSpec(family="grid", rows=10, cols=10))
    assert color_planar(inst.graph, 1, inst.rotation).report.ok
    assert sorted(calls) == ["_check_rotation", "_check_simple"]


def test_layered_pipeline_on_grid_rows():
    inst = generate(GeneratorSpec(family="grid", rows=6, cols=6))
    res = color_layered(inst.graph, 1, inst.layering, 1)
    assert res.report.ok
    assert res.report.colors <= 4
    assert res.report.max_weak_diameter_hops <= res.bound


def test_layered_pipeline_with_fractional_weights():
    inst = generate(
        GeneratorSpec(family="grid", rows=5, cols=5, weight_lo=Fraction(1, 2), weight_hi=1, weight_den=4, seed=2)
    )
    res = color_layered(inst.graph, 1, inst.layering, Fraction(1, 2))
    assert res.report.ok


def test_layered_pipeline_rejects_light_cross_edges():
    inst = generate(GeneratorSpec(family="grid", rows=4, cols=4))
    with pytest.raises(GraphError):
        color_layered(inst.graph, 1, inst.layering, 2)


def test_layered_pipeline_rejects_layer_skips():
    g = WeightedGraph(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(GraphError):
        color_layered(g, 1, [(0,), (1,), (2,)], 1)


def test_control_engine_restores_the_recursion_limit():
    import sys

    before = sys.getrecursionlimit()
    g, con, centers = construction_on_path(12)
    color_control_construction(g, 1, con, centers)
    assert sys.getrecursionlimit() == before
