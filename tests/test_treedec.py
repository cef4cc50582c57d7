"""Tree decompositions, adhesion hierarchies, condensation, lift."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wdcolor.graph import GraphError, WeightedGraph, power_graph
from wdcolor.partition import Coloring, ColorResult, ContractViolation, verify_weak_diameter
from wdcolor.treedec import (
    Condensation,
    Hierarchy,
    RootedTreeDecomposition,
    adhesion_hierarchy,
    ball_region,
    SubtreeIndex,
    component_decompositions,
    con_color_bound,
    condense,
    lift_condensation_coloring,
    validate_td,
)

import oracles
from strategies import random_td_instance, rooted_trees


def unit_path(n):
    return WeightedGraph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def unit_star(leaves=4):
    return WeightedGraph(range(leaves + 1), [(0, i, 1) for i in range(1, leaves + 1)])


def path_td(n):
    """Bags {v, v+1} in a path of nodes; the textbook width-1 decomposition."""
    bags = {t: {t, t + 1} for t in range(n - 1)}
    return RootedTreeDecomposition(bags, [(t, t + 1) for t in range(n - 2)], 0)


def star_td(leaves=4):
    """Root bag {0}, one child bag {0, leaf} per leaf."""
    bags = {0: {0}}
    edges = []
    for i in range(1, leaves + 1):
        bags[i] = {0, i}
        edges.append((0, i))
    return RootedTreeDecomposition(bags, edges, 0)


# -- rooted tree decompositions ------------------------------------------------


def test_single_bag_valid_full_width():
    g = unit_star(4)
    td = RootedTreeDecomposition({0: range(5)}, [], 0)
    validate_td(g, td, "treedec test")
    assert td.width == 4
    assert td.adhesion == 0


def test_path_of_bags_width_one():
    g = unit_path(6)
    td = path_td(6)
    validate_td(g, td, "treedec test")
    assert td.width == 1
    assert td.adhesion == 1
    assert td.adhesion_of((2, 3)) == frozenset({3})


def test_dropped_edge_named():
    g = unit_path(4)
    bags = {0: {0, 1}, 1: {1, 2}, 2: {3}}  # edge (2,3) in no bag
    td = RootedTreeDecomposition(bags, [(0, 1), (1, 2)], 0)
    with pytest.raises(ContractViolation, match=r"^td: edge \(2,3\) is in no bag$"):
        validate_td(g, td, "td")


def test_disconnected_holder_set_flagged():
    g = WeightedGraph(range(3), [(0, 1, 1), (1, 2, 1)])
    bags = {0: {0, 1}, 1: {1, 2}, 2: {2, 0}}  # vertex 0 in bags 0 and 2 only
    td = RootedTreeDecomposition(bags, [(0, 1), (1, 2)], 0)
    with pytest.raises(ContractViolation, match=r"^td: bags containing vertex 0 are not connected in the tree$"):
        validate_td(g, td, "td")


def test_vertex_outside_graph_flagged():
    g = unit_path(3)
    td = RootedTreeDecomposition({0: {0, 1, 2, 9}}, [], 0)
    with pytest.raises(ContractViolation, match=r"^td: bags contain unknown vertices: \[9\]$"):
        validate_td(g, td, "td")


def test_validate_td_joins_every_failure_and_raises_the_callers_error():
    g = unit_path(4)
    td = RootedTreeDecomposition({0: {0, 1, 9}, 1: {1, 2}}, [(0, 1)], 0)
    with pytest.raises(
        GraphError,
        match=r"^user td: vertices not in any bag: \[3\]; bags contain unknown vertices: \[9\]; "
        r"edge \(2,3\) is in no bag$",
    ):
        validate_td(g, td, "user td", GraphError)


def test_tree_shape_rejected():
    with pytest.raises(GraphError):
        RootedTreeDecomposition({0: {0}, 1: {0}, 2: {0}}, [(0, 1), (1, 2), (2, 0)], 0)
    with pytest.raises(GraphError):
        RootedTreeDecomposition({0: {0}, 1: {0}}, [], 0)  # disconnected
    with pytest.raises(GraphError):
        RootedTreeDecomposition({0: {0}}, [(0, 5)], 0)  # unknown node
    with pytest.raises(GraphError):
        RootedTreeDecomposition({0: {0}, 1: {1}}, [(0, 1)], 7)  # root without bag


def test_check_edge_orientation():
    td = star_td(3)
    assert td.check_edge((0, 2)) == (0, 2)
    with pytest.raises(GraphError):
        td.check_edge((2, 0))
    with pytest.raises(GraphError):
        td.check_edge((1, 2))


def test_subtree_and_bag_union():
    td = path_td(6)
    assert td.subtree_nodes((1, 2)) == (2, 3, 4)
    assert td.subtree_vertices((1, 2)) == frozenset({2, 3, 4, 5})
    assert td.all_vertices() == frozenset(range(6))


def test_reroot_preserves_bags_and_edges():
    td = path_td(5)
    rerooted = td.rerooted(9, {3, 4}, 3)
    assert rerooted.root == 9 and rerooted.children[9] == (3,)
    assert {t: b for t, b in rerooted.bags.items() if t != 9} == td.bags
    assert set(map(frozenset, rerooted.tree_edges)) == set(map(frozenset, td.tree_edges)) | {frozenset({9, 3})}
    assert rerooted.parent[2] == 3 and rerooted.parent[3] == 9
    with pytest.raises(GraphError, match="unknown node 7"):
        td.rerooted(9, {3}, 7)


def test_subdivide_edge():
    td = path_td(4)
    sub = td.rerooted(9, {2, 3}, (1, 2))
    assert sub.bags[9] == frozenset({2, 3})
    assert sub.root == 9 and sub.children[9] == (1, 2)
    assert sub.parent[1] == 9 and sub.parent[2] == 9 and sub.parent[0] == 1
    with pytest.raises(GraphError, match="already used"):
        td.rerooted(0, {2}, (1, 2))
    with pytest.raises(GraphError, match="not a .parent, child. tree edge"):
        td.rerooted(9, {2}, (2, 1))


def _tree_fields(td):
    return td.bags, td.parent, td.children, td.nodes, td.tree_edges, td.root


@settings(max_examples=200, deadline=None)
@given(rooted_trees(), st.frozensets(st.integers(0, 9), max_size=4), st.integers(1, 3))
def test_rerooted_equals_the_rebuilt_tree(td, bag, gap):
    """At every node and every tree edge, rerooted has every field the
    constructor gives the tree with the fresh root added, with its bags in
    the same order, leaves the tree it was derived from as it was, and can
    be rerooted again; a used id, an unknown node and a pair that is no
    (parent, child) tree edge are refused."""
    before = [dict(f) if isinstance(f, dict) else f for f in _tree_fields(td)]
    top = max(td.nodes) + gap
    for at in td.nodes + td.tree_edges:
        got = td.rerooted(top, bag, at)
        want = oracles.reference_rerooted(td, top, bag, at)
        assert _tree_fields(got) == _tree_fields(want)
        assert list(got.bags) == list(want.bags) and list(got.children) == list(want.children)
        again = got.rerooted(top + 1, bag, got.tree_edges[-1])
        assert _tree_fields(again) == _tree_fields(
            oracles.reference_rerooted(want, top + 1, bag, want.tree_edges[-1])
        )
    assert list(_tree_fields(td)) == before
    with pytest.raises(GraphError, match="already used"):
        td.rerooted(td.root, bag, td.root)
    with pytest.raises(GraphError, match="unknown node"):
        td.rerooted(top, bag, top + 1)
    for (p, c) in td.tree_edges:
        with pytest.raises(GraphError, match="tree edge"):
            td.rerooted(top, bag, (c, p))
    with pytest.raises(GraphError, match="tree edge"):
        td.rerooted(top, bag, (td.root, td.root))


def test_ball_region_and_its_frontier():
    td = path_td(5)  # bags {0,1} {1,2} {2,3} {3,4} in a path rooted at 0
    assert ball_region(td, frozenset({1}), "t") == (frozenset({0, 1}), ((1, 2),))
    with pytest.raises(ContractViolation, match="root bag"):
        ball_region(td, frozenset({3}), "t")
    with pytest.raises(ContractViolation, match="rooted subtree"):
        ball_region(td, frozenset({0, 4}), "t")


def test_component_decomposition_cuts_bags_and_reroots():
    td = RootedTreeDecomposition({0: {0, 2}, 1: {0, 1}, 2: {2, 3}}, [(0, 1), (0, 2)], 0)
    sub = next(component_decompositions(td, [[2, 3]], "t"))
    assert sub.root == 0
    assert sub.bags == {0: {2}, 2: {2, 3}}
    with pytest.raises(ContractViolation, match="span a subtree"):
        next(component_decompositions(td, [[1, 3]], "t"))


def _td_fields(td):
    """Every field, in order but for the parent map, which the constructor
    lists in search order and a cut in node order."""
    return (
        list(td.bags.items()), td.root, td.nodes, td.tree_edges,
        dict(td.parent), list(td.children.items()),
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["components", "groups", "view"]))
def test_component_decompositions_match_the_scanning_reference(seed, kind):
    """One pass over the decomposition gives, component by component, the
    decomposition the per-component scan gave, with its bags in the same
    order, or the same failure at the same component."""
    rng = random.Random(seed)
    g, td = random_td_instance(
        rng, n_vertices=rng.randint(2, 14), n_nodes=rng.randint(1, 8), edges_per_bag=rng.randint(0, 2)
    )
    if kind == "view" and td.tree_edges:
        g, td = SubtreeIndex(g, td).far_part(rng.choice(td.tree_edges)[1], max(td.nodes) + 1)
    if kind == "groups":
        groups = [[] for _ in range(rng.randint(1, 4))]
        for v in g.vertices:
            rng.choice(groups).append(v)
        comps = [tuple(c) for c in groups]
    else:
        comps = g.connected_components()
    got, ref = [], []
    try:
        for td_c in component_decompositions(td, comps, "t"):
            got.append(_td_fields(td_c))
    except ContractViolation as exc:
        got.append(str(exc))
    try:
        for comp in comps:
            ref.append(_td_fields(oracles.reference_component_decomposition(td, comp, "t")))
    except ContractViolation as exc:
        ref.append(str(exc))
    assert got == ref


def test_json_round_trip():
    td = star_td(3)
    data = td.to_json_dict()
    back = RootedTreeDecomposition.from_json_dict(data)
    assert back.bags == td.bags
    assert back.tree_edges == td.tree_edges
    assert back.root == td.root
    with pytest.raises(GraphError):
        RootedTreeDecomposition.from_json_dict({"nodes": [], "edges": []})


def test_generator_produces_valid_decompositions():
    rng = random.Random(7)
    for _ in range(50):
        g, td = random_td_instance(rng)
        validate_td(g, td, "random td")


def _validate_td_by_scanning(g, td):
    """validate_td as it was: scan every bag for each edge and every node
    for each vertex."""
    failures = []
    covered = td.all_vertices()
    missing = g.vertex_set() - covered
    if missing:
        failures.append("vertices not in any bag: %s" % sorted(missing)[:5])
    alien = covered - g.vertex_set()
    if alien:
        failures.append("bags contain unknown vertices: %s" % sorted(alien)[:5])
    for (u, v, _) in g.edges:
        if not any(u in b and v in b for b in td.bags.values()):
            failures.append("edge (%s,%s) is in no bag" % (u, v))
            break
    for v in g.vertices:
        holders = {t for t in td.nodes if v in td.bags[t]}
        if not holders:
            continue
        seen = {min(holders)}
        stack = [min(holders)]
        while stack:
            t = stack.pop()
            for s in td.children[t] + ((td.parent[t],) if td.parent[t] is not None else ()):
                if s in holders and s not in seen:
                    seen.add(s)
                    stack.append(s)
        if seen != holders:
            failures.append("bags containing vertex %s are not connected in the tree" % (v,))
            break
    return {"ok": not failures, "failures": failures}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["valid", "edge in no bag", "disconnected holders", "missing vertex"]),
)
def test_validate_td_matches_the_scanning_reference(seed, corruption):
    rng = random.Random(seed)
    g, td = random_td_instance(rng, n_vertices=rng.randint(2, 14), n_nodes=rng.randint(1, 8))
    bags = dict(td.bags)
    edges = list(g.edges)
    if corruption == "edge in no bag":
        apart = [(u, v) for u in g.vertices for v in g.vertices
                 if u < v and not any(u in b and v in b for b in bags.values())]
        assume(apart)
        edges.insert(rng.randrange(len(edges) + 1), rng.choice(apart) + (Fraction(1),))
    elif corruption == "disconnected holders":
        far = [(v, t) for v in g.vertices for t in td.nodes
               if v not in bags[t] and any(v in b for b in bags.values())
               and not any(v in bags[s] for s in td.children[t] + (td.parent[t],) if s is not None)]
        assume(far)
        v, t = rng.choice(far)
        bags[t] = bags[t] | {v}
    elif corruption == "missing vertex":
        v = rng.choice(g.vertices)
        bags = {t: b - {v} for t, b in bags.items()}
    g = WeightedGraph(g.vertices, edges)
    td = RootedTreeDecomposition(bags, td.tree_edges, td.root)
    ref = _validate_td_by_scanning(g, td)
    assert ref["ok"] == (corruption == "valid")
    if ref["ok"]:
        validate_td(g, td, "td")
        return
    with pytest.raises(ContractViolation) as failed:
        validate_td(g, td, "td")
    assert str(failed.value) == "td: " + "; ".join(ref["failures"])


# -- adhesion partitions ------------------------------------------------------


def _partitions(g, td, e, eps, max_level):
    """The hierarchy of e at ell 2 and theta 8: a theta large enough that
    every forest these tests build, up to max_level 8, passes its checks."""
    return adhesion_hierarchy(g, td, e, eps, max_level, 2, 8, 0, g.max_vertex() + 1)


def _part_at(h, i):
    """The hierarchy's partition at level i: its deepest recorded level not
    above i."""
    return h.parts[max(k for k in h.levels if k <= i)]


def test_chain_singleton_adhesion_never_changes():
    g = unit_star(4)
    td = star_td(4)
    h = _partitions(g, td, (0, 1), 1, 5)
    assert h.levels == (0, 1)
    assert _part_at(h, 5) == (frozenset({0}),)


def test_chain_two_vertices_merge_at_level_one():
    # X_e = {0,2} joined inside the part by the path 0-1-2 of eps-weight edges
    g = unit_path(3)
    td = RootedTreeDecomposition({0: {0, 2}, 1: {0, 1, 2}}, [(0, 1)], 0)
    h = _partitions(g, td, (0, 1), 1, 3)
    assert h.levels == (0, 1)
    assert h.parts[0] == (frozenset({0}), frozenset({2}))
    assert h.parts[1] == (frozenset({0, 2}),)


def test_chain_disconnected_sides_never_merge():
    g = WeightedGraph(range(4), [(0, 2, 1), (1, 3, 1)])
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2, 3}}, [(0, 1)], 0)
    h = _partitions(g, td, (0, 1), 1, 10)
    assert h.levels == (0, 1)
    assert _part_at(h, 10) == (frozenset({0}), frozenset({1}))


def test_chain_merge_level_respects_ceiling():
    # interior vertex at distance 3/2, eps = 1: bottleneck 3/2 -> level 2
    g = WeightedGraph(range(3), [(0, 1, Fraction(3, 2)), (1, 2, 1)])
    td = RootedTreeDecomposition({0: {0, 2}, 1: {0, 1, 2}}, [(0, 1)], 0)
    h = _partitions(g, td, (0, 1), 1, 4)
    assert h.levels == (0, 1, 2)
    assert h.parts[1] == (frozenset({0}), frozenset({2}))
    assert h.parts[2] == (frozenset({0, 2}),)


def test_chain_rejects_bad_parameters():
    g = unit_star(2)
    td = star_td(2)
    with pytest.raises(GraphError):
        _partitions(g, td, (0, 1), 0, 3)
    with pytest.raises(GraphError):
        _partitions(g, td, (1, 0), 1, 3)


def test_chain_matches_brute_force_levels():
    rng = random.Random(21)
    for _ in range(25):
        g, td = random_td_instance(rng, n_vertices=10, n_nodes=5)
        eps = g.min_edge_weight() or Fraction(2)
        max_level = 8
        for e in td.tree_edges:
            h = _partitions(g, td, e, eps, max_level)
            ground = sorted(td.adhesion_of(e))
            part = set(td.subtree_vertices(e))
            probe = {0, 1, max_level}
            for cl in h.levels:
                probe.update({cl - 1, cl})
            for i in sorted(p for p in probe if 0 <= p <= max_level):
                expected = oracles.brute_chain_level(g, part, ground, eps, i)
                ours = tuple(sorted((tuple(sorted(y)) for y in _part_at(h, i))))
                assert ours == expected, (e, i, ours, expected)


def _sweep_verdict(build):
    try:
        return build()
    except (ContractViolation, GraphError) as exc:
        return type(exc), str(exc)


def _reference_hierarchy(g, td, e, eps, max_level, ell, theta, mu, next_id):
    """The chain on Fraction distances, the forest built from it (each level's
    parts are the chain's partition_at, its vertices numbered as condense
    numbered them) and checked as the library checked it then: the chain's
    checks, then the forest's."""
    chain = oracles.reference_adhesion_partition_chain(g, td, e, eps, max_level)
    h = oracles.reference_build_hierarchy(chain, ell, theta, mu, next_id)
    oracles.reference_hierarchy_verify(h)
    return h


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hierarchy_equals_the_fraction_chain_reference(data):
    """The integer sweep gives the levels and parts the Fraction chain's
    partition_at gives, and the same forest, or the same exception type and
    message, on decompositions with quarter weights and on their far-part
    views, at eps values whose denominator need not divide the scale."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g, td = random_td_instance(rng, n_vertices=rng.randint(3, 12), n_nodes=rng.randint(2, 6), weight_den=4)
    assume(td.tree_edges)
    if data.draw(st.booleans()):
        c = data.draw(st.sampled_from(td.tree_edges))[1]
        g, td = SubtreeIndex(g, td).far_part(c, max(td.nodes) + 1)
    e = data.draw(st.sampled_from(td.tree_edges))
    eps = data.draw(st.sampled_from(
        [w for w in (g.min_edge_weight(), g.max_edge_weight()) if w is not None]
        + [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(3)]
    ))
    max_level = data.draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
    theta = data.draw(st.integers(1, 8))
    mu = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3)]))
    next_id = g.max_vertex() + 1 + data.draw(st.integers(0, 3))
    args = (g, td, e, eps, max_level, Fraction(2), theta, mu, next_id)
    assert _sweep_verdict(lambda: adhesion_hierarchy(*args)) == _sweep_verdict(lambda: _reference_hierarchy(*args))


# -- hierarchies ----------------------------------------------------------------


def test_hierarchy_single_vertex_shape():
    g = unit_star(4)
    td = star_td(4)
    h = adhesion_hierarchy(g, td, (0, 1), 1, 4, 2, 3, 1, 5)
    assert h.levels == (0, 1)
    assert h.ids == {0: (0,), 1: (5,)}
    ((a, b, w),) = h.edges
    assert a == 0 and b == 5
    assert w == Fraction(1) / (8 * (3 + Fraction(1, 2)))


def test_hierarchy_three_unmerged_singletons():
    # the adhesion {1, 2, 3} hangs three separate edges into the part
    g = WeightedGraph(range(7), [(1, 4, 1), (2, 5, 1), (3, 6, 1)])
    td = RootedTreeDecomposition({0: {0, 1, 2, 3}, 1: {1, 2, 3, 4, 5, 6}}, [(0, 1)], 0)
    h = adhesion_hierarchy(g, td, (0, 1), 1, 5, 2, 1, 0, 7)
    assert h.ids == {0: (1, 2, 3), 1: (7, 8, 9)}
    assert len(h.edges) == 3
    forest = oracles.reference_hierarchy_graph(h)
    comps = forest.connected_components()
    assert sorted(len(c) for c in comps) == [2, 2, 2]


def test_hierarchy_merge_produces_forest_with_join():
    # 1 and 2 share an edge of weight 2, so they merge at level 2; 3 stays apart
    g = WeightedGraph(range(1, 5), [(1, 2, 2), (3, 4, 1)])
    td = RootedTreeDecomposition({0: {1, 2, 3}, 1: {1, 2, 3, 4}}, [(0, 1)], 0)
    h = adhesion_hierarchy(g, td, (0, 1), 1, 5, 4, 1, 0, 5)
    assert h.levels == (0, 1, 2)
    # level 1 still singletons, level 2 has the merged part
    assert h.parts[1] == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert h.parts[2] == (frozenset({1, 2}), frozenset({3}))
    # the upper parts count up from 5 level by level: {1}, {2}, {3} at
    # level 1, then {1, 2} and {3} at level 2
    assert h.ids == {0: (1, 2, 3), 1: (5, 6, 7), 2: (8, 9)}
    assert h.edges == tuple(
        (a, b, Fraction(1, 8)) for (a, b) in [(1, 5), (2, 6), (3, 7), (5, 8), (6, 8), (7, 9)]
    )


def test_hierarchy_rejects_eps_above_ell():
    with pytest.raises(GraphError, match="eps 3 exceeds ell 1"):
        adhesion_hierarchy(unit_star(2), star_td(2), (0, 1), 3, 2, 1, 1, 0, 3)


def test_hierarchy_needs_level_one():
    with pytest.raises(GraphError, match="hierarchy needs a chain reaching level 1"):
        adhesion_hierarchy(unit_star(2), star_td(2), (0, 1), 1, 0, 2, 1, 0, 3)


def test_hierarchy_ids_start_above_the_graph():
    with pytest.raises(GraphError, match="hierarchy id 2 is a vertex id of the graph"):
        adhesion_hierarchy(unit_star(2), star_td(2), (0, 1), 1, 2, 2, 1, 0, 2)
    h = adhesion_hierarchy(unit_star(2), star_td(2), (0, 1), 1, 2, 2, 1, 0, 3)
    assert h.ids == {0: (0,), 1: (3,)}


def _hand_built(ground, parts):
    """A hierarchy over hand-built partitions, numbered as condense numbers
    a forest, with one edge of weight 1/8 from each part to the part
    holding its smallest member one level up (or none, where no part holds
    it)."""
    levels = tuple(sorted(parts))
    ids = oracles.reference_hierarchy_ids(levels, parts, max(ground) + 1)
    edges = []
    for i, j in zip(levels, levels[1:]):
        for y in parts[i]:
            up = [z for z in parts[j] if min(y) in z]
            if up:
                edges.append((ids[(i, y)], ids[(j, up[0])], Fraction(1, 8)))
    per_level = {i: tuple(ids[(i, y)] for y in parts[i]) for i in levels}
    return Hierarchy(
        tuple(ground), levels, parts, per_level, tuple(edges), Fraction(2), Fraction(1), 1, Fraction(0)
    )


_S = frozenset


@pytest.mark.parametrize(
    "parts, message",
    [
        ({1: (_S({1}), _S({2}), _S({3}))}, "chain misses level 0"),
        ({0: (_S({1, 2}), _S({3})), 1: (_S({1, 2}), _S({3}))}, "level 0 is not the singleton partition"),
        ({0: (_S({1}), _S({2}), _S({3})), 1: (_S({1, 2}), _S({2, 3}))}, "level 1 parts overlap"),
        ({0: (_S({1}), _S({2}), _S({3})), 1: (_S({1}), _S({3}))}, "level 1 does not cover the ground set"),
        (
            {0: (_S({1}), _S({2}), _S({3})), 1: (_S({1, 2}), _S({3})), 2: (_S({1, 3}), _S({2}))},
            "level 1 does not refine level 2",
        ),
    ],
    ids=["no-level-0", "level-0-not-singletons", "overlap", "missing-vertex", "no-refinement"],
)
def test_hierarchy_verify_names_each_broken_partition(parts, message):
    """Each partition check fires with the message the chain's check gave,
    before any forest check."""
    h = _hand_built([1, 2, 3], parts)
    with pytest.raises(ContractViolation) as failed:
        h.verify()
    assert str(failed.value) == message
    chain = oracles.PartitionChain(h.ground, h.eps, max(parts), parts)
    with pytest.raises(ContractViolation) as reference:
        chain.verify()
    assert str(reference.value) == message


def test_hierarchy_flags_a_vertex_beyond_half_ell_of_the_base():
    # two hops of ell/2 take the level-2 vertex to distance ell > ell/2
    y = frozenset({0})
    h = Hierarchy(
        (0,), (0, 1, 2), {0: (y,), 1: (y,), 2: (y,)}, {0: (0,), 1: (1,), 2: (2,)},
        ((0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))),
        Fraction(1), Fraction(1), 1, Fraction(0),
    )
    with pytest.raises(ContractViolation, match="hierarchy vertex farther than 1/2 from the base"):
        h.verify()


def test_hierarchy_invariants_on_random_chains():
    rng = random.Random(5)
    built = 0
    for _ in range(40):
        g, td = random_td_instance(rng, n_vertices=10, n_nodes=5)
        eps = g.min_edge_weight() or Fraction(2)
        theta = rng.randint(1, 5)
        mu = Fraction(rng.randint(0, 8), 4)
        for e in td.tree_edges:
            h = adhesion_hierarchy(g, td, e, eps, 6, Fraction(2), theta, mu, g.max_vertex() + 1)  # verify() built in
            n_base = len(h.parts[0])
            n_upper = sum(len(h.parts[i]) for i in h.levels if i != 0)
            assert n_upper <= n_base * n_base
            built += 1
    assert built > 50


@st.composite
def hierarchies(draw):
    """A hierarchy as the library assembles it from a random chain of
    coarsening partitions, numbered from a free id above the ground set,
    not yet checked."""
    k = draw(st.integers(min_value=1, max_value=5))
    ground = sorted(draw(st.sets(st.integers(min_value=0, max_value=40), min_size=k, max_size=k)))
    max_level = draw(st.integers(min_value=1, max_value=8))
    groups = [frozenset([x]) for x in ground]
    parts = {0: tuple(groups)}
    for level in range(1, max_level + 1):
        if len(groups) > 1 and draw(st.booleans()):
            i, j = sorted(draw(st.lists(st.integers(0, len(groups) - 1), min_size=2, max_size=2, unique=True)))
            groups = groups[:i] + groups[i + 1:j] + groups[j + 1:] + [groups[i] | groups[j]]
            parts[level] = tuple(sorted(groups, key=min))
    eps = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    chain = oracles.PartitionChain(tuple(ground), eps, max_level, parts)
    ell = eps * draw(st.integers(1, 3))
    theta = draw(st.integers(1, 4))
    mu = Fraction(draw(st.integers(0, 6)), 2)
    next_id = ground[-1] + 1 + draw(st.integers(0, 3))
    return oracles.reference_build_hierarchy(chain, ell, theta, mu, next_id)


def _verdict(check, h):
    try:
        check(h)
    except (ContractViolation, GraphError, KeyError) as exc:
        return type(exc), str(exc)
    return None


def test_hierarchy_verify_builds_no_graph(monkeypatch):
    """Neither the sweep nor the check builds a graph."""
    rng = random.Random(5)
    instances = [random_td_instance(rng, n_vertices=10, n_nodes=5) for _ in range(20)]
    built = []
    fill = WeightedGraph._fill
    monkeypatch.setattr(WeightedGraph, "_fill", lambda *a: built.append(1) or fill(*a))
    count = 0
    for g, td in instances:
        eps = g.min_edge_weight() or Fraction(2)
        for e in td.tree_edges:
            adhesion_hierarchy(g, td, e, eps, 6, Fraction(2), 3, Fraction(1, 2), g.max_vertex() + 1)
            count += 1
    assert count > 40 and built == []


@settings(max_examples=150, deadline=None)
@given(hierarchies())
def test_hierarchy_verify_agrees_with_the_graph_check(h):
    assert _verdict(Hierarchy.verify, h) == _verdict(oracles.reference_hierarchy_verify, h)


_BROKEN = {
    "weight": "hierarchy edge weight ",
    "reach": "hierarchy vertex farther than ",
    "pair": "hierarchy component pair at distance ",
    "count": "hierarchy has ",
}


@settings(max_examples=150, deadline=None)
@given(hierarchies(), st.sampled_from(sorted(_BROKEN)), st.data())
def test_hierarchy_verify_names_each_broken_kind_as_the_graph_check(h, kind, data):
    assume(_verdict(oracles.reference_hierarchy_verify, h) is None)
    half = h.ell / 2
    top = max(h.levels) + 1
    # the new vertices take the free ids above the forest's, level by level
    fresh = max(v for i in h.levels for v in h.ids[i]) + 1
    base = h.ids[0]
    whole = frozenset(h.ground)
    levels, parts, ids, edges = h.levels, h.parts, h.ids, h.edges
    if kind == "weight":
        i = data.draw(st.integers(0, len(h.edges) - 1))
        a, b, _ = h.edges[i]
        w = data.draw(st.sampled_from([Fraction(0), half + Fraction(1, 7), -half]))
        edges = h.edges[:i] + ((a, b, w),) + h.edges[i + 1:]
    elif kind == "reach":
        # a level holding the whole ground set as one part, linked to nothing
        levels, parts, ids = h.levels + (top,), {**h.parts, top: (whole,)}, {**h.ids, top: (fresh,)}
    elif kind == "pair":
        # consecutive base vertices bridged at ell/2 each way, each bridge
        # the whole ground set at a level of its own: every vertex is within
        # ell/2 of the base, the ends of the chain 2*ell apart
        assume(len(base) >= 3)
        bridges = range(top, top + len(base) - 1)
        edges = tuple(
            (end, fresh + k, half)
            for k, (x, y) in enumerate(zip(base, base[1:]))
            for end in (x, y)
        )
        parts = {0: h.parts[0], **{level: (whole,) for level in bridges}}
        ids = {0: base, **{level: (fresh + k,) for k, level in enumerate(bridges)}}
        levels = (0,) + tuple(bridges)
    else:
        # exactly |B|**2 + 1 upper vertices, the whole ground set at levels
        # of their own, each one light edge from the first base vertex
        extra = range(top, top + len(base) ** 2 + 1)
        edges = tuple((base[0], fresh + k, half / 4) for k in range(len(extra)))
        parts = {0: h.parts[0], **{level: (whole,) for level in extra}}
        ids = {0: base, **{level: (fresh + k,) for k, level in enumerate(extra)}}
        levels = (0,) + tuple(extra)
    h = Hierarchy(h.ground, levels, parts, ids, edges, h.ell, h.eps, h.theta, h.mu)
    verdict = _verdict(Hierarchy.verify, h)
    assert verdict == _verdict(oracles.reference_hierarchy_verify, h)
    assert verdict[0] is ContractViolation and verdict[1].startswith(_BROKEN[kind]), verdict


# -- condensation ---------------------------------------------------------------


def normalized_edges(g):
    return sorted((min(u, v), max(u, v), w) for (u, v, w) in g.edges)


def test_condense_empty_frontier_is_identity():
    g = unit_path(5)
    td = path_td(5)
    cond = condense(g, td, [], [], 1, 1, 0)
    assert cond.g0.vertex_set() == g.vertex_set()
    assert normalized_edges(cond.g0) == normalized_edges(g)
    assert cond.t0_vertices == g.vertex_set()


def test_condense_star_single_hierarchy():
    g = unit_star(4)
    td = star_td(4)
    cond = condense(g, td, [(0, 1)], [(0, 1)], 1, 1, 0)
    assert cond.g0.vertex_set() == {0, 2, 3, 4, 5}
    assert (0, 5, Fraction(1, 8)) in normalized_edges(cond.g0)
    assert cond.hierarchies[(0, 1)].hierarchy.ids == {0: (0,), 1: (5,)}
    assert cond.base_vertices == frozenset({0, 2, 3, 4})
    # the leaf at the frontier edge's child holds the hierarchy vertices
    assert cond.td0.bags == {0: {0}, 1: {0, 5}, 2: {0, 2}, 3: {0, 3}, 4: {0, 4}}
    assert cond.td0.tree_edges == ((0, 1), (0, 2), (0, 3), (0, 4))


def test_condense_shortcut_weights():
    # fringe pair at within-part distance 3 -> shortcut of weight ell*3/3 = 1
    g = WeightedGraph(range(4), [(0, 1, 1), (0, 2, 1), (1, 3, 1)])
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2, 3}}, [(0, 1)], 0)
    cond = condense(g, td, [(0, 1)], [], 1, 1, 0)
    sc = cond.shortcut_parts[(0, 1)]
    assert sc.reach == frozenset({0, 1, 2, 3})
    assert sc.shortcuts == ((2, 3, Fraction(1)),)
    # the leaf at the frontier edge's child holds the fringe reach
    assert cond.td0.bags == {0: {0, 1}, 1: {0, 1, 2, 3}}


def test_condense_shortcut_direct_edge():
    # direct fringe edge of weight 1 -> shortcut of weight ell*1/(3*ell) = 1/3
    g = WeightedGraph(range(4), [(0, 2, 1), (1, 3, 1), (2, 3, 1)])
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2, 3}}, [(0, 1)], 0)
    cond = condense(g, td, [(0, 1)], [], 1, 1, 0)
    sc = cond.shortcut_parts[(0, 1)]
    assert (2, 3, Fraction(1, 3)) in sc.shortcuts
    # original part edges survive alongside the shortcuts
    assert (2, 3, Fraction(1)) in normalized_edges(cond.g0)


def test_condense_mu_stretches_shortcut_radius():
    g = WeightedGraph(range(4), [(0, 1, 1), (0, 2, 1), (1, 3, 1)])
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2, 3}}, [(0, 1)], 0)
    cond = condense(g, td, [(0, 1)], [], 1, 1, 2)
    sc = cond.shortcut_parts[(0, 1)]
    assert sc.shortcuts == ((2, 3, Fraction(3, 5)),)  # weight ell*3/(3*ell+mu)


def test_condense_rejects_nested_frontier():
    td = RootedTreeDecomposition({0: {0}, 1: {0, 1}, 2: {1, 2}}, [(0, 1), (1, 2)], 0)
    g = unit_path(3)
    with pytest.raises(GraphError):
        condense(g, td, [(0, 1), (1, 2)], [], 1, 1, 0)


def test_condense_rejects_fat_adhesion_in_prime():
    g = unit_path(3)
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2}}, [(0, 1)], 0)
    with pytest.raises(GraphError):
        condense(g, td, [(0, 1)], [(0, 1)], 1, 1, 0)  # |X_e| = 2 > theta


def test_condense_rejects_heavy_edges():
    g = WeightedGraph(range(2), [(0, 1, 2)])
    td = RootedTreeDecomposition({0: {0, 1}}, [], 0)
    with pytest.raises(GraphError):
        condense(g, td, [], [], 1, 1, 0)


def test_condense_rejects_prime_outside_frontier():
    g = unit_star(2)
    td = star_td(2)
    with pytest.raises(GraphError):
        condense(g, td, [(0, 1)], [(0, 2)], 1, 1, 0)


def test_condense_is_deterministic():
    rng1, rng2 = random.Random(11), random.Random(11)
    g1, td1 = random_td_instance(rng1)
    g2, td2 = random_td_instance(rng2)
    fr1 = [(0, c) for c in td1.children[0]]
    fr2 = [(0, c) for c in td2.children[0]]
    theta = max([1] + [len(td1.adhesion_of(e)) for e in fr1])
    c1 = condense(g1, td1, fr1, fr1, 2, theta, 0)
    c2 = condense(g2, td2, fr2, fr2, 2, theta, 0)
    assert normalized_edges(c1.g0) == normalized_edges(c2.g0)
    assert c1.g0.vertex_set() == c2.g0.vertex_set()


def frontier_split(rng, td, prime_share=1.0):
    frontier = [(0, c) for c in td.children[0]]
    prime = [e for e in frontier if rng.random() < prime_share]
    return frontier, prime


def _random_frontier(rng, td, prime_share):
    """The frontier of a random region grown from the root, each frontier
    edge taking a hierarchy with probability prime_share."""
    region = [td.root]
    for t in region:
        region.extend(ch for ch in td.children[t] if rng.random() < 0.5)
    frontier = [(t, ch) for t in region for ch in td.children[t] if ch not in region]
    return frontier, [e for e in frontier if rng.random() < prime_share]


def _graph_fields(g):
    return (g.vertices, g.edges, g._scale, g._sadj, g._wrange, g._step)


def _assert_shortcuts_are_full_search_ones(cond):
    for e in cond.shortcut_parts:
        att = cond.shortcut_parts[e]
        assert (att.reach, att.shortcuts) == oracles.reference_condense_shortcuts(cond, e), e


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_shortcut_edges_are_those_of_full_searches_on_series_parallel_graphs(seed, weighted):
    """Each shortcut search stops once the later fringe vertices are
    settled; the reach and shortcut edges of every part equal those of a
    full search from each fringe vertex, on random series-parallel graphs
    of unit weight (searched by levels) and of mixed weights (by a heap),
    under their min-fill decompositions."""
    from wdcolor.generators import GeneratorSpec, generate
    from wdcolor.twcolor import compute_tree_decomposition

    rng = random.Random(seed)
    law = {"weight_lo": Fraction(1, 4), "weight_hi": 1, "weight_den": 4} if weighted else {}
    g = generate(GeneratorSpec(family="random-series-parallel", n=rng.randint(3, 40), seed=seed, **law)).graph
    td = compute_tree_decomposition(g)
    frontier, _ = _random_frontier(rng, td, 0.0)
    ell = rng.choice([1, Fraction(3, 2), 2])
    cond = condense(g, td, frontier, (), ell, 1, Fraction(rng.randint(0, 4), 2))
    _assert_shortcuts_are_full_search_ones(cond)


def test_shortcut_edges_on_grid_windows_are_those_of_full_searches(monkeypatch):
    """The same on every condensation `color_planar` makes in the window
    pieces of the unit 30x30 and 40x40 grids."""
    import wdcolor.geodesic as geodesic
    from wdcolor.generators import GeneratorSpec, generate

    conds = []
    original = geodesic.condense
    monkeypatch.setattr(geodesic, "condense", lambda *a: conds.append(original(*a)) or conds[-1])
    for n in (30, 40):
        grid = generate(GeneratorSpec(family="grid", rows=n, cols=n))
        assert geodesic.color_planar(grid.graph, 1, grid.rotation).report.ok
    assert sum(len(att.shortcuts) for c in conds for att in c.shortcut_parts.values()) > 0
    for cond in conds:
        _assert_shortcuts_are_full_search_ones(cond)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_condensed_graph_is_the_one_the_constructor_built(seed, on_view):
    """condense builds g0 from the host's own edges and checks only the new
    ones; its fields are those of the copy-and-construct build, on a plain
    graph and on a far-part view, where they also equal a copy's.  td0,
    read off td's tree, has every field the constructor gives it."""
    rng = random.Random(seed)
    g, td = random_td_instance(rng, n_vertices=rng.randint(3, 14), n_nodes=rng.randint(2, 8))
    if on_view:
        g, td = SubtreeIndex(g, td).far_part(rng.choice(td.tree_edges)[1], max(td.nodes) + 1)
    frontier, prime = _random_frontier(rng, td, 0.5)
    theta = max([1] + [len(td.adhesion_of(e)) for e in frontier])
    mu = Fraction(rng.randint(0, 4), 2)
    cond = condense(g, td, frontier, prime, 2, theta, mu)
    assert _graph_fields(cond.g0) == _graph_fields(oracles.reference_condensed_graph(cond))
    want = oracles.reference_condensed_decomposition(cond)
    for name in ("bags", "parent", "children", "nodes", "tree_edges", "root"):
        assert getattr(cond.td0, name) == getattr(want, name), name
    if on_view:
        copy = condense(g.induced(g.vertex_set()), td, frontier, prime, 2, theta, mu)
        assert _graph_fields(copy.g0) == _graph_fields(cond.g0)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_hierarchy_ids_are_the_ones_condense_numbered(seed, on_view):
    """On random weighted decompositions, each hierarchy carries the ids
    that condense gave its (level, part) vertices: a level-0 part is its
    ground vertex, and the upper parts take the free ids from above g's
    largest one, frontier edge by frontier edge, in (level, part) order.
    Those ids sort in (level, smallest member) order; the forest's edges
    are the (level, part) edges under that numbering; and g0 is the graph
    built from them."""
    rng = random.Random(seed)
    g, td = random_td_instance(rng, n_vertices=rng.randint(3, 14), n_nodes=rng.randint(2, 8), weight_den=4)
    if on_view:
        g, td = SubtreeIndex(g, td).far_part(rng.choice(td.tree_edges)[1], max(td.nodes) + 1)
    frontier, prime = _random_frontier(rng, td, 0.7)
    theta = max([1] + [len(td.adhesion_of(e)) for e in frontier])
    mu = Fraction(rng.randint(0, 4), 2)
    cond = condense(g, td, frontier, prime, 2, theta, mu)
    unit = cond.eps / (8 * (theta + mu / cond.ell))
    next_id = g.max_vertex() + 1
    for e in cond.u_e:
        if e not in cond.hierarchies:
            continue
        h = cond.hierarchies[e].hierarchy
        want = oracles.reference_hierarchy_ids(h.levels, h.parts, next_id)
        next_id += len(want) - len(h.parts[0])
        assert h.ids == {i: tuple(want[(i, y)] for y in h.parts[i]) for i in h.levels}
        assert sorted(want.values()) == [want[v] for v in sorted(want, key=lambda v: (v[0], min(v[1])))]
        forest = oracles.reference_forest_edges(h.levels, h.parts, unit)
        assert h.edges == tuple((want[a], want[b], w) for (a, b, w) in forest)
    assert _graph_fields(cond.g0) == _graph_fields(oracles.reference_condensed_graph(cond))


def test_quasi_isometry_on_random_condensations():
    rng = random.Random(3)
    checked = 0
    for _ in range(30):
        g, td = random_td_instance(rng, n_vertices=rng.randint(6, 12), n_nodes=5)
        frontier, prime = frontier_split(rng, td, prime_share=0.6)
        if not frontier:
            continue
        theta = max([1] + [len(td.adhesion_of(e)) for e in frontier])
        mu = Fraction(rng.randint(0, 4), 2)
        cond = condense(g, td, frontier, prime, 2, theta, mu)
        oracles.check_quasi_isometry(g, cond)
        checked += 1
    assert checked >= 20


def test_quasi_isometry_catches_missing_edges():
    g = unit_star(4)
    td = star_td(4)
    cond = condense(g, td, [(0, 1)], [(0, 1)], 1, 1, 0)
    broken = Condensation(
        cond.g, cond.td, WeightedGraph(cond.g0.vertices, []), cond.td0, cond.u_e, cond.ell, cond.theta,
        cond.mu, cond.eps, cond.t0_vertices, cond.base_vertices, cond.hierarchies, cond.shortcut_parts,
    )
    with pytest.raises(ContractViolation):
        oracles.check_quasi_isometry(g, broken)


# -- lift bound -----------------------------------------------------------------


def test_lift_bound_frozen_values():
    assert con_color_bound(1, 1, 1, 0) == 128
    assert con_color_bound(2, 3, 2, 1) == 768


def test_lift_bound_rejects_bad_parameters():
    with pytest.raises(GraphError):
        con_color_bound(1, 1, 0, 0)
    with pytest.raises(GraphError):
        con_color_bound(0, 1, 1, 0)


# -- coloring lift ---------------------------------------------------------------


def _checked(cond, c0, deleted=(), bound=None):
    """c0 with its check over V(G0) minus `deleted`, as patch_colorings
    hands a coloring to the lift: at `bound`, or at the measured hops (at
    least 1) when no bound is given."""
    pool0 = (cond.g0.vertex_set() - set(deleted)) & c0.domain
    if bound is None:
        bound = max(1, verify_weak_diameter(cond.g0, cond.ell, c0, restrict_to=pool0).max_weak_diameter_hops)
    bound = Fraction(bound)
    return ColorResult(c0, bound, verify_weak_diameter(cond.g0, cond.ell, c0, restrict_to=pool0, bound=bound))


def test_lift_empty_frontier_returns_input():
    g = unit_path(5)
    td = path_td(5)
    cond = condense(g, td, [], [], 1, 1, 0)
    c0 = Coloring({v: v % 2 + 1 for v in range(5)}, 2)
    res = lift_condensation_coloring(cond, _checked(cond, c0))
    assert res.coloring.domain == frozenset(range(5))
    assert all(res.coloring.color(v) == c0.color(v) for v in range(5))
    assert res.report.ok


def test_lift_path_zones_and_guard_colors():
    g = unit_path(7)
    td = RootedTreeDecomposition({0: {0}, 1: set(range(7))}, [(0, 1)], 0)
    cond = condense(g, td, [(0, 1)], [(0, 1)], 1, 1, 0)
    assert cond.g0.vertex_set() == {0, 7}
    c0 = Coloring({0: 1, 7: 2}, 2)
    res = lift_condensation_coloring(cond, _checked(cond, c0))
    c = res.coloring
    assert c.domain == frozenset({0, 1, 2, 3})
    assert c.color(0) == 1
    assert c.color(1) == 2  # inherits the level-1 hierarchy color
    assert c.color(2) == 1  # first guard zone
    assert c.color(3) == 2  # second guard zone
    assert oracles.lift_zones(cond) == {0: 1, 1: 1, 2: 2, 3: 3}
    assert res.bound == 128
    assert res.report.ok


def test_lift_agrees_with_input_on_kept_side():
    g = unit_star(4)
    td = star_td(4)
    cond = condense(g, td, [(0, 1)], [(0, 1)], 1, 1, 0)
    c0 = Coloring({0: 2, 2: 1, 3: 2, 4: 1, 5: 1}, 2)
    res = lift_condensation_coloring(cond, _checked(cond, c0))
    for v in (0, 2, 3, 4):
        assert res.coloring.color(v) == c0.color(v)
    assert res.coloring.color(1) == c0.color(5)


def test_lift_reads_the_part_of_the_nearest_adhesion_vertex():
    # the adhesion {0, 1} hangs two branches 0-2-3 and 1-4-5 that never
    # meet, so level 1 has two parts, numbered 6 ({0}) and 7 ({1})
    g = WeightedGraph(range(6), [(0, 2, 1), (2, 3, 1), (1, 4, 1), (4, 5, 1)])
    td = RootedTreeDecomposition({0: {0, 1}, 1: set(range(6))}, [(0, 1)], 0)
    cond = condense(g, td, [(0, 1)], [(0, 1)], 1, 2, 0)
    assert cond.hierarchies[(0, 1)].hierarchy.ids == {0: (0, 1), 1: (6, 7)}
    c0 = Coloring({0: 1, 6: 2, 1: 2, 7: 1}, 2)
    res = lift_condensation_coloring(cond, _checked(cond, c0))
    assert res.coloring.color(2) == c0.color(6)
    assert res.coloring.color(4) == c0.color(7)
    assert res.report.ok


def test_lift_deleted_vertices_uncolored():
    g = unit_star(4)
    td = star_td(4)
    cond = condense(g, td, [(0, 1)], [(0, 1)], 1, 1, 0)
    c0 = Coloring.constant({0, 2, 3, 4, 5}, 2)
    res = lift_condensation_coloring(cond, _checked(cond, c0, [3]), deleted=[3])
    assert 3 not in res.coloring.domain
    assert res.coloring.domain == frozenset({0, 1, 2, 4})


def test_lift_requires_total_input_coloring():
    g = unit_star(4)
    td = star_td(4)
    cond = condense(g, td, [(0, 1)], [(0, 1)], 1, 1, 0)
    c0 = Coloring.constant({0, 2, 3}, 2)  # misses 4 and the hierarchy vertex
    with pytest.raises(GraphError):
        lift_condensation_coloring(cond, _checked(cond, c0))


def test_lift_rejects_overclaimed_input_diameter():
    g = unit_star(4)
    td = star_td(4)
    cond = condense(g, td, [(0, 1)], [(0, 1)], 1, 1, 0)
    c0 = Coloring.constant({0, 2, 3, 4, 5}, 2)  # one component, 2 hops leaf-to-leaf
    with pytest.raises(ContractViolation):
        lift_condensation_coloring(cond, _checked(cond, c0, bound=1))
    res = lift_condensation_coloring(cond, _checked(cond, c0, bound=2))
    assert res.bound == con_color_bound(1, 2, 1, 0)
    # a result is claimed at the bound its report was checked at
    checked = _checked(cond, c0, bound=2)
    with pytest.raises(ContractViolation, match="input coloring measures 2 hops, claimed 3"):
        lift_condensation_coloring(cond, ColorResult(checked.coloring, Fraction(3), checked.report))


def test_lift_big_adhesion_needs_centers():
    g = unit_path(3)
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2}}, [(0, 1)], 0)
    cond = condense(g, td, [(0, 1)], [], 1, 1, 1)  # |X_e| = 2 > theta = 1
    c0 = Coloring({0: 1, 1: 2, 2: 1}, 2)
    with pytest.raises(GraphError):
        lift_condensation_coloring(cond, _checked(cond, c0))
    with pytest.raises(ContractViolation):
        # radius-1 ball around {1} misses nothing, but around {0}... use a far center
        lift_condensation_coloring(
            cond, _checked(cond, c0), centers_per_big_adhesion={(0, 1): [2]}
        )
    res = lift_condensation_coloring(
        cond, _checked(cond, c0), centers_per_big_adhesion={(0, 1): [0]}
    )
    assert res.report.ok


def test_lift_names_missing_distant_and_surplus_big_adhesion_centers():
    # X_e = {0, 1} exceeds theta = 1, so the lift needs one center within
    # mu = 1 of both; the messages before and after the check moved into
    # CenterCertificate both name the failure
    g = unit_path(3)
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2}}, [(0, 1)], 0)
    cond = condense(g, td, [(0, 1)], [], 1, 1, 1)
    c0 = Coloring({0: 1, 1: 2, 2: 1}, 2)
    with pytest.raises(GraphError, match=r"adhesion of \(0, 1\) exceeds theta and has no center certificate"):
        lift_condensation_coloring(cond, _checked(cond, c0), centers_per_big_adhesion={})
    with pytest.raises(ContractViolation, match=r"miss \[0, 1\] at radius 1|coverage fails: \[0, 1\] beyond distance 1"):
        lift_condensation_coloring(cond, _checked(cond, c0), centers_per_big_adhesion={(0, 1): []})
    with pytest.raises(ContractViolation, match=r"miss \[0\] at radius 1|coverage fails: \[0\] beyond distance 1"):
        lift_condensation_coloring(cond, _checked(cond, c0), centers_per_big_adhesion={(0, 1): [2]})
    with pytest.raises(ContractViolation, match=r"larger than theta|lists 2 centers but claims k=1"):
        lift_condensation_coloring(cond, _checked(cond, c0), centers_per_big_adhesion={(0, 1): [0, 1]})


def test_lift_center_set_must_stay_small():
    g = unit_path(3)
    td = RootedTreeDecomposition({0: {0, 1}, 1: {0, 1, 2}}, [(0, 1)], 0)
    cond = condense(g, td, [(0, 1)], [], 1, 1, 1)
    c0 = Coloring({0: 1, 1: 2, 2: 1}, 2)
    with pytest.raises(ContractViolation):
        lift_condensation_coloring(
            cond, _checked(cond, c0), centers_per_big_adhesion={(0, 1): [0, 1]}
        )


def test_lift_random_instances_verify():
    rng = random.Random(17)
    ran = 0
    for _ in range(25):
        g, td = random_td_instance(rng, n_vertices=rng.randint(6, 12), n_nodes=5)
        frontier, prime = frontier_split(rng, td, prime_share=0.7)
        if not frontier:
            continue
        theta = max([1] + [len(td.adhesion_of(e)) for e in frontier])
        cond = condense(g, td, frontier, prime, 2, theta, 0)
        m = rng.randint(2, 4)
        c0 = Coloring({v: rng.randint(1, m) for v in cond.g0.vertices}, m)
        deletable = sorted(cond.g.vertex_set())
        deleted = rng.sample(deletable, k=min(2, len(deletable)))
        res = lift_condensation_coloring(cond, _checked(cond, c0, deleted), deleted=deleted)
        assert res.report.ok
        # the input is claimed at its measured hops (at least 1)
        pool0 = set(cond.g0.vertices) - set(deleted)
        measured = verify_weak_diameter(cond.g0, 2, c0, restrict_to=pool0).max_weak_diameter_hops
        assert res.bound == con_color_bound(2, max(1, measured), theta, 0)
        for v in cond.t0_vertices - set(deleted):
            assert res.coloring.color(v) == c0.color(v)
        ran += 1
    assert ran >= 20


def test_lift_guard_zones_only_outside_condensed_region():
    rng = random.Random(29)
    for _ in range(10):
        g, td = random_td_instance(rng, n_vertices=10, n_nodes=5)
        frontier, _ = frontier_split(rng, td)
        if not frontier:
            continue
        theta = max([1] + [len(td.adhesion_of(e)) for e in frontier])
        cond = condense(g, td, frontier, frontier, 2, theta, 0)
        m = 3
        c0 = Coloring({v: rng.randint(1, m) for v in cond.g0.vertices}, m)
        res = lift_condensation_coloring(cond, _checked(cond, c0))
        zones = oracles.lift_zones(cond)
        assert zones.keys() - cond.t0_vertices == res.coloring.domain - cond.t0_vertices
        for v, z in zones.items():
            if z >= 2:
                assert v not in cond.base_vertices


# -- far parts as views ---------------------------------------------------------------


def test_far_part_views_match_copies():
    """Every far part's graph and decomposition views answer as the copies
    the recursion used to build: g.induced(part) and the subtree's bags
    and edges under a fresh root holding the adhesion.  The view checks
    an edge and reads its adhesion off the indexed tree, and keeps its
    weight range in the copy's integer units."""
    from wdcolor.treedec import SubtreeIndex

    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        g, td = random_td_instance(rng, n_vertices=rng.randint(4, 14), n_nodes=rng.randint(2, 8))
        index = SubtreeIndex(g, td)
        fresh = max(td.nodes) + 1
        for e in td.tree_edges:
            view, tdv = index.far_part(e[1], fresh)
            part = td.subtree_vertices(e)
            copy = g.induced(part)
            assert view.vertices == copy.vertices and len(view) == len(copy)
            assert view.edges == copy.edges
            assert view.max_vertex() == copy.max_vertex()
            assert (view.min_edge_weight(), view.max_edge_weight()) == (
                copy.min_edge_weight(), copy.max_edge_weight()
            )
            assert view.vertex_set() == part and part == view.vertex_set()
            for v in copy.vertices:
                assert view.neighbors(v) == copy.neighbors(v)
                assert view.distances_from([v]) == copy.distances_from([v])
            assert view.connected_components() == copy.connected_components()
            keep = set(sorted(part)[::2])
            assert view.induced(keep).edges == copy.induced(keep).edges

            sub = td.subtree_nodes(e)
            bags = {t: td.bags[t] for t in sub}
            bags[fresh] = td.adhesion_of(e)
            edges = [(p, ch) for (p, ch) in td.tree_edges if p in sub and ch in sub]
            ref = RootedTreeDecomposition(bags, edges + [(fresh, e[1])], fresh)
            assert len(tdv) == len(ref) and tdv.nodes == ref.nodes
            assert tdv.tree_edges == ref.tree_edges
            assert dict(tdv.bags) == ref.bags and dict(tdv.parent) == ref.parent
            assert dict(tdv.children) == ref.children
            for v in copy.vertices:
                assert sorted(tdv.holders_of(v)) == [t for t in ref.nodes if v in ref.bags[t]]
            for f in ref.tree_edges:
                assert tdv.subtree_vertices(f) == ref.subtree_vertices(f)
                assert tdv.subtree_nodes(f) == ref.subtree_nodes(f)
                assert tdv.adhesion_of(f) == ref.adhesion_of(f)
            # every pair that is no (parent, child) edge of the part fails alike
            for a in td.nodes + (fresh,):
                for b in td.nodes + (fresh,):
                    if ref.parent.get(b) != a:
                        with pytest.raises(GraphError, match=r"is not a \(parent, child\) tree edge"):
                            tdv.check_edge((a, b))
            assert (view._wrange, view._step) == (copy._wrange, copy._step)
            checked += 1
    assert checked >= 100
