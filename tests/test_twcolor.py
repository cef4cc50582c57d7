"""Tree-decomposition search, adhesion constructions, two-coloring engine."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdcolor.graph import GraphError, WeightedGraph
from wdcolor.partition import Coloring, ColorResult, ContractViolation
from wdcolor.patching import centered_bound, patch_bound, vertex_cover_bound
from wdcolor.treedec import RootedTreeDecomposition, con_color_bound, validate_td
from wdcolor.twcolor import (
    AdhesionConstruction,
    color_adhesion_construction,
    color_bounded_treewidth,
    compute_tree_decomposition,
    cover_piece_bound,
    tree_extension_bound,
    treewidth_color_bound,
)

import oracles
from strategies import bound_inputs, random_connected_graph, rationals, rooted_trees, weighted_graphs


def unit_path(n):
    return WeightedGraph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def path_td(n):
    bags = {t: {t, t + 1} for t in range(n - 1)}
    return RootedTreeDecomposition(bags, [(t, t + 1) for t in range(n - 2)], 0)


def grid_graph(rows, cols):
    def vid(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j), 1))
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1), 1))
    return WeightedGraph(range(rows * cols), edges)


def band_graph(n, k):
    """Path power: edges (i, i+j) for j <= k; treewidth exactly k."""
    edges = [(i, i + j, 1) for i in range(n) for j in range(1, k + 1) if i + j < n]
    return WeightedGraph(range(n), edges)


def theta2() -> Fraction:
    return cover_piece_bound(2, 1)


# -- tree-decomposition search ---------------------------------------------


def test_td_of_tree_has_width_one():
    g = WeightedGraph(range(7), [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 1), (2, 6, 1)])
    td = compute_tree_decomposition(g)
    assert td.width == 1
    validate_td(g, td, "tw test")


def test_td_of_band_graph_exact():
    for k in (1, 2, 3):
        td = compute_tree_decomposition(band_graph(12, k))
        assert td.width == k


def test_td_of_grid_exact():
    td = compute_tree_decomposition(grid_graph(4, 4))
    assert td.width == 4
    validate_td(grid_graph(4, 4), td, "tw test")


def test_td_of_clique():
    td = compute_tree_decomposition(WeightedGraph(range(5), [(u, v, 1) for u in range(5) for v in range(u + 1, 5)]))
    assert td.width == 4
    assert len(td) >= 1


def _td_with_exact_max(g, exact_max):
    """compute_tree_decomposition with the exhaustive search up to
    `exact_max` vertices in place of twcolor.EXACT_MAX."""
    import wdcolor.twcolor as twcolor

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twcolor, "EXACT_MAX", exact_max)
        return compute_tree_decomposition(g)


def test_td_heuristic_beyond_exact_cap():
    g = unit_path(40)
    td = compute_tree_decomposition(g)
    assert td.width == 1
    validate_td(g, td, "tw test")


def test_td_empty_and_single():
    td0 = compute_tree_decomposition(WeightedGraph([], []))
    assert len(td0) == 1 and td0.bags[td0.root] == frozenset()
    td1 = compute_tree_decomposition(WeightedGraph([3], []))
    assert td1.width == 0


def test_td_deterministic():
    g = grid_graph(3, 4)
    a = compute_tree_decomposition(g)
    b = compute_tree_decomposition(g)
    assert a.bags == b.bags and a.tree_edges == b.tree_edges and a.root == b.root


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(max_n=9))
def test_td_random_graphs_valid(g):
    td = compute_tree_decomposition(g)
    validate_td(g, td, "tw test")


@settings(max_examples=15, deadline=None)
@given(weighted_graphs(max_n=8, max_extra_edges=10))
def test_td_exact_never_wider_than_heuristic(g):
    wide = _td_with_exact_max(g, 0).width
    tight = _td_with_exact_max(g, 8).width
    assert tight <= wide


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(max_n=30, max_extra_edges=30, connected=False), st.sampled_from([0, 8, 20]))
def test_td_equals_the_second_elimination_reference(g, exact_max):
    """The bags min-fill keeps as it eliminates, or the exhaustive order's
    one elimination, give the decomposition that eliminating the order a
    second time gave: the same bags, tree edges and root, with n above
    exact_max and at or below it."""
    td = _td_with_exact_max(g, exact_max)
    ref = oracles.reference_tree_decomposition(g, exact_max=exact_max)
    assert td.bags == ref.bags and td.tree_edges == ref.tree_edges and td.root == ref.root


def test_exact_search_beats_min_fill():
    """A graph where the exhaustive search improves on the min-fill order:
    width 5 against min-fill's 6, which networkx's min-fill heuristic also
    gives."""
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_fill_in

    from wdcolor.twcolor import _min_fill_order, _simple_adjacency

    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 8), (1, 3), (1, 5), (1, 8), (1, 9), (2, 4), (2, 5), (2, 6),
        (2, 8), (2, 9), (3, 4), (3, 7), (4, 5), (4, 7), (4, 9), (5, 6), (5, 9), (6, 7), (7, 8), (8, 9),
    ]
    g = WeightedGraph(range(10), [(u, v, 1) for u, v in edges])
    td = compute_tree_decomposition(g)
    assert td.width == 5
    validate_td(g, td, "tw test")
    assert max(len(ns) for ns in _min_fill_order(_simple_adjacency(g)).values()) == 6
    assert _td_with_exact_max(g, 0).width == 6
    assert treewidth_min_fill_in(nx.Graph(edges))[0] == 6


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(max_n=30, max_extra_edges=30, connected=False))
def test_elimination_tree_is_the_one_the_constructor_builds(g):
    """The tree compute_tree_decomposition grows from the min-fill order
    (`RootedTreeDecomposition._grown`, in reverse elimination order) has
    every field the general constructor gives the same bags, parent edges
    and root: bags and children in the same order, and the parent map
    equal (the constructor lists it in search order, the pass in
    elimination order)."""
    from wdcolor.twcolor import _min_fill_order, _simple_adjacency

    td = _td_with_exact_max(g, 0)
    ref = RootedTreeDecomposition(td.bags, [(p, c) for c, p in td.parent.items() if p is not None], td.root)
    assert list(td.bags.items()) == list(ref.bags.items())
    assert list(td.children.items()) == list(ref.children.items())
    assert td.parent == ref.parent
    assert (td.nodes, td.tree_edges, td.root) == (ref.nodes, ref.tree_edges, ref.root)
    old = oracles.reference_order_to_td(g, list(_min_fill_order(_simple_adjacency(g))))
    assert (td.bags, td.parent, td.children) == (old.bags, old.parent, old.children)
    assert (td.nodes, td.tree_edges, td.root) == (old.nodes, old.tree_edges, old.root)


@pytest.mark.parametrize("fault", ["backward parent", "second root"])
def test_elimination_tree_rejects_parents_that_make_no_tree(monkeypatch, fault):
    """The one property the elimination tree relies on is checked, by the
    tree's builder (`RootedTreeDecomposition._grown`): each parent is
    eliminated after its child, and exactly one node is a root."""
    import wdcolor.twcolor as twcolor

    parents = twcolor._elimination_parents

    def broken(elim, pos):
        parent = parents(elim, pos)
        order = list(elim)
        if fault == "backward parent":
            parent[order[2]] = order[1]
        else:
            parent[order[1]] = None
        return parent

    monkeypatch.setattr(twcolor, "_elimination_parents", broken)
    monkeypatch.setattr(twcolor, "EXACT_MAX", 0)
    message = "parent .* is not made before it" if fault == "backward parent" else "has 2 roots"
    with pytest.raises(ContractViolation, match="^grown tree.*" + message):
        compute_tree_decomposition(grid_graph(4, 4))


@pytest.mark.parametrize("spec", [("grid", 0, 2, 0, 12), ("ktree", 300, 3, 1, 0), ("path", 40, 2, 0, 0)])
def test_td_above_exact_max_eliminates_nothing_twice(monkeypatch, spec):
    """A count guard: above exact_max the decomposition comes from the
    min-fill pass alone, with no call to `_eliminate_in_place`."""
    import wdcolor.twcolor as twcolor
    from wdcolor.generators import GeneratorSpec, generate

    family, n, k, seed, side = spec
    g = generate(GeneratorSpec(family, n=n, k=k, seed=seed, rows=side, cols=side)).graph
    assert len(g) > 20
    calls = []
    eliminate = twcolor._eliminate_in_place
    monkeypatch.setattr(twcolor, "_eliminate_in_place", lambda work, v: calls.append(v) or eliminate(work, v))
    td = compute_tree_decomposition(g)
    assert calls == []
    ref = oracles.reference_tree_decomposition(g)
    assert td.bags == ref.bags and td.tree_edges == ref.tree_edges and td.root == ref.root


# -- bound calculators -------------------------------------------------------


def test_cover_colorer_bound_frozen():
    assert cover_piece_bound(2, 1) == 2004508
    assert cover_piece_bound(1, 1) == 232
    assert cover_piece_bound(2, 1) == max(vertex_cover_bound(2, 4, 1), 10)


def test_tree_extension_bound_frozen():
    n = cover_piece_bound(2, 1)
    assert tree_extension_bound(0, 2, 1, n) == 202456278
    assert tree_extension_bound(1, 2, 1, n) == 2267510362268
    assert tree_extension_bound(2, 2, 1, n) == 25396116057450268
    assert treewidth_color_bound(1, 1) == 25396116057450268


def test_tree_extension_bound_level_zero_terms():
    n = Fraction(7)
    expect = n + centered_bound(3, 3, 1) + patch_bound(3, 3, 1, n) + 9 + 3
    assert tree_extension_bound(0, 3, 1, n) == expect


def test_tree_extension_bound_recurrence():
    n = Fraction(5)
    prev = tree_extension_bound(1, 2, 1, n)
    step = con_color_bound(1, patch_bound(2, 3, 1, prev), 2, 0)
    assert tree_extension_bound(2, 2, 1, n) == step


@settings(max_examples=200, deadline=None)
@given(data=st.data(), theta=st.integers(min_value=0, max_value=24), ell=rationals(max_num=40, max_den=9))
def test_tree_extension_bound_closed_form_equals_the_loop(data, theta, ell):
    eta = data.draw(st.integers(min_value=0, max_value=theta))
    n = data.draw(bound_inputs())
    got = tree_extension_bound(eta, theta, ell, n)
    want = oracles.reference_tree_extension_bound(eta, theta, ell, n)
    assert got == want and type(got) is type(want)


def test_tree_extension_bound_rejects_bad_arguments():
    with pytest.raises(GraphError):
        tree_extension_bound(3, 2, 1, 5)
    with pytest.raises(GraphError):
        tree_extension_bound(1, 2, 0, 5)


# -- construction validation ---------------------------------------------------


def test_construction_accepts_path_td():
    g = unit_path(6)
    con = AdhesionConstruction(path_td(6), 2, 2, theta2())
    con.validate(g)


def test_construction_rejects_wide_root_bag():
    g = unit_path(4)
    td = RootedTreeDecomposition({0: {0, 1, 2}, 1: {2, 3}}, [(0, 1)], 0)
    with pytest.raises(ContractViolation, match="root bag"):
        AdhesionConstruction(td, 1, 2, theta2()).validate(g)


def test_construction_rejects_empty_root_bag_at_positive_eta():
    g = unit_path(3)
    td = RootedTreeDecomposition({9: set(), 0: {0, 1}, 1: {1, 2}}, [(9, 0), (0, 1)], 9)
    with pytest.raises(ContractViolation, match="nonempty"):
        AdhesionConstruction(td, 1, 2, theta2()).validate(g)
    AdhesionConstruction(td, 0, 2, theta2()).validate(g)


def test_construction_rejects_big_adhesion_with_children():
    g = WeightedGraph(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    bags = {0: {0, 1}, 1: {0, 1, 2}, 2: {2, 3}}
    td = RootedTreeDecomposition(bags, [(0, 1), (1, 2)], 0)
    # adhesion of (0,1) is {0,1}, above eta=1, but node 1 has a child
    with pytest.raises(ContractViolation, match="has children"):
        AdhesionConstruction(td, 1, 2, theta2()).validate(g)


def test_construction_rejects_fat_leaf():
    # the leaf shares {0, 1} (above eta=1) and adds 5 > theta**2 = 4 vertices
    g = WeightedGraph(range(7), [(0, 1, 1)] + [(i, i + 1, 1) for i in range(1, 6)])
    bags = {0: {0, 1}, 1: set(range(7))}
    td = RootedTreeDecomposition(bags, [(0, 1)], 0)
    con = AdhesionConstruction(td, 1, 2, theta2())
    with pytest.raises(ContractViolation, match="adds 5 > 4 new vertices"):
        con.validate(g)
    AdhesionConstruction(td, 1, 3, cover_piece_bound(3, 1)).validate(g)


def test_construction_rejects_adhesion_above_theta():
    g = WeightedGraph(range(4), [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    td = RootedTreeDecomposition({0: {0, 1, 2}, 1: {0, 1, 2, 3}}, [(0, 1)], 0)
    with pytest.raises(ContractViolation, match="theta"):
        AdhesionConstruction(td, 2, 2, theta2()).validate(g)


# -- coloring an adhesion construction ------------------------------------------


def test_fully_precolored_keeps_colors():
    g = unit_path(5)
    con = AdhesionConstruction(path_td(5), 1, 2, theta2())
    pre = Coloring({v: 1 + (v % 2) for v in range(5)}, 2)
    res = color_adhesion_construction(g, 1, con, z=range(5), precoloring=pre, deep_verify=True)
    assert res.report.ok
    assert all(res.coloring.color(v) == pre.color(v) for v in range(5))


def test_flat_two_star_measured():
    # two stars joined by an empty adhesion; no guard levels needed
    g = WeightedGraph(range(6), [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
    td = RootedTreeDecomposition(
        {0: {0, 1}, 1: {1, 2}, 2: {3, 4}, 3: {4, 5}}, [(0, 1), (0, 2), (2, 3)], 0
    )
    con = AdhesionConstruction(td, 0, 2, theta2())
    res = color_adhesion_construction(g, 1, con, deep_verify=True)
    assert res.bound == 202456278
    assert res.report.max_weak_diameter_hops == 2


def _record_whats(monkeypatch):
    """Labels of every merge and check the adhesion recursion runs, as
    the text its messages would show."""
    import wdcolor.twcolor as twcolor

    whats = []
    patch, check = twcolor.patch_colorings, twcolor.check_weak_diameter

    def recorded_patch(*args, **kwargs):
        whats.append(str(kwargs["what"]))
        return patch(*args, **kwargs)

    def recorded_check(*args, **kwargs):
        whats.append(str(kwargs["what"]))
        return check(*args, **kwargs)

    monkeypatch.setattr(twcolor, "patch_colorings", recorded_patch)
    monkeypatch.setattr(twcolor, "check_weak_diameter", recorded_check)
    return whats


def test_flat_root_piece_patches_the_precoloring(monkeypatch):
    # eta = 0 with a precolored vertex: _color_flat paints the root star
    # piece around it and patches the precolored ball back in
    whats = _record_whats(monkeypatch)
    g = WeightedGraph(range(6), [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
    td = RootedTreeDecomposition(
        {0: {0, 1}, 1: {1, 2}, 2: {3, 4}, 3: {4, 5}}, [(0, 1), (0, 2), (2, 3)], 0
    )
    con = AdhesionConstruction(td, 0, 2, theta2())
    res = color_adhesion_construction(g, 1, con, z=[0], precoloring=Coloring({0: 1}, 2))
    assert "adhesion coloring: root piece patch" in whats
    assert res.report.ok
    assert res.coloring.color(0) == 1


def test_far_part_below_an_oversized_adhesion(monkeypatch):
    # the leaf {6, 7, 8} hangs on the two-vertex adhesion {6, 7} > eta = 1:
    # _color_rec finishes that far part as one piece of <= theta + theta**2
    whats = _record_whats(monkeypatch)
    g = WeightedGraph(range(9), [(i, i + 1, 1) for i in range(8)] + [(6, 8, 1)])
    bags = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5, 6, 7}, {6, 7, 8}]
    td = RootedTreeDecomposition(dict(enumerate(bags)), [(t, t + 1) for t in range(5)], 0)
    con = AdhesionConstruction(td, 1, 3, cover_piece_bound(3, 1))
    res = color_adhesion_construction(g, 1, con, z=[0], precoloring=Coloring({0: 1}, 2))
    assert "adhesion coloring: oversized part" in whats
    assert res.report.ok
    assert res.coloring.color(0) == 1


def test_path20_full_recursion_frozen():
    g = unit_path(20)
    con = AdhesionConstruction(path_td(20), 2, 2, theta2())
    res = color_adhesion_construction(g, 1, con, deep_verify=True)
    assert res.bound == 25396116057450268
    assert res.report.max_weak_diameter_hops == 6
    assert [res.coloring.color(v) for v in range(20)] == [
        2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2, 1,
    ]


def test_precoloring_respected_through_recursion():
    rng = random.Random(40)
    for _ in range(12):
        n = rng.randint(3, 9)
        ell = Fraction(rng.choice([1, 2]), rng.choice([1, 2]))
        g = random_connected_graph(rng, n, rng.randint(0, 3), max_weight=ell)
        td = compute_tree_decomposition(g)
        theta = td.width + 1
        con = AdhesionConstruction(td, theta, theta, cover_piece_bound(theta, ell))
        ball = sorted(g.distances_from(sorted(td.bags[td.root]), radius=3 * ell))
        z = [v for v in ball if rng.random() < 0.5]
        pre = Coloring({v: rng.randint(1, 2) for v in z}, 2)
        res = color_adhesion_construction(g, ell, con, z=z, precoloring=pre, deep_verify=True)
        assert res.report.ok
        assert all(res.coloring.color(v) == pre.color(v) for v in z)


def test_precolored_set_must_sit_in_root_ball():
    g = unit_path(20)
    con = AdhesionConstruction(path_td(20), 2, 2, theta2())
    with pytest.raises(ContractViolation, match="3\\*ell"):
        color_adhesion_construction(g, 1, con, z=[19])


def test_heavy_edge_refused():
    g = WeightedGraph(range(2), [(0, 1, 2)])
    td = RootedTreeDecomposition({0: {0, 1}}, [], 0)
    con = AdhesionConstruction(td, 1, 2, theta2())
    with pytest.raises(GraphError, match="exceeds ell"):
        color_adhesion_construction(g, 1, con)


def test_precoloring_domain_must_match():
    g = unit_path(4)
    con = AdhesionConstruction(path_td(4), 1, 2, theta2())
    with pytest.raises(GraphError, match="domain"):
        color_adhesion_construction(g, 1, con, z=[0], precoloring=Coloring({1: 1}, 2))


def test_lying_bag_colorer_is_caught():
    # claims hop bound 1 but colors a long path with one color
    g = unit_path(6)
    td = RootedTreeDecomposition({0: range(6)}, [], 0)
    con = AdhesionConstruction(td, 0, 6, Fraction(1))
    with pytest.raises(ContractViolation):
        color_adhesion_construction(g, 1, con)


# -- bounded-treewidth two-coloring ----------------------------------------------


def test_single_bag_direct():
    g = WeightedGraph(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    res = color_bounded_treewidth(g, 1, deep_verify=True)
    assert res.report.ok
    assert res.coloring.num_colors == 2
    assert res.coloring.domain == g.vertex_set()


def test_ladder_series_parallel():
    g = grid_graph(2, 8)
    res = color_bounded_treewidth(g, 1, deep_verify=True)
    assert res.width == 2
    assert res.bound == treewidth_color_bound(2, 1)
    assert res.report.ok


def test_two_colors_exactly():
    res = color_bounded_treewidth(unit_path(30), 1)
    assert res.coloring.num_colors == 2
    assert set(res.coloring.assignment.values()) <= {1, 2}


def test_disconnected_with_isolated_vertices():
    g = WeightedGraph(
        range(9),
        [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 3)), (3, 4, 1), (4, 5, 1), (3, 5, 1)],
    )
    res = color_bounded_treewidth(g, 1, deep_verify=True)
    assert res.report.ok
    assert res.coloring.domain == g.vertex_set()


def test_empty_graph():
    res = color_bounded_treewidth(WeightedGraph([], []), 1)
    assert res.coloring.domain == frozenset()
    assert res.report.ok


def test_scale_covariance():
    base = [(i, i + 1, Fraction(j % 3 + 1, 4)) for j, i in enumerate(range(39))]
    ref = None
    for ell in (Fraction(1), Fraction(2), Fraction(4), Fraction(8)):
        g = WeightedGraph(range(40), [(u, v, w * ell) for (u, v, w) in base])
        res = color_bounded_treewidth(g, ell, deep_verify=True)
        cur = (
            tuple(sorted(res.coloring.assignment.items())),
            res.report.max_weak_diameter_hops,
        )
        if ref is None:
            ref = cur
        assert cur == ref


def test_bound_scale_invariant():
    assert treewidth_color_bound(2, 1) == treewidth_color_bound(2, Fraction(7, 3))


def test_user_supplied_td():
    g = unit_path(12)
    td = RootedTreeDecomposition.from_json_dict(path_td(12).to_json_dict())
    res = color_bounded_treewidth(g, 1, td=td, deep_verify=True)
    assert res.report.ok
    assert res.td is td


def test_user_supplied_td_must_be_valid():
    g = unit_path(4)
    td = RootedTreeDecomposition({0: {0, 1}, 1: {2, 3}}, [(0, 1)], 0)  # edge (1,2) uncovered
    with pytest.raises(GraphError, match=r"^invalid decomposition: edge \(1,2\) is in no bag$"):
        color_bounded_treewidth(g, 1, td=td)


def test_treewidth_coloring_deterministic():
    g1 = grid_graph(3, 5)
    g2 = grid_graph(3, 5)
    a = color_bounded_treewidth(g1, 1)
    b = color_bounded_treewidth(g2, 1)
    assert a.coloring.assignment == b.coloring.assignment


def test_heavy_edge_refused_up_front():
    with pytest.raises(GraphError, match="exceeds ell"):
        color_bounded_treewidth(WeightedGraph(range(2), [(0, 1, 3)]), 2)


@settings(max_examples=20, deadline=None)
@given(weighted_graphs(max_n=9, max_extra_edges=6))
def test_random_graphs_color_and_verify(g):
    ell = g.max_edge_weight() or Fraction(1)
    res = color_bounded_treewidth(g, ell, deep_verify=True)
    assert res.report.ok
    assert res.coloring.domain == g.vertex_set()
    assert res.coloring.num_colors == 2


def test_independent_checker_small_graphs():
    """Re-verify colorings against hop components computed from scratch."""
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randint(2, 12)
        ell = Fraction(rng.choice([1, 2]), rng.choice([1, 2]))
        g = random_connected_graph(rng, n, rng.randint(0, 4), max_weight=ell)
        res = color_bounded_treewidth(g, ell)
        power_edges = oracles.brute_power_edges(g, ell)
        for color in (1, 2):
            keep = {v for v, c in res.coloring.assignment.items() if c == color}
            for comp in oracles.brute_hop_components(g.vertices, power_edges, keep=keep):
                d = oracles.brute_hop_diameter(g.vertices, power_edges, comp)
                assert d <= res.bound


def test_band_graphs_all_widths():
    for k in (1, 2, 3):
        g = band_graph(40, k)
        res = color_bounded_treewidth(g, 1)
        assert res.width == k
        assert res.bound == treewidth_color_bound(k, 1)
        assert res.report.ok


# -- each metric object is built once -----------------------------------------------


def test_unit_path_builds_one_power_graph(monkeypatch):
    """Every internal check on a path is vacuous and decided from the host
    vertex count; only the final exact check builds a power graph."""
    import wdcolor.partition as partition_mod

    built = []
    original = partition_mod.power_graph

    def counting(g, ell):
        built.append(len(g))
        return original(g, ell)

    monkeypatch.setattr(partition_mod, "power_graph", counting)
    res = color_bounded_treewidth(unit_path(200), 1)
    assert res.report.ok and res.report.per_component
    assert built == [200]


def _min_fill_order_by_copying(adj):
    """The copying min-fill: rescan every vertex for the least (fill,
    degree, id), then rebuild the graph without it."""
    work = {v: set(ns) for v, ns in adj.items()}
    order = []
    while work:
        best = None
        for v in sorted(work):
            ns = sorted(work[v])
            fill = sum(1 for i, a in enumerate(ns) for b in ns[i + 1:] if b not in work[a])
            if best is None or (fill, len(ns), v) < best:
                best = (fill, len(ns), v)
        v = best[2]
        order.append(v)
        out = {u: set(ns) for u, ns in work.items() if u != v}
        for a in work[v]:
            out[a].discard(v)
            out[a] |= work[v] - {a}
        work = out
    return order


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.sampled_from([0.03, 0.1, 0.2, 0.35, 0.5]),
    st.randoms(use_true_random=False),
)
def test_min_fill_order_matches_the_copying_reference(n, density, rnd):
    from wdcolor.twcolor import _min_fill_order

    adj = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < density:
                adj[u].add(v)
                adj[v].add(u)
    elim = _min_fill_order(adj)
    order = list(elim)
    assert order == _min_fill_order_by_copying(adj)
    # each neighbourhood kept at elimination is the one met along the order, by copying
    work = {v: set(ns) for v, ns in adj.items()}
    for v in order:
        assert elim[v] == work[v]
        for a in work[v]:
            work[a].discard(v)
            work[a] |= work[v] - {a}
        del work[v]


def _instance_adjacency(family, n=0, k=2, seed=0, side=0):
    from wdcolor.generators import GeneratorSpec, generate
    from wdcolor.twcolor import _simple_adjacency

    spec = GeneratorSpec(family, n=n, k=k, seed=seed, rows=side, cols=side)
    return _simple_adjacency(generate(spec).graph)


@pytest.mark.parametrize(
    "family, n, k, seed, side",
    [
        ("ktree", 300, 2, 1, 0),
        ("ktree", 300, 2, 2, 0),
        ("ktree", 300, 3, 1, 0),
        ("ktree", 300, 3, 2, 0),
        ("random-series-parallel", 300, 2, 1, 0),
        ("random-series-parallel", 300, 2, 2, 0),
        ("grid", 0, 2, 0, 12),
        ("grid", 0, 2, 0, 20),
    ],
)
def test_min_fill_order_matches_the_recounting_reference(family, n, k, seed, side):
    """Kept fill counts give the order of recounting each stale vertex, on
    inputs large enough to grow hubs (k-trees) and to add fill (grids)."""
    from wdcolor.twcolor import _min_fill_order

    adj = _instance_adjacency(family, n=n, k=k, seed=seed, side=side)
    assert list(_min_fill_order(adj)) == oracles.reference_min_fill_order(adj)


def _min_fill_pair_tests(monkeypatch, n, seed):
    import wdcolor.twcolor as twcolor

    count = 0
    common = twcolor._common

    def counted(x, y):
        nonlocal count
        count += min(len(x), len(y))
        return common(x, y)

    monkeypatch.setattr(twcolor, "_common", counted)
    twcolor._min_fill_order(_instance_adjacency("ktree", n=n, k=3, seed=seed))
    return count


@pytest.mark.parametrize("seed", [1, 2])
def test_min_fill_work_grows_linearly_on_3_trees(monkeypatch, seed):
    """Four times the vertices may cost at most five times the adjacency
    tests.  Recounting each stale vertex's fill grows them 17- to 22-fold,
    because random 3-trees grow hubs."""
    small = _min_fill_pair_tests(monkeypatch, 250, seed)
    large = _min_fill_pair_tests(monkeypatch, 1000, seed)
    assert 0 < large <= 5 * small, (small, large)


# -- the recursion against its reference copy ------------------------------------


def _generated(family, n, seed, k=2, weighted=False):
    from wdcolor.generators import GeneratorSpec, generate

    law = dict(weight_lo=Fraction(1, 4), weight_hi=1, weight_den=4) if weighted else {}
    return generate(GeneratorSpec(family, n=n, k=k, seed=seed, **law))


@st.composite
def _reference_instances(draw):
    family = draw(st.sampled_from(["path", "ktree", "random-series-parallel"]))
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=max(2, k + 1), max_value=60))
    inst = _generated(family, n, draw(st.integers(0, 10**6)), k=k, weighted=draw(st.booleans()))
    td = inst.td if inst.td is not None else compute_tree_decomposition(inst.graph)
    return inst.graph, td


@settings(max_examples=30, deadline=None)
@given(_reference_instances(), st.randoms(use_true_random=False))
def test_recursion_matches_the_copying_reference(inst, rnd):
    g, td = inst
    res = color_bounded_treewidth(g, 1)
    ref, ref_bound = oracles.reference_color_bounded_treewidth(g, 1)
    assert res.coloring == ref and res.bound == ref_bound

    theta = td.width + 1
    con = AdhesionConstruction(td, theta, theta, cover_piece_bound(theta, 1))
    from wdcolor.graph import neighborhood

    ball = sorted(neighborhood(g, td.bags[td.root], 3))
    z = [v for v in ball if rnd.random() < 0.5]
    pre = Coloring({v: rnd.choice((1, 2)) for v in z}, 2)
    res = color_adhesion_construction(g, 1, con, z=z, precoloring=pre, exact_check=False)
    ref, ref_bound = oracles.reference_color_adhesion_construction(g, 1, con, z=z, precoloring=pre)
    assert res.coloring == ref and res.bound == ref_bound


def _split_instance(tail):
    """A unit path 0..6 whose end 6 forks into two chains of `tail` more
    vertices each, with a two-column decomposition: the chains share bags
    but no edges, so a far part two levels down is disconnected."""
    left = [7 + 2 * i for i in range(tail)]
    right = [8 + 2 * i for i in range(tail)]
    edges = [(i, i + 1, 1) for i in range(6)] + [(6, left[0], 1), (6, right[0], 1)]
    edges += [(a, b, 1) for chain in (left, right) for a, b in zip(chain, chain[1:])]
    bags = {i: {i, i + 1} for i in range(6)}
    bags[6] = {6, left[0], right[0]}
    for i in range(tail - 1):
        bags[7 + i] = {left[i], right[i], left[i + 1], right[i + 1]}
    tree = [(t, t + 1) for t in range(6 + tail - 1)]
    return WeightedGraph(range(7 + 2 * tail), edges), RootedTreeDecomposition(bags, tree, 0)


@pytest.mark.parametrize("tail", [9, 14])
def test_disconnected_far_part_matches_the_copying_reference(monkeypatch, tail):
    whats = _record_whats(monkeypatch)
    g, td = _split_instance(tail)
    con = AdhesionConstruction(td, 4, 4, cover_piece_bound(4, 1))
    res = color_adhesion_construction(g, 1, con, deep_verify=True)
    assert any(": far part: component" in w for w in whats)
    ref, ref_bound = oracles.reference_color_adhesion_construction(g, 1, con)
    assert res.coloring == ref and res.bound == ref_bound
    res = color_bounded_treewidth(g, 1, td=td)
    ref, ref_bound = oracles.reference_color_bounded_treewidth(g, 1, td=td)
    assert res.coloring == ref and res.bound == ref_bound


# -- cost per level ----------------------------------------------------------------


def _materialised_on_unit_path(monkeypatch, n):
    """What coloring a unit path of n vertices builds or scans: vertices of
    graphs built, nodes of decompositions built, vertices scanned for
    components, vertices listed from far-part views, and the traced heap
    peak."""
    import gc
    import tracemalloc

    from wdcolor import treedec

    counts = {"graph vertices": 0, "tree nodes": 0, "component scans": 0, "view listings": 0}
    fill, init = WeightedGraph._fill, RootedTreeDecomposition.__init__
    components, listing = WeightedGraph.connected_components, treedec._PartVertices.__iter__

    def counted_fill(self, vset, edges, scale):
        counts["graph vertices"] += len(vset)
        return fill(self, vset, edges, scale)

    def counted_init(self, bags, edges, root):
        counts["tree nodes"] += len(bags)
        return init(self, bags, edges, root)

    def counted_components(self):
        counts["component scans"] += len(self)
        return components(self)

    def counted_listing(self):
        for v in listing(self):
            counts["view listings"] += 1
            yield v

    g = unit_path(n)
    # the counters are undone on return, so that a later measurement wraps
    # the originals and counts into its own dict only
    with monkeypatch.context() as patched:
        patched.setattr(WeightedGraph, "_fill", counted_fill)
        patched.setattr(RootedTreeDecomposition, "__init__", counted_init)
        patched.setattr(WeightedGraph, "connected_components", counted_components)
        patched.setattr(treedec._PartVertices, "__iter__", counted_listing)
        # a full collection empties the interpreter's free lists, so each
        # size allocates from the same state, whatever ran before it
        gc.collect()
        tracemalloc.start()
        try:
            res = color_bounded_treewidth(g, 1)
            counts["heap peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert res.report.ok
    return counts


def test_path_coloring_work_grows_linearly(monkeypatch):
    """Four times the vertices may cost at most five times as much of
    everything the recursion materialises or scans.  A recursion that
    copies each far part grows these about fifteen-fold.  One path is
    colored first, unmeasured, so that both sizes are measured warm (the
    first coloring in a process fills caches that later ones find full),
    and each size starts from a full collection, which empties the free
    lists that earlier code left behind and that would otherwise serve
    part of the smaller size's heap untraced."""
    assert color_bounded_treewidth(unit_path(200), 1).report.ok
    small = _materialised_on_unit_path(monkeypatch, 200)
    large = _materialised_on_unit_path(monkeypatch, 800)
    for key, count in large.items():
        assert count <= 5 * max(small[key], 1), (key, small[key], count)


def test_lift_searches_once_per_adhesion_vertex(monkeypatch):
    """On the unit path n=480 every frontier edge has a hierarchy, and each
    lift runs one search per adhesion vertex of its frontier, no more: the
    distances to the adhesion are the least of the single-source ones."""
    import sys

    import wdcolor.twcolor as twcolor

    searches = []
    scaled_distances = WeightedGraph._scaled_distances

    def counted(self, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "lift_condensation_coloring":
            searches.append(1)
        return scaled_distances(self, *args, **kwargs)

    lifts = []
    lift = twcolor.lift_condensation_coloring

    def recorded(cond, *args, **kwargs):
        before = len(searches)
        res = lift(cond, *args, **kwargs)
        lifts.append((cond, len(searches) - before))
        return res

    monkeypatch.setattr(WeightedGraph, "_scaled_distances", counted)
    monkeypatch.setattr(twcolor, "lift_condensation_coloring", recorded)
    assert color_bounded_treewidth(unit_path(480), 1).report.ok
    assert len(lifts) > 100
    for cond, n_searches in lifts:
        assert set(cond.hierarchies) == set(cond.u_e)
        assert n_searches == sum(len(cond.td.adhesion_of(e)) for e in cond.u_e)


def test_a_split_reads_each_bag_of_its_decomposition_once(monkeypatch):
    """A level that splits into components files each node of its
    decomposition under the components its bag meets in one pass: it reads
    each bag once, however many components there are."""
    from collections.abc import Mapping

    import wdcolor.twcolor as twcolor
    from wdcolor.generators import GeneratorSpec, generate

    class CountingBags(Mapping):
        def __init__(self, bags):
            self.bags, self.reads = bags, 0

        def __getitem__(self, t):
            self.reads += 1
            return self.bags[t]

        def __iter__(self):
            return iter(self.bags)

        def __len__(self):
            return len(self.bags)

    scans = []
    split = twcolor.component_decompositions

    def counted(td, comps, what):
        bags = td.bags
        td.bags = counting = CountingBags(bags)
        try:
            out = list(split(td, comps, what))
        finally:
            td.bags = bags
        scans.append((counting.reads, len(td), len(comps)))
        return iter(out)

    monkeypatch.setattr(twcolor, "component_decompositions", counted)
    g = generate(GeneratorSpec(family="random-series-parallel", n=80, seed=4)).graph
    assert color_bounded_treewidth(g, 1).report.ok
    assert max(n for (_, _, n) in scans) >= 4
    assert [reads for (reads, _, _) in scans] == [size for (_, size, _) in scans]


def test_only_a_disconnected_input_or_an_empty_bag_cuts_the_top_tree(monkeypatch):
    """A count guard: color_bounded_treewidth colors a connected input on
    its own tree, and cuts the tree into its components' decompositions
    only for a disconnected input or a supplied tree with an empty bag.
    The path's tree with an empty leaf bag added colors it as its own tree
    does."""
    import wdcolor.twcolor as twcolor

    cuts = []
    split = twcolor.component_decompositions

    def counted(td, comps, what):
        if what == "treewidth coloring":
            cuts.append(len(comps))
        return split(td, comps, what)

    monkeypatch.setattr(twcolor, "component_decompositions", counted)
    path, td = unit_path(40), path_td(40)
    plain = color_bounded_treewidth(path, 1, td=td)
    assert cuts == []
    assert color_bounded_treewidth(path, 1).report.ok and cuts == []
    bags = dict(td.bags)
    bags[100] = ()
    padded = RootedTreeDecomposition(bags, td.tree_edges + ((38, 100),), td.root)
    assert color_bounded_treewidth(path, 1, td=padded).coloring == plain.coloring
    assert cuts == [1]
    two = WeightedGraph(range(40), [(i, i + 1, 1) for i in range(39) if i != 19])
    assert color_bounded_treewidth(two, 1).report.ok
    assert cuts == [1, 2]


def test_recursion_limit_is_left_alone():
    import sys

    before = sys.getrecursionlimit()
    color_bounded_treewidth(unit_path(40), 1)
    con = AdhesionConstruction(path_td(40), 2, 2, theta2())
    color_adhesion_construction(unit_path(40), 1, con)
    assert sys.getrecursionlimit() == before


def test_long_path_colors_at_the_default_recursion_limit():
    # about 1,250 levels of far parts, more than the default limit of calls
    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = color_bounded_treewidth(unit_path(2500), 1)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)
    assert res.report.ok
    assert res.coloring.domain == frozenset(range(2500))


# -- faults the per-level checks must catch ------------------------------------------


def _faulty_lift(monkeypatch, fault):
    """Let `fault(cond, what, assignment)` edit the lifted colors in place;
    `what` is the lift's label as text."""
    import wdcolor.twcolor as twcolor

    lift = twcolor.lift_condensation_coloring

    def faulty(cond, c0, **kwargs):
        res = lift(cond, c0, **kwargs)
        assignment = dict(res.coloring.assignment)
        fault(cond, str(kwargs["what"]), assignment)
        return ColorResult(Coloring(assignment, 2), res.bound, res.report)

    monkeypatch.setattr(twcolor, "lift_condensation_coloring", faulty)


def test_fault_far_part_size_breaks_the_recursion_measure(monkeypatch):
    from wdcolor.treedec import SubtreeDecomposition

    monkeypatch.setattr(SubtreeDecomposition, "__len__", lambda self: 10**9)
    with pytest.raises(ContractViolation, match=r": far part: recursion measure did not decrease"):
        color_bounded_treewidth(unit_path(40), 1)


def test_fault_far_part_root_bag_fails_its_validation(monkeypatch):
    from wdcolor.treedec import SubtreeDecomposition

    init = SubtreeDecomposition.__init__

    def fat_root(self, index, c, fresh, adh):
        init(self, index, c, fresh, adh | {0, 1, 2})

    monkeypatch.setattr(SubtreeDecomposition, "__init__", fat_root)
    with pytest.raises(ContractViolation, match=r"^root bag has \d+ > theta=2 vertices$"):
        color_bounded_treewidth(unit_path(40), 1)


def test_fault_region_vertex_dropped_by_the_lift(monkeypatch):
    def drop_root(cond, what, assignment):
        if what == "treewidth coloring: component: lift":
            del assignment[min(cond.td.bags[cond.td.root])]

    _faulty_lift(monkeypatch, drop_root)
    with pytest.raises(
        ContractViolation, match=r"^treewidth coloring: component: assembled coloring misses vertices$"
    ):
        color_bounded_treewidth(unit_path(40), 1)


def test_fault_far_part_vertex_dropped_by_the_lift(monkeypatch):
    def drop_part(cond, what, assignment):
        if what == "treewidth coloring: component: lift":
            e = cond.u_e[0]
            inside = set(cond.td.subtree_vertices(e)) - cond.td.adhesion_of(e)
            del assignment[min(inside & assignment.keys())]

    _faulty_lift(monkeypatch, drop_part)
    with pytest.raises(ContractViolation, match=r"component: lift left part vertices uncolored"):
        color_bounded_treewidth(unit_path(40), 1)


def test_fault_far_part_recolors_its_precolored_root(monkeypatch):
    def flip_root(cond, what, assignment):
        if what.endswith(": far part: lift"):
            v = min(cond.td.bags[cond.td.root])
            assignment[v] = 3 - assignment[v]

    _faulty_lift(monkeypatch, flip_root)
    with pytest.raises(ContractViolation, match=r": far part: precolored vertex \d+ was recolored"):
        color_bounded_treewidth(unit_path(40), 1)


def test_fault_two_far_parts_deep_renders_its_full_label(monkeypatch):
    """Far-part labels are rendered only when a message is formatted; the
    message two far parts down still spells out the whole label."""
    def flip_root(cond, what, assignment):
        if what == "treewidth coloring: component: far part: far part: lift":
            v = min(cond.td.bags[cond.td.root])
            assignment[v] = 3 - assignment[v]

    _faulty_lift(monkeypatch, flip_root)
    with pytest.raises(ContractViolation) as err:
        color_bounded_treewidth(unit_path(40), 1)
    assert str(err.value) == (
        "treewidth coloring: component: far part: far part: precolored vertex 9 was recolored"
    )


def test_fault_oversized_part_disagrees_with_its_region(monkeypatch):
    from wdcolor import treedec

    filled = Coloring.filled

    def flip_adhesion(self, vertices):
        out = filled(self, vertices)
        if isinstance(vertices, treedec._PartVertices):
            v = min(vertices.adhesion)
            out.assignment[v] = 3 - out.assignment[v]
        return out

    monkeypatch.setattr(Coloring, "filled", flip_adhesion)
    g = WeightedGraph(range(9), [(i, i + 1, 1) for i in range(8)] + [(6, 8, 1)])
    bags = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5, 6, 7}, {6, 7, 8}]
    td = RootedTreeDecomposition(dict(enumerate(bags)), [(t, t + 1) for t in range(5)], 0)
    con = AdhesionConstruction(td, 1, 3, cover_piece_bound(3, 1))
    with pytest.raises(ContractViolation, match=r"^adhesion coloring: colorings disagree on vertex 6$"):
        color_adhesion_construction(g, 1, con, z=[0], precoloring=Coloring({0: 1}, 2))


def test_fault_component_leaves_a_vertex_unwritten(monkeypatch):
    import wdcolor.twcolor as twcolor

    write = twcolor._write

    def lossy(out, part, what):
        # vertex 13 lies in a component of the split far part, below its root bag
        if "far part: component" in str(what):
            part = part.restrict(set(part.domain) - {13})
        write(out, part, what)

    monkeypatch.setattr(twcolor, "_write", lossy)
    g, td = _split_instance(9)
    con = AdhesionConstruction(td, 4, 4, cover_piece_bound(4, 1))
    with pytest.raises(ContractViolation, match=r"^adhesion coloring: far part: far part: component colorings miss vertices$"):
        color_adhesion_construction(g, 1, con)


# -- the per-run table and the derived far-side decomposition ------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(5, 4), Fraction(7, 3)]),
)
def test_run_table_equals_the_bound_functions(theta, ell):
    """Each entry of the per-run table is the bound a level used to compute
    for itself, called here past the caches."""
    from wdcolor.twcolor import _Ctx

    piece_bound = cover_piece_bound(theta, ell)
    ctx = _Ctx(ell, theta, piece_bound, False)
    tree_bound = tree_extension_bound.__wrapped__
    assert ctx.r3 == 3 * ell
    assert ctx.centered == centered_bound.__wrapped__(theta, 3 * ell, ell)
    assert len(ctx.level_bound) == len(ctx.lift_claim) == theta + 1
    assert ctx.lift_claim[0] is None
    for eta in range(theta + 1):
        assert ctx.level_bound[eta] == tree_bound(eta, theta, ell, piece_bound)
        if eta >= 1:
            n_prev = tree_bound(eta - 1, theta, ell, piece_bound)
            assert ctx.lift_claim[eta] == patch_bound.__wrapped__(theta, 3 * ell, ell, n_prev)
            # the lift raises the ball patch's claim to the level's bound
            assert con_color_bound(ell, ctx.lift_claim[eta], theta, 0) == ctx.level_bound[eta]


@st.composite
def _condensed_trees(draw):
    """A rooted decomposition over random node ids, a ball z0 and, half the
    time, a fresh root id above every node."""
    td0 = draw(rooted_trees())
    z0 = draw(st.frozensets(st.integers(0, 9)))
    top = draw(st.none() | st.integers(max(td0.nodes) + 1, max(td0.nodes) + 5))
    return td0, z0, top


@settings(max_examples=300, deadline=None)
@given(_condensed_trees())
def test_far_side_decomposition_equals_the_rebuilt_one(inst):
    """The far side's decomposition, derived from td0's tree, has every
    field the constructor gives it (oracles keeps that construction), with
    and without a fresh root; where the construction fails, both fail
    alike."""
    from wdcolor.twcolor import _far_side_decomposition

    td0, z0, top = inst
    try:
        want = oracles.reference_far_side_decomposition(td0, z0, top, "far side")
    except ContractViolation as exc:
        with pytest.raises(ContractViolation) as err:
            _far_side_decomposition(td0, z0, top, "far side")
        assert str(err.value) == str(exc)
        return
    got = _far_side_decomposition(td0, z0, top, "far side")
    assert got.bags == want.bags
    assert got.parent == want.parent
    assert got.children == want.children
    assert got.nodes == want.nodes
    assert got.tree_edges == want.tree_edges
    assert got.root == want.root
    assert len(got) == len(want)
    assert got.all_vertices() == want.all_vertices()
    assert [got.holders_of(v) for v in range(10)] == [want.holders_of(v) for v in range(10)]


def _fractions_built(monkeypatch, n):
    """Fraction objects constructed while colouring a unit path of n
    vertices."""
    new = Fraction.__new__
    count = [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    g = unit_path(n)
    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__new__", staticmethod(counted))
        res = color_bounded_treewidth(g, 1)
    assert res.report.ok
    return count[0]


def test_path_coloring_builds_few_fractions(monkeypatch):
    """A level computes no bound and no radius of its own: the bounds come
    off the run's table, and caps, levels and weight ranges stay integers.
    Colouring the unit path n=480 built 4,415 Fractions and n=960 8,855
    when each level computed them; it builds 598 and 1,198 on CPython
    3.11, about five per condensation, and one fewer on 3.12 and 3.13,
    where arithmetic results bypass the constructor."""
    assert color_bounded_treewidth(unit_path(480), 1).report.ok
    small = _fractions_built(monkeypatch, 480)
    large = _fractions_built(monkeypatch, 960)
    assert small <= 720 and large <= 1440, (small, large)
