"""Metric-layer tests: exact distances, neighborhoods, subdivision, power graphs."""

from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdcolor.graph import (
    INF,
    MAX_RATIONAL_DIGITS,
    ContractViolation,
    GraphError,
    SubgraphView,
    WeightedGraph,
    _heap_search,
    _scaled_cap,
    as_fraction,
    central_vertex,
    frac_str,
    neighborhood,
    parse_edge_list,
    power_graph,
    power_graph_new_ids,
    power_graph_vertex_count,
    reached,
    set_diameter,
    subdivision_graph,
    weak_diameter,
    write_edge_list,
)

import oracles
from strategies import rationals, weighted_graphs, random_connected_graph, random_td_instance


def path_graph(weights):
    n = len(weights) + 1
    return WeightedGraph(range(n), [(i, i + 1, w) for i, w in enumerate(weights)])


def unit_grid(rows, cols):
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), 1))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), 1))
    return WeightedGraph(range(rows * cols), edges)


# -- construction and validation ------------------------------------------


def test_rejects_nonpositive_weight():
    with pytest.raises(GraphError):
        WeightedGraph([0, 1], [(0, 1, 0)])
    with pytest.raises(GraphError):
        WeightedGraph([0, 1], [(0, 1, Fraction(-1, 2))])


def test_rejects_self_loop_and_unknown_vertex():
    with pytest.raises(GraphError):
        WeightedGraph([0], [(0, 0, 1)])
    with pytest.raises(GraphError):
        WeightedGraph([0, 1], [(0, 2, 1)])


def test_parallel_edges_allowed():
    g = WeightedGraph([0, 1], [(0, 1, 2), (0, 1, 3)])
    assert len(g.edges) == 2
    assert g.shortest_distance(0, 1) == 2


def test_rejects_float_weight():
    with pytest.raises(TypeError):
        WeightedGraph([0, 1], [(0, 1, 0.5)])


def test_a_repeated_bad_weight_is_named_on_its_first_edge():
    """Each weight object is checked once, on the first edge carrying it,
    and that edge is the one the message names."""
    bad = Fraction(-1, 2)
    with pytest.raises(GraphError, match=r"^edge weight must be positive, got -1/2 on \(1,2\)$"):
        WeightedGraph(range(4), [(0, 1, 1), (1, 2, bad), (2, 3, bad), (3, 0, bad)])
    zero = 0
    with pytest.raises(GraphError, match=r"^edge weight must be positive, got 0 on \(2,3\)$"):
        WeightedGraph(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, zero), (3, 0, zero)])


def test_a_float_weight_is_refused_after_an_equal_int_weight():
    """An equal float is another object, so the int's check does not pass
    it: 1.0 after 1, and 1e20 after 10**20."""
    with pytest.raises(TypeError, match="refusing float weight 1.0"):
        WeightedGraph(range(3), [(0, 1, 1), (1, 2, 1.0)])
    big = 10 ** 20
    with pytest.raises(TypeError, match="refusing float weight 1e"):
        WeightedGraph(range(3), [(0, 1, big), (1, 2, float(big))])


def test_fresh_weight_objects_keep_their_values():
    """A generator of fresh weight texts may hand out an id that a freed
    text had; the constructor holds every weight object it has checked, so
    no id stands for two values."""
    n = 300
    g = WeightedGraph(range(n), ((v, v + 1, "%d/7" % (v + 1)) for v in range(n - 1)))
    assert [w for (_, _, w) in g.edges] == [Fraction(v + 1, 7) for v in range(n - 1)]


# -- distances --------------------------------------------------------------


def test_path_distance_sums_weights():
    g = path_graph([Fraction(2), Fraction(3)])
    assert g.shortest_distance(0, 2) == 5
    assert g.shortest_distance(0, 0) == 0


def test_disconnected_pair_is_infinite():
    g = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (2, 3, 1)])
    d = g.shortest_distance(0, 3)
    assert d is INF
    assert d > Fraction(10**9)


def test_distance_symmetric_and_triangle_small():
    g = random_connected_graph(random.Random(7), 9, 6)
    dist = oracles.all_pairs_distances(g)
    for u in g.vertices:
        for v in g.vertices:
            assert g.shortest_distance(u, v) == dist[(u, v)]


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(max_n=9))
def test_distances_match_oracle(g):
    dist = oracles.all_pairs_distances(g)
    for u in g.vertices:
        got = g.distances_from([u])
        for v in g.vertices:
            want = dist[(u, v)]
            if want is INF:
                assert v not in got
            else:
                assert got[v] == want


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(max_n=9, max_extra_edges=8, connected=False), st.data())
def test_search_stopped_at_its_targets_returns_only_settled_distances(g, data):
    """A search stops once its targets are settled; what it returns is
    exact, and is every vertex nearer than the farthest target."""
    dist = oracles.all_pairs_distances(g)
    u = data.draw(st.sampled_from(g.vertices))
    targets = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
    got = g.distances_from([u], targets=targets)
    assert all(got[v] == dist[(u, v)] for v in got)
    reached = [t for t in targets if dist[(u, t)] is not INF]
    assert all(t in got for t in reached)
    if len(reached) == len(targets):
        far = max(dist[(u, t)] for t in reached)
        assert {v for v in g.vertices if dist[(u, v)] < far} <= set(got)
        assert all(d <= far for d in got.values())


_ONE_WEIGHT = st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(5, 2)])


@settings(max_examples=300, deadline=None)
@given(_ONE_WEIGHT, st.integers(min_value=1, max_value=12), st.data())
def test_level_search_returns_the_heap_search_dict_in_its_order(w, n, data):
    """On one edge weight the level search settles, caps and stops as the
    heap loop did: the same dict, in the same insertion order.  The graph
    searched is a uniform graph, a view of a uniform base, a view of a
    mixed-weight base whose own edges weigh w, or a uniform induced
    subgraph of a mixed-weight graph (which keeps that graph's scale)."""
    # a spanning tree over the ids in random order, so that adjacency lists
    # and levels are out of id order, plus chords and parallel edges
    order = data.draw(st.permutations(range(n)))
    pairs = [(order[data.draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]
    pairs += data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    pairs = [(u, v) for (u, v) in pairs if u != v]
    kind = data.draw(st.sampled_from(["graph", "view", "mixed-view", "induced"]))
    inner = set(range(n)) if kind == "graph" else data.draw(st.sets(st.integers(0, n - 1)))
    other = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2, 7), Fraction(3)]).filter(lambda x: x != w))
    heavy = kind in ("mixed-view", "induced")
    base = WeightedGraph(
        range(n), [(u, v, w if (u in inner and v in inner) or not heavy else other) for (u, v) in pairs]
    )
    if kind == "graph":
        h = base
    elif kind == "induced":
        h = base.induced(inner)
    else:
        has_edge = any(u in inner and v in inner for (u, v) in pairs)
        s = (w * base._scale).numerator
        h = SubgraphView(base, frozenset(inner), (s, s) if has_edge else None, max(inner, default=-1))
    step = h._step
    assert step is not None
    k = data.draw(st.integers(0, 6))
    # no cap, 0, below one step, at a step, and between two steps
    cap = data.draw(st.sampled_from([None, 0, step - 1, k * step, k * step + step // 2, (k + 1) * step - 1]))
    # repeats, and base vertices outside a view; a copy holds its own only
    pool = sorted(h.vertex_set()) if kind == "induced" else list(range(n))
    srcs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)) if pool else []
    within = data.draw(st.none() | st.frozensets(st.integers(0, n - 1), min_size=n // 2))
    # empty, unreachable (n is no vertex), or any set
    targets = data.draw(st.none() | st.just(set()) | st.sets(st.integers(0, n)))
    if kind in ("view", "mixed-view"):
        inside = frozenset(v for v in inner if within is None or v in within)
    else:
        inside = within
    want = oracles.heap_search(h, srcs, cap, inside, targets)
    assert list(h._search(srcs, cap, within, targets).items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_heap_search_is_the_heap_loop_on_a_bare_adjacency(n, data):
    """`_heap_search` on a random integer adjacency that no graph holds
    (ids out of order and with gaps, parallel edges) settles, caps and
    stops as the heap loop does: the same dict, in the same order, with and
    without a cap, a `within` set and targets."""
    ids = data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    vertex = st.sampled_from(ids)
    sadj = {v: [] for v in ids}
    for (u, v, w) in data.draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 9)), max_size=3 * n)):
        if u != v:
            sadj[u].append((v, w))
            sadj[v].append((u, w))
    srcs = data.draw(st.lists(vertex, min_size=1, max_size=4))
    cap = data.draw(st.none() | st.integers(0, 30))
    within = data.draw(st.none() | st.frozensets(vertex))
    # empty, unreachable (41 is no vertex), or any set
    targets = data.draw(st.none() | st.just(set()) | st.sets(st.sampled_from(ids + [41])))
    want = oracles.heap_search(SimpleNamespace(_sadj=sadj), srcs, cap, within, targets)
    assert list(_heap_search(sadj, srcs, cap, within, targets).items()) == list(want.items())


def test_level_search_stops_mid_level_at_its_last_target():
    """From a corner of a unit 5x5 grid, the last target 6 is the second
    vertex of the level two steps out: 10 on that level and the vertices
    already reached three steps out are dropped, as the heap drops them."""
    g = unit_grid(5, 5)
    got = g._search([0], None, None, {5, 6})
    assert list(got.items()) == [(0, 0), (1, 1), (5, 1), (2, 2), (6, 2)]
    assert list(got.items()) == list(oracles.heap_search(g, [0], None, None, {5, 6}).items())


def test_the_search_loop_follows_the_weights():
    """`_step` is set, and the level search runs, unless two edges weigh
    differently; a copy keeps its parent's scale."""
    assert unit_grid(3, 3)._step == 1
    assert path_graph([Fraction(1, 3), Fraction(1, 3)])._step == 1
    assert path_graph([Fraction(1, 2), Fraction(1, 3)])._step is None
    assert path_graph([Fraction(1, 2), Fraction(1, 3)]).induced([0, 1])._step == 3
    assert WeightedGraph([0])._step == 1


def test_truncated_search_respects_radius_and_subset():
    g = path_graph([1, 1, 1, 1])
    d = g.distances_from([0], radius=2)
    assert set(d) == {0, 1, 2}
    d2 = g.distances_from([0], within=frozenset({0, 1}))
    assert set(d2) == {0, 1}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from([Fraction, str]),
)
def test_integer_cap_is_the_floor_of_the_scaled_radius(num, den, scale, form):
    """The search cap comes from the radius's numerator and denominator by
    one integer division; it is floor(r * scale) for every rational radius,
    whichever form the radius takes."""
    r = Fraction(num, den)
    assert _scaled_cap(form(r), scale) == math.floor(r * scale)


@pytest.mark.parametrize("radius", [-1, "-1/2", Fraction(-1, 3)])
def test_a_negative_radius_is_refused_by_every_search_entry(radius):
    """No vertex lies within a negative radius, not even a source: both
    search entries refuse one with neighborhood's error, where they used
    to return the source at distance 0."""
    g = path_graph([1, Fraction(1, 2)])
    message = r"^search radius must be nonnegative, got -"
    with pytest.raises(GraphError, match=message):
        g.distances_from([0], radius=radius)
    with pytest.raises(GraphError, match=message):
        g._scaled_distances([0], radius=radius)
    with pytest.raises(GraphError, match=message):
        neighborhood(g, [0], radius)
    assert g.distances_from([0], radius=0) == {0: 0}


# -- neighborhoods ----------------------------------------------------------


def test_neighborhood_path_example():
    g = path_graph([Fraction(2), Fraction(3)])
    assert neighborhood(g, {0}, 2) == {0, 1}


def test_neighborhood_empty_seed():
    g = path_graph([1])
    assert neighborhood(g, set(), 5) == set()


def test_neighborhood_grid_center():
    g = unit_grid(3, 3)
    center = 4
    assert neighborhood(g, {center}, 1) == {1, 3, 4, 5, 7}


def test_neighborhood_zero_radius_is_seed():
    g = path_graph([1, 1])
    assert neighborhood(g, {1}, 0) == {1}


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(max_n=8), rationals(), rationals())
def test_neighborhood_monotone(g, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    s = {g.vertices[0]}
    small = neighborhood(g, s, lo)
    big = neighborhood(g, s, hi)
    assert small <= big
    assert neighborhood(g, small, hi) >= small


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.sampled_from(["unit", "mixed"]),
    st.booleans(),
    st.data(),
)
def test_reached_is_the_targets_inside_the_ball(n, law, on_view, data):
    """reached(g, S, r, T) == set(T) & neighborhood(g, S, r), though its
    search stops at T: on graphs of one weight (a level search), of mixed
    weights (a heap search) and on views of either, with targets out of
    reach, outside the graph or among the sources, radius 0, and no
    targets."""
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16))
    weight = st.just(Fraction(2, 3)) if law == "unit" else rationals(max_num=6, max_den=3)
    g = WeightedGraph(range(n), [(u, v, data.draw(weight)) for (u, v) in pairs if u != v])
    if on_view:
        keep = data.draw(st.frozensets(st.integers(0, n - 1)))
        inside = [(w * g._scale).numerator for (u, v, w) in g.edges if u in keep and v in keep]
        g = SubgraphView(g, keep, (min(inside), max(inside)) if inside else None, max(keep, default=-1))
    assert (g._step is not None) or law == "mixed"
    sources = data.draw(st.lists(st.sampled_from(sorted(g.vertex_set())), max_size=3)) if len(g) else []
    radius = data.draw(st.sampled_from([0, Fraction(2, 3), 1, Fraction(5, 2), 4]))
    targets = data.draw(st.lists(st.integers(-1, n + 1) | st.sampled_from(sources or [0]), max_size=6))
    assert reached(g, sources, radius, targets) == set(targets) & neighborhood(g, sources, radius)


def test_reached_runs_no_search_for_no_targets():
    """An empty target set answers at once: not even its sources or its
    radius are checked."""
    g = path_graph([1, 1])
    assert reached(g, [7], -1, []) == set()
    assert reached(g, [0], 1, [2, 1, 5]) == {1}


# -- weak diameter ----------------------------------------------------------


def test_weak_diameter_trivial_cases():
    g = unit_grid(2, 2)
    assert weak_diameter(g, {0}) == 0
    assert weak_diameter(g, set()) == 0


def test_weak_diameter_cycle_opposite():
    g = WeightedGraph(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert weak_diameter(g, {0, 2}) == 2


def test_weak_diameter_across_components():
    g = WeightedGraph([0, 1, 2], [(0, 1, 1)])
    assert weak_diameter(g, {0, 2}) is INF


def test_weak_diameter_uses_host_graph():
    # two far ends of a path plus a shortcut outside the set
    g = WeightedGraph(range(4), [(0, 1, 5), (1, 2, 5), (0, 3, 1), (3, 2, 1)])
    assert weak_diameter(g, {0, 2}) == 2


def test_set_diameter_raises_when_a_search_misses_a_member():
    # 2 is unreachable from 0 and 1; the first search runs from 0
    dist = {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}, 2: {2: 0}}
    with pytest.raises(ContractViolation, match="from 0 does not reach member 2"):
        set_diameter([0, 1, 2], dist.__getitem__)
    assert set_diameter([0, 1], dist.__getitem__) == (1, 0)
    g = WeightedGraph([0, 1, 2], [(0, 1, Fraction(1, 3))])
    assert weak_diameter(g, {0, 1}) == Fraction(1, 3)
    assert weak_diameter(g, {0, 1, 2}) is INF


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(max_n=8, max_extra_edges=6), st.data())
def test_set_diameter_from_a_valid_bound_and_any_start_is_the_brute_maximum(g, data):
    dist = oracles.all_pairs_distances(g)
    members = sorted(data.draw(st.sets(st.sampled_from(g.vertices), min_size=1)))
    ecc = {u: max(dist[(u, w)] for w in members) for u in members}
    diameter = max(ecc.values())
    bound = diameter + data.draw(st.sampled_from([0, Fraction(1, 3), 2, INF]))
    first = data.draw(st.sampled_from(members + [None]))
    got, end = set_diameter(members, lambda u: {w: dist[(u, w)] for w in g.vertices}, bound, first)
    assert got == diameter and ecc[end] == diameter


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(max_n=8), st.sets(st.integers(min_value=0, max_value=7)))
def test_weak_diameter_matches_oracle(g, s):
    s = {v for v in s if g.has_vertex(v)}
    assert weak_diameter(g, s) == oracles.brute_weak_diameter(g, s)


# -- subdivision graph -------------------------------------------------------


def test_subdivision_weight5_r2():
    g = WeightedGraph([0, 1], [(0, 1, 5)])
    sub = subdivision_graph(g, 2)
    # inner ids run on from max(V) + 1, one path after the other
    assert sorted(sub.vertices) == list(range(6)) and len(sub.edges) == 6
    weight = {frozenset((u, v)): w for (u, v, w) in sub.edges}
    for path in ((0, 2, 3, 1), (1, 4, 5, 0)):
        # weights from the designated end: 1, 2, 2
        ws = [weight[frozenset(path[i:i + 2])] for i in range(3)]
        assert ws == [Fraction(1), Fraction(2), Fraction(2)]


def test_subdivision_duplicates_when_weight_at_most_r():
    g = WeightedGraph([0, 1], [(0, 1, 2)])
    sub = subdivision_graph(g, 2)
    assert len(sub) == 2
    assert sorted(w for (_, _, w) in sub.edges) == [2, 2]


def test_subdivision_weights_in_range():
    g = random_connected_graph(random.Random(3), 8, 5)
    r = Fraction(3, 4)
    sub = subdivision_graph(g, r)
    assert all(0 < w <= r for (_, _, w) in sub.edges)


def test_subdivision_rejects_bad_r():
    g = path_graph([1])
    with pytest.raises(GraphError):
        subdivision_graph(g, 0)


@settings(max_examples=50, deadline=None)
@given(weighted_graphs(max_n=8), rationals())
def test_subdivision_preserves_distances(g, r):
    sub = subdivision_graph(g, r)
    for u in g.vertices:
        dg = g.distances_from([u])
        ds = sub.distances_from([u])
        for v in g.vertices:
            assert dg.get(v) == ds.get(v)


# -- power graph --------------------------------------------------------------


def test_power_graph_unit_path_scale2():
    g = path_graph([1, 1, 1, 1])
    p = power_graph(g, 2)
    expect = {(u, v) for u in range(5) for v in range(5) if u < v and v - u <= 2}
    assert set(p.edge_list()) == expect


def test_power_graph_single_vertex():
    g = WeightedGraph([0])
    p = power_graph(g, 7)
    assert p.vertices == (0,)
    assert p.edge_list() == []


def test_power_graph_weight3_scale1_is_six_cycle():
    g = WeightedGraph([0, 1], [(0, 1, 3)])
    p = power_graph(g, 1)
    assert len(p.vertices) == 6
    assert set(p.edge_list()) == oracles.brute_power_edges(g, Fraction(1))
    assert all(len(p.neighbors(v)) == 2 for v in p.vertices)


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(max_n=6, max_extra_edges=6), rationals(max_num=6, max_den=4))
def test_power_graph_matches_brute_force(g, ell):
    p = power_graph(g, ell)
    assert set(p.edge_list()) == oracles.brute_power_edges(g, ell)


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(max_n=9, max_extra_edges=8, connected=False), rationals(max_num=6, max_den=4))
def test_power_graph_adjacency_is_the_edge_list_hop_graph(g, ell):
    _assert_power_graph_is_the_edge_list_hop_graph(g, ell)


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(max_n=7, max_extra_edges=6, connected=False), rationals(max_num=6, max_den=4))
def test_power_graph_vertex_count_matches_the_built_graph(g, ell):
    # weights run up to 12, so many edges exceed ell and are subdivided
    p = power_graph(g, ell)
    assert power_graph_vertex_count(g, ell) == len(p.vertices)
    assert list(power_graph_new_ids(g, ell)) == [v for v in p.vertices if v not in g.vertex_set()]


# ell as a multiple of the heaviest edge: below it (edges are subdivided), at it
# and above it (no edge is)
_ELL_FACTORS = st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(3, 2)])


def _assert_power_graph_matches_the_brute_subdivision(g, ell, ref):
    """power_graph(g, ell) against the brute subdivision of `ref`, a plain
    graph with g's vertices and edges: the same vertices, neighbours and
    metric distance between every pair of power-graph vertices."""
    p = power_graph(g, ell)
    sub = oracles.brute_subdivide(ref, ell)
    dist = oracles.all_pairs_distances(sub)
    assert p.vertices == sub.vertices
    for u in sub.vertices:
        assert p.neighbors(u) == tuple(v for v in sub.vertices if v != u and dist[(u, v)] <= ell)
        got = p.metric.distances_from([u])
        assert {v: got.get(v, INF) for v in sub.vertices} == {v: dist[(u, v)] for v in sub.vertices}


def _assert_power_graph_is_the_edge_list_hop_graph(g, ell):
    """power_graph's adjacency, written vertex by vertex, is the one
    HopGraph's constructor builds from the power graph's edge list."""
    p = power_graph(g, ell)
    want = oracles.reference_power_graph(g, ell)
    assert p.vertices == want.vertices and p.vertex_set() == want.vertex_set()
    assert list(p._adj.items()) == [(v, want.neighbors(v)) for v in want.vertices]


def _upper_half(g):
    """g with the heaviest weight added to every weight: at ell = the new
    heaviest weight, every weight lies in (ell/2, ell], where no two edges
    fit within ell and power_graph reads its edges off the edge list."""
    mw = g.max_edge_weight() or 0
    return WeightedGraph(g.vertices, [(u, v, w + mw) for (u, v, w) in g.edges])


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(max_n=7, max_extra_edges=6, connected=False), _ELL_FACTORS, st.booleans())
def test_power_graph_and_its_host_match_the_brute_subdivision(g, factor, halves):
    if halves:
        g, factor = _upper_half(g), 1
    mw = g.max_edge_weight()
    ell = Fraction(1) if mw is None else mw * factor
    _assert_power_graph_matches_the_brute_subdivision(g, ell, g)
    _assert_power_graph_is_the_edge_list_hop_graph(g, ell)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), _ELL_FACTORS, st.booleans())
def test_power_graph_of_a_far_part_view_matches_the_brute_subdivision(seed, factor, halves):
    from wdcolor.treedec import SubtreeIndex

    rng = random.Random(seed)
    g, td = random_td_instance(rng, n_vertices=rng.randint(4, 10), n_nodes=rng.randint(2, 6))
    if halves:
        g, factor = _upper_half(g), 1
    e = rng.choice(td.tree_edges)
    view, _ = SubtreeIndex(g, td).far_part(e[1], max(td.nodes) + 1)
    mw = view.max_edge_weight()
    ell = Fraction(1) if mw is None else mw * factor
    _assert_power_graph_matches_the_brute_subdivision(view, ell, g.induced(td.subtree_vertices(e)))
    _assert_power_graph_is_the_edge_list_hop_graph(view, ell)


def test_power_graph_of_a_unit_grid_runs_no_search(monkeypatch):
    g = unit_grid(5, 6)
    searches = []
    search = WeightedGraph._search

    def counting(self, *args):
        searches.append(args)
        return search(self, *args)

    monkeypatch.setattr(WeightedGraph, "_search", counting)
    p = power_graph(g, 1)
    assert searches == [] and p.metric is g
    assert set(p.edge_list()) == oracles.brute_power_edges(g, Fraction(1))


def test_power_graph_vertex_count_rejects_bad_scale():
    with pytest.raises(GraphError):
        power_graph_vertex_count(path_graph([1]), 0)
    with pytest.raises(GraphError):
        power_graph_new_ids(path_graph([1]), 0)


def test_hop_bound_from_metric_distance():
    # pairs at metric distance <= k are within ceil(2k/ell) power-graph hops
    rng = random.Random(11)
    for trial in range(20):
        ell = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        g = random_connected_graph(rng, 8, 5, max_weight=ell)
        p = power_graph(g, ell)
        for u in g.vertices:
            dm = g.distances_from([u])
            dh = p.hop_distances([u])
            for v in g.vertices:
                k = dm[v]
                bound = math.ceil(2 * k / ell)
                assert dh[v] <= bound


# -- induced subgraphs ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    weighted_graphs(max_n=10, max_extra_edges=12, connected=False),
    st.data(),
)
def test_induced_matches_a_graph_built_from_the_filtered_edges(g, data):
    """induced() shares the parent's scaled adjacency; the reference builds
    the subgraph from scratch, at its own scale."""
    ks = set(data.draw(st.sets(st.sampled_from(g.vertices))))
    h = g.induced(ks)
    ref = WeightedGraph(ks, [(u, v, w) for (u, v, w) in g.edges if u in ks and v in ks])
    assert h.vertices == ref.vertices
    assert h.edges == ref.edges
    assert h.vertex_set() == ref.vertex_set()
    for v in ref.vertices:
        assert h.neighbors(v) == ref.neighbors(v)
    assert h.min_edge_weight() == ref.min_edge_weight()
    assert h.max_edge_weight() == ref.max_edge_weight()
    if not ks:
        return
    src = sorted(data.draw(st.sets(st.sampled_from(sorted(ks)), min_size=1, max_size=3)))
    radius = data.draw(st.none() | rationals(min_value=0))
    within = data.draw(st.none() | st.frozensets(st.sampled_from(sorted(ks))))
    targets = data.draw(st.none() | st.sets(st.sampled_from(sorted(ks)), min_size=1))
    got = h.distances_from(src, radius=radius, within=within, targets=targets)
    want = ref.distances_from(src, radius=radius, within=within, targets=targets)
    assert got == want
    assert list(got) == list(want)  # discovery order, so ties break alike
    assert h.without(src).edges == ref.without(src).edges


def test_induced_at_the_parent_scale_returns_plain_distances():
    g = WeightedGraph(range(4), [(0, 1, Fraction(1, 3)), (1, 2, 1), (2, 3, Fraction(1, 5))])
    h = g.induced([1, 2])
    d = h.distances_from([1])
    assert d == {1: 0, 2: 1}
    assert d[2].denominator == 1
    assert h.min_edge_weight() == h.max_edge_weight() == 1
    assert g.induced([]).min_edge_weight() is None
    with pytest.raises(GraphError):
        g.induced([7])


@pytest.mark.parametrize(
    "keep, extra, message",
    [
        ({0, 1, 2}, (1, 5, Fraction(0)), "edge weight must be positive, got 0 on (1,5)"),
        ({0, 1, 2}, (5, 5, Fraction(1, 2)), "self-loop at vertex 5"),
        ({0, 1, 2}, (1, 3, Fraction(1, 2)), "edge (1,3) references an unknown vertex"),
        ({0, 1, 9}, (1, 5, Fraction(1, 2)), "induced() got unknown vertices [9]"),
    ],
)
@pytest.mark.parametrize("on_view", [False, True])
def test_a_graph_built_onto_the_host_checks_what_the_constructor_checked(keep, extra, message, on_view):
    """_induced_plus builds WeightedGraph(vertices, induced(keep).edges +
    extra) without the copy; a bad new edge or an unknown kept vertex fails
    with the message the copy or the constructor gave."""
    g = WeightedGraph(range(5), [(0, 1, Fraction(1, 3)), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    if on_view:
        g = SubgraphView(g, frozenset(range(4)), (1, 3), 3)  # weights 1/3 and 1 at scale 3
    vertices = (keep & set(range(5))) | {5}
    with pytest.raises(GraphError) as ref:
        WeightedGraph(vertices, list(g.induced(keep).edges) + [extra])
    with pytest.raises(GraphError) as got:
        g._induced_plus(keep, vertices, [extra])
    assert str(got.value) == str(ref.value) == message


# -- edge-list round trip ------------------------------------------------------


def test_edge_list_round_trip():
    g = WeightedGraph([0, 1, 2, 5], [(0, 1, Fraction(1, 3)), (1, 2, Fraction(7, 2))])
    text = write_edge_list(g)
    h = parse_edge_list(text)
    assert h.vertices == g.vertices
    assert sorted(h.edges) == sorted(g.edges)


def test_edge_list_parses_decimals_and_comments():
    g = parse_edge_list("# demo\n0 1 0.25  # quarter\n1 2 3/2\n7\n")
    assert g.vertices == (0, 1, 2, 7)
    ws = sorted(w for (_, _, w) in g.edges)
    assert ws == [Fraction(1, 4), Fraction(3, 2)]


def test_edge_list_rejects_garbage():
    with pytest.raises(GraphError):
        parse_edge_list("0 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("0 1 -2\n")


def test_edge_list_rejects_a_zero_denominator():
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("0 1 1\n1 2 1/0\n")


def test_edge_list_bad_weight_after_a_repeated_one_names_its_line():
    with pytest.raises(GraphError, match="line 3"):
        parse_edge_list("0 1 1/4\n1 2 1/4\n2 3 1/0\n")
    with pytest.raises(GraphError, match="line 3"):
        parse_edge_list("0 1 1/4\n1 2 1/4\n2 3 x\n")
    with pytest.raises(GraphError, match="edge weight must be positive"):
        parse_edge_list("0 1 0\n1 2 1/4\n2 3 0\n")
    with pytest.raises(GraphError, match="edge weight must be positive"):
        parse_edge_list("0 1 -1/4\n1 2 -1/4\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1 1\n-1 2 1\n", "edge list line 2: vertex ids must be nonnegative integers, got -1"),
        ("0 1 1\n# comment\n-4\n", "edge list line 3: vertex ids must be nonnegative integers, got -4"),
        ("0 1 1\n2 2 1/2\n", "edge list line 2: self-loop at vertex 2"),
        ("0 1 1\n1 2 0\n", "edge list line 2: edge weight must be positive, got 0 on (1,2)"),
        ("0 1 1\n1 2 -3/4\n2 2 1\n", "edge list line 2: edge weight must be positive, got -3/4 on (1,2)"),
    ],
)
def test_edge_list_rejections_name_the_first_bad_line(text, message):
    with pytest.raises(GraphError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


_WEIGHT_TEXTS = st.sampled_from(["1", "2", "3/4", "0.75", "6/8", "1/3", "0.5", "5/2", "2.25", "7"])


@st.composite
def edge_list_texts(draw):
    """Edge-list files: edges with decimal and p/q weights (some repeated),
    bare ids, comments, blank lines; in about half the files a line may
    also hold a negative id, a self-loop, a non-positive weight or a
    missing field."""
    ids = st.integers(min_value=0, max_value=9)
    valid = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "repeat", "bare", "comment", "blank", "bad"]))
        if kind == "repeat" and any(len(x.split()) == 3 for x in lines):
            lines.append(draw(st.sampled_from([x for x in lines if len(x.split()) == 3])))
        elif kind in ("edge", "repeat"):
            u, v = draw(ids), draw(ids)
            if u != v:
                tail = draw(st.sampled_from(["", "  # note", "\t"]))
                lines.append("%d %d %s%s" % (u, v, draw(_WEIGHT_TEXTS), tail))
        elif kind == "bare":
            lines.append(" %d " % draw(ids))
        elif kind == "comment":
            lines.append("# a comment")
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
        elif not valid:
            lines.append(draw(st.sampled_from(["-1 2 1", "3 3 1/2", "1 2 0", "1 2 -0.5", "-2", "1 2"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
def test_one_pass_ingest_builds_the_graph_the_two_pass_parser_built(text):
    try:
        want = oracles.reference_parse_edge_list(text)
    except GraphError:
        with pytest.raises(GraphError, match="^edge list line "):
            parse_edge_list(text)
        return
    got = parse_edge_list(text)
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert got._scale == want._scale
    assert got._sadj == want._sadj
    assert (got.min_edge_weight(), got.max_edge_weight()) == (want.min_edge_weight(), want.max_edge_weight())
    assert got._step == want._step


def _eager_adjacency(vertices, edges):
    adj = {v: [] for v in vertices}
    for (u, v, w) in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


@settings(max_examples=100, deadline=None)
@given(weighted_graphs(max_n=10, max_extra_edges=12, connected=False), st.data())
def test_lazy_neighbors_equal_an_eager_adjacency_in_order(g, data):
    """neighbors() derives its pairs from the integer adjacency on each
    call; on a graph, an induced copy and a view alike they are the eager
    Fraction adjacency's, in edge order, and a view drops its base's
    neighbours outside it."""
    keep = data.draw(st.frozensets(st.sampled_from(g.vertices)))
    inside = [(w * g._scale).numerator for (u, v, w) in g.edges if u in keep and v in keep]
    view = SubgraphView(g, keep, (min(inside), max(inside)) if inside else None, max(keep, default=-1))
    h = g.induced(keep)
    for graph in (view, h, g):
        want = _eager_adjacency(graph.vertices, graph.edges)
        assert {v: graph.neighbors(v) for v in graph.vertices} == want


@settings(max_examples=150, deadline=None)
@given(
    weighted_graphs(max_n=9, max_extra_edges=8, connected=False),
    rationals(max_num=6, max_den=4),
    st.booleans(),
    st.data(),
)
def test_set_diameter_is_the_reference_diameter_and_the_brute_maximum(g, ell, hops, data):
    """iFUB from any first source and any centre measures what the
    Takes-Kosters reference measures, the all-pairs maximum, in hops of a
    power graph and in its weighted host, with no bound or a valid one.  A
    set that one search cannot span raises as the reference does."""
    p = power_graph(g, ell)
    members = sorted(data.draw(st.sets(st.sampled_from(p.vertices), min_size=1)))
    targets = set(members)
    if hops:
        brute = {u: oracles.reference_hop_distances(p, [u]) for u in members}
        for u in members:
            got = p.hop_distances([u], targets=targets)
            assert list(got.items()) == list(oracles.reference_hop_distances(p, [u], targets=targets).items())

        def search(u):
            return p.hop_distances([u], targets=targets)
    else:
        host = p.metric
        exact = oracles.all_pairs_distances(host)
        brute = {u: {w: exact[(u, w)] * host._scale for w in host.vertices if exact[(u, w)] != INF} for u in members}

        def search(u):
            return host._scaled_distances([u], targets=targets)

    first = data.draw(st.sampled_from(members + [None]))
    centre = data.draw(st.sampled_from(members + [None]))
    if any(w not in brute[members[0]] for w in members):
        with pytest.raises(ContractViolation, match="does not reach member"):
            oracles.reference_set_diameter(members, search, INF, first)
        with pytest.raises(ContractViolation, match="does not reach member"):
            set_diameter(members, search, INF, first, centre)
        return
    ecc = {u: max(brute[u][w] for w in members) for u in members}
    diameter = max(ecc.values())
    bound = data.draw(st.sampled_from([INF, diameter, diameter + 1]))
    got, end = set_diameter(members, search, bound, first, centre)
    assert got == diameter == oracles.reference_set_diameter(members, search, bound, first)[0]
    assert ecc[end] == diameter


def test_set_diameter_takes_one_search_for_two_members_and_two_on_a_path():
    searched = []

    def path_search(u):
        searched.append(u)
        return {w: abs(u - w) for w in range(9)}

    assert set_diameter([3, 7], path_search) == (4, 3) and searched == [3]
    searched.clear()
    # from the middle, the far end meets every bound left
    assert set_diameter(list(range(9)), path_search, centre=4) == (8, 0) and searched == [4, 0]
    searched.clear()
    # with no centre, the first search's midpoint is searched second
    assert set_diameter(list(range(9)), path_search) == (8, 0) and searched == [0, 4]


def _bfs(adj, source):
    dist = {source: 0}
    order = [source]
    for x in order:
        for n in adj[x]:
            if n not in dist:
                dist[n] = dist[x] + 1
                order.append(n)
    return order, dist


def test_central_vertex_of_a_grid_block_and_a_path():
    side = 5
    grid = {(r, c): [(r + dr, c + dc) for dr, dc in ((-1, 0), (0, -1), (0, 1), (1, 0))
                     if 0 <= r + dr < side and 0 <= c + dc < side]
            for r in range(side) for c in range(side)}
    order, dist = _bfs(grid, (0, 0))
    assert central_vertex(grid, order, dist) == (2, 2)
    path = {v: [w for w in (v - 1, v + 1) if 0 <= w < 9] for v in range(9)}
    for root in (0, 3, 8):
        order, dist = _bfs(path, root)
        assert central_vertex(path, order, dist) == 4


def test_frac_str_forms():
    assert frac_str(Fraction(0)) == "0"
    assert frac_str(Fraction(-3, 4)) == "-3/4"
    assert frac_str(7) == "7"
    assert frac_str(INF) == "inf"


def test_frac_str_past_the_int_to_str_digit_limit():
    # 10**4400 + 7 has 4401 digits, above the interpreter's default limit of 4300
    assert frac_str(Fraction(10**4400 + 7, 3)) == "1" + "0" * 4399 + "7/3"
    assert frac_str(Fraction(3, 10**4400)) == "3/1" + "0" * 4400


#: Positive integers of up to 2,100 bits, about the 2,000 where frac_str turns to Decimal, and
#: of 14,000 to 16,000 bits (4,215 to 4,817 digits), about str(int)'s default limit of 4,300 digits.
_BIG_INTS = st.one_of(st.integers(1, 2_100), st.integers(14_000, 16_000)).flatmap(
    lambda bits: st.integers(2**bits >> 1, 2**bits - 1)
)


@settings(max_examples=200, deadline=None)
@given(num=_BIG_INTS, den=_BIG_INTS, sign=st.sampled_from((1, -1, 0)))
def test_frac_str_is_the_decimal_form_and_reads_back(num, den, sign):
    num *= sign
    f = Fraction(num, den)
    text = str(decimal.Decimal(f.numerator))
    if f.denominator != 1:
        text += "/" + str(decimal.Decimal(f.denominator))
    assert frac_str(f) == text
    assert frac_str(num) == str(decimal.Decimal(num))
    assert as_fraction(text) == f


def test_as_fraction_refuses_text_past_max_rational_digits():
    # the text's length plus its exponent: 7 + 99,993 is the most accepted
    assert as_fraction("1e99993") == 10**99993
    assert as_fraction("-1/" + "3" * (MAX_RATIONAL_DIGITS - 3)) < 0
    for text in ("1e99994", "1E-99994", "1e1" + "0" * 20, "1_0e99_993", "5" * (MAX_RATIONAL_DIGITS + 1)):
        with pytest.raises(GraphError, match=r"^rational '.{1,40}'(\.\.\.)? stands for more than 100000 digits$"):
            as_fraction(text)


@pytest.mark.parametrize(
    "text",
    [
        "0." + "3" * 5_000,
        "-" + "7" * 3_000 + "." + "1" * 3_000,
        " .5" + "0" * 4_999 + "1e-20 ",
        "1_0" * 2_000 + ".5",
        "1." + "9" * 700 + "E+800",
    ],
    ids=["0.333...", "a long integer part", "spaces, a leading point, an exponent", "underscores", "an exponent"],
)
def test_decimal_text_past_the_int_to_str_digit_limit_is_read_exactly(text):
    # each text is under MAX_RATIONAL_DIGITS but holds more than the interpreter's 4,300-digit limit
    assert as_fraction(text) == Fraction(decimal.Decimal(text))
    assert parse_edge_list("0 1 %s\n" % text.strip().lstrip("-")).edges[0][2] == abs(Fraction(decimal.Decimal(text)))


def test_text_that_is_no_rational_is_quoted_by_a_prefix():
    with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: 'x{40}'\.\.\.$"):
        as_fraction("x" * 50_000)
    with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: '1/x'$"):
        as_fraction("1/x")


def test_as_fraction_forms():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("0.125") == Fraction(1, 8)
    assert as_fraction(2) == 2
    with pytest.raises(TypeError):
        as_fraction(0.1)
