"""Coloring/partition conversion and verification tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdcolor.graph import HopGraph, WeightedGraph, frac_str, power_graph, power_graph_vertex_count
from wdcolor.partition import (
    Coloring,
    ComponentStat,
    ContractViolation,
    PartitionFamily,
    check_weak_diameter,
    coloring_to_partition,
    measure_dilation,
    monochromatic_components,
    verify_partition_family,
    verify_weak_diameter,
)

import oracles
from strategies import weighted_graphs, random_connected_graph


def unit_path(n):
    return WeightedGraph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def block_coloring(n, block, colors=2):
    return Coloring({v: (v // block) % colors + 1 for v in range(n)}, colors)


# -- colorings -----------------------------------------------------------------


def test_filled_keeps_colors_and_fills_the_rest_with_the_top_color():
    c = Coloring({9: 1, 4: 2, 7: 1}, 3)
    f = c.filled([5, 9, 2, 4])
    assert f.num_colors == 3
    assert f.domain == {2, 4, 5, 9}
    assert f.assignment == {2: 3, 4: 2, 5: 3, 9: 1}
    assert 7 not in f.assignment
    assert list(f.assignment) == [2, 4, 5, 9]
    assert c.filled([]).assignment == {}


# -- monochromatic components -------------------------------------------------


def test_components_all_one_color():
    g = unit_path(5)
    p = power_graph(g, 1)
    c = Coloring.constant(range(5))
    assert monochromatic_components(p, c) == [tuple(range(5))]


def test_components_proper_two_coloring():
    g = unit_path(4)
    p = power_graph(g, 1)
    c = Coloring({v: v % 2 + 1 for v in range(4)}, 2)
    assert monochromatic_components(p, c) == [(0,), (1,), (2,), (3,)]


def test_components_six_cycle_pattern():
    g = WeightedGraph(range(6), [(i, (i + 1) % 6, 1) for i in range(6)])
    p = power_graph(g, 1)
    # vertices 0..5 colored 1,1,2,2,1,1: wrap-around joins 4,5,0,1
    c = Coloring({0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}, 2)
    comps = monochromatic_components(p, c)
    assert set(comps) == {(0, 1, 4, 5), (2, 3)}


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(max_n=8), st.integers(min_value=1, max_value=3))
def test_components_match_union_find_oracle(g, m):
    p = power_graph(g, Fraction(3, 2))
    rng = random.Random(0)
    c = Coloring({v: rng.randint(1, m) for v in p.vertices}, m)
    ours = monochromatic_components(p, c)
    same_color = [(u, v) for (u, v) in p.edge_list() if c.color(u) == c.color(v)]
    theirs = oracles.brute_hop_components(p.vertices, same_color)
    assert sorted(ours) == sorted(theirs)
    # asking for centres walks the same components and names one member of each
    centres = []
    assert monochromatic_components(p, c, centres=centres) == ours
    assert len(centres) == len(ours) and all(u in comp for u, comp in zip(centres, ours))


# -- verify_weak_diameter -------------------------------------------------------


def test_verify_block_coloring_on_ten_path():
    g = unit_path(10)
    c = block_coloring(10, 3)
    report = verify_weak_diameter(g, 1, c)
    assert report.max_weak_diameter_hops == 2
    assert report.max_weak_diameter_metric == 2
    assert report.colors == 2
    assert report.ok


def test_verify_constant_coloring_reports_power_diameter():
    g = unit_path(6)
    c = Coloring.constant(range(6))
    report = verify_weak_diameter(g, 2, c)
    p = power_graph(g, 2)
    want = oracles.brute_hop_diameter(p.vertices, p.edge_list(), p.vertices)
    assert report.max_weak_diameter_hops == want


def test_verify_empty_restriction_is_vacuous():
    g = unit_path(4)
    c = Coloring.constant(range(4))
    report = verify_weak_diameter(g, 1, c, restrict_to=set())
    assert report.max_weak_diameter_hops == 0
    assert report.per_component == ()


def test_verify_flags_bound_violation():
    g = unit_path(10)
    c = Coloring.constant(range(10))
    report = verify_weak_diameter(g, 1, c, bound=3)
    assert not report.ok
    assert report.max_weak_diameter_hops == 9


@settings(max_examples=25, deadline=None)
@given(weighted_graphs(max_n=7))
def test_verify_hops_match_brute_force(g):
    rng = random.Random(1)
    p = power_graph(g, 1)
    c = Coloring({v: rng.randint(1, 2) for v in p.vertices}, 2)
    report = verify_weak_diameter(g, 1, c, power=p)
    comps = monochromatic_components(p, c)
    want = 0
    for comp in comps:
        d = oracles.brute_hop_diameter(p.vertices, p.edge_list(), comp)
        want = max(want, d)
    assert report.max_weak_diameter_hops == want


# -- coloring_to_partition ------------------------------------------------------


def test_partition_from_block_coloring():
    g = unit_path(10)
    c = block_coloring(10, 3)
    fam = coloring_to_partition(g, 1, c, 2)
    assert fam.num_collections == 2
    for coll in fam.collections:
        for part in coll:
            assert len(part) <= 3
            assert max(part) - min(part) <= 2
    # blocks of one color are separated by a block of the other
    verify_partition_family(g, fam)


def test_partition_single_vertex():
    g = WeightedGraph([0])
    fam = coloring_to_partition(g, 1, Coloring.constant([0]), 1)
    assert fam.collections[0] == (frozenset({0}),)


def test_partition_rejects_uncovered_power_vertices():
    g = WeightedGraph([0, 1], [(0, 1, 5)])
    c = Coloring.constant([0, 1])  # subdivision vertices uncolored
    with pytest.raises(Exception):
        coloring_to_partition(g, 1, c, 10)


def test_partition_separation_proved_by_adjacency():
    # any coloring of the power graph yields >r separation between traces
    rng = random.Random(5)
    for trial in range(10):
        g = random_connected_graph(rng, 9, 4)
        r = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        p = power_graph(g, r)
        c = Coloring({v: rng.randint(1, 3) for v in p.vertices}, 3)
        report = verify_weak_diameter(g, r, c, power=p)
        fam = coloring_to_partition(g, r, c, report.max_weak_diameter_hops)
        verify_partition_family(g, fam)  # raises on any violation


def _reference_first_failure(g, fam):
    """The start of the message verify_partition_family must raise, or None,
    from one capped search per member: the loop the set-diameter search
    replaced, kept as its reference."""
    for ci, coll in enumerate(fam.collections, 1):
        owner = {}
        for si, part in enumerate(coll):
            for v in part:
                if v in owner:
                    return "collection %d: vertex %s in two sets" % (ci, v)
                owner[v] = si
        for si, part in enumerate(coll):
            for v in sorted(g.distances_from(part, radius=fam.r)):
                if v in owner and owner[v] != si:
                    return "collection %d: sets %d and %d" % (ci, si, owner[v])
        for si, part in enumerate(coll):
            members = set(part)
            for u in sorted(part):
                d = g.distances_from([u], targets=set(members), radius=fam.diameter_bound)
                if members - set(d):
                    return "collection %d set %d: weak diameter exceeds %s" % (
                        ci, si, frac_str(fam.diameter_bound)
                    )
    return None


@settings(max_examples=80, deadline=None)
@given(
    g=weighted_graphs(max_n=10, max_extra_edges=6, connected=False),
    data=st.data(),
)
def test_partition_family_diameters_match_per_member_searches(g, data):
    collections = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        sets = {}
        for v in g.vertices:
            si = data.draw(st.integers(min_value=-1, max_value=2))
            if si >= 0:
                sets.setdefault(si, set()).add(v)
        collections.append(tuple(frozenset(sets[si]) for si in sorted(sets)))
    r = data.draw(st.sampled_from((Fraction(1, 100), Fraction(1, 4), Fraction(1))))
    # bounds at and just below a distance of g sit where a set passes or fails
    dists = sorted({d for u in g.vertices for d in g.distances_from([u]).values()})
    bound = data.draw(st.sampled_from(dists + [d - Fraction(1, 1000) for d in dists if d > 0]))
    fam = PartitionFamily(tuple(collections), r, bound)
    want = _reference_first_failure(g, fam)
    if want is None:
        verify_partition_family(g, fam)
        return
    with pytest.raises(ContractViolation) as info:
        verify_partition_family(g, fam)
    assert str(info.value).startswith(want)


def test_partition_family_flags_sets_within_r():
    g = unit_path(2)
    fam = PartitionFamily(((frozenset({0}), frozenset({1})),), Fraction(1), Fraction(1))
    with pytest.raises(ContractViolation, match=r"collection 1: sets 0 and 1 within distance 1 \(vertex 1\)"):
        verify_partition_family(g, fam)


# -- dilation harness ------------------------------------------------------------


def test_dilation_single_vertex_zero_ratio():
    g = WeightedGraph([0])

    def pipeline(graph, ell):
        return verify_weak_diameter(graph, ell, Coloring.constant(graph.vertices))

    rows = measure_dilation(pipeline, g, [1, 2, 4])
    assert all(r["ratio"] == "0" for r in rows)
    assert not any(r["anomaly"] for r in rows)


def test_dilation_block_scheme_ratio_bounded():
    # 2-coloring by blocks of length 2*ell keeps metric diameter <= 4*ell
    n = 64

    def pipeline(graph, ell):
        block = int(2 * ell)
        c = Coloring({v: (v // block) % 2 + 1 for v in range(n)}, 2)
        return verify_weak_diameter(graph, ell, c, restrict_to=graph.vertex_set())

    g = unit_path(n)
    rows = measure_dilation(pipeline, g, [1, 2, 4, 8])
    for row in rows:
        assert "error" not in row
        assert Fraction(row["ratio"]) <= 4


def test_dilation_records_errors_per_row():
    g = unit_path(4)

    def pipeline(graph, ell):
        if ell == 2:
            raise ValueError("boom")
        return verify_weak_diameter(graph, ell, Coloring.constant(graph.vertices))

    rows = measure_dilation(pipeline, g, [1, 2])
    assert "error" in rows[1] and "boom" in rows[1]["error"]


# -- vacuous checks are decided before any power graph is built ------------------


def _count_power_graphs(monkeypatch):
    import wdcolor.partition as partition_mod

    calls = []
    original = partition_mod.power_graph

    def counting(g, ell):
        calls.append(len(g))
        return original(g, ell)

    monkeypatch.setattr(partition_mod, "power_graph", counting)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    weighted_graphs(max_n=8, max_extra_edges=6, connected=False),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_vacuous_inexact_check_skips_the_power_graph(g, ell, data):
    # weights reach 12 > ell, so hosts carry subdivision vertices; colours
    # and the restriction may name them, or ids that are in no host
    p = power_graph(g, ell)
    ids = list(range(len(p.vertices) + 3))
    assignment = {v: data.draw(st.integers(min_value=1, max_value=3)) for v in ids
                  if data.draw(st.booleans())}
    c = Coloring(assignment, 3)
    restrict = data.draw(st.none() | st.sets(st.sampled_from(ids)))
    bound = len(p.vertices) - 1 + data.draw(st.integers(min_value=0, max_value=2))
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_power_graphs(mp)
        skipped = check_weak_diameter(g, ell, c, bound, "vacuous", restrict_to=restrict, exact=False)
    assert calls == []
    assert skipped == verify_weak_diameter(
        g, ell, c, restrict_to=restrict, bound=bound, power=p, exact=False
    )
    assert skipped.ok and skipped.per_component == ()
    pool = set(p.vertices) & c.domain & (set(ids) if restrict is None else restrict)
    assert skipped.colors == len({c.color(v) for v in pool})


def test_check_below_the_host_size_still_builds_and_measures(monkeypatch):
    calls = _count_power_graphs(monkeypatch)
    g = unit_path(6)
    report = verify_weak_diameter(g, 1, Coloring.constant(range(6), 2), bound=4, exact=False)
    assert calls == [6]
    assert not report.ok and report.max_weak_diameter_hops == 5


def test_a_negative_fractional_bound_fails_a_single_vertex_whether_exact_or_not():
    # the bound is floored to hops: -1/2 is below -1 + 1, so nothing is skipped
    g = WeightedGraph([0], [])
    for exact in (True, False):
        report = verify_weak_diameter(g, 1, Coloring({0: 1}, 1), bound=Fraction(-1, 2), exact=exact)
        assert not report.ok, exact


@settings(max_examples=200, deadline=None)
@given(
    weighted_graphs(max_n=4, max_extra_edges=4, connected=False),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]),
    st.data(),
)
def test_the_inexact_verdict_is_the_exact_one(g, ell, whole, part, data):
    """With exact=False the bound may stand unmeasured, but the verdict is
    the one the measurement gives, for every rational bound, negative ones
    included.  Bounds lie within 2 of 0 or of the host's vertex count minus
    one, where the unmeasured branch starts."""
    colors = data.draw(st.integers(min_value=1, max_value=3))
    c = Coloring({v: data.draw(st.integers(min_value=1, max_value=colors)) for v in g.vertices}, colors)
    bound = data.draw(st.sampled_from([0, power_graph_vertex_count(g, ell) - 1])) + whole + part
    exact = verify_weak_diameter(g, ell, c, bound=bound, exact=True)
    assert verify_weak_diameter(g, ell, c, bound=bound, exact=False).ok == exact.ok


# -- component diameters from a few searches ------------------------------------


def _reference_hop_diameter(host, comp, bound_hops):
    """The per-member measurement verify_weak_diameter used before: one BFS
    from every member, each stopping past the bound when there is one (its
    depth cutoff is emulated by dropping the distances past the bound)."""
    if len(comp) <= 1:
        return 0, True
    members = set(comp)
    best = 0
    for u in comp:
        d = host.hop_distances([u], targets=set(members))
        if bound_hops is not None:
            d = {v: h for v, h in d.items() if h <= bound_hops}
        for v in comp:
            dv = d.get(v)
            if dv is None:
                if bound_hops is not None:
                    return best, False
                return len(host.vertices) + 1, False
            if dv > best:
                best = dv
    return best, True


def _reference_metric_diameter(metric, comp, radius_cap):
    if len(comp) <= 1:
        return Fraction(0)
    members = set(comp)
    best = Fraction(0)
    for u in comp:
        d = metric.distances_from([u], targets=set(members), radius=radius_cap)
        for v in comp:
            dv = d.get(v)
            if dv is not None and dv > best:
                best = dv
    return best


def _reference_report(p, ell, coloring, bound):
    """(per-component stats, max hops, max metric, ok) as the per-member
    measurement, with its bounded pass and unbounded rerun, reported them."""
    bound_hops = None if bound is None else int(bound)
    stats, max_hops, max_metric, all_ok = [], 0, Fraction(0), True
    for comp in monochromatic_components(p, coloring, within=p.vertices):
        hops, ok = _reference_hop_diameter(p, comp, bound_hops)
        if not ok:
            all_ok = False
            hops, _ = _reference_hop_diameter(p, comp, None)
        cap = None if hops == 0 else ell * hops
        metric = _reference_metric_diameter(p.metric, comp, cap)
        stats.append(ComponentStat(len(comp), comp[0], hops, metric))
        max_hops, max_metric = max(max_hops, hops), max(max_metric, metric)
    if bound is not None and max_hops > bound:
        all_ok = False
    return tuple(stats), max_hops, max_metric, all_ok


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]),
    st.integers(min_value=1, max_value=9),
    st.data(),
)
def test_component_diameters_match_the_per_member_reference(ell, n, data):
    # weights up to 3*ell, so components hold subdivision vertices
    weight = st.integers(min_value=1, max_value=12).map(lambda k: ell * Fraction(k, 4))
    edges = [(data.draw(st.integers(0, v - 1)), v, data.draw(weight)) for v in range(1, n)]
    for _ in range(data.draw(st.integers(0, 4)) if n > 2 else 0):
        u, v = data.draw(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)]))
        edges.append((u, v, data.draw(weight)))
    g = WeightedGraph(range(n), edges)
    p = power_graph(g, ell)
    k = data.draw(st.integers(1, 3))
    c = Coloring({v: data.draw(st.integers(1, k)) for v in p.vertices}, k)
    true_max = _reference_report(p, ell, c, None)[1]
    bound = data.draw(st.sampled_from([None, true_max, true_max - 1]))
    want = _reference_report(p, ell, c, bound)
    for power in (None, p):
        report = verify_weak_diameter(g, ell, c, bound=bound, power=power)
        got = (report.per_component, report.max_weak_diameter_hops,
               report.max_weak_diameter_metric, report.ok)
        assert got == want


def test_each_component_takes_a_few_searches(monkeypatch):
    # five components of 40 vertices; a search per member would be 40 each
    sources = {"hops": [], "metric": []}
    hop_search, metric_search = HopGraph.hop_distances, WeightedGraph._scaled_distances

    def counting_hops(self, srcs, *args, **kwargs):
        sources["hops"].extend(srcs)
        return hop_search(self, srcs, *args, **kwargs)

    def counting_metric(self, srcs, *args, **kwargs):
        sources["metric"].extend(srcs)
        return metric_search(self, srcs, *args, **kwargs)

    monkeypatch.setattr(HopGraph, "hop_distances", counting_hops)
    monkeypatch.setattr(WeightedGraph, "_scaled_distances", counting_metric)
    # on the unit path a hop is one edge of weight 1, so the metric is read
    # off the hops with no search.  With 3/4 on the edges between blocks,
    # the weights differ and the metric is searched, but it is still ell
    # times the hops, so the first search meets the seeded bound and ends
    # the metric run.
    between_blocks = {1: 0, Fraction(3, 4): 1}
    for between, metric_searches in between_blocks.items():
        g = WeightedGraph(range(200), [(i, i + 1, 1 if (i + 1) % 40 else between) for i in range(199)])
        p = power_graph(g, 1)
        sources["hops"].clear()
        sources["metric"].clear()
        report = verify_weak_diameter(g, 1, block_coloring(200, 40), bound=39, power=p)
        assert report.ok and [s.hops for s in report.per_component] == [39] * 5
        assert [s.metric for s in report.per_component] == [39] * 5
        per_block = {kind: [sum(1 for u in srcs if u // 40 == b) for b in range(5)] for kind, srcs in sources.items()}
        assert all(1 <= k <= 4 for k in per_block["hops"]), per_block
        assert per_block["metric"] == [metric_searches] * 5, (between, per_block)


def test_a_grid_check_takes_at_most_one_metric_search_per_component(monkeypatch):
    # 4x4 checkerboard blocks of a 9x9 grid: full blocks, 4x1 strips and a
    # single corner vertex, which needs no search
    rows, cols, block = 9, 9, 4

    def block_of(v):
        return v // cols // block, v % cols // block

    c = Coloring({v: sum(block_of(v)) % 2 + 1 for v in range(rows * cols)}, 2)
    sources = []
    search = WeightedGraph._search

    def counting(self, srcs, *args):
        sources.extend(srcs)
        return search(self, srcs, *args)

    monkeypatch.setattr(WeightedGraph, "_search", counting)
    # on the unit grid the metric is read off the hops with no search.  With
    # 3/4 on the edges between blocks, a path that leaves a block is longer
    # than one inside it, so the metric is still ell times the hops and one
    # search per block of two or more vertices meets the seeded bound.
    between_blocks = {1: 0, Fraction(3, 4): 1}
    for between, metric_searches in between_blocks.items():
        edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
        edges += [(v, v + cols) for v in range(rows * cols - cols)]
        g = WeightedGraph(
            range(rows * cols),
            [(u, v, 1 if block_of(u) == block_of(v) else between) for (u, v) in edges],
        )
        sources.clear()
        report = verify_weak_diameter(g, 1, c)
        assert len(report.per_component) == 9
        assert [s.metric for s in report.per_component] == [s.hops for s in report.per_component]
        multi = [block_of(s.min_vertex) for s in report.per_component if s.size >= 2]
        assert len(multi) == 8
        assert sorted(block_of(u) for u in sources) == sorted(multi * metric_searches), between


def _hop_sources(monkeypatch):
    """The source of every host hop search, in order."""
    sources = []
    search = HopGraph.hop_distances

    def counting(self, srcs, *args, **kwargs):
        sources.extend(srcs)
        return search(self, srcs, *args, **kwargs)

    monkeypatch.setattr(HopGraph, "hop_distances", counting)
    return sources


def test_a_checkerboard_block_takes_at_most_two_hop_searches(monkeypatch):
    # 5x5 checkerboard blocks of a unit 23x23 grid: 16 full blocks, strips and a corner
    side, block = 23, 5
    g = WeightedGraph(
        range(side * side),
        [(v, v + 1, 1) for v in range(side * side) if (v + 1) % side]
        + [(v, v + side, 1) for v in range(side * side - side)],
    )

    def block_of(v):
        return v // side // block, v % side // block

    c = Coloring({v: sum(block_of(v)) % 2 + 1 for v in range(side * side)}, 2)
    sources = _hop_sources(monkeypatch)
    report = verify_weak_diameter(g, 1, c)
    assert report.max_weak_diameter_hops == 8
    full = [block_of(s.min_vertex) for s in report.per_component if s.size == block * block]
    assert len(full) == 16
    per_block = {b: sum(1 for u in sources if block_of(u) == b) for b in full}
    assert max(per_block.values()) <= 2, per_block


def test_the_big_component_of_a_random_3_tree_takes_at_most_ten_hop_searches(monkeypatch):
    """The count guard of the tree-width pipeline's final check: a random
    3-tree with n = 2,000 coloured with its own decomposition leaves one
    monochromatic component of most of the graph, whose exact hop diameter
    the centre and the iFUB stop settle in a few host searches."""
    from wdcolor import partition
    from wdcolor.generators import GeneratorSpec, generate
    from wdcolor.twcolor import color_bounded_treewidth

    inst = generate(GeneratorSpec(family="ktree", n=2000, k=3, seed=1))
    measured = []
    set_diameter = partition.set_diameter

    # partition's own binding: the hop diameters, not the metric ones
    def counting(members, search, *args, **kwargs):
        searches = []
        result = set_diameter(members, lambda u: searches.append(u) or search(u), *args, **kwargs)
        measured.append((len(members), len(searches)))
        return result

    monkeypatch.setattr(partition, "set_diameter", counting)
    res = color_bounded_treewidth(inst.graph, Fraction(1), td=inst.td)
    assert res.report.ok
    size, searches = max(measured)
    assert size >= 1000 and searches <= 10, (size, searches)
