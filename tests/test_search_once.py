"""Counts, not timings: each engine level searches each ball once and checks
each colouring once, and copies no part of a graph only to search inside it.

A reach search is a `graph.neighborhood` call, keyed by its graph object,
source set and radius, or a `graph.reached` call, keyed by those and its
target set.  A check is a `partition.verify_weak_diameter` call, keyed by
its graph object, scale, colouring, pool and bound.  A call repeats when
an earlier call in the same run had the same key."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from wdcolor.generators import GeneratorSpec, generate
from wdcolor.geodesic import color_layered, color_planar
from wdcolor.graph import GraphError, WeightedGraph, as_fraction
from wdcolor.partition import Coloring
from wdcolor.patching import CenterCertificate, centered_color, patch_colorings
from wdcolor.twcolor import color_bounded_treewidth


class _RepeatCounter:
    """Wraps `neighborhood`, `reached` and `verify_weak_diameter` in every
    wdcolor module that binds them and counts calls and repeats.  It holds
    every graph it keys on, so that no key outlives its graph: CPython would
    otherwise give a later graph the id of a freed one."""

    def __init__(self, monkeypatch):
        self.graphs = []
        self.keys = {"searches": set(), "checks": set()}
        self.calls = {"searches": 0, "checks": 0}
        self.repeats = {"searches": 0, "checks": 0}
        self._wrap(monkeypatch, "wdcolor.graph", "neighborhood", "searches", self._search_key)
        self._wrap(monkeypatch, "wdcolor.graph", "reached", "searches", self._search_key)
        self._wrap(monkeypatch, "wdcolor.partition", "verify_weak_diameter", "checks", self._check_key)

    def _search_key(self, g, s, r, targets=None):
        return (id(g), frozenset(s), as_fraction(r), None if targets is None else frozenset(targets))

    def _check_key(self, g, ell, coloring, restrict_to=None, bound=None, **_):
        pool = None if restrict_to is None else frozenset(restrict_to)
        claim = None if bound is None else as_fraction(bound)
        items = frozenset(coloring.assignment.items())
        return (id(g), as_fraction(ell), items, coloring.num_colors, pool, claim)

    def _wrap(self, monkeypatch, home, name, kind, key_of):
        original = getattr(sys.modules[home], name)

        def counted(g, *args, **kwargs):
            self.graphs.append(g)
            key = key_of(g, *args, **kwargs)
            self.calls[kind] += 1
            if key in self.keys[kind]:
                self.repeats[kind] += 1
            self.keys[kind].add(key)
            return original(g, *args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("wdcolor") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)


def _tw_inputs():
    yield generate(GeneratorSpec(family="path", n=480)).graph
    yield generate(GeneratorSpec(family="ktree", n=80, k=3, seed=3)).graph
    yield generate(GeneratorSpec(family="random-series-parallel", n=80, seed=4)).graph


def test_treewidth_engine_searches_each_ball_and_checks_each_coloring_once(monkeypatch):
    counter = _RepeatCounter(monkeypatch)
    for g in _tw_inputs():
        assert color_bounded_treewidth(g, 1).report.ok
    assert counter.calls["searches"] > 0 and counter.calls["checks"] > 0
    assert counter.repeats == {"searches": 0, "checks": 0}


def test_control_engine_searches_each_ball_and_checks_each_coloring_once(monkeypatch):
    counter = _RepeatCounter(monkeypatch)
    grid = generate(GeneratorSpec(family="grid", rows=10, cols=10))
    assert color_planar(grid.graph, 1, grid.rotation).report.ok
    layered = generate(GeneratorSpec(family="grid", rows=12, cols=12))
    assert color_layered(layered.graph, 1, layered.layering, 1).report.ok
    assert counter.calls["searches"] > 0 and counter.calls["checks"] > 0
    assert counter.repeats == {"searches": 0, "checks": 0}


def test_control_engine_far_branch_searches_each_ball_once(monkeypatch):
    """The unit 30x30 grid takes the control engine's far branch, and no
    search or check repeats.  When a top level's lift colors everything,
    the engine takes that lift's report instead of checking again: 3 of 24
    checks on the unit 20x20 grid and 4 of 47 on 30x30 were such repeats."""
    import wdcolor.geodesic as geodesic

    labels = []
    control_rec = geodesic._control_rec

    def recording(*args):
        labels.append(args[-1])
        return control_rec(*args)

    monkeypatch.setattr(geodesic, "_control_rec", recording)
    counter = _RepeatCounter(monkeypatch)
    grid = generate(GeneratorSpec(family="grid", rows=20, cols=20))
    assert color_planar(grid.graph, 1, grid.rotation).report.ok
    assert counter.calls["checks"] == 21 and counter.repeats["checks"] == 0
    grid = generate(GeneratorSpec(family="grid", rows=30, cols=30))
    assert color_planar(grid.graph, 1, grid.rotation).report.ok
    assert any(label.endswith(">far") for label in labels)
    assert counter.calls["checks"] == 21 + 43
    assert counter.calls["searches"] > 0 and counter.repeats == {"searches": 0, "checks": 0}


def test_planar_reach_checks_stop_at_their_targets(monkeypatch):
    """A count, not a timing: the searches `color_planar` makes on the unit
    30x30 grid and the vertices they settle, by calling function and by
    whether the search stops at targets.  The checks that ask only whether
    named vertices lie in a ball stop once those are settled.  When every
    search read its whole ball, the same run settled 85,576 vertices:
    47,103 in `_control_rec` (38,568 of them in its zone guard checks),
    3,970 in `condense`'s 52 shortcut searches and 3,406 in
    `CenterCertificate.build`.  The centre balls (`ball`, in
    `_check_centers`) are read whole, then as now."""
    import wdcolor.graph as graph

    calls, settled = {}, {}
    for name in ("_level_search", "_heap_search"):
        def counted(sadj, srcs, cap, within, targets, *rest, _search=getattr(graph, name)):
            found = _search(sadj, srcs, cap, within, targets, *rest)
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] == "wdcolor.graph":
                frame = frame.f_back
            key = (frame.f_code.co_name, targets is not None)
            calls[key] = calls.get(key, 0) + 1
            settled[key] = settled.get(key, 0) + len(found)
            return found

        monkeypatch.setattr(graph, name, counted)
    grid = generate(GeneratorSpec(family="grid", rows=30, cols=30))
    assert color_planar(grid.graph, 1, grid.rotation).report.ok
    assert {key: (calls[key], settled[key]) for key in calls} == {
        ("_color_slabs", False): (17, 3596),
        ("_control_rec", False): (35, 5275),
        ("_control_rec", True): (180, 2699),
        ("ball", False): (226, 25380),
        ("bfs_geodesic_tree", False): (1, 900),
        ("build", True): (14, 2498),
        ("condense", False): (5, 112),
        ("condense", True): (47, 2002),
        ("lift_condensation_coloring", False): (5, 209),
        ("verify", False): (1, 900),
    }
    assert sum(settled.values()) == 43571


def test_planar_windows_search_parts_without_copying_them(monkeypatch):
    """On the unit 30x30 grid, which reaches the far branch and condenses
    shortcut parts: `condense` copies no graph (its condensed graph reads
    the base edges off the host), `_control_rec`
    copies no part to search inside it, and each window piece restricts
    the tripod certificate once.  Copies are `induced` calls, a view's
    too, counted by the function that makes them."""
    import wdcolor.geodesic as geodesic

    copies = {}
    induced = WeightedGraph.induced

    def counted(self, keep):
        caller = sys._getframe(1).f_code.co_name
        copies[caller] = copies.get(caller, 0) + 1
        return induced(self, keep)

    monkeypatch.setattr(WeightedGraph, "induced", counted)
    condensations, restrictions = [], []
    condense, restrict = geodesic.condense, geodesic._restrict_tripods

    def recorded_condense(*args, **kwargs):
        condensations.append(condense(*args, **kwargs))
        return condensations[-1]

    def recorded_restrict(*args):
        restrictions.append(args)
        return restrict(*args)

    monkeypatch.setattr(geodesic, "condense", recorded_condense)
    monkeypatch.setattr(geodesic, "_restrict_tripods", recorded_restrict)
    grid = generate(GeneratorSpec(family="grid", rows=30, cols=30))
    res = color_planar(grid.graph, 1, grid.rotation)
    assert res.report.ok
    assert any(c.shortcut_parts for c in condensations)
    assert "condense" not in copies
    assert "_control_rec" not in copies
    pieces = sum(
        len(grid.graph.induced(slab.window).connected_components())
        for system in res.systems
        for slab in system.slabs
    )
    assert len(restrictions) == pieces
    # one copy per slab window and none of the grid, which is its own
    # component: every window is one piece here, and a one-piece window is
    # coloured as it is
    assert pieces == 16 and copies.get("_color_slabs") == 16


def test_unit_weight_planar_runs_push_nothing_onto_a_heap(monkeypatch):
    """Every search on a graph whose edges all weigh the same runs by levels,
    so `color_planar` on the unit 20x20 grid pushes no heap entry.  On the
    weighted 12x12 overlay the weights differ and the heap search runs."""
    import heapq

    import wdcolor.graph as graph
    from wdcolor.generators import overlay_random_weights

    pushes = []

    class CountingHeapq:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, item):
            pushes.append(item)
            heapq.heappush(heap, item)

    monkeypatch.setattr(graph, "heapq", CountingHeapq)
    grid = generate(GeneratorSpec(family="grid", rows=20, cols=20))
    assert color_planar(grid.graph, 1, grid.rotation).report.ok
    assert pushes == []
    small = generate(GeneratorSpec(family="grid", rows=12, cols=12))
    weighted = overlay_random_weights(small.graph, 3, Fraction(1, 4), 1, 4)
    assert color_planar(weighted, 1, small.rotation).report.ok
    assert len(pushes) > 0


def _unit_path(n):
    return WeightedGraph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def test_a_certificate_is_accepted_only_in_the_graph_it_was_built_on():
    g = _unit_path(5)
    twin = _unit_path(5)
    cert = CenterCertificate.build(g, [2], 2, range(5))
    c = Coloring.constant({0, 1, 3, 4}, 1)
    with pytest.raises(GraphError, match="not checked in this graph"):
        patch_colorings(twin, 1, cert, (), None, c)
    with pytest.raises(GraphError, match="not checked in this graph"):
        centered_color(twin, 1, (), cert)
    assert patch_colorings(g, 1, cert, (), None, c).report.ok
    assert centered_color(g, 1, (), cert).report.ok
    assert cert.graph is g


def test_a_certificate_made_without_build_is_accepted_nowhere():
    g = _unit_path(3)
    cert = CenterCertificate((1,), Fraction(1), (0, 1, 2), 1)
    with pytest.raises(GraphError, match="not checked in this graph"):
        centered_color(g, 1, (), cert)
    assert cert.graph is None
