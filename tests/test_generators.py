"""Generator families: seeded determinism, certificates that validate, and
certificate JSON that survives its writer and loader."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdcolor.generators import (
    GeneratorSpec,
    generate,
    layering_from_json,
    layering_to_json,
    overlay_random_weights,
    rotation_from_json,
    rotation_to_json,
)
from wdcolor.geodesic import bfs_geodesic_tree, layering_projection, tripod_decomposition
from wdcolor.graph import ContractViolation, GraphError, write_edge_list
from wdcolor.treedec import RootedTreeDecomposition, validate_td

WEIGHT_LAWS = (
    {},
    {"weight_lo": Fraction(1, 4), "weight_hi": Fraction(1), "weight_den": 4},
)


def _through_json(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def _check_certificates(inst):
    g = inst.graph
    if inst.td is not None:
        validate_td(g, inst.td, "generated")
        back = RootedTreeDecomposition.from_json_dict(_through_json(inst.td.to_json_dict()))
        assert back.to_json_dict() == inst.td.to_json_dict()
    if inst.rotation is not None:
        tree = bfs_geodesic_tree(g, min(g.vertices))
        tripod_decomposition(g, inst.rotation, tree).verify(g)
        assert rotation_from_json(_through_json(rotation_to_json(inst.rotation))) == inst.rotation
    if inst.layering is not None:
        eps0 = g.min_edge_weight() or 1
        projection = layering_projection(g, inst.layering, eps0)
        assert set(projection) == g.vertex_set()
        assert layering_from_json(_through_json(layering_to_json(inst.layering))) == inst.layering


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(("path", "cycle", "ktree")),
    n=st.integers(min_value=4, max_value=30),
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
    law=st.sampled_from(WEIGHT_LAWS),
)
def test_family_is_seeded_and_certified(family, n, k, seed, law):
    spec = GeneratorSpec(family=family, n=n, k=k, seed=seed, **law)
    inst = generate(spec)
    assert write_edge_list(generate(spec).graph) == write_edge_list(inst.graph)
    assert len(inst.graph) == n
    expected = {"path": ("td", "layering"), "cycle": ("rotation",), "ktree": ("td",)}[family]
    for name in ("td", "rotation", "layering"):
        assert (getattr(inst, name) is not None) == (name in expected)
    _check_certificates(inst)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=30),
    seed=st.integers(min_value=0, max_value=10**6),
    den=st.integers(min_value=1, max_value=8),
)
def test_weight_overlay_is_seeded_and_keeps_the_graph(n, seed, den):
    base = generate(GeneratorSpec(family="cycle", n=n)).graph
    lo, hi = Fraction(1, den), Fraction(2)
    g = overlay_random_weights(base, seed, lo, hi, den)
    assert write_edge_list(overlay_random_weights(base, seed, lo, hi, den)) == write_edge_list(g)
    spec = GeneratorSpec(
        family="random-weights-overlay", seed=seed, weight_lo=lo, weight_hi=hi, weight_den=den,
    )
    assert write_edge_list(generate(spec, base=base).graph) == write_edge_list(g)
    assert g.vertices == base.vertices
    assert [(u, v) for (u, v, _) in g.edges] == [(u, v) for (u, v, _) in base.edges]
    assert all(lo <= w <= hi and (w * den).denominator == 1 for (_, _, w) in g.edges)


def test_weighted_files_keep_their_bytes():
    """Digests of two weighted edge lists as the generators wrote them when
    each edge's weight range was worked out per draw: a path through
    `_weights` and a grid through the weight overlay."""
    path = generate(GeneratorSpec(family="path", n=2000, seed=5, weight_lo=Fraction(1, 4), weight_hi=1, weight_den=4))
    grid = generate(GeneratorSpec(family="grid", rows=12, cols=12)).graph
    spec = GeneratorSpec(
        family="random-weights-overlay", seed=3, weight_lo=Fraction(1, 3), weight_hi=Fraction(5, 2), weight_den=6,
    )
    overlay = generate(spec, base=grid)
    digest = lambda g: hashlib.sha256(write_edge_list(g).encode()).hexdigest()
    assert digest(path.graph) == "251e0645ef81c9d8684477381996e99f75f1fb7e4b66b29d26fffac68d418d46"
    assert digest(overlay.graph) == "dcc030772f5fe4cf7e2194f602d0c0bd23491905f6ffa383929c56d60e3adb3e"


@pytest.mark.parametrize("spec", [
    GeneratorSpec(family="path", n=1),
    GeneratorSpec(family="path", n=30, seed=2),
    GeneratorSpec(family="grid", rows=4, cols=1),
    GeneratorSpec(family="grid", rows=3, cols=2),
    GeneratorSpec(family="grid", rows=5, cols=6),
    GeneratorSpec(family="ktree", n=2, k=1),
    GeneratorSpec(family="ktree", n=60, k=1, seed=3),
    GeneratorSpec(family="ktree", n=60, k=2, seed=4),
    GeneratorSpec(family="ktree", n=60, k=3, seed=5),
])
def test_grown_tree_is_the_one_the_constructor_builds(spec):
    """The tree a generator grows (`RootedTreeDecomposition._grown`) has
    every field the general constructor gives the same bags, parent edges
    and root: bags and children in the same order, and the parent map
    equal (the constructor lists it in search order, the generator in the
    order it made the nodes)."""
    td = generate(spec).td
    ref = RootedTreeDecomposition(td.bags, [(p, c) for c, p in td.parent.items() if p is not None], td.root)
    assert list(td.bags.items()) == list(ref.bags.items())
    assert list(td.children.items()) == list(ref.children.items())
    assert td.parent == ref.parent
    assert (td.nodes, td.tree_edges, td.root) == (ref.nodes, ref.tree_edges, ref.root)


@pytest.mark.parametrize("parent, message", [
    ({0: None, 1: 2, 2: 1}, "grown tree: parent 2 of 1 is not made before it"),
    ({0: 0, 1: 0, 2: 1}, "grown tree: parent 0 of 0 is not made before it"),
    ({0: None, 1: 0, 2: None}, "grown tree has 2 roots"),
])
def test_grown_tree_rejects_parents_that_make_no_tree(parent, message):
    """The one property a grown tree relies on is checked: each parent is
    made before its child, and exactly one node is a root."""
    bags = {0: frozenset({0}), 1: frozenset({0, 1}), 2: frozenset({1, 2})}
    with pytest.raises(ContractViolation, match="^%s$" % message):
        RootedTreeDecomposition._grown(bags, parent)


@settings(max_examples=60, deadline=None)
@given(
    block=st.integers(min_value=1, max_value=6),
    start=st.integers(min_value=0, max_value=8),
    ops=st.lists(st.tuples(st.sampled_from(("append", "get", "pop")), st.integers(min_value=0, max_value=10**6)),
                 max_size=120),
)
def test_blocked_list_acts_as_a_plain_list(block, start, ops):
    """Appends, reads and pops by index give a plain list's items in a
    plain list's order, across many sealed blocks and the open tail."""
    from wdcolor.generators import _BlockedList

    class Small(_BlockedList):
        BLOCK = block

    plain = [(i,) for i in range(start)]
    blocked = Small(plain)
    for n, (op, x) in enumerate(ops):
        if op == "append" or not plain:
            plain.append((start + n,))
            blocked.append((start + n,))
        elif op == "get":
            assert blocked[x % len(plain)] == plain[x % len(plain)]
        else:
            assert blocked.pop(x % len(plain)) == plain.pop(x % len(plain))
        assert len(blocked) == len(plain)
    assert list(blocked) == plain


@pytest.mark.parametrize("enabled", [True, False])
def test_generate_leaves_the_collector_as_it_found_it(enabled):
    """generate pauses the cyclic collector while an instance grows and
    restores it after, on success and on a refused spec alike."""
    import gc

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        generate(GeneratorSpec(family="grid", rows=3, cols=3))
        assert gc.isenabled() == enabled
        with pytest.raises(GraphError):
            generate(GeneratorSpec(family="cycle", n=2))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
