"""Generator families: seeded determinism, certificates that validate, and
certificate JSON that survives its writer and loader."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

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
from wdcolor.graph import write_edge_list
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
