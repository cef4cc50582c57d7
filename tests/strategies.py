"""Shared hypothesis strategies and deterministic random generators."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from hypothesis import strategies as st

from wdcolor.graph import WeightedGraph


@st.composite
def rationals(draw, min_value: int = 1, max_num: int = 12, max_den: int = 8):
    num = draw(st.integers(min_value=min_value, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=max_den))
    return Fraction(num, den)


def bound_inputs():
    """Bound arguments N: small fractions, and 60-digit whole and fractional
    values like the bounds of nested levels."""
    big = st.integers(min_value=10 ** 59, max_value=10 ** 60 - 1)
    return st.one_of(
        rationals(min_value=1, max_num=60, max_den=7),
        big.map(Fraction),
        st.builds(Fraction, big, st.integers(min_value=2, max_value=9)),
    )


@st.composite
def weighted_graphs(draw, max_n: int = 12, max_extra_edges: int = 14, connected: bool = True):
    """Random spanning-tree-plus-chords graphs with small rational weights."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges: List[Tuple[int, int, Fraction]] = []
    if connected:
        for v in range(1, n):
            u = draw(st.integers(min_value=0, max_value=v - 1))
            edges.append((u, v, draw(rationals())))
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        if n < 2:
            break
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        edges.append((u, v, draw(rationals())))
    return WeightedGraph(range(n), edges)


@st.composite
def rooted_trees(draw, max_nodes: int = 12, max_vertices: int = 10):
    """A RootedTreeDecomposition over random node ids, with random bags of
    small vertex ids and a random root, so that tree edges point either way
    from the order in which they were drawn."""
    from wdcolor.treedec import RootedTreeDecomposition

    n = draw(st.integers(min_value=1, max_value=max_nodes))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)]
    vertices = range(draw(st.integers(min_value=1, max_value=max_vertices)))
    bags = {t: draw(st.frozensets(st.sampled_from(vertices), max_size=4)) for t in ids}
    return RootedTreeDecomposition(bags, edges, draw(st.sampled_from(ids)))


def random_connected_graph(
    rng: random.Random,
    n: int,
    extra_edges: int,
    weight_den: int = 16,
    max_weight: Optional[Fraction] = None,
) -> WeightedGraph:
    """Deterministic random connected multigraph (tree plus chords)."""
    hi = max_weight if max_weight is not None else Fraction(4)
    edges: List[Tuple[int, int, Fraction]] = []

    def wgt() -> Fraction:
        num = rng.randint(1, hi.numerator * weight_den)
        return Fraction(num, hi.denominator * weight_den)

    for v in range(1, n):
        edges.append((rng.randint(0, v - 1), v, wgt()))
    for _ in range(extra_edges):
        if n < 2:
            break
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v:
            edges.append((u, v, wgt()))
    return WeightedGraph(range(n), edges)


def random_td_instance(
    rng: random.Random,
    n_vertices: int = 12,
    n_nodes: int = 6,
    ell: Fraction = Fraction(2),
    weight_den: int = 8,
    edges_per_bag: int = 3,
):
    """Random graph together with a valid rooted tree decomposition, built
    decomposition-first: each vertex occupies a connected node subtree and
    graph edges only join vertices sharing a bag."""
    from wdcolor.treedec import RootedTreeDecomposition

    parents = {0: None}
    for t in range(1, n_nodes):
        parents[t] = rng.randrange(t)
    children = {t: [s for s in range(n_nodes) if parents[s] == t] for t in range(n_nodes)}
    node_sets = []
    for _ in range(n_vertices):
        nodes = {rng.randrange(n_nodes)}
        for _ in range(rng.randint(0, 2)):
            t = rng.choice(sorted(nodes))
            cand = ([parents[t]] if parents[t] is not None else []) + children[t]
            if cand:
                nodes.add(rng.choice(cand))
        node_sets.append(nodes)
    bags = {
        t: frozenset(v for v in range(n_vertices) if t in node_sets[v])
        for t in range(n_nodes)
    }
    edges = []
    for t in range(n_nodes):
        bag = sorted(bags[t])
        for _ in range(edges_per_bag):
            if len(bag) < 2:
                break
            u, v = rng.sample(bag, 2)
            num = rng.randint(1, ell.numerator * weight_den)
            edges.append((u, v, Fraction(num, ell.denominator * weight_den)))
    g = WeightedGraph(range(n_vertices), edges)
    td = RootedTreeDecomposition(
        bags, [(parents[t], t) for t in range(1, n_nodes)], 0
    )
    return g, td
