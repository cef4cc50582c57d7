"""Deterministic instance generators, each carrying its own certificate.

Every family is driven by one seeded PRNG stream, so a (family, parameters,
seed) triple always reproduces the same instance byte for byte.  Grids come
with their row layering, a planar rotation system, a path decomposition
into pairs of adjacent columns and, with unit weights, a tripod certificate
in corner form; k-trees come with the width-k tree decomposition they grew
along; triangulations come with their rotation system.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graph import GraphError, WeightedGraph, as_fraction, frac_str, json_int, json_int_key
from .treedec import RootedTreeDecomposition, validate_td
from .tripods import GeodesicCertificate, GeodesicTree

FAMILIES = (
    "path",
    "cycle",
    "grid",
    "ktree",
    "random-series-parallel",
    "random-planar-triangulation",
    "random-weights-overlay",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: a family, its size knobs, and the weight law.

    Weights are uniform rationals k/denominator inside [weight_lo,
    weight_hi]; the default law is constant unit weights.  The overlay
    family redraws weights on a base graph supplied separately.
    """

    family: str
    n: int = 0
    rows: int = 0
    cols: int = 0
    k: int = 2
    seed: int = 0
    weight_lo: object = 1
    weight_hi: object = 1
    weight_den: int = 1


@dataclass(frozen=True)
class Instance:
    family: str
    graph: WeightedGraph
    td: Optional[RootedTreeDecomposition] = None
    rotation: Optional[Dict[int, Tuple[int, ...]]] = None
    layering: Optional[Tuple[Tuple[int, ...], ...]] = None
    tripods: Optional[GeodesicCertificate] = None


def _draw_weight(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    kmin = -((-lo * den).__floor__())
    kmax = (hi * den).__floor__()
    if kmin > kmax:
        raise GraphError(
            "no multiple of 1/%d lies in [%s, %s]" % (den, frac_str(lo), frac_str(hi))
        )
    return Fraction(rng.randint(kmin, kmax), den)


def _weights(spec: GeneratorSpec, rng: random.Random, count: int) -> List[Fraction]:
    lo = as_fraction(spec.weight_lo)
    hi = as_fraction(spec.weight_hi)
    if lo <= 0 or hi < lo:
        raise GraphError("need 0 < weight_lo <= weight_hi")
    if spec.weight_den < 1:
        raise GraphError("weight denominator must be a positive integer")
    if lo == hi:
        return [lo] * count
    return [_draw_weight(rng, lo, hi, spec.weight_den) for _ in range(count)]


def overlay_random_weights(
    g: WeightedGraph, seed: int, lo: object, hi: object, den: int
) -> WeightedGraph:
    """Same graph, fresh uniform rational weights with resolution 1/den."""
    lof = as_fraction(lo)
    hif = as_fraction(hi)
    if lof <= 0 or hif < lof:
        raise GraphError("need 0 < lo <= hi")
    if den < 1:
        raise GraphError("weight denominator must be a positive integer")
    rng = random.Random(seed)
    edges = [(u, v, _draw_weight(rng, lof, hif, den)) for (u, v, _) in g.edges]
    return WeightedGraph(g.vertices, edges)


def gen_path(spec: GeneratorSpec) -> Instance:
    n = spec.n
    if n < 1:
        raise GraphError("path needs n >= 1")
    rng = random.Random(spec.seed)
    ws = _weights(spec, rng, n - 1)
    edges = [(v, v + 1, ws[v]) for v in range(n - 1)]
    layering = tuple((v,) for v in range(n))
    bags = {0: frozenset({0})}
    bags.update({v: frozenset({v - 1, v}) for v in range(1, n)})
    g = WeightedGraph(range(n), edges)
    td = RootedTreeDecomposition(bags, [(v - 1, v) for v in range(1, n)], 0)
    validate_td(g, td, "path certificate failed validation")
    return Instance("path", g, td=td, layering=layering)


def gen_cycle(spec: GeneratorSpec) -> Instance:
    n = spec.n
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    rng = random.Random(spec.seed)
    ws = _weights(spec, rng, n)
    edges = [(v, (v + 1) % n, ws[v]) for v in range(n)]
    rotation = {v: ((v - 1) % n, (v + 1) % n) for v in range(n)}
    return Instance("cycle", WeightedGraph(range(n), edges), rotation=rotation)


def _grid_tripods(rows: int, cols: int) -> GeodesicCertificate:
    """Column tripod certificate over the comb tree, in corner form: spine
    along row 0, teeth down each column, and one node per pair of adjacent
    columns whose corners are the two column bottoms, so each bag is two
    full column paths with the spine to their left.  The certified root
    distances i + j hold for unit weights only."""
    vid = lambda i, j: i * cols + j
    parent: Dict[int, Optional[int]] = {0: None}
    dist: Dict[int, Fraction] = {}
    for j in range(1, cols):
        parent[vid(0, j)] = vid(0, j - 1)
    for j in range(cols):
        for i in range(1, rows):
            parent[vid(i, j)] = vid(i - 1, j)
    for i in range(rows):
        for j in range(cols):
            dist[vid(i, j)] = Fraction(i + j)
    bottom = [vid(rows - 1, j) for j in range(cols)]
    if cols == 1:
        corners = {0: (bottom[0],)}
    else:
        corners = {t: (bottom[t], bottom[t + 1]) for t in range(cols - 1)}
    edges = tuple((t - 1, t) for t in range(1, len(corners)))
    return GeodesicCertificate(GeodesicTree(0, parent, dist), corners, {t: 0 for t in corners}, edges, 0)


def _grid_columns(rows: int, cols: int) -> RootedTreeDecomposition:
    """The path decomposition of a grid whose bags are pairs of adjacent
    columns: valid for any weights, width 2*rows - 1 (rows - 1 for one
    column)."""
    column = lambda j: [i * cols + j for i in range(rows)]
    if cols == 1:
        return RootedTreeDecomposition({0: column(0)}, [], 0)
    bags = {t: column(t) + column(t + 1) for t in range(cols - 1)}
    return RootedTreeDecomposition(bags, [(t - 1, t) for t in range(1, cols - 1)], 0)


def gen_grid(spec: GeneratorSpec) -> Instance:
    rows, cols = spec.rows, spec.cols
    if rows < 1 or cols < 1:
        raise GraphError("grid needs rows >= 1 and cols >= 1")
    vid = lambda i, j: i * cols + j
    rng = random.Random(spec.seed)
    raw: List[Tuple[int, int]] = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                raw.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                raw.append((vid(i, j), vid(i + 1, j)))
    ws = _weights(spec, rng, len(raw))
    edges = [(u, v, w) for (u, v), w in zip(raw, ws)]
    rotation: Dict[int, Tuple[int, ...]] = {}
    for i in range(rows):
        for j in range(cols):
            order: List[int] = []
            if i > 0:
                order.append(vid(i - 1, j))
            if j + 1 < cols:
                order.append(vid(i, j + 1))
            if i + 1 < rows:
                order.append(vid(i + 1, j))
            if j > 0:
                order.append(vid(i, j - 1))
            rotation[vid(i, j)] = tuple(order)
    layering = tuple(tuple(vid(i, j) for j in range(cols)) for i in range(rows))
    g = WeightedGraph(range(rows * cols), edges)
    td = _grid_columns(rows, cols)
    validate_td(g, td, "grid column decomposition failed validation")
    unit = all(w == 1 for w in ws)
    return Instance(
        "grid", g, td=td, rotation=rotation, layering=layering,
        tripods=_grid_tripods(rows, cols) if unit else None,
    )


def gen_ktree(spec: GeneratorSpec) -> Instance:
    n, k = spec.n, spec.k
    if k < 1 or n < k + 1:
        raise GraphError("ktree needs k >= 1 and n >= k + 1")
    rng = random.Random(spec.seed)
    base = list(range(k + 1))
    raw: List[Tuple[int, int]] = [(a, b) for ai, a in enumerate(base) for b in base[ai + 1:]]
    bags: Dict[int, frozenset] = {0: frozenset(base)}
    td_edges: List[Tuple[int, int]] = []
    cliques: List[Tuple[frozenset, int]] = [
        (frozenset(base) - {x}, 0) for x in base
    ]
    for v in range(k + 1, n):
        clique, owner = cliques[rng.randrange(len(cliques))]
        for u in sorted(clique):
            raw.append((u, v))
        node = v
        bags[node] = clique | {v}
        td_edges.append((owner, node))
        for x in sorted(clique):
            cliques.append(((clique - {x}) | {v}, node))
    ws = _weights(spec, rng, len(raw))
    edges = [(u, v, w) for (u, v), w in zip(raw, ws)]
    g = WeightedGraph(range(n), edges)
    td = RootedTreeDecomposition(bags, td_edges, 0)
    if td.width != k:
        raise GraphError("ktree construction drifted from width %d" % k)
    validate_td(g, td, "ktree certificate failed validation")
    return Instance("ktree", g, td=td)


def gen_series_parallel(spec: GeneratorSpec) -> Instance:
    """Random series-parallel graph grown from one edge by subdividing an
    edge (series) or doubling it with a fresh 2-path (parallel)."""
    n = spec.n
    if n < 2:
        raise GraphError("series-parallel needs n >= 2")
    rng = random.Random(spec.seed)
    pairs: List[Tuple[int, int]] = [(0, 1)]
    nxt = 2
    while nxt < n:
        u, v = pairs[rng.randrange(len(pairs))]
        w = nxt
        nxt += 1
        if rng.random() < 0.5:
            pairs.remove((u, v))
            pairs.append((u, w))
            pairs.append((w, v))
        else:
            pairs.append((u, w))
            pairs.append((w, v))
    ws = _weights(spec, rng, len(pairs))
    edges = [(u, v, wt) for (u, v), wt in zip(pairs, ws)]
    return Instance("random-series-parallel", WeightedGraph(range(n), edges))


def gen_triangulation(spec: GeneratorSpec) -> Instance:
    """Random planar triangulation grown by repeatedly dropping a fresh
    vertex into a uniformly chosen triangular face, rotation system kept
    consistent throughout."""
    n = spec.n
    if n < 3:
        raise GraphError("triangulation needs n >= 3")
    rng = random.Random(spec.seed)
    rotation: Dict[int, List[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    faces: List[Tuple[int, int, int]] = [(0, 1, 2), (0, 2, 1)]
    pairs: List[Tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.extend([(a, b, v), (b, c, v), (c, a, v)])
        pairs.extend([(a, v), (b, v), (c, v)])
        rotation[v] = [a, c, b]
        for x, nxt_corner, prev_corner in ((a, b, c), (b, c, a), (c, a, b)):
            order = rotation[x]
            order.insert(order.index(nxt_corner), v)
    ws = _weights(spec, rng, len(pairs))
    edges = [(u, v, w) for (u, v), w in zip(pairs, ws)]
    g = WeightedGraph(range(n), edges)
    return Instance(
        "random-planar-triangulation", g,
        rotation={v: tuple(order) for v, order in rotation.items()},
    )


def generate(spec: GeneratorSpec, base: Optional[WeightedGraph] = None) -> Instance:
    """Dispatch a GeneratorSpec; the overlay family needs the base graph."""
    if spec.family == "path":
        return gen_path(spec)
    if spec.family == "cycle":
        return gen_cycle(spec)
    if spec.family == "grid":
        return gen_grid(spec)
    if spec.family == "ktree":
        return gen_ktree(spec)
    if spec.family == "random-series-parallel":
        return gen_series_parallel(spec)
    if spec.family == "random-planar-triangulation":
        return gen_triangulation(spec)
    if spec.family == "random-weights-overlay":
        if base is None:
            raise GraphError("weight overlay needs a base graph")
        g = overlay_random_weights(
            base, spec.seed, spec.weight_lo, spec.weight_hi, spec.weight_den
        )
        return Instance("random-weights-overlay", g)
    raise GraphError("unknown generator family %r" % (spec.family,))


# -- certificate (de)serialization ---------------------------------------------


def rotation_to_json(rotation: Dict[int, Tuple[int, ...]]) -> dict:
    return {"rotation": {str(v): list(order) for v, order in sorted(rotation.items())}}


def _json_list(x: object, what: str) -> list:
    if isinstance(x, list):
        return x
    raise GraphError("%s must be a JSON array, got %r" % (what, x))


def rotation_from_json(data: dict) -> Dict[int, Tuple[int, ...]]:
    """Only JSON integers pass as neighbours and decimal strings as keys;
    int() would truncate 1.25 or read true as 1."""
    try:
        rotation = data["rotation"]
        if not isinstance(rotation, dict):
            raise GraphError("rotation must be an object, got %r" % (rotation,))
        return {
            json_int_key(v, "rotation vertex"): tuple(
                json_int(u, "rotation neighbour") for u in _json_list(order, "rotation order")
            )
            for v, order in rotation.items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed rotation JSON: %s" % (exc,))


def layering_to_json(layering: Sequence[Sequence[int]]) -> dict:
    return {"layers": [sorted(layer) for layer in layering]}


def layering_from_json(data: dict) -> Tuple[Tuple[int, ...], ...]:
    """Only JSON integers pass as layer members."""
    try:
        return tuple(
            tuple(json_int(v, "layer member") for v in _json_list(layer, "layer"))
            for layer in _json_list(data["layers"], "layers")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed layering JSON: %s" % (exc,))


def tripods_to_json(cert: GeodesicCertificate) -> dict:
    """The certificate in corner form: the geodesic tree, and per node its
    corners and top, the node tree's (parent, child) edges and its root."""
    return {
        "tree": {
            "root": cert.tree.root,
            "parent": {str(v): p for v, p in sorted(cert.tree.parent.items())},
            "dist": {str(v): frac_str(d) for v, d in sorted(cert.tree.dist.items())},
        },
        "nodes": [
            {"id": t, "corners": list(cs), "top": cert.tops[t]} for t, cs in sorted(cert.corners.items())
        ],
        "edges": [list(e) for e in cert.tree_edges],
        "root": cert.root,
    }
