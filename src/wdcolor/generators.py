"""Deterministic instance generators, each carrying its own certificate.

Every family is driven by one seeded PRNG stream, so a (family, parameters,
seed) triple always reproduces the same instance byte for byte.  Grids come
with their row layering, a planar rotation system, a path decomposition
into pairs of adjacent columns and, with unit weights, a tripod certificate
in corner form; k-trees come with the width-k tree decomposition they grew
along; triangulations come with their rotation system.

Each certificate is built in the pass that grows its instance: a path's and
a grid's decomposition from the node each bag follows, a k-tree's from the
owner of the clique each vertex is hung on (`RootedTreeDecomposition._grown`,
which checks only that each parent is made before its child under one
root; `validate_td` then checks the axioms), a grid's tripod certificate
from one Fraction per root distance.  Weights come from a few shared
objects, one per drawn multiple of 1/den, and every later step (the
graph's check, the grid's unit test, the edge list's and the certificate's
text) handles each distinct object once.

Costs, for n vertices and m edges:
- path, cycle, r x c grid: one pass over the vertices and edges, O(n + m);
- k-tree: O(k) edges and k new cliques per vertex, O(k^2 n);
- series-parallel graph, triangulation: each vertex draws a uniform live
  item (an edge to subdivide or double, a face to split) and may take it
  out.  The live items sit in a `_BlockedList`, which finds and takes out
  the item at an index in O(log n) steps plus a shift of one block of at
  most 512 items, so the draws cost O(n log n) in all, where a plain
  list's scan by value or shift cost O(n) each.  A triangulation also
  inserts each fresh vertex into its three corners' rotations, at the cost
  of their degrees.
`generate` pauses the cyclic garbage collector while an instance grows
(see there).
"""

import gc
import random
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .graph import GraphError, Record, WeightedGraph, as_fraction, cut_frac, frac_str, json_int, json_int_key
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


class GeneratorSpec(Record):
    """What to generate: a family, its size knobs, and the weight law.

    Weights are uniform rationals k/denominator inside [weight_lo,
    weight_hi]; the default law is constant unit weights.  The overlay
    family redraws weights on a base graph supplied separately.
    """

    __slots__ = ("family", "n", "rows", "cols", "k", "seed", "weight_lo", "weight_hi", "weight_den")

    _defaults = {"n": 0, "rows": 0, "cols": 0, "k": 2, "seed": 0, "weight_lo": 1, "weight_hi": 1, "weight_den": 1}


class Instance(Record):
    """A generated graph with the certificates its family comes with: a
    tree decomposition, a rotation system, a layering and a tripod
    certificate, each None where the family has none."""

    __slots__ = ("family", "graph", "td", "rotation", "layering", "tripods")

    _defaults = {"td": None, "rotation": None, "layering": None, "tripods": None}


class _BlockedList:
    """A list that grows at its end and takes out items at any index, with
    the order and indices of a plain list.  The items sit in sealed blocks
    of BLOCK items, then an open tail; a Fenwick tree over the sealed
    blocks' sizes finds the block holding index k in O(log n) steps, and
    taking an item out shifts only its block.  A list of at most BLOCK
    items is its tail alone, so a small instance draws from one list."""

    BLOCK = 512

    __slots__ = ("blocks", "tree", "sealed", "tail")

    def __init__(self, items: Iterable[tuple]):
        self.blocks: List[List[tuple]] = []
        self.tree: List[int] = [0]  # Fenwick tree, 1-based: tree[i] sums the sizes of blocks (i - lowbit(i), i]
        self.sealed = 0  # items in sealed blocks
        self.tail: List[tuple] = []
        for x in items:
            self.append(x)

    def __len__(self) -> int:
        return self.sealed + len(self.tail)

    def __iter__(self) -> Iterator[tuple]:
        return chain(chain.from_iterable(self.blocks), self.tail)

    def append(self, x: tuple) -> None:
        tail = self.tail
        tail.append(x)
        if len(tail) == self.BLOCK:
            blocks, tree = self.blocks, self.tree
            blocks.append(tail)
            i = len(blocks)
            size, j, stop = len(tail), i - 1, i - (i & -i)
            while j > stop:
                size += tree[j]
                j -= j & -j
            tree.append(size)
            self.sealed += len(tail)
            self.tail = []

    def _find(self, k: int) -> Tuple[int, int]:
        """(block, offset) of sealed index k < self.sealed: the Fenwick
        descent to the last block whose prefix size is at most k."""
        tree = self.tree
        n = len(tree) - 1
        pos, step = 0, 1 << (n.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= n and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return pos, k

    def __getitem__(self, k: int) -> tuple:
        if k >= self.sealed:
            return self.tail[k - self.sealed]
        b, i = self._find(k)
        return self.blocks[b][i]

    def pop(self, k: int) -> tuple:
        if k >= self.sealed:
            return self.tail.pop(k - self.sealed)
        b, i = self._find(k)
        x = self.blocks[b].pop(i)
        self.sealed -= 1
        tree = self.tree
        n = len(tree) - 1
        j = b + 1
        while j <= n:
            tree[j] -= 1
            j += j & -j
        return x


def _draw_weights(rng: random.Random, lo: Fraction, hi: Fraction, den: int, count: int) -> List[Fraction]:
    """`count` weights k/den, each k drawn by rng.randrange(kmin, kmax + 1)
    over the multiples kmin/den .. kmax/den of 1/den in [lo, hi], the call
    rng.randint(kmin, kmax) makes, so the stream is randint's.  The range
    is worked out once, and each k's Fraction is built on its first draw
    and reused after."""
    kmin = -((-lo * den).__floor__())
    kmax = (hi * den).__floor__()
    if count and kmin > kmax:
        raise GraphError(
            "no multiple of 1/%d lies in [%s, %s]" % (den, cut_frac(lo), cut_frac(hi))
        )
    drawn: Dict[int, Fraction] = {}
    out: List[Fraction] = []
    stop = kmax + 1
    for _ in range(count):
        k = rng.randrange(kmin, stop)
        w = drawn.get(k)
        if w is None:
            w = drawn[k] = Fraction(k, den)
        out.append(w)
    return out


def _weights(spec: GeneratorSpec, rng: random.Random, count: int) -> List[Fraction]:
    lo = as_fraction(spec.weight_lo)
    hi = as_fraction(spec.weight_hi)
    if lo <= 0 or hi < lo:
        raise GraphError("need 0 < weight_lo <= weight_hi")
    if spec.weight_den < 1:
        raise GraphError("weight denominator must be a positive integer")
    if lo == hi:
        return [lo] * count
    return _draw_weights(rng, lo, hi, spec.weight_den, count)


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
    ws = _draw_weights(rng, lof, hif, den, len(g.edges))
    return WeightedGraph(g.vertices, [(u, v, w) for (u, v, _), w in zip(g.edges, ws)])


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
    parent: Dict[int, Optional[int]] = {0: None}
    parent.update({v: v - 1 for v in range(1, n)})
    g = WeightedGraph(range(n), edges)
    td = RootedTreeDecomposition._grown(bags, parent)
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
    distances i + j hold for unit weights only; one Fraction is built per
    distance and shared by every vertex at it."""
    parent: Dict[int, Optional[int]] = {0: None}
    depth = [Fraction(d) for d in range(rows + cols - 1)]
    for j in range(1, cols):
        parent[j] = j - 1
    for j in range(cols):
        for v in range(j + cols, rows * cols, cols):
            parent[v] = v - cols
    dist = {i * cols + j: depth[i + j] for i in range(rows) for j in range(cols)}
    bottom = [(rows - 1) * cols + j for j in range(cols)]
    if cols == 1:
        corners = {0: (bottom[0],)}
    else:
        corners = {t: (bottom[t], bottom[t + 1]) for t in range(cols - 1)}
    edges = tuple((t - 1, t) for t in range(1, len(corners)))
    return GeodesicCertificate(GeodesicTree(0, parent, dist), corners, {t: 0 for t in corners}, edges, 0)


def _grid_columns(rows: int, cols: int) -> RootedTreeDecomposition:
    """The path decomposition of a grid whose bags are pairs of adjacent
    columns, each node below the one before: valid for any weights, width
    2*rows - 1 (rows - 1 for one column)."""
    column = lambda j: [i * cols + j for i in range(rows)]
    if cols == 1:
        return RootedTreeDecomposition._grown({0: frozenset(column(0))}, {0: None})
    bags = {t: frozenset(column(t) + column(t + 1)) for t in range(cols - 1)}
    parent: Dict[int, Optional[int]] = {t: t - 1 for t in range(1, cols - 1)}
    parent[0] = None
    return RootedTreeDecomposition._grown(bags, parent)


def gen_grid(spec: GeneratorSpec) -> Instance:
    rows, cols = spec.rows, spec.cols
    if rows < 1 or cols < 1:
        raise GraphError("grid needs rows >= 1 and cols >= 1")
    rng = random.Random(spec.seed)
    raw: List[Tuple[int, int]] = []
    rotation: Dict[int, Tuple[int, ...]] = {}
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            order: List[int] = []
            if i > 0:
                order.append(v - cols)
            if j + 1 < cols:
                raw.append((v, v + 1))
                order.append(v + 1)
            if i + 1 < rows:
                raw.append((v, v + cols))
                order.append(v + cols)
            if j > 0:
                order.append(v - 1)
            rotation[v] = tuple(order)
    ws = _weights(spec, rng, len(raw))
    edges = [(u, v, w) for (u, v), w in zip(raw, ws)]
    layering = tuple(tuple(range(i * cols, (i + 1) * cols)) for i in range(rows))
    g = WeightedGraph(range(rows * cols), edges)
    td = _grid_columns(rows, cols)
    validate_td(g, td, "grid column decomposition failed validation")
    # the drawn weights share one object per value: compare each object once
    unit = all(w == 1 for w in {id(w): w for w in ws}.values())
    return Instance(
        "grid", g, td=td, rotation=rotation, layering=layering,
        tripods=_grid_tripods(rows, cols) if unit else None,
    )


def gen_ktree(spec: GeneratorSpec) -> Instance:
    """Random k-tree grown from a (k+1)-clique by hanging each fresh vertex
    on a uniformly drawn k-clique.  The vertex's bag is the clique and
    itself, below the bag the clique came from; each clique is kept as a
    sorted tuple, and the fresh vertex is the largest so far, so the k new
    cliques it closes are sorted as they are made."""
    n, k = spec.n, spec.k
    if k < 1 or n < k + 1:
        raise GraphError("ktree needs k >= 1 and n >= k + 1")
    rng = random.Random(spec.seed)
    base = tuple(range(k + 1))
    raw: List[Tuple[int, int]] = [(a, b) for ai, a in enumerate(base) for b in base[ai + 1:]]
    bags: Dict[int, frozenset] = {0: frozenset(base)}
    parent: Dict[int, Optional[int]] = {0: None}
    cliques: List[Tuple[Tuple[int, ...], int]] = [
        (base[:i] + base[i + 1:], 0) for i in range(k + 1)
    ]
    for v in range(k + 1, n):
        clique, owner = cliques[rng.randrange(len(cliques))]
        raw.extend([(u, v) for u in clique])
        bags[v] = frozenset(clique + (v,))
        parent[v] = owner
        cliques.extend([(clique[:i] + clique[i + 1:] + (v,), v) for i in range(k)])
    ws = _weights(spec, rng, len(raw))
    edges = [(u, v, w) for (u, v), w in zip(raw, ws)]
    g = WeightedGraph(range(n), edges)
    td = RootedTreeDecomposition._grown(bags, parent)
    if td.width != k:
        raise GraphError("ktree construction drifted from width %d" % k)
    validate_td(g, td, "ktree certificate failed validation")
    return Instance("ktree", g, td=td)


def gen_series_parallel(spec: GeneratorSpec) -> Instance:
    """Random series-parallel graph grown from one edge by subdividing an
    edge (series) or doubling it with a fresh 2-path (parallel).  Each new
    pair holds the fresh vertex, so the pairs are distinct and a subdivided
    edge goes by the index it was drawn at."""
    n = spec.n
    if n < 2:
        raise GraphError("series-parallel needs n >= 2")
    rng = random.Random(spec.seed)
    pairs = _BlockedList([(0, 1)])
    for w in range(2, n):
        i = rng.randrange(len(pairs))
        u, v = pairs.pop(i) if rng.random() < 0.5 else pairs[i]
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
    faces = _BlockedList([(0, 1, 2), (0, 2, 1)])
    pairs: List[Tuple[int, int]] = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.append((a, b, v))
        faces.append((b, c, v))
        faces.append((c, a, v))
        pairs.extend([(a, v), (b, v), (c, v)])
        rotation[v] = [a, c, b]
        for x, nxt_corner in ((a, b), (b, c), (c, a)):
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
    """Dispatch a GeneratorSpec; the overlay family needs the base graph.

    The cyclic garbage collector is paused while the instance grows and
    restored after, as it was.  A family makes millions of small tuples,
    lists and sets that reference no cycle, and the collector would walk
    the whole growing heap again and again for nothing: at n = 160,000 a
    triangulation took about twice as long with it running (Python 3.11 on
    a 2-core VM)."""
    running = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(spec, base)
    finally:
        if running:
            gc.enable()


def _dispatch(spec: GeneratorSpec, base: Optional[WeightedGraph]) -> Instance:
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
    corners and top, the node tree's (parent, child) edges and its root.
    Vertices at one distance share its object, so each distance object's
    text is written once."""
    shared = {id(d): d for d in cert.tree.dist.values()}
    texts = {key: frac_str(d) for key, d in shared.items()}
    return {
        "tree": {
            "root": cert.tree.root,
            "parent": {str(v): p for v, p in sorted(cert.tree.parent.items())},
            "dist": {str(v): texts[id(d)] for v, d in sorted(cert.tree.dist.items())},
        },
        "nodes": [
            {"id": t, "corners": list(cs), "top": cert.tops[t]} for t, cs in sorted(cert.corners.items())
        ],
        "edges": [list(e) for e in cert.tree_edges],
        "root": cert.root,
    }
