"""Exact weighted multigraphs and their shortest-path metric.

All weights and distances are exact rationals.  Each graph keeps an
integer-scaled copy of its weights (common denominator cleared) so the
Dijkstra inner loop runs on machine integers; results convert back to
fractions on the way out.  `induced` and `without` share the parent's
validated, scaled adjacency: they filter its checked edges and keep its
scale, so no weight is parsed, validated or multiplied as a Fraction
again.  Graphs are immutable after construction and every operation here
is a pure function.

Each graph holds one adjacency, the integer one (`_sadj`), built with the
graph; every search and every check in the package reads it.  `neighbors`
derives (neighbour, exact weight) pairs from it on demand, for callers
outside the package.  The weight range is kept in the same units
(`_wrange`), and a radius becomes an integer search cap by one integer
division (`_scaled_cap`), so weight tests and caps build no Fraction.
`parse_edge_list` checks each line as it reads it and builds the graph
from those checked edges, as `induced` does; the public constructor
checks its arguments itself.

A `SubgraphView` is g[S] without the copy: it keeps g's adjacency,
unfiltered, and filters it by membership in S as it reads it, so a search
inside S costs what it reaches, not what g holds.  S only needs a fast
membership test and a size, and the view's weight range and largest
vertex id come from its maker.

Three searches answer three questions, all on the same integer search
(`WeightedGraph._search`).  It runs by levels (`_level_search`, a BFS) when
every edge weighs the same and as a heap Dijkstra (`_heap_search`)
otherwise, with the same result:
- exact distances: `WeightedGraph.distances_from`, one Fraction per
  reached vertex, only where a caller reads the values;
- membership within a radius ("is every vertex of S within r of C?"):
  `reached` when the check names its vertices, which stops once they are
  all settled, and `neighborhood` when the caller reads the whole ball;
  neither builds a Fraction;
- the diameter of a set: `metric_set_diameter` (`weak_diameter` on top of
  it), a few capped searches and one Fraction at the end.  A caller that
  has proved a bound on every distance in the set, as a weak-diameter
  check has from the hops, passes it as the starting bound of
  `set_diameter`, with a first source; where the bound is met, one search
  ends the run.
`_heap_search` reads a bare integer adjacency, so a check that holds one
without a graph (a hierarchy's forest, see `treedec.Hierarchy.verify`)
searches it with the same loop.

Every exact set diameter, in hops or in the metric, is `set_diameter`:
iFUB (Crescenzi et al., TCS 2013) searches a central member first and
then the members farthest from it, and stops once no two members left
can be farther apart than the longest distance found, with the
eccentricity bounds of Takes and Kosters pruning alongside.  A central
member comes cheap from the set's own inner graph, where a caller has
one (a monochromatic component's same-colour edges):
`central_vertex` sweeps it by BFS, a few times over |C| vertices.  Inner
hops are never shorter than host hops, so they only choose where to
start; every distance that counts comes from a host search.

The scale-ell power graph is measured in a metric host: g itself when no
edge of g is heavier than ell (the subdivision would only double each
edge), and the (g, ell)-subdivision otherwise.  Each vertex's sorted
neighbour tuple is written at once: the rest of its ball of radius ell,
one capped search per host vertex, except when every edge of g weighs in
(ell/2, ell]; then no two edges fit within ell and the neighbours are
g's own, read off its adjacency.
"""

from __future__ import annotations

import decimal
import heapq
import math
import re
from collections.abc import Set as AbstractSet
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


_first = itemgetter(0)

#: Distance of a disconnected pair; compares above every rational.
INF = math.inf

#: A distance: an exact nonnegative rational, or INF for disconnected pairs.
ExtendedDistance = object


#: Most digits a rational's text may stand for, counted as its length plus
#: the size of its exponent ("1e3000000" stands for 3,000,009).  Parsing and
#: formatting grow quadratically with the digits: 10**5 take under a
#: second, 10**6 over twenty.  The largest values the package writes are
#: proved bounds, 4,541 digits for a width-45 decomposition.
MAX_RATIONAL_DIGITS = 100_000

#: str(int) and int(str) refuse integers over the interpreter's int<->str
#: digit limit, which is never below 640 digits.  An integer under 2000
#: bits has at most 603 digits, and a text of at most 603 characters holds
#: no more, so these take the fast conversions under any limit.
_STR_BITS = 2000
_STR_CHARS = 603

_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")
_DIGITS = r"[0-9](?:_?[0-9])*"
_INTEGER_RATIO = re.compile(r"\s*([-+]?%s)(?:\s*/\s*(%s))?\s*\Z" % (_DIGITS, _DIGITS))
_DECIMAL_TEXT = re.compile(r"\s*[-+]?(?:%s(?:\.(?:%s)?)?|\.%s)(?:[eE][-+]?%s)?\s*\Z" % ((_DIGITS,) * 4))


def quoted_prefix(text: str, limit: int = 40) -> str:
    """repr(text), cut to its first `limit` characters and marked '...'
    when longer, for messages that quote input."""
    return repr(text) if len(text) <= limit else repr(text[:limit]) + "..."


def cut_frac(x: object, limit: int = 40) -> str:
    """frac_str(x), cut to its first `limit` characters and marked '...'
    when longer, for messages that quote a value."""
    text = frac_str(x)
    return text if len(text) <= limit else text[:limit] + "..."


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), after refusing text that stands for more than
    MAX_RATIONAL_DIGITS digits with a GraphError quoting a prefix of it.
    Text past the int<->str digit limit is read through Decimal, which has
    no such limit: an integer or p/q, as frac_str writes one, and decimal
    text.  Text that is no rational raises ValueError quoting a prefix of
    it."""
    size = len(text)
    m = _EXPONENT.search(text)
    if m:
        exponent = m.group(1).replace("_", "").lstrip("0") or "0"
        size += int(exponent) if len(exponent) < 10 else 10 ** 10
    if size > MAX_RATIONAL_DIGITS:
        raise GraphError(
            "rational %s stands for more than %d digits" % (quoted_prefix(text), MAX_RATIONAL_DIGITS)
        )
    if size > _STR_CHARS:
        m = _INTEGER_RATIO.match(text)
        if m:
            den = m.group(2)
            return Fraction(int(decimal.Decimal(m.group(1))), int(decimal.Decimal(den)) if den else 1)
        if _DECIMAL_TEXT.match(text):
            return Fraction(decimal.Decimal(text))
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError("Invalid literal for Fraction: %s" % quoted_prefix(text)) from None


def as_fraction(x: object) -> Fraction:
    """Coerce ints, strings ("3/4" or "0.75"), and Fractions to Fraction.
    A string standing for more than MAX_RATIONAL_DIGITS digits raises
    GraphError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return _parse_rational(x)
    if isinstance(x, float):
        raise TypeError("refusing float weight %r; pass a string or Fraction" % (x,))
    raise TypeError("cannot interpret %r as an exact rational" % (x,))


def frac_str(x: object) -> str:
    """Exact decimal text of a rational ("p" or "p/q"), "inf" for INF.

    A numerator or denominator of 2000 bits or more is formatted by
    Decimal, which formats integers of any length, where str(int) stops at
    the interpreter's int->str digit limit."""
    if not isinstance(x, Fraction):
        if x == INF:
            return "inf"
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    if num.bit_length() < _STR_BITS and den.bit_length() < _STR_BITS:
        return str(num) if den == 1 else "%d/%d" % (num, den)
    text = str(decimal.Decimal(num))
    return text if den == 1 else "%s/%s" % (text, decimal.Decimal(den))


def _scaled_cap(radius: object, scale: int) -> int:
    """floor(radius * scale) for a nonnegative rational radius, from its
    numerator and denominator: one integer division, no Fraction built.
    A negative radius holds no vertex, not even a source, and is refused."""
    r = as_fraction(radius)
    if r.numerator < 0:
        raise GraphError("search radius must be nonnegative, got %s" % (cut_frac(r),))
    return r.numerator * scale // r.denominator


def _weight_scale(edges: Iterable[Tuple[int, int, Fraction]]) -> int:
    """The least common denominator of the edges' weights, reading each
    weight object once."""
    scale = 1
    for w in {id(w): w for (_, _, w) in edges}.values():
        scale = math.lcm(scale, w.denominator)
    return scale


class GraphError(ValueError):
    """Invalid graph input (unknown vertex, bad weight, bad parameter)."""


class ContractViolation(AssertionError):
    """A produced object failed re-verification against its claimed bound."""


class Record:
    """Base of the package's immutable records.  A record's fields are the
    `__slots__` of its class and of its bases, base fields first, listed
    once per class in `_fields`.  `__init__` sets them from positional
    arguments in that order, then from keywords, then from the class's
    `_defaults`, through each slot's own setter; a missing field, an
    unknown keyword or a surplus argument raises TypeError naming the
    record.  A record that checks or derives its fields defines its own
    `__init__`, which sets them with object.__setattr__.  Assigning or
    deleting a field afterwards raises AttributeError.  Records compare,
    hash and print by their fields, leaving out those named in
    `_unlisted`."""

    __slots__ = ()

    _fields: Tuple[str, ...] = ()
    _setters: Tuple[Callable[[object, object], None], ...] = ()
    _defaults: Dict[str, object] = {}
    _unlisted: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for c in reversed(cls.__mro__) for name in vars(c).get("__slots__", ()))
        # a slot's descriptor sets it past the refusing __setattr__, faster than object.__setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._arguments(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    def _arguments(self, args: Tuple[object, ...], kwargs: Dict[str, object]) -> List[object]:
        """Every field's value, in field order: the positional arguments,
        then the keywords, then the class's defaults."""
        what, fields, defaults = type(self).__qualname__, self._fields, self._defaults
        if len(args) > len(fields):
            raise TypeError(
                "%s takes %d fields (%s), got %d positional arguments"
                % (what, len(fields), ", ".join(fields), len(args))
            )
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError("%s missing field %r" % (what, name))
        for name in kwargs:
            if name in fields:
                raise TypeError("%s got field %r by position and by keyword" % (what, name))
            raise TypeError("%s has no field %r" % (what, name))
        return values

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__qualname__))

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__qualname__))

    def _items(self) -> List[Tuple[str, object]]:
        skip = self._unlisted
        return [(name, getattr(self, name)) for name in self._fields if name not in skip]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __hash__(self) -> int:
        return hash(tuple(self._items()))

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % item for item in self._items())
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setstate__(self, state: Tuple[None, Dict[str, object]]) -> None:
        """Set the slots a copy or an unpickled record arrives with."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class WeightedGraph:
    """Finite multigraph with strictly positive exact-rational edge weights.

    Parallel edges are permitted; self-loops are not.  Vertex ids are
    nonnegative integers and need not be contiguous.
    """

    __slots__ = ("vertices", "edges", "_vset", "_scale", "_sadj", "_wrange", "_step", "_out")

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[Tuple[int, int, object]] = (),
    ):
        """Check and hold the graph.  Edges share a few weight objects (a
        generator draws one per value, a copy keeps its parent's), so each
        distinct weight object is coerced and sign-checked once, on the
        first edge that carries it, and found by its id after; the objects
        are held for the whole loop, so no id is reused for another value.
        A bad weight is named on its first edge, as an edge-by-edge check
        would name it, and an equal weight of another type (a float beside
        an int) is a distinct object, checked on its own."""
        vset = set()
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise GraphError("vertex ids must be nonnegative integers, got %r" % (v,))
            vset.add(v)
        elist: List[Tuple[int, int, Fraction]] = []
        checked: Dict[int, Fraction] = {}
        held: List[object] = []
        for (u, v, w) in edges:
            wf = checked.get(id(w))
            if wf is None:
                wf = as_fraction(w)
                if wf.numerator <= 0:
                    raise GraphError("edge weight must be positive, got %s on (%s,%s)" % (cut_frac(wf), u, v))
                checked[id(w)] = wf
                held.append(w)
            if u == v:
                raise GraphError("self-loop at vertex %s" % (u,))
            if u not in vset or v not in vset:
                raise GraphError("edge (%s,%s) references an unknown vertex" % (u, v))
            elist.append((u, v, wf))
        self._fill(vset, tuple(elist), math.lcm(*[wf.denominator for wf in checked.values()]))

    def _fill(self, vset: Set[int], edges: Tuple[Tuple[int, int, Fraction], ...], scale: int) -> None:
        """Set every field from validated edges and a multiple of their
        weights' common denominator: the integer adjacency `_sadj` holds
        each vertex's (neighbour, scaled weight) list in edge order.  Edges
        share a few weight objects (one per distinct text in a parsed file,
        the parent's in a copy), so each object is scaled once, found by
        its id."""
        self.vertices: Tuple[int, ...] = tuple(sorted(vset))
        self.edges: Tuple[Tuple[int, int, Fraction], ...] = edges
        self._vset: FrozenSet[int] = frozenset(vset)
        self._scale = scale
        sadj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in self.vertices}
        scaled: Dict[int, int] = {}
        for (u, v, w) in edges:
            s = scaled.get(id(w))
            if s is None:
                s = scaled[id(w)] = w.numerator * (scale // w.denominator)
            sadj[u].append((v, s))
            sadj[v].append((u, s))
        self._sadj = sadj
        self._set_range((min(scaled.values()), max(scaled.values())) if scaled else None)
        self._out: Optional[Dict[int, List[int]]] = None

    def _set_range(self, srange: Optional[Tuple[int, int]]) -> None:
        """Record the weight range in units of 1/scale (`_wrange`, None for
        no edge) and `_step`: the scaled weight of every edge when all weigh
        the same, which the level search steps by (any step serves a graph
        with no edge), None when weights differ.  An exact weight is built
        from it only when asked for (`min_edge_weight`, `max_edge_weight`);
        the package's own weight tests compare integers."""
        self._wrange = srange
        self._step = 1 if srange is None else (srange[0] if srange[0] == srange[1] else None)

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def vertex_set(self) -> FrozenSet[int]:
        return self._vset

    def neighbors(self, v: int) -> List[Tuple[int, Fraction]]:
        """(neighbour, exact weight) for each edge at v, in edge order,
        derived from the integer adjacency on each call."""
        scale = self._scale
        return [(n, Fraction(s, scale)) for (n, s) in self._sadj[v]]

    def max_vertex(self) -> int:
        """The largest vertex id, -1 for the empty graph."""
        return self.vertices[-1] if self.vertices else -1

    def _no_heavier_than(self, lf: Fraction) -> bool:
        """No edge weighs more than lf: one integer comparison."""
        r = self._wrange
        return r is None or r[1] * lf.denominator <= lf.numerator * self._scale

    def _one_hop_per_edge(self, lf: Fraction) -> bool:
        """Every edge weighs in (lf/2, lf], so no path of two edges fits
        within lf: integer comparisons."""
        r = self._wrange
        return r is None or (
            self._no_heavier_than(lf) and lf.numerator * self._scale < 2 * r[0] * lf.denominator
        )

    def min_edge_weight(self) -> Optional[Fraction]:
        """Smallest edge weight, or None for an edgeless graph."""
        r = self._wrange
        return None if r is None else Fraction(r[0], self._scale)

    def max_edge_weight(self) -> Optional[Fraction]:
        r = self._wrange
        return None if r is None else Fraction(r[1], self._scale)

    # -- derived graphs ----------------------------------------------------

    def induced(self, keep: Iterable[int]) -> "WeightedGraph":
        """The subgraph on `keep`.  It reuses this graph's checked edges at
        this graph's scale; adjacency lists keep their relative order, so
        searches break ties as they would here."""
        ks = set(keep)
        unknown = ks - self._vset
        if unknown:
            raise GraphError("induced() got unknown vertices %s" % sorted(unknown))
        sub = WeightedGraph.__new__(WeightedGraph)
        sub._fill(ks, self._edges_within(ks), self._scale)
        return sub

    def without(self, drop: Iterable[int]) -> "WeightedGraph":
        ds = set(drop)
        return self.induced(self._vset - ds)

    def _edges_within(self, keep: AbstractSet) -> Tuple[Tuple[int, int, Fraction], ...]:
        """The edges with both ends in `keep`, in edge order.  Each edge is
        listed under its first end (an index built on first use), so only the
        edges whose first end is in `keep` are looked at, each once:
        copying a small piece (a slab's window) costs its size, not the
        graph's."""
        if self._out is None:
            out: Dict[int, List[int]] = {v: [] for v in self.vertices}
            for i, e in enumerate(self.edges):
                out[e[0]].append(i)
            self._out = out
        edges, out = self.edges, self._out
        ids = [i for u in keep for i in out[u] if edges[i][1] in keep]
        ids.sort()
        return tuple([edges[i] for i in ids])

    def _induced_plus(
        self,
        keep: Set[int],
        vertices: Set[int],
        extra: Sequence[Tuple[int, int, Fraction]],
    ) -> "WeightedGraph":
        """The graph WeightedGraph(vertices, induced(keep).edges + extra)
        builds, without the copy: the edges inside `keep` are this graph's,
        checked when it was built, and come off its edge index in edge
        order; only `extra` is checked, as the constructor checks an edge.
        `vertices` holds `keep` and nonnegative ids only; the scale is the
        constructor's, the least common denominator of the new graph's
        own weights."""
        unknown = [v for v in keep if v not in self._vset]
        if unknown:
            raise GraphError("induced() got unknown vertices %s" % sorted(unknown))
        for (u, v, w) in extra:
            if w.numerator <= 0:
                raise GraphError("edge weight must be positive, got %s on (%s,%s)" % (cut_frac(w), u, v))
            if u == v:
                raise GraphError("self-loop at vertex %s" % (u,))
            if u not in vertices or v not in vertices:
                raise GraphError("edge (%s,%s) references an unknown vertex" % (u, v))
        edges = self._edges_within(keep) + tuple(extra)
        out = WeightedGraph.__new__(WeightedGraph)
        out._fill(vertices, edges, _weight_scale(edges))
        return out

    # -- metric ------------------------------------------------------------

    def distances_from(
        self,
        sources: Iterable[int],
        radius: object = None,
        within: Optional[FrozenSet[int]] = None,
        targets: Optional[Set[int]] = None,
    ) -> Dict[int, Fraction]:
        """Multi-source Dijkstra.  Returns {vertex: exact distance}.

        radius: stop exploring past this distance (inclusive).
        within: restrict the walk to this vertex set (induced subgraph).
        targets: stop early once all of these are settled.
        """
        scaled = self._scaled_distances(sources, radius, within, targets)
        scale = self._scale
        return {v: Fraction(d, scale) for v, d in scaled.items()}

    def _scaled_distances(
        self,
        sources: Iterable[int],
        radius: object = None,
        within: Optional[FrozenSet[int]] = None,
        targets: Optional[Set[int]] = None,
    ) -> Dict[int, int]:
        """distances_from in units of 1/scale: the exact integers the search
        adds, before any Fraction is built.  The radius becomes the integer
        cap floor(radius * scale) by one integer division of its numerator
        (`_scaled_cap`); a negative radius raises GraphError."""
        srcs = [s for s in sources]
        for s in srcs:
            if s not in self._vset:
                raise GraphError("unknown source vertex %s" % (s,))
        cap = None if radius is None else _scaled_cap(radius, self._scale)
        return self._search(srcs, cap, within, targets)

    def _search(
        self,
        srcs: Sequence[int],
        cap: Optional[int],
        within: Optional[AbstractSet],
        targets: Optional[Set[int]],
    ) -> Dict[int, int]:
        """The loop behind every search, on checked sources and an integer
        cap in units of 1/scale, so that a caller repeating a search
        converts its radius once.  Returns the settled vertices in the order
        they were reached.

        Two loops give that result, and the graph's weights alone pick one:
        when every edge weighs the same, or there is no edge (`_step`; for
        a view, its edges), `_level_search`, a BFS one level at a time;
        otherwise `_heap_search`, a binary-heap Dijkstra.  With one weight
        the two agree exactly.  No distance improves once set, and the heap
        pops every vertex k steps out, all at one distance, after every
        vertex k-1 steps out and in vertex-id order.  So settling each level
        in id order reaches, caps and stops at the same vertices in the same
        order, and gives the same dict."""
        step = self._step
        if step is not None:
            return _level_search(self._sadj, srcs, cap, within, targets, step)
        return _heap_search(self._sadj, srcs, cap, within, targets)

    def shortest_distance(self, u: int, v: int) -> ExtendedDistance:
        """Exact shortest-path distance; INF if u, v are disconnected."""
        if u not in self._vset or v not in self._vset:
            raise GraphError("unknown vertex in shortest_distance(%s, %s)" % (u, v))
        if u == v:
            return Fraction(0)
        d = self.distances_from([u], targets={v})
        return d.get(v, INF)

    def connected_components(self) -> List[Tuple[int, ...]]:
        seen: Set[int] = set()
        out: List[Tuple[int, ...]] = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = sorted(self._scaled_distances([v]))
            seen.update(comp)
            out.append(tuple(comp))
        return out

    def is_connected(self) -> bool:
        return len(self) <= 1 or len(self.connected_components()) == 1


def _heap_search(
    sadj: Dict[int, List[Tuple[int, int]]],
    srcs: Sequence[int],
    cap: Optional[int],
    within: Optional[AbstractSet],
    targets: Optional[Set[int]],
) -> Dict[int, int]:
    """WeightedGraph._search by a binary-heap Dijkstra over an integer
    adjacency: the settled vertices in the order they were reached, each
    within `cap` (None: no cap) and inside `within` (None: anywhere),
    stopping once every vertex of `targets` is settled."""
    dist: Dict[int, int] = {}
    remaining = set(targets) if targets is not None else None
    heap: List[Tuple[int, int]] = []
    for s in srcs:
        if within is not None and s not in within:
            continue
        if s not in dist:
            dist[s] = 0
            heapq.heappush(heap, (0, s))
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] != d:
            continue
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for (n, w) in sadj[v]:
            if within is not None and n not in within:
                continue
            nd = d + w
            if cap is not None and nd > cap:
                continue
            if n not in dist or nd < dist[n]:
                dist[n] = nd
                heapq.heappush(heap, (nd, n))
    # each heap entry still holding its vertex's distance is a vertex
    # reached but not settled (only after an early stop)
    for (d, v) in heap:
        if dist.get(v) == d:
            del dist[v]
    return dist


def _level_search(
    sadj: Dict[int, List[Tuple[int, int]]],
    srcs: Sequence[int],
    cap: Optional[int],
    within: Optional[AbstractSet],
    targets: Optional[Set[int]],
    step: int,
) -> Dict[int, int]:
    """WeightedGraph._search on a graph whose every edge weighs `step` (in
    units of 1/scale): the vertices k steps out are settled in id order at
    distance k*step, and the next level is reached from them only within
    the cap.  A `targets` stop keeps what the heap had settled then: every
    earlier level and this level up to the last target.  What the heap
    still held, the rest of this level, is dropped, and the next level has
    not been reached yet."""
    dist: Dict[int, int] = {}
    for s in srcs:
        if s not in dist and (within is None or s in within):
            dist[s] = 0
    remaining = set(targets) if targets is not None else None
    level = sorted(dist)
    d = 0
    while level:
        if remaining is not None:
            for i, v in enumerate(level):
                remaining.discard(v)
                if not remaining:
                    for u in level[i + 1:]:
                        del dist[u]
                    return dist
        d += step
        if cap is not None and d > cap:
            break
        nxt: List[int] = []
        for v in level:
            for (n, _) in sadj[v]:
                if n not in dist and (within is None or n in within):
                    dist[n] = d
                    nxt.append(n)
        nxt.sort()
        level = nxt
    return dist


class _Meet:
    """Membership in two vertex sets at once."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __contains__(self, v: int) -> bool:
        return v in self.a and v in self.b


class SubgraphView(WeightedGraph):
    """The induced subgraph g[S] over g's own adjacency, filtered by
    membership in S.  It answers every WeightedGraph query as g.induced(S)
    would, with the same tie-breaking; `vertices` and `edges` are listed on
    demand, at the cost of S.

    vset: S, a set with fast membership and len; srange: the (smallest,
    largest) weight of an edge inside S in units of g's 1/scale, or None,
    where a single value makes the view search by levels; top: the largest
    id in S, or -1."""

    __slots__ = ("_base", "_top")

    def __init__(
        self,
        base: WeightedGraph,
        vset: AbstractSet,
        srange: Optional[Tuple[int, int]],
        top: int,
    ):
        self._base = base
        self._vset = vset
        self._sadj = base._sadj
        self._scale = base._scale
        self._set_range(srange)
        self._out = None
        self._top = top

    @property
    def vertices(self) -> Tuple[int, ...]:  # type: ignore[override]
        return tuple(sorted(self._vset))

    @property
    def edges(self) -> Tuple[Tuple[int, int, Fraction], ...]:  # type: ignore[override]
        return self._edges_within(self._vset)

    def __len__(self) -> int:
        return len(self._vset)

    def max_vertex(self) -> int:
        return self._top

    def neighbors(self, v: int) -> List[Tuple[int, Fraction]]:
        scale, vset = self._scale, self._vset
        return [(n, Fraction(s, scale)) for (n, s) in self._sadj[v] if n in vset]

    def _edges_within(self, keep: AbstractSet) -> Tuple[Tuple[int, int, Fraction], ...]:
        """The base's edges inside `keep`, a subset of S, off the base's
        index."""
        return self._base._edges_within(keep)

    def _search(
        self,
        srcs: Sequence[int],
        cap: Optional[int],
        within: Optional[AbstractSet],
        targets: Optional[Set[int]],
    ) -> Dict[int, int]:
        inside = self._vset if within is None else _Meet(within, self._vset)
        return WeightedGraph._search(self, srcs, cap, inside, targets)


def require_light_edges(g: WeightedGraph, ell: object) -> None:
    """Raise GraphError when an edge of g weighs more than ell."""
    if not g._no_heavier_than(as_fraction(ell)):
        mw = g.max_edge_weight()
        raise GraphError("edge weight %s exceeds ell %s" % (cut_frac(mw), cut_frac(ell)))


def neighborhood(g: WeightedGraph, s: Iterable[int], r: object) -> Set[int]:
    """All vertices at distance <= r from the set s (s itself included).
    A negative r raises the search's GraphError."""
    return set(g._scaled_distances(s, radius=r))


def reached(g: WeightedGraph, sources: Iterable[int], radius: object, targets: Iterable[int]) -> Set[int]:
    """The members of `targets` within distance `radius` of the set
    `sources`: set(targets) & neighborhood(g, sources, radius), from one
    search that stops once every target is settled.  A check that asks
    only whether named vertices lie in a ball pays for the part of the
    ball it reaches before the last of them; a target out of reach, or
    outside g, lets the search run to the radius, as `neighborhood` does.
    An empty target set runs no search and checks nothing."""
    want = set(targets)
    if not want:
        return want
    return want.intersection(g._scaled_distances(sources, radius=radius, targets=want))


def set_diameter(
    members: Sequence[int],
    search: Callable[[int], Dict[int, int]],
    bound: object = INF,
    first: Optional[int] = None,
    centre: Optional[int] = None,
) -> Tuple[int, Optional[int]]:
    """Exact max distance between two members, from a few searches instead
    of one per member, and a member whose eccentricity it is (an end of a
    farthest pair; None for an empty set).  `search(u)` maps vertices to
    their integer distance from u in some metric and must reach every
    member.

    iFUB (Crescenzi, Grossi, Habib, Lanzi and Marino, "On computing the
    diameter of real-world undirected graphs", TCS 2013): search a central
    member c, then the members in decreasing distance from c.  Two members
    x, y not yet searched are at most d(x, c) + d(c, y) apart, so once the
    longest distance found reaches the sum of the two largest d(c, .) left,
    no pair left is longer and the search stops.  The eccentricity bounds
    of Takes and Kosters (CIKM 2011) prune alongside: each member w keeps
    hi[w] >= ecc(w), and a search from u with eccentricity e gives
        hi[w] = min(hi[w], e + d(u, w)).
    A member with hi[w] <= best cannot end a longer pair and drops out, and
    both ends of a longer pair stay in, so the run also stops once fewer
    than two members are left.  Two members take one search.

    bound: every hi starts here.  It must be a proven upper bound on every
        distance between two members; then a search whose eccentricity
        reaches it ends the run.  INF when nothing is known.
    first: the first source, such as an end of a farthest pair in a metric
        that bounds this one, where it may meet the bound at once.
        Default: the centre, or the first member when there is none.
    centre: the member whose distances order the searches after it.
        Without one, the first search picks it: the member w left that
        minimises max(d(first, w), e - d(first, w)), a midpoint of the first
        source's farthest paths.  Ties go to the earlier member.
    Only the integer distances `search` returns are read, so no Fraction is
    built per reached vertex.  Raises ContractViolation when a search
    misses a member.
    """
    if len(members) <= 1:
        return 0, (members[0] if members else None)
    hi: Dict[int, object] = dict.fromkeys(members, bound)
    live: Sequence[int] = members
    best, end = 0, members[0]
    key: Optional[Dict[int, int]] = None
    u = first if first is not None else (centre if centre is not None else members[0])
    while True:
        d = search(u)
        try:
            e = max(map(d.__getitem__, members))
        except KeyError as exc:
            raise ContractViolation("search from %s does not reach member %s" % (u, exc.args[0])) from None
        if e > best:
            best, end = e, u
        if u == centre:
            key = d
        kept: List[int] = []
        # the two largest distances from the centre among the members kept,
        # and the member at the largest; or the most central one, before it
        top = second = -INF
        nxt = members[0]
        for w in live:
            dw = d[w]
            high = e + dw
            if high < hi[w]:
                hi[w] = high
            else:
                high = hi[w]
            if high > best:
                kept.append(w)
                k = key[w] if key is not None else -max(dw, e - dw)
                if k > top:
                    top, second, nxt = k, top, w
                elif k > second:
                    second = k
        live = kept
        if len(live) < 2:
            return best, end
        if key is None:
            if centre is None:
                centre = nxt
            u = centre
        elif top + second <= best:
            return best, end
        else:
            u = nxt


def central_vertex(adj: Dict[int, Sequence[int]], order: Sequence[int], dist: Dict[int, int]) -> int:
    """A vertex of small eccentricity in the connected graph `adj` (vertex
    -> neighbours), from the 4-sweep of Crescenzi et al. (TCS 2013), given
    its first BFS: `order` lists the vertices as it reached them and
    `dist` holds their hops from order[0].

    Every sweep is a BFS, and lo[v], the largest distance from v to a swept
    source, is a lower bound on v's eccentricity.  Sources alternate: the
    last sweep's farthest vertex, then the vertex of least lo, then that
    one's farthest vertex; a source already swept ends the sweeps, so a
    path takes two and a grid block three.  The answer is the vertex of
    least lo after the last sweep.  Ties go to the least total distance to
    the sources, then to the vertex first in `order`.

    A first BFS at most two hops deep takes no sweep: the set is then at
    most four hops wide, and its vertex of most neighbours (the first in
    `order` among equals) serves.  It is next to every other vertex when
    any vertex is."""
    if dist[order[-1]] <= 2:
        return max(order, key=lambda v: len(adj[v]))
    lo = {v: dist[v] for v in order}
    total = dict(lo)
    swept = {order[0]}
    least, src = order[0], order[-1]
    for peripheral in (True, False, True):
        if src in swept:
            break
        swept.add(src)
        hops = {src: 0}
        queue = [src]
        for x in queue:
            h = hops[x] + 1
            for n in adj[x]:
                if n not in hops:
                    hops[n] = h
                    queue.append(n)
        low_best: float = INF
        total_best = 0
        for x in order:
            h = hops[x]
            t = total[x] + h
            total[x] = t
            low = lo[x]
            if h > low:
                lo[x] = low = h
            if low < low_best or low == low_best and t < total_best:
                low_best, total_best, least = low, t, x
        src = least if peripheral else queue[-1]
    return least


def metric_set_diameter(
    g: WeightedGraph,
    members: Sequence[int],
    radius: object = None,
    proven: bool = False,
    first: Optional[int] = None,
    centre: Optional[int] = None,
) -> Fraction:
    """Exact max distance in g between two of `members`, each search capped
    at `radius`; set_diameter on integer distances, one Fraction at the end.
    proven: the radius bounds every distance between two members, so it is
    also set_diameter's starting bound; otherwise it only caps the searches.
    first, centre: set_diameter's first source and centre.  Raises
    ContractViolation when a member is out of reach, and the search's
    GraphError when a search runs with a negative radius."""
    targets = set(members)
    rf = None if radius is None else as_fraction(radius)
    cap = None if rf is None else rf.numerator * g._scale // rf.denominator
    bound = cap if proven and cap is not None else INF
    diameter, _ = set_diameter(
        members, lambda u: g._scaled_distances([u], radius=rf, targets=targets), bound, first, centre
    )
    return Fraction(diameter, g._scale)


def weak_diameter(g: WeightedGraph, s: Iterable[int]) -> ExtendedDistance:
    """Sup of pairwise distances measured in the full graph g.

    0 for a set with at most one vertex; INF if s meets two components.
    """
    ss = sorted(set(s))
    for v in ss:
        if not g.has_vertex(v):
            raise GraphError("unknown vertex %s in weak_diameter" % (v,))
    try:
        return metric_set_diameter(g, ss)
    except ContractViolation:
        return INF


# -- subdivision graph ------------------------------------------------------


def _subdivision_plan(g: WeightedGraph, rf: Fraction) -> Tuple[List[int], range]:
    """How subdivision_graph(g, rf) subdivides: ceil(w / rf) for each edge
    of g in edge order, the number of edges on each of its two replacement
    paths, and the consecutive ids, from max(V(g)) + 1, that the inner
    vertices of those paths take.  One integer floor division per edge, no
    Fraction arithmetic."""
    p, q = rf.numerator, rf.denominator
    lengths = [-(-w.numerator * q // (w.denominator * p)) for (_, _, w) in g.edges]
    lo = g.max_vertex() + 1
    return lengths, range(lo, lo + 2 * sum(k - 1 for k in lengths))


def power_graph_new_ids(g: WeightedGraph, ell: object) -> range:
    """The ids power_graph(g, ell) adds to V(g), without building it, in
    O(E): the subdivision adds 2*(ceil(w/ell) - 1) inner vertices per edge,
    so none when no edge is heavier than ell, which the weight range tells
    without a scan."""
    lf = as_fraction(ell)
    if lf.numerator <= 0:
        raise GraphError("power graph scale must be positive")
    if g._no_heavier_than(lf):
        lo = g.max_vertex() + 1
        return range(lo, lo)
    return _subdivision_plan(g, lf)[1]


def power_graph_vertex_count(g: WeightedGraph, ell: object) -> int:
    """len(power_graph(g, ell).vertices) without building it, in O(E)."""
    return len(g.vertices) + len(power_graph_new_ids(g, ell))


def subdivision_graph(g: WeightedGraph, r: object) -> WeightedGraph:
    """Replace each edge by two internally disjoint paths of ceil(w/r) edges.

    On the path leaving end x the edge at x gets weight w - r*(ceil(w/r)-1)
    and all others get weight r, so every new weight lies in (0, r] and each
    path has length exactly w.  Distances between original vertices are
    preserved exactly.  Original vertex ids are unchanged; inner vertices
    take the ids _subdivision_plan gives, path by path in edge order.
    """
    rf = as_fraction(r)
    if rf <= 0:
        raise GraphError("subdivision parameter must be positive")
    verts: List[int] = list(g.vertices)
    lengths, new_ids = _subdivision_plan(g, rf)
    next_ids = iter(new_ids)
    edges: List[Tuple[int, int, Fraction]] = []
    for (u, v, w), k in zip(g.edges, lengths):
        first = w - rf * (k - 1)
        for (a, b) in ((u, v), (v, u)):
            prev = a
            wt = first
            for _ in range(k - 1):
                nid = next(next_ids)
                verts.append(nid)
                edges.append((prev, nid, wt))
                prev = nid
                wt = rf
            edges.append((prev, b, wt))
    return WeightedGraph(verts, edges)


# -- hop graphs (power graphs live here) -------------------------------------


class HopGraph:
    """Simple unweighted graph; distances are hop counts."""

    __slots__ = ("vertices", "_adj", "_vset")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Tuple[int, int]]):
        vs = sorted(set(vertices))
        adj: Dict[int, Set[int]] = {v: set() for v in vs}
        for (u, v) in edges:
            if u == v:
                continue
            adj[u].add(v)
            adj[v].add(u)
        self._fill(tuple(vs), {v: tuple(sorted(ns)) for v, ns in adj.items()})

    def _fill(self, vertices: Tuple[int, ...], adj: Dict[int, Tuple[int, ...]]) -> None:
        """Set the fields from the sorted vertices and each one's sorted
        neighbour tuple."""
        self.vertices: Tuple[int, ...] = vertices
        self._adj: Dict[int, Tuple[int, ...]] = adj
        self._vset: FrozenSet[int] = frozenset(vertices)

    def vertex_set(self) -> FrozenSet[int]:
        return self._vset

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def edge_list(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in self.vertices for v in self._adj[u] if u < v]

    def hop_distances(
        self,
        sources: Iterable[int],
        targets: Optional[Set[int]] = None,
    ) -> Dict[int, int]:
        """BFS hop distances, stopping early once all targets are reached.
        Reached targets are struck off once per level, and the stop is
        tested between levels, so the whole level holding the last target
        is returned."""
        frontier = list(sources)
        dist: Dict[int, int] = {s: 0 for s in frontier}
        remaining = set(targets) - set(frontier) if targets is not None else None
        adj = self._adj
        depth = 0
        while frontier:
            if remaining is not None and not remaining:
                break
            depth += 1
            nxt: List[int] = []
            for v in frontier:
                for n in adj[v]:
                    if n not in dist:
                        dist[n] = depth
                        nxt.append(n)
            if remaining is not None:
                remaining.difference_update(nxt)
            frontier = nxt
        return dist


class PowerGraph(HopGraph):
    """The simple graph joining vertices of its metric host at metric
    distance <= ell; carries that host for weak-diameter measurement.  The
    host is g itself when no edge of g is heavier than ell, and the
    (g, ell)-subdivision otherwise.  `adj` maps each host vertex to its
    sorted neighbours, listed in vertex order."""

    __slots__ = ("metric",)

    def __init__(self, host: WeightedGraph, adj: Dict[int, Tuple[int, ...]]):
        self._fill(tuple(adj), adj)
        self.metric = host


def power_graph(g: WeightedGraph, ell: object) -> PowerGraph:
    """(g, ell) power graph: subdivide at ell, join pairs at distance <= ell.

    An edge no heavier than ell is not subdivided: its two paths are the
    edge itself, twice, which changes no distance.  So when no edge is
    heavier than ell, g itself is the host and no copy is built.  If, in
    addition, every edge is heavier than ell/2, no path of two or more
    edges fits within ell, and each vertex's neighbours are its neighbours
    in g, read off g's adjacency with no search.  Otherwise each host
    vertex's neighbours are the rest of its ball of radius ell, one capped
    search each.  Either way each vertex's sorted neighbour tuple is
    written at once; distances are symmetric, so the balls agree."""
    lf = as_fraction(ell)
    if lf.numerator > 0 and g._one_hop_per_edge(lf):
        sadj, inside = g._sadj, g._vset
        if len(sadj) == len(inside):
            adj = {v: tuple(sorted(set(map(_first, sadj[v])))) for v in g.vertices}
        else:
            # a view reads its base's adjacency, which reaches past the view
            adj = {v: tuple(sorted({n for (n, _) in sadj[v] if n in inside})) for v in g.vertices}
        return PowerGraph(g, adj)
    host = subdivision_graph(g, lf) if power_graph_new_ids(g, lf) else g
    cap = _scaled_cap(lf, host._scale)
    adj: Dict[int, Tuple[int, ...]] = {}
    for v in host.vertices:
        ball = host._search((v,), cap, None, None)
        del ball[v]
        adj[v] = tuple(sorted(ball))
    return PowerGraph(host, adj)


# -- edge-list file format ----------------------------------------------------


_DECIMAL_KEY = re.compile(r"0|-?[1-9][0-9]*")


def json_int(x: object, what: str) -> int:
    """An integer id or colour read from JSON.  Only JSON integers pass: a
    bool or a float would be reinterpreted or truncated by int()."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise GraphError("%s must be a JSON integer, got %r" % (what, x))


def json_int_key(k: object, what: str) -> int:
    """An integer id read from a JSON object key: decimal digits with an
    optional minus sign, in the form str() writes (no leading zero, no -0),
    so that no two keys of one object name the same id."""
    if isinstance(k, str) and _DECIMAL_KEY.fullmatch(k):
        return int(k)
    raise GraphError("%s must be an integer-valued string, got %r" % (what, k))


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse the "u v w" edge-list format.

    One edge per line, weight a decimal or p/q rational; '#' starts a
    comment; a line holding a single vertex id declares an isolated vertex.

    Each line is checked as it is read, and the first bad line raises
    GraphError("edge list line N: ...").  On a line, in this order: the
    field count, the ids parse as integers, the weight text parses as a
    rational and is positive (once per distinct text, on its first line),
    no id is negative, and u != v.  The graph is then built from these
    checked edges through `WeightedGraph._fill`, at the scale the distinct
    weights' denominators give, as `induced` builds from its parent's
    checked edges.
    """
    verts: Set[int] = set()
    edges: List[Tuple[int, int, Fraction]] = []
    # a file repeats a few weight texts over many lines: parse and check each once
    weights: Dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        try:
            if len(parts) == 1:
                v = int(parts[0])
                if v < 0:
                    raise GraphError("vertex ids must be nonnegative integers, got %r" % (v,))
                verts.add(v)
            elif len(parts) == 3:
                u, v = int(parts[0]), int(parts[1])
                w = weights.get(parts[2])
                if w is None:
                    w = as_fraction(parts[2])
                    if w.numerator <= 0:
                        raise GraphError("edge weight must be positive, got %s on (%s,%s)" % (cut_frac(w), u, v))
                    weights[parts[2]] = w
                if u < 0 or v < 0:
                    raise GraphError("vertex ids must be nonnegative integers, got %r" % (u if u < 0 else v,))
                if u == v:
                    raise GraphError("self-loop at vertex %s" % (u,))
                verts.add(u)
                verts.add(v)
                edges.append((u, v, w))
            else:
                raise ValueError("expected 'u v w' or a bare vertex id")
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise GraphError("edge list line %d: %s" % (lineno, exc)) from exc
    scale = 1
    for w in weights.values():
        scale = math.lcm(scale, w.denominator)
    g = WeightedGraph.__new__(WeightedGraph)
    g._fill(verts, tuple(edges), scale)
    return g


def write_edge_list(g: WeightedGraph) -> str:
    """The "u v w" text of g's edges in edge order, then one line per
    vertex on no edge.  Edges share a few weight objects, so each distinct
    object's text is made once, found by its id."""
    texts: Dict[int, str] = {}
    lines: List[str] = []
    touched: Set[int] = set()
    for (u, v, w) in g.edges:
        text = texts.get(id(w))
        if text is None:
            text = texts[id(w)] = frac_str(w)
        lines.append("%d %d %s" % (u, v, text))
        touched.add(u)
        touched.add(v)
    for v in g.vertices:
        if v not in touched:
            lines.append("%d" % v)
    return "\n".join(lines) + ("\n" if lines else "")
