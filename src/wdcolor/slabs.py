"""Slab systems: the cut and the recombination that the planar and layered
pipelines share.

`make_slabs` cuts the range of a 1-Lipschitz projection into two
interleaved families of slabs, each padded by 2*ell on both sides, on
integers: projection, weights and widths scaled by one common denominator.
Every vertex is owned by the slab of the family in which it sits deeper.
`combine_slab_colorings` four-colors the graph from per-slab two-colorings,
offsetting one family by two colors, and checks that every monochromatic
power-graph component stays inside its owner's padded slab.
"""

import bisect
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import GraphError, PowerGraph, Record, WeightedGraph, as_fraction, power_graph
from .partition import Coloring, ContractViolation, monochromatic_components


class Slab(Record):
    __slots__ = ("family", "index", "lo", "hi", "window_lo", "window_hi", "owned", "window")


class SlabSystem(Record):
    """Two interleaved families of slabs over a 1-Lipschitz projection.

    Family a tiles [j*W, (j+1)*W); family b is shifted by W/2.  Every
    vertex is owned by the family in which it sits deeper (ties go to a),
    so owned regions of one family are pairwise further than W/2 apart.
    Windows pad each slab by `pad` on both sides.
    """

    __slots__ = ("ell", "width", "pad", "projection", "slabs", "owner_of")

    def slab_of(self, family: str, index: int) -> Slab:
        for s in self.slabs:
            if s.family == family and s.index == index:
                return s
        raise GraphError("no slab (%s, %s)" % (family, index))


def make_slabs(
    g: WeightedGraph,
    ell: object,
    projection: Dict[int, Fraction],
    slab_width_factor: object = 8,
) -> SlabSystem:
    """Cut the projection range into two slab families, each slab padded by
    2*ell on both sides.  The cut runs on integers: the projection, the
    weights, the width and its half are all scaled once by one common
    denominator."""
    lf = as_fraction(ell)
    if lf <= 0:
        raise GraphError("slab scale must be positive")
    swf = as_fraction(slab_width_factor)
    if swf < 4:
        raise GraphError("slab width must be at least 4*ell")
    width = swf * lf
    pad = 2 * lf
    half = width / 2
    missing = g.vertex_set() - set(projection)
    if missing:
        raise GraphError("projection misses vertices %s" % sorted(missing)[:5])
    edges = g.edges
    dens = {half.denominator, pad.denominator}
    dens.update(projection[v].denominator for v in g.vertices)
    dens.update(w.denominator for (_, _, w) in edges)
    scale = math.lcm(*dens)

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    proj = {v: scaled(projection[v]) for v in g.vertices}
    for (u, v, w) in edges:
        if abs(proj[u] - proj[v]) > scaled(w):
            raise GraphError("projection is not 1-Lipschitz across edge (%s, %s)" % (u, v))
    wid, hf, pd = scaled(width), scaled(half), scaled(pad)
    owner_of: Dict[int, Tuple[str, int]] = {}
    owned: Dict[Tuple[str, int], List[int]] = {}
    for v in g.vertices:
        f = proj[v]
        j = f // wid
        depth_a = min(f - j * wid, (j + 1) * wid - f)
        k = (f - hf) // wid
        depth_b = min(f - (k * wid + hf), (k + 1) * wid + hf - f)
        key = ("a", j) if depth_a >= depth_b else ("b", k)
        owner_of[v] = key
        owned.setdefault(key, []).append(v)
    by_f = sorted(g.vertices, key=lambda v: (proj[v], v))
    fvals = [proj[v] for v in by_f]
    slabs: List[Slab] = []
    for (family, index) in sorted(owned):
        shift = family == "b"
        lo = index * width + (half if shift else 0)
        hi = lo + width
        wlo, whi = lo - pad, hi + pad
        lo_i = index * wid + (hf if shift else 0)
        left = bisect.bisect_left(fvals, lo_i - pd)
        right = bisect.bisect_left(fvals, lo_i + wid + pd)
        window = tuple(sorted(by_f[left:right]))
        slabs.append(
            Slab(family, index, lo, hi, wlo, whi, tuple(sorted(owned[(family, index)])), window)
        )
    return SlabSystem(lf, width, pad, dict(projection), tuple(slabs), owner_of)


class SlabColoring(Record):
    __slots__ = ("family", "index", "coloring", "bound")


def combine_slab_colorings(
    g: WeightedGraph,
    ell: object,
    system: SlabSystem,
    slab_colorings: Sequence[SlabColoring],
    what: str = "slab combination",
    power: Optional[PowerGraph] = None,
) -> Tuple[Coloring, Fraction]:
    """Four-color the graph from per-slab two-colorings: every vertex keeps
    the color its owner slab gave it, offset by the family.  Checks that
    each monochromatic power-graph component stays inside one padded slab;
    the combined bound is the worst slab bound plus two padding hops.
    power: a prebuilt power_graph(g, ell); built here when not given."""
    lf = as_fraction(ell)
    by_key = {(sc.family, sc.index): sc for sc in slab_colorings}
    assign: Dict[int, int] = {}
    for v in g.vertices:
        fam, idx = system.owner_of[v]
        sc = by_key.get((fam, idx))
        if sc is None:
            raise GraphError("%s: no slab coloring for (%s, %s)" % (what, fam, idx))
        if sc.coloring.num_colors > 2:
            raise GraphError("%s: slab colorings must use at most 2 colors" % what)
        if v not in sc.coloring.assignment:
            raise ContractViolation("%s: owner slab left vertex %s uncolored" % (what, v))
        assign[v] = sc.coloring.assignment[v] + (2 if fam == "b" else 0)
    combined = Coloring(assign, 4)
    slab_at = {(s.family, s.index): s for s in system.slabs}
    p = power if power is not None else power_graph(g, lf)
    for comp in monochromatic_components(p, combined, within=g.vertex_set()):
        fam, idx = system.owner_of[comp[0]]
        slab = slab_at.get((fam, idx)) or system.slab_of(fam, idx)  # slab_of names a missing slab
        for v in comp:
            if system.owner_of[v] != (fam, idx):
                raise ContractViolation(
                    "%s: a monochromatic component crosses slab ownership" % what
                )
            f = system.projection[v]
            if not slab.window_lo <= f < slab.window_hi:
                raise ContractViolation(
                    "%s: a monochromatic component leaves its padded slab" % what
                )
    worst = max((sc.bound for sc in slab_colorings), default=Fraction(0))
    bound = worst + 2 * math.ceil(system.pad / lf)
    return combined, bound
