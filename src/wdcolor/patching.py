"""Coloring merges for vertex sets near few centers, with their bound
recursions.

The pattern shared by every operation here: a set Z lying within distance r
of at most k centers may receive an arbitrary coloring, and gluing it onto
a certified coloring of the rest multiplies the weak-diameter bound by a
computable factor.  Each merge recomputes the bound exactly and re-verifies
the merged coloring against it before returning; the bound is never trusted
on faith.  The centering is checked once, when its CenterCertificate is
built in one graph; the merges accept it for that graph object only.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, List, Optional

from wdcolor.graph import (
    GraphError,
    Record,
    WeightedGraph,
    as_fraction,
    reached,
    require_light_edges,
)
from wdcolor.partition import (
    Coloring,
    ColorResult,
    ContractViolation,
    check_weak_diameter,
)


@functools.lru_cache(maxsize=None, typed=True)
def patch_bound(k: int, r: object, ell: object, n: object) -> Fraction:
    """Weak-diameter bound for merging a coloring over a (k, r)-centered set.

    f(0, y) = y and f(x, y) = 2*f(x-1, ceil((4/ell)*(ell+r+ell*y)) + y)
    + 2*ceil(2*(ell+r)/ell), evaluated with exact rational ceilings.
    Unrolled, f(k, n) = 2**k * y_k + step * (2**k - 1) with y_0 = n and
    y_{i+1} = ceil(4 + 4*r/ell + 4*y_i) + y_i.  With y_i = m_i + phi for a
    whole m_i, each step maps m_i to 5*m_i + c, c = 4 + ceil(4*r/ell + 4*phi),
    and keeps phi, so y_k = n + (5**k - 1)/4 * (4*m_0 + c)
    = n + (5**k - 1)/4 * (4 + ceil(4*(n + r/ell))): a closed form in a few
    big-integer operations for any k, evaluated on numerators and
    denominators.  Satisfies f(k, n) >= (k+1)*n.

    This and the other pure bounds (centered_bound, vertex_cover_bound,
    tree_extension_bound, cover_piece_bound, con_color_bound) are memoised:
    a hit, which hashes the arguments, costs less than this closed form, and
    it builds no Fraction.  Their keys are typed, so a float argument does
    not hit the entry of the equal int and still fails; exceptions are not
    cached.
    """
    if k < 0:
        raise GraphError("center count k must be nonnegative")
    rf = as_fraction(r)
    lf = as_fraction(ell)
    nf = as_fraction(n)
    if lf <= 0 or nf <= 0:
        raise GraphError("ell and N must be positive")
    if rf < 0:
        raise GraphError("radius r must be nonnegative")
    # on integers, with n = a/b and r/ell = c/d, and one Fraction made
    a, b = nf.numerator, nf.denominator
    c, d = rf.numerator * lf.denominator, rf.denominator * lf.numerator
    step = 4 - 2 * (-2 * c // d)
    lead = 4 - (-4 * (a * d + c * b) // (b * d))
    p = 2 ** k
    return Fraction(p * (a + b * ((5 ** k - 1) // 4) * lead) + b * step * (p - 1), b)


def control_radii(theta: int, mu: object, ell: object, count: int) -> List[Fraction]:
    """The strictly increasing radius sequence a_0..a_count used by the
    deleted-set tree recursion: a_0 = 3*ell + mu and
    a_i = 4*(3*theta+1)*(theta + (a_{i-1}+mu)/ell) * a_{i-1}."""
    mf = as_fraction(mu)
    lf = as_fraction(ell)
    if theta < 1 or lf <= 0 or mf < 0 or count < 0:
        raise GraphError("invalid control-radius parameters")
    out = [3 * lf + mf]
    for _ in range(count):
        prev = out[-1]
        out.append(4 * (3 * theta + 1) * (theta + (prev + mf) / lf) * prev)
    return out


class CenterCertificate(Record):
    """Witness that a set is within distance `radius` of at most k centers.

    `build` checks the witness in a graph and records that graph object in
    `graph`; a certificate made any other way has no graph, and the merges
    below accept a certificate only for the graph it was checked in.
    Equality, hashing and repr leave the graph out."""

    __slots__ = ("centers", "radius", "covered", "k", "graph")

    _unlisted = ("graph",)

    _defaults = {"graph": None}

    @staticmethod
    def build(
        g: WeightedGraph,
        centers: Iterable[int],
        radius: object,
        covered: Iterable[int],
        k: Optional[int] = None,
    ) -> "CenterCertificate":
        """Check the witness in g and record g: at most k centers, and
        every covered vertex within `radius` of them.  The coverage search
        stops once every covered vertex is settled (`reached`), so a
        covered set that fills the whole ball still pays for all of it."""
        cs = tuple(sorted(set(centers)))
        rf = as_fraction(radius)
        zs = tuple(sorted(set(covered)))
        kk = len(cs) if k is None else k
        if len(cs) > kk:
            raise ContractViolation(
                "certificate lists %d centers but claims k=%d" % (len(cs), kk)
            )
        stray = set(zs) - (reached(g, cs, rf, zs) if cs else set())
        if stray:
            raise ContractViolation(
                "certificate coverage fails: %s beyond distance %s of the centers"
                % (sorted(stray)[:5], rf)
            )
        return CenterCertificate(cs, rf, zs, kk, g)

    def require_graph(self, g: WeightedGraph, what: str) -> None:
        """Raise GraphError unless the certificate was checked in g itself."""
        if self.graph is not g:
            raise GraphError("%s: the center certificate was not checked in this graph" % what)


def patch_colorings(
    g: WeightedGraph,
    ell: object,
    cert: CenterCertificate,
    deleted: Iterable[int],
    c_z: Optional[Coloring],
    c: Coloring,
    n_claimed: object = 1,
    what: str = "patch",
    exact: bool = True,
) -> ColorResult:
    """Glue a coloring of the centered set Z onto the coloring c of the rest.

    c colors the Z-deleted power graph minus `deleted`, with weak diameter
    at most n_claimed, measured either in the full power graph or in the
    Z-deleted one.  Returns c union c_Z restricted away from `deleted`,
    re-verified at patch_bound(cert.k, cert.radius, ell, n_claimed) in the
    full power graph.  Without c_Z, Z takes color 1 and the merge keeps
    c's color count.  cert must have been built on g itself.
    """
    lf = as_fraction(ell)
    require_light_edges(g, lf)
    cert.require_graph(g, what)
    rset = set(deleted)
    z = set(cert.covered)
    if c_z is None:
        c_z = Coloring.constant(z, c.num_colors)
    merged = c.union(c_z.restrict(z - rset))
    bound = patch_bound(cert.k, cert.radius, lf, n_claimed)
    keep = g.vertex_set() - rset
    report = check_weak_diameter(
        g, lf, merged, bound=bound, what=what, restrict_to=keep, exact=exact
    )
    return ColorResult(merged, bound, report)


@functools.lru_cache(maxsize=None, typed=True)
def centered_bound(k: int, r: object, ell: object) -> Fraction:
    """Bound for any coloring of a graph whose undeleted part is (k, r)-centered."""
    return patch_bound(k, r, ell, 1)


def centered_color(
    g: WeightedGraph,
    ell: object,
    deleted: Iterable[int],
    cert: CenterCertificate,
    coloring: Optional[Coloring] = None,
    what: str = "centered",
    exact: bool = True,
) -> ColorResult:
    """Color everything outside `deleted` (one color unless a coloring is
    given); any such coloring has weak diameter at most centered_bound.
    cert must have been built on g itself and cover everything outside
    `deleted`."""
    lf = as_fraction(ell)
    cert.require_graph(g, what)
    rset = set(deleted)
    missing = (g.vertex_set() - rset) - set(cert.covered)
    if missing:
        raise ContractViolation(
            "certificate must cover all undeleted vertices; missing %s" % sorted(missing)[:5]
        )
    if coloring is None:
        coloring = Coloring.constant(g.vertex_set() - rset)
    bound = centered_bound(cert.k, cert.radius, lf)
    keep = g.vertex_set() - rset
    report = check_weak_diameter(
        g, lf, coloring, bound=bound, what=what, restrict_to=keep, exact=exact
    )
    return ColorResult(coloring, bound, report)


@functools.lru_cache(maxsize=None, typed=True)
def vertex_cover_bound(k: int, w: int, ell: object) -> Fraction:
    """Composed bound: centered bound for the <= w-vertex components, then a
    patch over the k cover vertices."""
    n1 = centered_bound(w, 0, ell)
    return patch_bound(k, 0, ell, n1)
