"""Bound recursion values, certificate checking, and merge fuzzing."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdcolor.graph import GraphError, WeightedGraph, neighborhood
from wdcolor.partition import Coloring, ContractViolation, verify_weak_diameter
from wdcolor.patching import (
    CenterCertificate,
    centered_bound,
    centered_color,
    control_radii,
    patch_bound,
    patch_colorings,
)

import oracles
from strategies import bound_inputs, random_connected_graph, rationals


def star(leaves=5):
    return WeightedGraph(range(leaves + 1), [(0, i, 1) for i in range(1, leaves + 1)])


def path(n):
    return WeightedGraph(range(n), [(i, i + 1, 1) for i in range(n - 1)])


def recursive_patch_bound(k, r, ell, n):
    """The patch-bound recursion as the lemma states it, for small k."""
    r, ell, n = Fraction(r), Fraction(ell), Fraction(n)
    if k == 0:
        return n
    inner = math.ceil(4 / ell * (ell + r + ell * n)) + n
    return 2 * recursive_patch_bound(k - 1, r, ell, inner) + 2 * math.ceil(2 * (ell + r) / ell)


class TestPatchBound:
    def test_base_case_is_identity(self):
        for y in (1, 3, Fraction(7, 2)):
            assert patch_bound(0, 0, 1, y) == y
            assert patch_bound(0, 5, Fraction(1, 2), y) == y

    def test_one_center_unit_scale(self):
        # f(1, 1) at r=0, ell=1: inner ceil(4*(1+1)) + 1 = 9,
        # step 2*ceil(2) = 4, so 2*9 + 4 = 22.
        assert patch_bound(1, 0, 1, 1) == 22

    def test_two_centers_unit_scale(self):
        # f(2, 1) = 2*f(1, 9) + 4; f(1, 9) = 2*(ceil(4*10) + 9) + 4 = 102.
        assert patch_bound(2, 0, 1, 1) == 208

    def test_radius_enters_the_step(self):
        # r=1, ell=1: step 2*ceil(4) = 8, inner ceil(4*(2+1)) + 1 = 13.
        assert patch_bound(1, 1, 1, 1) == 2 * 13 + 8

    def test_fractional_scale(self):
        # ell=1/2, r=0, N=1: step 2*ceil(2) = 4,
        # inner ceil(8*(1/2 + 1/2)) + 1 = 9, so 22 again.
        assert patch_bound(1, 0, Fraction(1, 2), 1) == 22

    def test_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            patch_bound(-1, 0, 1, 1)
        with pytest.raises(GraphError):
            patch_bound(1, 0, 0, 1)
        with pytest.raises(GraphError):
            patch_bound(1, -1, 1, 1)
        with pytest.raises(GraphError):
            patch_bound(1, 0, 1, 0)

    @given(
        k=st.integers(min_value=0, max_value=12),
        r=rationals(min_value=0, max_num=9, max_den=5),
        ell=rationals(min_value=1, max_num=9, max_den=5),
        n=rationals(min_value=1, max_num=60, max_den=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_recursion(self, k, r, ell, n):
        assert patch_bound(k, r, ell, n) == recursive_patch_bound(k, r, ell, n)

    @given(
        k=st.integers(min_value=0, max_value=40),
        r=rationals(min_value=0, max_num=40, max_den=9),
        ell=rationals(min_value=1, max_num=40, max_den=9),
        n=bound_inputs(),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_the_loop(self, k, r, ell, n):
        got, want = patch_bound(k, r, ell, n), oracles.reference_patch_bound(k, r, ell, n)
        assert got == want and type(got) is type(want)

    def test_large_k_needs_no_recursion(self):
        # k = 46**2, the centre count a width-45 decomposition asks for
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            b = patch_bound(2116, 0, 1, 1)
        finally:
            sys.setrecursionlimit(old)
        assert b >= 2117
        assert b.denominator == 1

    @given(
        k=st.integers(min_value=0, max_value=4),
        r=rationals(min_value=0, max_num=6, max_den=4),
        ell=rationals(min_value=1, max_num=6, max_den=4),
        n=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_dominates_linear_growth(self, k, r, ell, n):
        assert patch_bound(k, r, ell, n) >= (k + 1) * n

    @given(
        k=st.integers(min_value=0, max_value=3),
        n=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_k_and_n(self, k, n):
        b = patch_bound(k, 0, 1, n)
        assert patch_bound(k + 1, 0, 1, n) > b
        assert patch_bound(k, 0, 1, n + 1) > b


class TestControlRadii:
    def test_frozen_unit_values(self):
        # theta=1, mu=0, ell=1: a0 = 3, a1 = 4*4*(1+3)*3 = 192.
        seq = control_radii(1, 0, 1, 1)
        assert seq == [3, 192]

    def test_strictly_increasing(self):
        rng = random.Random(7)
        for _ in range(20):
            theta = rng.randint(1, 5)
            mu = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            ell = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            seq = control_radii(theta, mu, ell, 6)
            assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_base_term(self):
        assert control_radii(2, Fraction(1, 2), 2, 0) == [Fraction(13, 2)]


class TestCenterCertificate:
    def test_accepts_valid_coverage(self):
        g = star()
        cert = CenterCertificate.build(g, [0], 1, range(6))
        assert cert.k == 1
        assert cert.covered == (0, 1, 2, 3, 4, 5)

    def test_rejects_uncovered_vertex(self):
        g = path(5)
        with pytest.raises(ContractViolation):
            CenterCertificate.build(g, [0], 1, [0, 1, 2])

    def test_rejects_more_centers_than_k(self):
        g = path(5)
        with pytest.raises(ContractViolation):
            CenterCertificate.build(g, [0, 4], 1, [0, 1], k=1)

    def test_messages_name_the_failure(self):
        g = path(5)
        with pytest.raises(ContractViolation, match=r"coverage fails: \[2\] beyond distance 1 of the centers"):
            CenterCertificate.build(g, [0], 1, [0, 1, 2])
        with pytest.raises(ContractViolation, match="lists 2 centers but claims k=1"):
            CenterCertificate.build(g, [0, 4], 1, [0, 1], k=1)

    def test_zero_radius_covers_only_centers(self):
        g = path(3)
        CenterCertificate.build(g, [1], 0, [1])
        with pytest.raises(ContractViolation):
            CenterCertificate.build(g, [1], 0, [0, 1])


class TestMerges:
    def test_star_delete_merge(self):
        g = star()
        leaves = set(range(1, 6))
        c = Coloring.constant(leaves, 1)
        cert = CenterCertificate.build(g, [0], 0, [0])
        res = patch_colorings(g, 1, cert, (), None, c, n_claimed=1)
        assert res.coloring.domain == frozenset(range(6))
        assert res.bound == 22
        assert res.report.max_weak_diameter_hops == 2
        assert res.report.ok

    def test_general_merge_keeps_deleted_out_of_domain(self):
        g = path(6)
        z = {2, 3}
        r = {0}
        c = Coloring.constant({1, 4, 5}, 1)
        cert = CenterCertificate.build(g, [2], 1, z)
        res = patch_colorings(g, 1, cert, r, None, c, n_claimed=1)
        assert res.coloring.domain == frozenset({1, 2, 3, 4, 5})
        assert res.report.ok

    def test_rejects_overweight_edges(self):
        g = WeightedGraph([0, 1], [(0, 1, 3)])
        cert = CenterCertificate.build(g, [0], 0, [0])
        with pytest.raises(GraphError):
            patch_colorings(g, 1, cert, (), None, Coloring.constant({1}, 1))

    def test_centered_color_bounds_everything(self):
        g = star()
        cert = CenterCertificate.build(g, [0], 1, range(6))
        res = centered_color(g, 1, (), cert)
        assert res.bound == centered_bound(1, 1, 1)
        assert res.report.max_weak_diameter_hops == 2
        assert res.report.ok

    def test_centered_color_requires_full_coverage(self):
        g = path(5)
        cert = CenterCertificate.build(g, [0], 1, [0, 1])
        with pytest.raises(ContractViolation):
            centered_color(g, 1, (), cert)


def _claimed_bound(g, ell, c, host, z, r):
    """Exact weak diameter of c in the host the merge precondition names:
    the Z-deleted graph, or the full graph with c restricted off Z and r."""
    if host == "z-deleted":
        rep = verify_weak_diameter(g.without(z), ell, c)
    else:
        pool = g.vertex_set() - z - r
        rep = verify_weak_diameter(g, ell, c, restrict_to=pool)
    return Fraction(max(1, rep.max_weak_diameter_hops))


class TestMergeFuzz:
    def test_random_merges_stay_under_bound(self):
        rng = random.Random(20260816)
        hosts = ("full", "z-deleted")
        for trial in range(120):
            n = rng.randint(2, 14)
            ell = Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2]))
            g = random_connected_graph(
                rng, n, rng.randint(0, n), weight_den=4, max_weight=ell
            )
            host = hosts[trial % 2]
            k = rng.randint(1, 3)
            centers = rng.sample(sorted(g.vertex_set()), min(k, n))
            radius = ell * rng.choice([0, 1, 2]) / 2
            z = neighborhood(g, centers, radius)
            rest = sorted(g.vertex_set() - z)
            if host == "z-deleted" or not rest:
                r = set()
            else:
                r = set(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
            m = rng.randint(1, 3)
            c = Coloring(
                {v: rng.randint(1, m) for v in g.vertex_set() - z - r}, m
            )
            n_claim = _claimed_bound(g, ell, c, host, z, r)
            cert = CenterCertificate.build(g, centers, radius, z, k=k)
            res = patch_colorings(
                g, ell, cert, r, None, c, n_claimed=n_claim
            )
            assert res.report.ok
            assert res.coloring.domain == g.vertex_set() - r
