"""Tests for the intersection graph and maximal clique enumeration."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from csgcompress import graph as graph_module
from csgcompress.geometry import Primitive, bounding_radius, box, cylinder, near_pairs, sphere
from csgcompress.geometry import sampling
from csgcompress.geometry.sampling import derive_seed
from csgcompress.graph import (
    IntersectionGraph,
    build_intersection_graph,
    clique_sort_key,
    graph_from_dict,
    graph_to_dict,
    maximal_cliques_bk,
)
from tests.conftest import FIG_EDGES, FIG_MAXIMAL_CLIQUES
from tests.test_rejection_sampling import primitives, reference_sign_vector_tables


def brute_force_maximal_cliques(graph):
    """Reference enumeration: every vertex subset, kept if maximal clique."""
    verts = list(graph.vertices)
    cliques = []
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            if not graph.is_clique(combo):
                continue
            extendable = any(
                all(graph.has_edge(v, m) for m in combo)
                for v in verts
                if v not in combo
            )
            if not extendable:
                cliques.append(frozenset(combo))
    return sorted(cliques, key=clique_sort_key)


def random_graph(rng, n, p):
    verts = tuple(f"v{i:02d}" for i in range(n))
    edges = frozenset(
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    )
    return IntersectionGraph(verts, edges)


class TestIntersectionGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntersectionGraph(("a", "b"), frozenset({("a", "a")}))
        with pytest.raises(ValueError):
            IntersectionGraph(("a",), frozenset({("a", "b")}))
        with pytest.raises(ValueError):
            IntersectionGraph(("a", "a"), frozenset())

    def test_canonical_edge_storage(self):
        g = IntersectionGraph(("a", "b"), frozenset({("b", "a")}))
        assert g.edges == frozenset({("a", "b")})
        assert g.has_edge("b", "a")

    def test_json_round_trip(self):
        g = IntersectionGraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
        assert graph_from_dict(graph_to_dict(g)).edges == g.edges

    def test_integer_ids_read_as_decimal_strings(self):
        # As load_primitives reads an integer primitive id.
        g = graph_from_dict({"vertices": [7, "a"], "edges": [[7, "a"]]})
        assert (g.vertices, g.edges) == (("7", "a"), frozenset({("7", "a")}))


class TestBuildGraph:
    def test_two_overlapping_spheres(self):
        g = build_intersection_graph(
            [sphere("A", (0, 0, 0), 1.0), sphere("B", (1, 0, 0), 1.0)], count=512, seed=0
        )
        assert g.edges == frozenset({("A", "B")})

    def test_two_distant_spheres(self):
        g = build_intersection_graph(
            [sphere("A", (0, 0, 0), 1.0), sphere("B", (10, 0, 0), 1.0)], count=512, seed=0
        )
        assert g.edges == frozenset()

    def test_reference_scene_edges(self, fig_primitives):
        g = build_intersection_graph(fig_primitives, count=4096, seed=0)
        assert g.edges == FIG_EDGES

    def test_monotone_in_sample_count(self, fig_primitives):
        # Edges found with n samples are still found with 2n (same seed policy).
        seen = build_intersection_graph(fig_primitives, count=1024, seed=7).edges
        more = build_intersection_graph(fig_primitives, count=2048, seed=7).edges
        assert seen <= more


def reference_edges(prims, count, seed):
    """Every pair whose draws meet, from the all-pairs, AABB-only grouping
    the builder used before it filtered pairs by bounding balls and stopped
    each draw early."""
    seeds = [derive_seed(seed, graph_module._SEED_NAMESPACE, i) for i in range(len(prims))]
    return frozenset(
        (prims[i].pid, prims[j].pid) if prims[i].pid < prims[j].pid
        else (prims[j].pid, prims[i].pid)
        for i, table in enumerate(reference_sign_vector_tables(prims, count, seeds))
        for positives in table
        for j in positives
        if j != i
    )


class TestSameEdgesAsAllPairs:
    @settings(max_examples=60)
    @given(data=st.data(), n=st.integers(2, 6), count=st.integers(1, 4096),
           seed=st.integers(0, 2**32 - 1))
    def test_random_primitive_sets(self, data, n, count, seed):
        prims = [data.draw(primitives(pid)) for pid in "ABCDEF"[:n]]
        got = build_intersection_graph(prims, count=count, seed=seed).edges
        assert got == reference_edges(prims, count, seed)

    @pytest.mark.parametrize("distance", [1.98, 1.99])
    def test_near_tangent_spheres(self, distance):
        # The lens is so thin that some seeds miss it; the builder must miss
        # it on exactly the seeds the all-pairs pass misses it on.
        prims = [sphere("A", (0, 0, 0), 1.0), sphere("B", (distance, 0, 0), 1.0)]
        found = 0
        for seed in range(40):
            got = build_intersection_graph(prims, count=4096, seed=seed).edges
            assert got == reference_edges(prims, 4096, seed)
            found += bool(got)
        assert 0 < found < 40

    def test_boxes_meet_but_balls_do_not(self):
        prims = [sphere("A", (0, 0, 0), 1.0), sphere("B", (1.5, 1.5, 1.5), 1.0)]
        assert near_pairs(prims).tolist() == [[True, False], [False, True]]
        assert build_intersection_graph(prims, count=4096, seed=0).edges == frozenset()
        assert reference_edges(prims, 4096, 0) == frozenset()


class TestPairFilter:
    def test_bounding_radius(self):
        assert bounding_radius(sphere("S", (1, 2, 3), 0.5)) == 0.5
        assert bounding_radius(box("B", (0, 0, 0), (1.0, 2.0, 2.0))) == 3.0
        assert bounding_radius(cylinder("C", (0, 0, 0), 3.0, 4.0)) == 5.0

    @settings(max_examples=200)
    @given(data=st.data(), shift=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_no_point_inside_two_far_primitives(self, data, shift, seed):
        # Points drawn inside the first of a pair the filter drops lie
        # outside the second; the shift makes about half the pairs far.
        a, b = data.draw(primitives("A")), data.draw(primitives("B"))
        b = Primitive(b.pid, b.kind, b.translation + (shift, 0.0, 0.0),
                      b.rotation, b.params)
        assume(not near_pairs([a, b])[0, 1])
        pts = sampling.sample_region(a, 512, seed)
        assert not np.any(sampling.signed_distance(b, pts) < 0)


def _trace_graph_work(monkeypatch):
    """Record the points ``build_intersection_graph`` passes to signed_distance.

    Returns (drawn, tested): drawn[pid] counts the candidate points tested
    against their own primitive, tested[(drawer, target)] the kept points
    of one primitive tested against another.
    """
    drawn, tested = Counter(), Counter()
    drawer = []
    own_test, member_test = sampling.signed_distance, graph_module.signed_distance
    region_batches = graph_module.region_batches

    def counted_own(prim, pts):
        drawn[prim.pid] += len(pts)
        return own_test(prim, pts)

    def counted_member(prim, pts):
        tested[drawer[-1], prim.pid] += len(pts)
        return member_test(prim, pts)

    def traced_batches(prim, count, seed):
        drawer.append(prim.pid)
        return region_batches(prim, count, seed)

    monkeypatch.setattr(sampling, "signed_distance", counted_own)
    monkeypatch.setattr(graph_module, "signed_distance", counted_member)
    monkeypatch.setattr(graph_module, "region_batches", traced_batches)
    return drawn, tested


class TestGraphWork:
    """Work counts of the builder, not wall-clock times."""

    def test_chain_draws_one_batch_per_primitive(self, monkeypatch):
        # Spheres 2 apart with radius 1.2: every neighbour lens holds about
        # 8% of a sphere, so the first batch or two of 64 and 128 attempts
        # decide each pair, far short of one whole batch.
        prims = [sphere(f"P{i:02d}", (2.0 * i, 0, 0), 1.2) for i in range(12)]
        drawn, tested = _trace_graph_work(monkeypatch)
        graph = build_intersection_graph(prims)
        assert len(graph.edges) == 11
        assert set(drawn) <= {p.pid for p in prims}
        assert max(drawn.values()) <= sampling._BATCH // 16
        # Each pair is tested from one side only, against those batches.
        assert sorted(tested) == [
            (f"P{i:02d}", f"P{i + 1:02d}") for i in range(11)
        ]
        assert max(tested.values()) <= sampling._BATCH // 16

    def test_grid_never_tests_a_diagonal_neighbour(self, monkeypatch):
        # Diagonal neighbours are 2.83 apart: their boxes meet, their balls
        # of radius 1.2 do not.
        prims = [sphere(f"G{i}{j}", (2.0 * i, 2.0 * j, 0), 1.2)
                 for i in range(4) for j in range(4)]
        drawn, tested = _trace_graph_work(monkeypatch)
        graph = build_intersection_graph(prims)
        assert len(graph.edges) == 24
        assert max(drawn.values()) <= sampling._BATCH // 8
        for a, b in tested:
            (ai, aj), (bi, bj) = map(int, a[1:]), map(int, b[1:])
            assert abs(ai - bi) + abs(aj - bj) == 1, (a, b)
        assert len(tested) == 24


class TestMaximalCliques:
    def test_triangle(self):
        g = IntersectionGraph(
            ("a", "b", "c"), frozenset({("a", "b"), ("a", "c"), ("b", "c")})
        )
        assert maximal_cliques_bk(g) == [frozenset({"a", "b", "c"})]

    def test_edgeless_graph_singletons(self):
        g = IntersectionGraph(("a", "b", "c"), frozenset())
        assert maximal_cliques_bk(g) == [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
        ]

    def test_reference_graph_cliques(self):
        g = IntersectionGraph(tuple("ABCDEF"), FIG_EDGES)
        assert maximal_cliques_bk(g) == sorted(FIG_MAXIMAL_CLIQUES, key=clique_sort_key)

    def test_every_vertex_covered(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 9, 0.3)
        cliques = maximal_cliques_bk(g)
        assert set().union(*cliques) == set(g.vertices)

    def test_agreement_with_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            assert maximal_cliques_bk(g) == brute_force_maximal_cliques(g)

    def test_cliques_are_cliques_and_maximal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, 12, 0.4)
            for c in maximal_cliques_bk(g):
                assert g.is_clique(c)
                outside = set(g.vertices) - c
                assert not any(
                    all(g.has_edge(v, m) for m in c) for v in outside
                )
