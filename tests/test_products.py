"""Tests for fundamental product enumeration and the size bounds."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from csgcompress import cover, products
from csgcompress.errors import FileFormatError, ParameterError
from csgcompress.geometry import (
    CloudOracle,
    Complement,
    Intersection,
    Leaf,
    Primitive,
    TreeOracle,
    Union,
    sample_region,
    sample_surface,
    sign_vector_samples,
    signed_distance,
    sphere,
)
from csgcompress.geometry.sampling import derive_seed
from csgcompress.graph import _SEED_NAMESPACE as GRAPH_SEED_NAMESPACE
from csgcompress.graph import IntersectionGraph, build_intersection_graph
from csgcompress.pipeline import compress
from csgcompress.products import (
    LABEL_INSIDE,
    LABEL_MIXED,
    LABEL_OUTSIDE,
    abstract_instance_from_dict,
    candidate_bounds,
    enumerate_cliques,
    enumerate_products,
    table_to_dict,
)
from tests.conftest import (
    FIG_ALL_POSITIVE_SETS,
    FIG_INSIDE_POSITIVE_SETS,
    FIG_MAXIMAL_CLIQUES,
    FIG_OUTSIDE_POSITIVE_SETS,
)


class CountingInsideOracle:
    """Oracle proxy that records the points of each ``inside`` query."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.calls = []
        self.points = []

    def inside(self, points):
        self.calls.append(len(np.atleast_2d(points)))
        self.points.append(np.array(points))
        return self._oracle.inside(points)


class _SlabFlipOracle:
    """Oracle proxy that flips the answers for points with lo <= x < hi."""

    def __init__(self, oracle, lo, hi):
        self._oracle, self._lo, self._hi = oracle, lo, hi

    def inside(self, points):
        x = np.asarray(points)[:, 0]
        return self._oracle.inside(points) ^ ((x >= self._lo) & (x < self._hi))


def _rows(arrays):
    """The points of several (N, 3) arrays as one sorted list of tuples."""
    return sorted(tuple(row) for a in arrays for row in a)


def _all_witness_table(prims, graph, oracle, **kwargs):
    """The table classified with every witness in the first query."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(products, "CLASSIFY_WITNESSES", 2**62)
        return enumerate_products(prims, graph, oracle, **kwargs)


@pytest.fixture(scope="module")
def fig_table(fig_primitives, fig_oracle):
    graph = build_intersection_graph(fig_primitives, count=4096, seed=0)
    return enumerate_products(fig_primitives, graph, fig_oracle, seed=0)


class TestEnumerateCliques:
    def test_counts_on_reference_graph(self):
        g = IntersectionGraph(
            tuple("ABCDEF"),
            frozenset({("A", "B"), ("B", "C"), ("B", "D"), ("C", "D"),
                       ("B", "E"), ("D", "E"), ("E", "F")}),
        )
        cliques = enumerate_cliques(g)
        # 6 singletons + 7 edges + 2 triangles.
        assert len(cliques) == 15
        assert set(cliques) == set(FIG_ALL_POSITIVE_SETS)

    def test_complete_graph(self):
        g = IntersectionGraph(
            ("a", "b", "c"), frozenset({("a", "b"), ("a", "c"), ("b", "c")})
        )
        assert len(enumerate_cliques(g)) == 7  # 2^3 - 1


class TestEnumerateProducts:
    @pytest.mark.parametrize("tau_in, tau_out", [
        pytest.param(0.5, 0.5, id="equal"),
        pytest.param(1.5, products.DEFAULT_TAU_OUT, id="tau_in-above-1"),
        pytest.param(products.DEFAULT_TAU_IN, -0.1, id="tau_out-below-0"),
    ])
    def test_threshold_refusals(self, tau_in, tau_out):
        a = sphere("A", (0, 0, 0), 1.0)
        graph = build_intersection_graph([a], count=64, seed=0)
        oracle = CountingInsideOracle(TreeOracle(Leaf("A"), [a]))
        with pytest.raises(ParameterError,
                           match=r"^need 0 <= tau_out < tau_in <= 1$"):
            enumerate_products([a], graph, oracle, tau_in=tau_in, tau_out=tau_out)
        assert oracle.calls == []

    def test_single_sphere(self):
        a = sphere("A", (0, 0, 0), 1.0)
        graph = build_intersection_graph([a], count=256, seed=0)
        oracle = TreeOracle(Leaf("A"), [a])
        table = enumerate_products([a], graph, oracle, samples_per_region=256, seed=0)
        assert table.n_f == 1
        assert table.universe == (frozenset({"A"}),)
        assert table.products[0].label == LABEL_INSIDE

    def test_reference_scene_n_f(self, fig_table):
        assert fig_table.n_f == 15
        assert {p.positive_set for p in fig_table.products} == set(
            FIG_ALL_POSITIVE_SETS
        )

    def test_reference_scene_universe(self, fig_table):
        assert set(fig_table.universe) == set(FIG_INSIDE_POSITIVE_SETS)
        outside = {
            p.positive_set for p in fig_table.products if p.label == LABEL_OUTSIDE
        }
        assert outside == set(FIG_OUTSIDE_POSITIVE_SETS)
        assert fig_table.mixed == ()

    def test_witnesses_satisfy_sign_vectors(self, fig_table, fig_primitives):
        by_id = {p.pid: p for p in fig_primitives}
        for product in fig_table.products:
            for pid, prim in by_id.items():
                d = signed_distance(prim, product.samples)
                if pid in product.positive_set:
                    assert np.all(d < 0)
                else:
                    assert np.all(d >= 0)

    def test_deterministic(self, fig_primitives, fig_oracle):
        graph = build_intersection_graph(fig_primitives, count=1024, seed=3)
        t1 = enumerate_products(fig_primitives, graph, fig_oracle,
                                samples_per_region=512, seed=5)
        t2 = enumerate_products(fig_primitives, graph, fig_oracle,
                                samples_per_region=512, seed=5)
        assert [p.positive_set for p in t1.products] == [
            p.positive_set for p in t2.products
        ]
        for a, b in zip(t1.products, t2.products):
            npt.assert_array_equal(a.samples, b.samples)
            assert a.label == b.label

    @pytest.mark.parametrize("kind", ["tree", "cloud"])
    def test_at_most_two_oracle_queries_per_table(self, kind, fig_primitives,
                                                  fig_minimal_tree, fig_oracle):
        oracle = fig_oracle if kind == "tree" else CloudOracle(
            sample_surface(fig_minimal_tree, fig_primitives, 4000, seed=2))
        counting = CountingInsideOracle(oracle)
        graph = build_intersection_graph(fig_primitives, count=1024, seed=3)
        table = enumerate_products(fig_primitives, graph, counting,
                                   samples_per_region=512, seed=5)
        assert table.n_f == 15
        m = products.CLASSIFY_WITNESSES
        split = {p.positive_set for p in table.products if len(p.samples) > m
                 and 0 < np.mean(oracle.inside(p.samples[:m])) < 1}
        assert 1 <= len(counting.calls) <= 2
        assert _rows(counting.points[:1]) == _rows(
            p.samples[:m] for p in table.products)
        assert _rows(counting.points[1:]) == _rows(
            p.samples[m:] for p in table.products if p.positive_set in split)
        for p in table.products:
            if p.positive_set in split or len(p.samples) <= m:
                assert p.inside_fraction == float(np.mean(oracle.inside(p.samples)))
            else:
                assert p.inside_fraction in (0.0, 1.0)
        # the cloud's crease errors split a cell of the reference scene
        assert len(counting.calls) == (2 if kind == "cloud" else 1)

    def test_split_cells_match_the_all_witness_reference(self, fig_primitives,
                                                         fig_oracle):
        # Flipping the answers in a thin slab splits the cells it crosses.
        graph = build_intersection_graph(fig_primitives, count=1024, seed=3)
        noisy = _SlabFlipOracle(fig_oracle, 0.5, 0.56)
        counting = CountingInsideOracle(noisy)
        table = enumerate_products(fig_primitives, graph, counting, seed=5)
        reference = _all_witness_table(fig_primitives, graph, noisy, seed=5)
        assert len(counting.calls) == 2
        m = products.CLASSIFY_WITNESSES
        split = 0
        for p, ref in zip(table.products, reference.products):
            assert p.positive_set == ref.positive_set
            assert p.label == ref.label
            if p.inside_fraction not in (0.0, 1.0):
                split += 1
                assert len(p.samples) > m
                assert p.inside_fraction == ref.inside_fraction
        assert split == 3

    @given(st.integers(2, 5).flatmap(
        lambda n: st.tuples(*[_primitive(f"P{i}", "sphere") for i in range(n + 1)])),
        st.sampled_from(("union", "intersection", "difference")),
        st.sampled_from((128, 1024)), st.integers(0, 2**32 - 1))
    def test_labels_equal_the_all_witness_labels(self, spheres, op, count, seed):
        # The target combines a scene sphere with one more sphere that is
        # not a primitive, so its surface cuts cells.
        prims, cutter = spheres[:-1], spheres[-1]
        first, other = Leaf("P0"), Leaf(cutter.pid)
        target = {
            "union": Union((first, other)),
            "intersection": Intersection((first, other)),
            "difference": Intersection((first, Complement(other))),
        }[op]
        oracle = TreeOracle(target, spheres)
        graph = build_intersection_graph(prims, count=count, seed=seed)
        table = enumerate_products(prims, graph, oracle,
                                   samples_per_region=count, seed=seed)
        reference = _all_witness_table(prims, graph, oracle,
                                       samples_per_region=count, seed=seed)
        for p, ref in zip(table.products, reference.products):
            assert (p.positive_set, p.label) == (ref.positive_set, ref.label)
            if p.inside_fraction not in (0.0, 1.0):
                assert p.inside_fraction == ref.inside_fraction

    def test_small_cell_asks_no_second_query(self):
        # The oracle solid half-covers the primitive's lone cell, which has
        # fewer witnesses than one first-stage share.
        a = sphere("A", (0, 0, 0), 1.0)
        oracle = TreeOracle(Leaf("S"), [sphere("S", (1.0, 0, 0), 1.0)])
        counting = CountingInsideOracle(oracle)
        n = products.CLASSIFY_WITNESSES - 1
        table = enumerate_products([a], build_intersection_graph([a], count=64),
                                   counting, samples_per_region=n)
        (cell,) = table.products
        assert counting.calls == [n]
        assert cell.label == LABEL_MIXED
        assert cell.inside_fraction == float(np.mean(oracle.inside(cell.samples)))

    def test_no_cell_kept_asks_no_query(self):
        # The graph misses the overlap the single sample lands in.
        a, b = sphere("A", (0, 0, 0), 1.0), sphere("B", (1, 0, 0), 1.0)
        counting = CountingInsideOracle(TreeOracle(Leaf("A"), [a, b]))
        graph = IntersectionGraph(("A", "B"), frozenset())
        table = enumerate_products([a, b], graph, counting, samples_per_region=1)
        assert table.n_f == 0
        assert counting.calls == []

    def test_mixed_product_detected(self):
        # The oracle solid only half-covers the primitive's lone cell.
        a = sphere("A", (0, 0, 0), 1.0)
        graph = build_intersection_graph([a], count=256, seed=0)
        oracle = TreeOracle(Leaf("S"), [sphere("S", (1.0, 0, 0), 1.0)])
        table = enumerate_products([a], graph, oracle, samples_per_region=512, seed=0)
        assert table.products[0].label == LABEL_MIXED
        assert table.mixed == table.products
        assert table.universe == ()


class TestCandidateBounds:
    def test_global_bound_values(self, fig_table):
        bounds = candidate_bounds(fig_table, FIG_MAXIMAL_CLIQUES)
        assert bounds.global_bound == 32767  # 2^15 - 1

    def test_global_bound_single(self):
        a = sphere("A", (0, 0, 0), 1.0)
        graph = build_intersection_graph([a], count=128, seed=0)
        table = enumerate_products([a], graph, TreeOracle(Leaf("A"), [a]),
                                   samples_per_region=128, seed=0)
        assert candidate_bounds(table, [{"A"}]).global_bound == 1

    def test_partitioned_bound_reference(self, fig_table):
        bounds = candidate_bounds(fig_table, FIG_MAXIMAL_CLIQUES)
        # Canonical clique order: {B,C,D}, {B,D,E}, then {A,B}, {E,F}.
        assert bounds.per_clique_nf == (7, 7, 3, 3)
        assert bounds.partitioned_bound == (2**7 - 1) * 2 + (2**3 - 1) * 2  # 268
        assert bounds.partitioned_bound < bounds.global_bound

    def test_big_n_f_exact(self):
        # Python ints keep 2^n_f exact well past 62 bits.
        ids = tuple(f"p{i}" for i in range(70))
        from csgcompress.products import FundamentalProduct, ProductTable
        prods = tuple(
            FundamentalProduct(frozenset({i}), LABEL_INSIDE, 1.0, np.zeros((1, 3)))
            for i in ids
        )
        table = ProductTable(ids, prods)
        bounds = candidate_bounds(table, [{i} for i in ids])
        assert bounds.global_bound == 2**70 - 1
        assert bounds.partitioned_bound == 70


class TestAbstractInstance:
    def test_round_trip(self, fig_abstract_instance):
        graph, table = abstract_instance_from_dict(fig_abstract_instance)
        assert table.n_f == 15
        assert set(table.universe) == set(FIG_INSIDE_POSITIVE_SETS)
        redumped = table_to_dict(table, graph)
        graph2, table2 = abstract_instance_from_dict(redumped)
        assert graph2.edges == graph.edges
        assert [p.positive_set for p in table2.products] == [
            p.positive_set for p in table.products
        ]

    def test_non_clique_product_rejected(self):
        with pytest.raises(FileFormatError):
            abstract_instance_from_dict(
                {
                    "primitives": ["a", "b"],
                    "edges": [],
                    "products": [{"positives": ["a", "b"], "inside": True}],
                }
            )

    def test_geometric_table_matches_abstract_twin(
        self, fig_table, fig_abstract_instance
    ):
        _, abstract = abstract_instance_from_dict(fig_abstract_instance)
        assert [p.positive_set for p in fig_table.products] == [
            p.positive_set for p in abstract.products
        ]
        assert [p.label for p in fig_table.products] == [
            p.label for p in abstract.products
        ]


class TestRegionLimit:
    def test_limit_is_inclusive(self, monkeypatch):
        g = IntersectionGraph(
            ("a", "b", "c"), frozenset({("a", "b"), ("a", "c"), ("b", "c")})
        )
        monkeypatch.setattr(products, "REGION_LIMIT", 7)
        assert len(enumerate_cliques(g)) == 7
        monkeypatch.setattr(products, "REGION_LIMIT", 6)
        with pytest.raises(ParameterError, match="REGION_LIMIT = 6 regions on 3 primitives"):
            enumerate_cliques(g)

    def test_refuses_during_the_walk(self):
        # 2^40 - 1 cliques: only a check inside the walk can return.
        ids = tuple(f"v{i:02d}" for i in range(40))
        g = IntersectionGraph(
            ids, frozenset((a, b) for a in ids for b in ids if a < b)
        )
        with pytest.raises(ParameterError, match="REGION_LIMIT = 4096 regions on 40 primitives"):
            enumerate_cliques(g)
        # The candidate walk enumerates the same cliques.  A 14-vertex clique
        # (2^14 - 1 = 16383 subsets) keeps the test cheap if the check is lost.
        ids = ids[:14]
        g = IntersectionGraph(
            ids, frozenset((a, b) for a in ids for b in ids if a < b)
        )
        with pytest.raises(ParameterError, match="REGION_LIMIT = 4096 regions on 14 primitives"):
            cover.generate_candidates(
                products.ProductTable(ids, ()), [frozenset(ids)], g, cover.MODE_PARTITIONED
            )

    def test_reference_scene_past_a_lowered_limit(self, monkeypatch, fig_primitives,
                                                 fig_oracle):
        # The scene's graph has 15 cliques; the product stage walks none of
        # them, so the limit fires when the candidate walk starts.
        monkeypatch.setattr(products, "REGION_LIMIT", 14)
        with pytest.raises(ParameterError,
                           match="REGION_LIMIT = 14 regions on 6 primitives") as err:
            compress(fig_primitives, fig_oracle)
        assert err.value.stage == "candidates"

    def test_concentric_spheres_are_refused(self):
        # 13 nested spheres overlap pairwise: 13 cells (the ball and 12
        # shells), but 2^13 - 1 = 8191 cliques for the candidate walk.
        prims = [sphere(f"S{i:02d}", (0, 0, 0), 1.0 + 0.1 * i) for i in range(13)]
        graph = build_intersection_graph(prims, count=256, seed=0)
        assert len(graph.edges) == 13 * 12 // 2
        oracle = TreeOracle(Leaf("S00"), prims)
        table = enumerate_products(prims, graph, oracle, seed=0)
        ids = [p.pid for p in prims]
        assert [p.positive_set for p in table.products] == [
            frozenset(ids[k:]) for k in reversed(range(13))
        ]
        with pytest.raises(ParameterError,
                           match="REGION_LIMIT = 4096 regions on 13 primitives") as err:
            compress(prims, oracle)
        assert err.value.stage == "candidates"


def _union_oracle(prims):
    return TreeOracle(Union(tuple(Leaf(p.pid) for p in prims)), prims)


# 1 to 5 primitives of random kinds, ids P0, P1, ...
_SCENES = st.lists(st.sampled_from(("sphere", "box", "cylinder")),
                   min_size=1, max_size=5).flatmap(
    lambda kinds: st.tuples(*[_primitive(f"P{i}", k) for i, k in enumerate(kinds)]))


class TestSignVectorTabulation:
    def test_chain_past_64_primitives(self):
        # Primitive indices run past 63, so a single int64 key would overflow.
        prims = [sphere(f"P{i:02d}", (2.0 * i, 0, 0), 1.2) for i in range(70)]
        graph = build_intersection_graph(prims)
        ids = [p.pid for p in prims]
        assert graph.edges == frozenset(zip(ids, ids[1:]))
        table = enumerate_products(prims, graph, _union_oracle(prims))
        assert table.n_f == 139
        assert {p.positive_set for p in table.products} == (
            {frozenset({i}) for i in ids} | {frozenset(e) for e in zip(ids, ids[1:])}
        )
        assert len(table.universe) == 139

    def test_dense_grid_cells(self):
        # A 3x3x3 grid of unit spheres 1.3 apart: face-diagonal neighbours
        # overlap too (54 + 72 edges), and cells have up to 4 positives.
        prims = [sphere(f"S{i}{j}{k}", (1.3 * i, 1.3 * j, 1.3 * k), 1.0)
                 for i, j, k in itertools.product(range(3), repeat=3)]
        graph = build_intersection_graph(prims)
        assert len(graph.edges) == 126
        table = enumerate_products(prims, graph, _union_oracle(prims))
        assert table.n_f == 261
        assert len(table.universe) == 261

    @given(_SCENES, st.sampled_from((1, 64, 256)), st.integers(0, 2**32 - 1))
    def test_random_scenes(self, prims, count, seed):
        graph = build_intersection_graph(prims, count=count, seed=seed)
        assert graph.edges == _pairwise_reference_edges(prims, count, seed)
        table = enumerate_products(prims, graph, TreeOracle(Leaf("P0"), prims),
                                   samples_per_region=count, seed=seed)
        for product in table.products:
            assert graph.is_clique(product.positive_set)
            for prim in prims:
                inside = signed_distance(prim, product.samples) < 0
                assert np.all(inside == (prim.pid in product.positive_set))

    @given(_SCENES, st.sampled_from((1, 64, 256)), st.integers(0, 2**32 - 1))
    def test_products_hold_the_sampler_cells(self, prims, count, seed):
        # The table keeps the sampler's clique cells, witnesses untouched.
        graph = build_intersection_graph(prims, count=count, seed=seed)
        table = enumerate_products(prims, graph, TreeOracle(Leaf("P0"), prims),
                                   samples_per_region=count, seed=seed)
        cells = sign_vector_samples(prims, count, seed)
        assert {p.positive_set for p in table.products} == {
            key for key in cells if graph.is_clique(key)}
        for product in table.products:
            npt.assert_array_equal(product.samples, cells[product.positive_set],
                                   strict=True)


def _pairwise_reference_edges(prims, count, seed):
    """Edge when either primitive's interior samples hit the other, pair by pair."""
    samples = [sample_region(p, count, derive_seed(seed, GRAPH_SEED_NAMESPACE, i))
               for i, p in enumerate(prims)]
    return frozenset(
        (prims[i].pid, prims[j].pid)
        for i, j in itertools.combinations(range(len(prims)), 2)
        if np.any(signed_distance(prims[j], samples[i]) < 0)
        or np.any(signed_distance(prims[i], samples[j]) < 0)
    )


_COORD = st.integers(-24, 24).map(lambda k: k / 16)
_SIZE = st.integers(4, 32).map(lambda k: k / 16)


@st.composite
def _primitive(draw, pid, kind):
    rotation = (1.0, 0.0, 0.0, 0.0)
    if draw(st.booleans()):
        q = np.array(draw(st.tuples(*[st.integers(-4, 4)] * 4)), dtype=float)
        assume(q.any())
        rotation = q / np.linalg.norm(q)
    centre = draw(st.tuples(_COORD, _COORD, _COORD))
    if kind == "sphere":
        params = {"radius": draw(_SIZE)}
    elif kind == "box":
        params = {"half_extents": draw(st.tuples(_SIZE, _SIZE, _SIZE))}
    else:
        params = {"radius": draw(_SIZE), "half_height": draw(_SIZE)}
    return Primitive(pid, kind, np.array(centre), np.array(rotation), params)
