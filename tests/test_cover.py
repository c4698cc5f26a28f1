"""Tests for candidate generation, the exact-cover solver, and tree assembly."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csgcompress import cover
from csgcompress.errors import (
    InfeasibleInstanceError,
    ParameterError,
    StructuralError,
    UnsatisfiableError,
)
from csgcompress.cover import (
    MODE_GLOBAL,
    MODE_PARTITIONED,
    CoverInstance,
    CoverSolution,
    assemble_tree,
    cover_instance_from_dict,
    cover_instance_to_dict,
    covered_products,
    enumerate_exact_covers,
    generate_candidates,
    literal_name,
    literal_sort_key,
    solve_cover_dlx,
    subset_lower_bound,
    verify_cover,
)
from csgcompress.geometry import Complement, Intersection, Leaf, leaf_count
from csgcompress.graph import IntersectionGraph, maximal_cliques_bk
from csgcompress.products import abstract_instance_from_dict, enumerate_cliques
from tests.conftest import sphere_chain_instance


def brute_force_best_key(instance):
    """Independent exact-cover search: element-driven backtracking, no links."""
    universe = set(instance.universe)
    covered = [c.covered for c in instance.candidates]
    order = {u: i for i, u in enumerate(instance.universe)}
    best = [None]

    def rec(remaining, sel):
        if not remaining:
            key = (
                len(sel),
                sum(instance.candidates[i].literal_count for i in sel),
                tuple(sorted(sel)),
            )
            if best[0] is None or key < best[0]:
                best[0] = key
            return
        e = min(remaining, key=lambda u: order[u])
        for i, cov in enumerate(covered):
            if e in cov and cov <= remaining:
                rec(remaining - cov, sel + [i])

    rec(frozenset(universe), [])
    return best[0]


def random_cover_instance(rng, max_subsets=10, max_elems=8):
    """Random instance whose subsets jointly cover the universe."""
    n_elem = int(rng.integers(1, max_elems + 1))
    universe = list(range(1, n_elem + 1))
    while True:
        n_sub = int(rng.integers(1, max_subsets + 1))
        subsets = [
            sorted(
                rng.choice(universe, size=int(rng.integers(1, n_elem + 1)),
                           replace=False).tolist()
            )
            for _ in range(n_sub)
        ]
        if set().union(*map(set, subsets)) == set(universe):
            return cover_instance_from_dict(
                {
                    "universe": universe,
                    "subsets": [
                        {"name": f"S{i}", "covers": s} for i, s in enumerate(subsets)
                    ],
                }
            )


@st.composite
def cover_instances(draw):
    """Random cover instance on up to eight elements with literal counts.

    Subsets may be empty and need not cover the universe, so some instances
    have no exact cover; small literal counts make ties common."""
    n = draw(st.integers(0, 8))
    elements = st.sets(st.integers(1, n)) if n else st.just(set())
    subsets = draw(st.lists(st.tuples(elements, st.integers(0, 3)), max_size=12))
    return cover_instance_from_dict({
        "universe": list(range(1, n + 1)),
        "subsets": [{"name": f"S{i}", "covers": sorted(c), "literals": lits}
                    for i, (c, lits) in enumerate(subsets)],
    })


@st.composite
def coverable_instances(draw, literals=st.integers(0, 3)):
    """Random cover instance on up to 12 elements and 20 subsets with
    literal counts drawn from ``literals``, holding at least one exact
    cover: a random partition of the universe, plus random subsets, in
    random order."""
    n = draw(st.integers(1, 12))
    blocks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    planted = [{e for e in range(1, n + 1) if blocks[e - 1] == b}
               for b in sorted(set(blocks))]
    extra = draw(st.lists(st.sets(st.integers(1, n), min_size=1),
                          max_size=20 - len(planted)))
    subsets = draw(st.permutations(planted + extra))
    counts = draw(st.lists(literals, min_size=len(subsets), max_size=len(subsets)))
    return cover_instance_from_dict({
        "universe": list(range(1, n + 1)),
        "subsets": [{"name": f"S{i}", "covers": sorted(c), "literals": lits}
                    for i, (c, lits) in enumerate(zip(subsets, counts))],
    })


def exhaustive_best_key(instance):
    """Minimum (subsets, literals, indices) over every exact cover, or None."""
    counts = [c.literal_count for c in instance.candidates]
    return min(((len(s), sum(counts[i] for i in s), s)
                for s in enumerate_exact_covers(instance)), default=None)


def reference_candidates(table, cliques, graph, mode):
    """Literal-lattice reference for ``generate_candidates``.

    Every allowed positive set is combined with every negation subset of the
    remaining primitives, and the cheapest expression per admissible covered
    set is kept under the same tie-break.  Returns (name, covered, literals,
    literal_count) tuples in candidate order.
    """
    if mode == MODE_GLOBAL:
        roots = enumerate_cliques(graph)
    else:
        roots = [
            frozenset(pos)
            for clique in cliques
            for k in range(1, len(clique) + 1)
            for pos in itertools.combinations(sorted(clique), k)
        ]
    universe = set(table.universe)
    best = {}
    for pos in roots:
        rest = sorted(set(table.primitive_ids) - pos)
        for k in range(len(rest) + 1):
            for neg in itertools.combinations(rest, k):
                lits = tuple(sorted([(p, True) for p in pos] + [(n, False) for n in neg]))
                covered = covered_products(table, lits)
                if not covered or not covered <= universe:
                    continue
                entry = (len(lits), literal_sort_key(lits), lits)
                if covered not in best or entry < best[covered]:
                    best[covered] = entry
    rows = [
        (literal_name(lits), covered, lits, count)
        for covered, (count, _, lits) in best.items()
    ]
    return sorted(rows, key=lambda r: (r[3], literal_sort_key(r[2])))


@st.composite
def abstract_instances(draw):
    """Random graph on up to six primitives, a random subset of its cliques as
    the product table with random labels, and either the Bron-Kerbosch
    cliques or a random partition of the vertices into cliques."""
    ids = [chr(ord("a") + i) for i in range(draw(st.integers(1, 6)))]
    pairs = list(itertools.combinations(ids, 2))
    edges = [e for e, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    graph = IntersectionGraph(tuple(ids), frozenset(edges))
    cells = enumerate_cliques(graph)
    kept = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    inside = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    _, table = abstract_instance_from_dict({
        "primitives": ids,
        "edges": [list(e) for e in edges],
        "products": [{"positives": sorted(c), "inside": i}
                     for c, k, i in zip(cells, kept, inside) if k],
    })
    if draw(st.booleans()):
        return graph, table, maximal_cliques_bk(graph)
    parts: list[set] = []
    for v in draw(st.permutations(ids)):
        joinable = [p for p in parts if all(graph.has_edge(v, u) for u in p)]
        if joinable and draw(st.booleans()):
            draw(st.sampled_from(joinable)).add(v)
        else:
            parts.append({v})
    return graph, table, [frozenset(p) for p in parts]


def candidate_rows(instance):
    return [(c.name, c.covered, c.literals, c.literal_count)
            for c in instance.candidates]


def sphere_grid_instance(rows, cols):
    """Abstract sphere grid: every sphere and every lens of two neighbours
    is a non-empty cell, and all of them are inside the target."""
    ids = [f"s{r}{c}" for r in range(rows) for c in range(cols)]
    edges = [[f"s{r}{c}", f"s{r}{c + 1}"] for r in range(rows) for c in range(cols - 1)]
    edges += [[f"s{r}{c}", f"s{r + 1}{c}"] for r in range(rows - 1) for c in range(cols)]
    return abstract_instance_from_dict({
        "primitives": ids,
        "edges": edges,
        "products": [{"positives": [i], "inside": True} for i in ids]
        + [{"positives": e, "inside": True} for e in edges],
    })


@pytest.fixture(scope="module")
def fig_graph_table(fig_abstract_instance):
    return abstract_instance_from_dict(fig_abstract_instance)


@pytest.fixture(scope="module")
def fig_partitioned(fig_graph_table):
    graph, table = fig_graph_table
    return generate_candidates(table, maximal_cliques_bk(graph), graph,
                               MODE_PARTITIONED)


@pytest.fixture(scope="module")
def cover5(cover5_instance_dict):
    return cover_instance_from_dict(cover5_instance_dict)


class TestGenerateCandidates:
    def test_contains_isolating_candidate_for_A(self, fig_partitioned):
        names = {c.name: c for c in fig_partitioned.candidates}
        assert "A&!B" in names
        assert names["A&!B"].covered == frozenset({frozenset("A")})

    def test_contains_extended_candidate_for_E(self, fig_partitioned):
        names = {c.name: c for c in fig_partitioned.candidates}
        cand = names["!B&!D&E&!F"]
        assert cand.covered == frozenset({frozenset("E")})

    def test_bare_B_rejected(self, fig_partitioned):
        # B alone covers the outside products {B,D} and {B,D,E}.
        assert "B" not in {c.name for c in fig_partitioned.candidates}

    def test_candidates_sound(self, fig_graph_table, fig_partitioned):
        _, table = fig_graph_table
        universe = set(table.universe)
        for c in fig_partitioned.candidates:
            assert c.covered == covered_products(table, c.literals)
            assert c.covered and c.covered <= universe

    def test_canonical_order(self, fig_partitioned):
        counts = [c.literal_count for c in fig_partitioned.candidates]
        assert counts == sorted(counts)

    def test_every_universe_element_coverable(self, fig_partitioned):
        assert fig_partitioned.feasible

    def test_global_mode_same_or_better(self, fig_graph_table):
        graph, table = fig_graph_table
        cliques = maximal_cliques_bk(graph)
        part = solve_cover_dlx(
            generate_candidates(table, cliques, graph, MODE_PARTITIONED)
        )
        glob = solve_cover_dlx(
            generate_candidates(table, cliques, graph, MODE_GLOBAL)
        )
        assert glob.key()[:2] <= part.key()[:2]

    @given(abstract_instances(), st.sampled_from([MODE_PARTITIONED, MODE_GLOBAL]))
    def test_matches_literal_lattice_reference(self, case, mode):
        graph, table, cliques = case
        expect = reference_candidates(table, cliques, graph, mode)
        coverable = set().union(*(r[1] for r in expect))
        if not set(table.universe) <= coverable:
            with pytest.raises(InfeasibleInstanceError):
                generate_candidates(table, cliques, graph, mode)
        else:
            got = generate_candidates(table, cliques, graph, mode)
            assert candidate_rows(got) == expect

    @given(abstract_instances())
    def test_partitioned_equals_global_under_bk_cliques(self, case):
        graph, table, _ = case
        cliques = maximal_cliques_bk(graph)
        try:
            part = generate_candidates(table, cliques, graph, MODE_PARTITIONED)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                generate_candidates(table, cliques, graph, MODE_GLOBAL)
            return
        glob = generate_candidates(table, cliques, graph, MODE_GLOBAL)
        assert candidate_rows(glob) == candidate_rows(part)

    def test_global_mode_on_sphere_grid_is_fast(self):
        # A cell shares products with at most four other primitives, so the
        # walk from each of the 40 cells is small, while the full negation
        # lattice holds 2^14 to 2^15 subsets per cell.
        graph, table = sphere_grid_instance(4, 4)
        assert (len(table.primitive_ids), table.n_f) == (16, 40)
        cliques = maximal_cliques_bk(graph)
        part = generate_candidates(table, cliques, graph, MODE_PARTITIONED)
        start = time.perf_counter()
        glob = generate_candidates(table, cliques, graph, MODE_GLOBAL)
        assert time.perf_counter() - start < 1.0
        assert candidate_rows(glob) == candidate_rows(part)

    def test_infeasible_partition_names_element(self):
        # Only the lens {a,b} is inside.  A degenerate vertex partition
        # (as the experimental clique method may produce) cannot express
        # the two-positive conjunction, so generation must flag {a&b}.
        _, table = abstract_instance_from_dict(
            {
                "primitives": ["a", "b"],
                "edges": [["a", "b"]],
                "products": [
                    {"positives": ["a"], "inside": False},
                    {"positives": ["b"], "inside": False},
                    {"positives": ["a", "b"], "inside": True},
                ],
            }
        )
        from csgcompress.graph import IntersectionGraph
        graph = IntersectionGraph(("a", "b"), frozenset({("a", "b")}))
        with pytest.raises(InfeasibleInstanceError, match="a&b"):
            generate_candidates(
                table, [frozenset("a"), frozenset("b")], graph, MODE_PARTITIONED
            )

    def test_uncoverable_element_is_refused_by_require_coverable(self):
        # The same check and error as every cover solver: an
        # InfeasibleInstanceError is an UnsatisfiableError (exit 2).
        graph, table = abstract_instance_from_dict({
            "primitives": ["a", "b"], "edges": [["a", "b"]],
            "products": [{"positives": ["a"], "inside": False},
                         {"positives": ["b"], "inside": False},
                         {"positives": ["a", "b"], "inside": True}],
        })
        with pytest.raises(UnsatisfiableError) as err:
            generate_candidates(
                table, [frozenset("a"), frozenset("b")], graph, MODE_PARTITIONED
            )
        assert type(err.value) is InfeasibleInstanceError
        assert str(err.value) == "universe element(s) uncoverable: a&b"


class TestSolveCoverDlx:
    def test_five_element_instance(self, cover5):
        sol = solve_cover_dlx(cover5)
        assert [cover5.candidates[i].name for i in sol.selected] == ["V1", "V5", "V7"]
        assert sol.subsets_used == 3

    def test_five_element_unique_cover(self, cover5):
        assert len(list(enumerate_exact_covers(cover5))) == 1

    def test_reference_partitioned_optimum(self, fig_partitioned):
        sol = solve_cover_dlx(fig_partitioned)
        assert (sol.subsets_used, sol.total_literals) == (4, 10)

    def test_paper_style_cover_among_optima(self, fig_partitioned):
        names = [c.name for c in fig_partitioned.candidates]
        wanted = {"A&!B", "B&!D", "C&D", "!B&!D&E&!F"}
        assert wanted <= set(names)
        idx = tuple(sorted(names.index(w) for w in wanted))
        covers = set(enumerate_exact_covers(fig_partitioned))
        assert idx in covers
        lits = sum(fig_partitioned.candidates[i].literal_count for i in idx)
        assert (len(idx), lits) == (4, 10)

    def test_optimality_verified_exhaustively(self, fig_partitioned):
        best = None
        for sel in enumerate_exact_covers(fig_partitioned):
            lits = sum(fig_partitioned.candidates[i].literal_count for i in sel)
            key = (len(sel), lits)
            best = key if best is None else min(best, key)
        assert best == (4, 10)

    def test_unsatisfiable_raises(self):
        inst = cover_instance_from_dict(
            {
                "universe": [1, 2, 3],
                "subsets": [
                    {"name": "S0", "covers": [1, 2]},
                    {"name": "S1", "covers": [2, 3]},
                ],
            }
        )
        with pytest.raises(UnsatisfiableError):
            solve_cover_dlx(inst)

    def test_uncoverable_element_raises(self):
        inst = cover_instance_from_dict(
            {
                "universe": [1, 2],
                "subsets": [{"name": "S0", "covers": [1]}],
            }
        )
        assert not inst.feasible
        with pytest.raises(UnsatisfiableError, match="2"):
            solve_cover_dlx(inst)

    def test_agreement_with_brute_force(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            inst = random_cover_instance(rng)
            expect = brute_force_best_key(inst)
            if expect is None:
                with pytest.raises(UnsatisfiableError):
                    solve_cover_dlx(inst)
            else:
                assert solve_cover_dlx(inst).key() == expect

    def test_agreement_with_brute_force_wider_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            inst = random_cover_instance(rng, max_subsets=20, max_elems=8)
            expect = brute_force_best_key(inst)
            if expect is None:
                with pytest.raises(UnsatisfiableError):
                    solve_cover_dlx(inst)
            else:
                assert solve_cover_dlx(inst).key() == expect

    def test_every_exact_cover_exactly_once(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            inst = random_cover_instance(rng)
            n = len(inst.candidates)
            expect = {
                sel
                for k in range(n + 1)
                for sel in itertools.combinations(range(n), k)
                if verify_cover(inst, sel).valid
            }
            got = list(enumerate_exact_covers(inst))
            assert len(got) == len(set(got))
            assert set(got) == expect

    def test_empty_universe_has_one_empty_cover(self):
        inst = cover_instance_from_dict(
            {"universe": [], "subsets": [{"name": "E", "covers": []}]}
        )
        assert list(enumerate_exact_covers(inst)) == [()]

    def test_empty_candidate_never_selected(self):
        inst = cover_instance_from_dict(
            {
                "universe": [1, 2],
                "subsets": [
                    {"name": "E", "covers": []},
                    {"name": "S1", "covers": [1]},
                    {"name": "S2", "covers": [2]},
                    {"name": "S12", "covers": [1, 2]},
                ],
            }
        )
        assert sorted(enumerate_exact_covers(inst)) == [(1, 2), (3,)]

    @given(cover_instances())
    def test_matches_exhaustive_search(self, inst):
        expect = exhaustive_best_key(inst)
        assert brute_force_best_key(inst) == expect
        if expect is None:
            with pytest.raises(UnsatisfiableError):
                solve_cover_dlx(inst)
        else:
            assert solve_cover_dlx(inst).key() == expect

    @given(cover_instances(), st.data())
    def test_universe_order_leaves_selection_unchanged(self, inst, data):
        universe = data.draw(st.permutations(inst.universe))
        permuted = CoverInstance(tuple(universe), inst.candidates)
        if exhaustive_best_key(inst) is None:
            with pytest.raises(UnsatisfiableError):
                solve_cover_dlx(permuted)
        else:
            assert solve_cover_dlx(permuted) == solve_cover_dlx(inst)

    @pytest.mark.parametrize("rows, cols, expect", [(4, 4, (16, 40)), (1, 40, (40, 79))])
    def test_sphere_grids_solve_in_a_second(self, rows, cols, expect):
        # A 4x4 grid has millions of exact covers and a 40-sphere chain
        # 3^39; the memoised search solves a few thousand covered masks.
        graph, table = sphere_grid_instance(rows, cols)
        inst = generate_candidates(table, maximal_cliques_bk(graph), graph)
        start = time.perf_counter()
        sol = solve_cover_dlx(inst)
        assert time.perf_counter() - start < 1.0
        assert (sol.subsets_used, sol.total_literals) == expect
        assert verify_cover(inst, sol.selected).valid

    def test_deep_search_needs_no_recursion(self):
        # A path of 3000 elements: covers choose up to 3000 subsets in a row,
        # beyond Python's default recursion limit.
        n = 3000
        inst = cover_instance_from_dict({
            "universe": list(range(n)),
            "subsets": [{"name": f"P{i}", "covers": [i, i + 1]} for i in range(0, n, 2)]
            + [{"name": f"E{i}", "covers": [i]} for i in range(n)],
        })
        assert solve_cover_dlx(inst).selected == tuple(range(n // 2))

    def test_state_limit_refuses_large_searches(self, monkeypatch):
        graph, table = sphere_grid_instance(3, 3)
        inst = generate_candidates(table, maximal_cliques_bk(graph), graph)
        monkeypatch.setattr(cover, "COVER_STATE_LIMIT", 20)
        with pytest.raises(ParameterError,
                           match="COVER_STATE_LIMIT = 20 .* 21 universe elements"):
            solve_cover_dlx(inst)

    def test_solutions_pass_verify(self, fig_partitioned, cover5):
        for inst in (fig_partitioned, cover5):
            sol = solve_cover_dlx(inst)
            assert verify_cover(inst, sol.selected).valid


class TestSubsetLowerBound:
    @given(coverable_instances())
    def test_never_above_the_smallest_cover(self, inst):
        assert subset_lower_bound(inst) <= solve_cover_dlx(inst).subsets_used

    def test_equals_dlx_on_the_reference_scene(self, fig_partitioned):
        assert subset_lower_bound(fig_partitioned) == 4
        assert solve_cover_dlx(fig_partitioned).subsets_used == 4

    @pytest.mark.parametrize("k", [6, 12])
    def test_equals_dlx_on_sphere_chains(self, k):
        graph, table = abstract_instance_from_dict(sphere_chain_instance(k))
        inst = generate_candidates(table, maximal_cliques_bk(graph), graph)
        assert subset_lower_bound(inst) == solve_cover_dlx(inst).subsets_used == k

    def test_keeps_the_scarcest_elements_first(self):
        # 1 lies in three subsets, 2 and 3 in two each.  Kept first in
        # universe order, 1 would block both others and prove only 1.
        inst = cover_instance_from_dict({
            "universe": [1, 2, 3],
            "subsets": [{"covers": c} for c in ([1, 2], [1, 3], [1], [2], [3])],
        })
        assert subset_lower_bound(inst) == solve_cover_dlx(inst).subsets_used == 2


class TestCoverInstance:
    @given(cover_instances())
    def test_holders_list_each_elements_candidates_in_order(self, inst):
        assert list(inst.holders) == list(inst.universe)
        for u in inst.universe:
            assert inst.holders[u] == [
                i for i, c in enumerate(inst.candidates) if u in c.covered]
        assert inst.uncoverable == tuple(
            u for u in inst.universe if not any(u in c.covered for c in inst.candidates))

    def test_repeated_and_foreign_elements_are_refused(self):
        with pytest.raises(ValueError, match="must be unique"):
            CoverInstance((1, 1), ())
        with pytest.raises(ValueError, match="'S' covers elements outside"):
            CoverInstance((1,), (cover.Candidate("S", frozenset({1, 2})),))


class TestVerifyCover:
    def test_valid_cover(self, cover5):
        names = [c.name for c in cover5.candidates]
        sel = [names.index(n) for n in ("V1", "V5", "V7")]
        assert verify_cover(cover5, sel).valid

    def test_violations_reported(self, cover5):
        names = [c.name for c in cover5.candidates]
        check = verify_cover(cover5, [names.index("V1"), names.index("V2")])
        assert not check.valid
        assert set(check.double_covered) == {1, 2}
        assert set(check.uncovered) == {3}

    def test_empty_selection_all_uncovered(self, cover5):
        check = verify_cover(cover5, [])
        assert set(check.uncovered) == {1, 2, 3, 4, 5}
        assert check.double_covered == ()


class TestAssembleTree:
    def test_reference_tree_has_ten_leaves(self, fig_partitioned):
        sol = solve_cover_dlx(fig_partitioned)
        tree = assemble_tree(sol, fig_partitioned)
        assert leaf_count(tree) == sol.total_literals == 10

    def test_single_literal_candidate_collapses(self, fig_graph_table):
        graph, table = fig_graph_table
        inst = generate_candidates(table, maximal_cliques_bk(graph), graph,
                                   MODE_PARTITIONED)
        names = [c.name for c in inst.candidates]
        sol = CoverSolution((names.index("A"),), 1, 1)
        assert assemble_tree(sol, inst) == Leaf("A")

    def test_two_literal_candidate(self, fig_partitioned):
        names = [c.name for c in fig_partitioned.candidates]
        sol = CoverSolution((names.index("A&!B"),), 1, 2)
        assert assemble_tree(sol, fig_partitioned) == Intersection(
            (Leaf("A"), Complement(Leaf("B")))
        )

    def test_empty_selection_rejected(self, fig_partitioned):
        with pytest.raises(StructuralError):
            assemble_tree(CoverSolution((), 0, 0), fig_partitioned)

    def test_abstract_candidates_not_assemblable(self, cover5):
        sol = solve_cover_dlx(cover5)
        with pytest.raises(StructuralError):
            assemble_tree(sol, cover5)


class TestInstanceJson:
    def test_round_trip(self, cover5):
        again = cover_instance_from_dict(cover_instance_to_dict(cover5))
        assert [c.name for c in again.candidates] == [
            c.name for c in cover5.candidates
        ]
        # Elements become strings on the way out; structure is preserved.
        sol = solve_cover_dlx(again)
        assert [again.candidates[i].name for i in sol.selected] == ["V1", "V5", "V7"]

    def test_geometric_instance_serialisable(self, fig_partitioned):
        dumped = cover_instance_to_dict(fig_partitioned)
        again = cover_instance_from_dict(dumped)
        sol = solve_cover_dlx(again)
        assert (sol.subsets_used, sol.total_literals) == (4, 10)
