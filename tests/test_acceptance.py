"""Acceptance suite: one test per acceptance criterion.

Each test enforces its criterion at the stated tolerance and, on success,
prints one ``ACCEPTANCE n: PASS`` line straight to the terminal (bypassing
capture); a pytest FAILED line is the fail signal.  Run with
``pytest tests/test_acceptance.py -v`` to see both.
"""

import itertools
import json
import time

import numpy as np
import numpy.testing as npt
import pytest

from csgcompress.cover import (
    cover_instance_from_dict,
    enumerate_exact_covers,
    generate_candidates,
    solve_cover_dlx,
    verify_cover,
)
from csgcompress.errors import UnsatisfiableError
from csgcompress.geometry import TreeOracle, leaf_count
from csgcompress.graph import IntersectionGraph, maximal_cliques_bk
from csgcompress.pipeline import (
    PipelineConfig,
    compress,
    compress_abstract,
    report_stats,
)
from csgcompress.products import abstract_instance_from_dict
from csgcompress.qubo import (
    Qubo,
    build_cover_qubo,
    build_max_clique_qubo,
    default_schedule,
    export_qubo,
    import_qubo,
    ising_energy,
    qubo_energy,
    qubo_to_ising,
    selection_from_result,
    solve_exact,
    solve_sa,
)
from tests.conftest import FIG_MAXIMAL_CLIQUES
from tests.test_cover import random_cover_instance
from tests.test_qubo import random_qubo


@pytest.fixture()
def announce(capsys):
    def _announce(number, message):
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: PASS - {message}", flush=True)

    return _announce


def all_energies(q):
    """Vectorised energies of every assignment (rows of the returned X)."""
    ks = np.arange(1 << q.n)
    X = ((ks[:, None] >> np.arange(q.n)) & 1).astype(float)
    lin = np.zeros(q.n)
    for i, v in q.linear.items():
        lin[i] = v
    W = np.zeros((q.n, q.n))
    for (i, j), v in q.quadratic.items():
        W[i, j] = W[j, i] = v
    return X, q.offset + X @ lin + 0.5 * np.einsum("ki,ki->k", X @ W, X)


def test_criterion_1_cover_fixture_all_solvers(cover5_instance_dict, announce):
    """Five-element instance: dlx, qubo_exact, and qubo_sa (10 seeds) agree."""
    t0 = time.perf_counter()
    instance = cover_instance_from_dict(cover5_instance_dict)
    names = [c.name for c in instance.candidates]
    expected = {"V1", "V5", "V7"}

    sol = solve_cover_dlx(instance)
    assert {names[i] for i in sol.selected} == expected

    q, qnames = build_cover_qubo(instance, A=6.0, B=1.0)
    exact = solve_exact(q)
    assert exact.energy == pytest.approx(3.0, abs=1e-12)  # = B * 3, first term zero
    assert {qnames[i] for i in selection_from_result(exact)} == expected

    for seed in range(10):
        sa = solve_sa(q, seed=seed)
        assert sa.energy == pytest.approx(3.0, abs=1e-12)
        assert {qnames[i] for i in selection_from_result(sa)} == expected

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"all three solvers return V1,V5,V7 at energy 3 in {elapsed:.2f}s")


def test_criterion_2_combinatorial_fixture(fig_abstract_instance, announce):
    """Abstract reference instance: cliques, (4, 10) optimum, printed cover."""
    t0 = time.perf_counter()
    graph, table = abstract_instance_from_dict(fig_abstract_instance)
    assert table.n_f == 15 and len(table.universe) == 8

    cliques = maximal_cliques_bk(graph)
    assert set(cliques) == set(FIG_MAXIMAL_CLIQUES)

    instance = generate_candidates(table, cliques, graph, "partitioned")
    sol = solve_cover_dlx(instance)
    assert (sol.subsets_used, sol.total_literals) == (4, 10)

    # Exhaustive enumeration confirms (4, 10) is optimal and finds the
    # printed expression (A&!B)(B&!D)(C&D)(!B&!D&E&!F) among the optima.
    names = [c.name for c in instance.candidates]
    printed = tuple(sorted(names.index(n)
                           for n in ("A&!B", "B&!D", "C&D", "!B&!D&E&!F")))
    best = None
    optima = set()
    for sel in enumerate_exact_covers(instance):
        lits = sum(instance.candidates[i].literal_count for i in sel)
        key = (len(sel), lits)
        if best is None or key < best:
            best, optima = key, {sel}
        elif key == best:
            optima.add(sel)
    assert best == (4, 10)
    assert printed in optima

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(2, f"cliques + (4,10) optimum verified exhaustively in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def fig_geometric_report(fig_primitives, fig_oracle):
    return compress(fig_primitives, fig_oracle, PipelineConfig(seed=0))


def test_criterion_3_geometric_pipeline(fig_abstract_instance,
                                        fig_geometric_report, announce):
    """Full geometric compress reproduces the combinatorial tree and agrees
    with the ground-truth oracle on >= 99.9% of 10^4 off-surface points."""
    graph, table = abstract_instance_from_dict(fig_abstract_instance)
    abstract_report = compress_abstract(graph, table, PipelineConfig(seed=0))
    assert fig_geometric_report.tree == abstract_report.tree
    assert (fig_geometric_report.subsets_used,
            fig_geometric_report.total_literals) == (4, 10)
    assert fig_geometric_report.oracle_agreement >= 0.999
    announce(3, "geometric pipeline reproduces the (4,10) tree; agreement "
                f"{fig_geometric_report.oracle_agreement:.4f}")


def test_criterion_4_size_reduction(fig_minimal_tree, fig_geometric_report,
                                    announce):
    """Two-level baseline 25 leaves; hand-minimal tree 68% (70% +- 3pp in the
    source narrative); the method's own output 60%."""
    baseline = fig_geometric_report.two_level_leaf_count
    assert baseline == 25

    minimal_leaves = leaf_count(fig_minimal_tree)  # static fixture, not produced
    assert minimal_leaves == 8
    minimal_reduction = 1.0 - minimal_leaves / baseline
    assert minimal_reduction == pytest.approx(0.68, abs=1e-12)
    assert abs(minimal_reduction - 0.70) <= 0.03

    method_reduction = fig_geometric_report.reduction
    assert method_reduction == pytest.approx(0.60, abs=1e-12)
    announce(4, f"reductions: minimal-tree {minimal_reduction:.0%} "
                f"(within 70%+-3pp), method {method_reduction:.0%}")


def _max_cliques_bitmask(n, adj):
    """All maximum cliques of an n-vertex graph via subset bitmask DP."""
    is_clique = np.zeros(1 << n, dtype=bool)
    is_clique[0] = True
    best_size, best = 0, []
    for m in range(1, 1 << n):
        v = (m & -m).bit_length() - 1
        rest = m ^ (1 << v)
        if is_clique[rest] and (adj[v] & rest) == rest:
            is_clique[m] = True
            size = bin(m).count("1")
            if size > best_size:
                best_size, best = size, [m]
            elif size == best_size:
                best.append(m)
    return best_size, set(best)


def test_criterion_5_max_clique_qubo(announce):
    """Ground states of the clique QUBO are exactly maximum-clique indicators."""
    graph = IntersectionGraph(
        tuple("ABCDEF"),
        frozenset({("A", "B"), ("B", "C"), ("B", "D"), ("C", "D"),
                   ("B", "E"), ("D", "E"), ("E", "F")}),
    )
    q, names = build_max_clique_qubo(graph, A=1.0, B=2.0)
    X, E = all_energies(q)
    assert E.min() == pytest.approx(-3.0, abs=1e-12)
    grounds = {
        frozenset(names[i] for i in range(6) if row[i])
        for row, e in zip(X.astype(int), E)
        if e == E.min()
    }
    assert grounds == {frozenset("BCD"), frozenset("BDE")}

    rng = np.random.default_rng(2025)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.uniform(0.2, 0.8):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        verts = tuple(f"v{i}" for i in range(n))
        edges = frozenset(
            (verts[i], verts[j])
            for i in range(n) for j in range(i + 1, n)
            if adj[i] >> j & 1
        )
        g = IntersectionGraph(verts, edges)
        q, _ = build_max_clique_qubo(g, A=1.0, B=2.0)
        X, E = all_energies(q)
        ground_masks = {
            int((row * (1 << np.arange(n))).sum())
            for row, e in zip(X.astype(np.int64), E)
            if abs(e - E.min()) < 1e-9
        }
        _, clique_masks = _max_cliques_bitmask(n, adj)
        assert ground_masks == clique_masks
    announce(5, "ground states <=> maximum cliques on the reference graph "
                "and 100 random graphs")


def test_criterion_6_cover_encoding_property(announce):
    """Smallest-cover penalty encoding with A = nB + 1 on 200 random instances."""
    rng = np.random.default_rng(4242)
    feasible = infeasible = 0
    for _ in range(200):
        inst = random_cover_instance(rng, max_subsets=10, max_elems=8)
        n = len(inst.universe)
        A = n * 1.0 + 1.0
        q, _ = build_cover_qubo(inst, A=A, B=1.0)
        X, E = all_energies(q)
        k = int(np.argmin(E))
        bits = X[k].astype(int)
        sets = [inst.candidates[i].covered for i, b in enumerate(bits) if b]
        counts = {u: sum(u in s for s in sets) for u in inst.universe}
        is_cover = all(c == 1 for c in counts.values())
        try:
            sol = solve_cover_dlx(inst)
        except UnsatisfiableError:
            sol = None
        if sol is None:
            infeasible += 1
            assert not is_cover
            assert E.min() >= A - 1e-9
        else:
            feasible += 1
            assert is_cover
            assert int(bits.sum()) == sol.subsets_used  # 100% cardinality agreement
            npt.assert_allclose(E.min(), sol.subsets_used * 1.0, atol=1e-9)
    assert feasible > 0 and infeasible > 0
    announce(6, f"encoding property holds on 200 instances "
                f"({feasible} feasible, {infeasible} without an exact cover)")


def test_criterion_7_round_trips(tmp_path, announce):
    """QUBO<->Ising equality at 1e-9 on 100 models; file round trip at 1e-12."""
    rng = np.random.default_rng(7)
    for k in range(100):
        n = int(rng.integers(1, 13))
        q = random_qubo(rng, n)
        m = qubo_to_ising(q)
        X, E = all_energies(q)
        for row, e in zip(X.astype(int), E):
            npt.assert_allclose(
                ising_energy(m, 2 * row - 1), e, atol=1e-9
            )
        path = tmp_path / f"m{k}.qubo"
        export_qubo(q, path)
        q2 = import_qubo(path)
        assert q2.n == q.n
        assert set(q2.linear) == set(q.linear)
        assert set(q2.quadratic) == set(q.quadratic)
        for i, v in q.linear.items():
            npt.assert_allclose(q2.linear[i], v, atol=1e-12)
        for key, v in q.quadratic.items():
            npt.assert_allclose(q2.quadratic[key], v, atol=1e-12)
        npt.assert_allclose(q2.offset, q.offset, atol=1e-12)
    announce(7, "100 QUBO/Ising pointwise round trips at 1e-9; files at 1e-12")


def test_criterion_8_sa_quality(announce):
    """Default schedule reaches the exact ground energy on >= 95% of 50 QUBOs."""
    rng = np.random.default_rng(88)
    models = [random_qubo(rng, int(rng.integers(2, 16))) for _ in range(50)]
    hits = 0
    for q in models:
        exact = solve_exact(q)
        sa = solve_sa(q, seed=0)
        assert sa.energy >= exact.energy - 1e-9
        if abs(sa.energy - exact.energy) <= 1e-9:
            hits += 1
    assert hits >= 0.95 * len(models)

    for q in models[:3]:
        runs = [solve_sa(q, seed=5) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
    announce(8, f"SA reached the exact optimum on {hits}/50 models; "
                "seeded runs identical across 3 repeats")


def test_criterion_9_scalability_smoke(chain_primitives, chain_tree, announce):
    """12-primitive chain compresses in partitioned mode in < 10 s."""
    t0 = time.perf_counter()
    oracle = TreeOracle(chain_tree, chain_primitives)
    report = compress(chain_primitives, oracle, PipelineConfig(seed=0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert report.n_f >= 23
    data = json.loads(report_stats(report))
    assert data["bounds"]["global"] == 2**report.n_f - 1  # reported, not enumerated
    assert data["bounds"]["partitioned"] == 77
    assert data["bounds"]["partitioned"] * 1000 < data["bounds"]["global"]
    announce(9, f"chain-12 compressed in {elapsed:.2f}s; bounds "
                f"{data['bounds']['partitioned']} << {data['bounds']['global']}")
