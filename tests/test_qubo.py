"""Tests for QUBO/Ising models, encodings, solvers, and the file format."""

import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csgcompress.errors import FileFormatError, ParameterError
from csgcompress.cover import cover_instance_from_dict, solve_cover_dlx
from csgcompress.graph import IntersectionGraph
from csgcompress import qubo
from csgcompress.qubo import (
    AnnealSchedule,
    IsingModel,
    Qubo,
    build_cover_qubo,
    build_max_clique_qubo,
    cover_penalties,
    default_schedule,
    export_qubo,
    import_qubo,
    ising_energy,
    ising_to_qubo,
    qubo_energy,
    qubo_to_ising,
    selection_from_result,
    solve_exact,
    solve_sa,
)
from tests.conftest import FIG_EDGES, abstract_cover_qubo, sphere_chain_instance
from tests.test_cover import cover_instances


def random_qubo(rng, n, scale=1.0):
    linear = {
        i: float(rng.uniform(-scale, scale)) for i in range(n) if rng.random() < 0.8
    }
    quadratic = {
        (i, j): float(rng.uniform(-scale, scale))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    }
    return Qubo(n, linear, quadratic, float(rng.uniform(-1, 1)))


def sa_reference(q, schedule, seed):
    """Each restart's lowest energy and the 0/1 assignment that first reached
    it, from solve_sa's walk taken restart by restart and step by step."""
    n, R, S = q.n, schedule.restarts, schedule.sweeps
    lin = np.array([q.linear.get(i, 0.0) for i in range(n)])
    W = np.zeros((n, n))
    for (i, j), v in q.quadratic.items():
        W[i, j] = W[j, i] = v
    # One stream for the run; restart r reads row r: n start bits, S flip
    # indices, S Metropolis thresholds.
    u = np.random.default_rng(seed).random((R, n + 2 * S))
    X = (u[:, :n] < 0.5).astype(float)
    flips = np.floor(u[:, n:n + S] * n).astype(int)
    with np.errstate(divide="ignore"):
        thresholds = -schedule.temperatures() * np.log(u[:, n + S:])
    G = X @ W
    E = q.offset + X @ lin + 0.5 * np.einsum("ri,ri->r", G, X)
    best_E, best_X = E.copy(), X.copy()
    for r in range(R):
        x, g, e = X[r].copy(), G[r].copy(), E[r]
        for i, threshold in zip(flips[r], thresholds[r]):
            sign = 1.0 - 2.0 * x[i]
            delta = sign * (lin[i] + g[i])
            if delta <= threshold:
                x[i] = 1.0 - x[i]
                e += delta
                g += sign * W[i]
                if e < best_E[r]:
                    best_E[r], best_X[r] = e, x
    return best_E, best_X.astype(int)


def all_pairs_cover_qubo(instance, A, B):
    """The cover QUBO with each coupling from intersecting a pair of candidates."""
    index = {u: i for i, u in enumerate(instance.universe)}
    sets = [frozenset(index[e] for e in c.covered) for c in instance.candidates]
    linear = {i: -A * len(s) + B for i, s in enumerate(sets)}
    quadratic = {}
    for i, j in itertools.combinations(range(len(sets)), 2):
        o = len(sets[i] & sets[j])
        if o:
            quadratic[(i, j)] = 2.0 * A * o
    return Qubo(len(sets), linear, quadratic, A * len(instance.universe))


def model_record(q):
    """A model's size, its terms in order and its offset, each with its type."""
    return (q.n, [(k, v, type(v)) for k, v in q.linear.items()],
            [(k, v, type(v)) for k, v in q.quadratic.items()],
            q.offset, type(q.offset))


def all_assignments(n):
    ks = np.arange(2**n)
    return ((ks[:, None] >> np.arange(n)) & 1).astype(int)


def lex_largest_minimiser(q):
    """Minimum energy of an integer QUBO and the lexicographically largest
    assignment (x_0 first) reaching it, by exact integer brute force."""
    ks = np.arange(2**q.n)
    cols = [((ks >> i) & 1).astype(np.int8) for i in range(q.n)]
    E = np.full(ks.size, int(q.offset), dtype=np.int64)
    for i, v in q.linear.items():
        E += int(v) * cols[i]
    for (i, j), v in q.quadratic.items():
        E += int(v) * (cols[i] & cols[j])
    minimisers = np.flatnonzero(E == E.min())
    return float(E.min()), max(tuple(int(c[k]) for c in cols) for k in minimisers)


@st.composite
def integer_qubos(draw, max_n=14):
    """Integer models of 1 to max_n variables with small, often tied terms."""
    n = draw(st.integers(1, max_n))
    coef = st.integers(-3, 3)
    linear = draw(st.dictionaries(st.integers(0, n - 1), coef))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    quadratic = draw(st.dictionaries(st.sampled_from(pairs), coef)) if pairs else {}
    return Qubo(n, linear, quadratic, offset=draw(coef))


def brute_force_min(q):
    """Independent minimum: evaluate qubo_energy on every assignment."""
    best = None
    for bits in all_assignments(q.n):
        e = qubo_energy(q, bits)
        if best is None or e < best[0]:
            best = (e, tuple(bits))
    return best


class TestEnergies:
    def test_all_zeros_is_offset(self):
        q = Qubo(3, {0: 2.0}, {(0, 1): 1.0}, offset=5.5)
        assert qubo_energy(q, "000") == 5.5

    def test_single_linear(self):
        assert qubo_energy(Qubo(1, {0: -1.0}, {}), "1") == -1.0

    def test_single_quadratic(self):
        assert qubo_energy(Qubo(2, {}, {(0, 1): 2.0}), "11") == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qubo_energy(Qubo(2, {}, {}), "1")

    def test_ising_fields(self):
        m = IsingModel(2, {0: 1.0, 1: -1.0}, {})
        assert ising_energy(m, (-1, +1)) == -2.0

    def test_ising_coupler(self):
        m = IsingModel(2, {}, {(0, 1): 1.0})
        assert ising_energy(m, (+1, +1)) == 1.0

    def test_zero_model(self):
        m = IsingModel(3, {}, {})
        for s in itertools.product((-1, 1), repeat=3):
            assert ising_energy(m, s) == 0.0

    def test_bad_spin_rejected(self):
        with pytest.raises(ValueError):
            ising_energy(IsingModel(1, {}, {}), (0,))

    def test_canonicalisation(self):
        q = Qubo(3, {0: 0.0, 1: 2.0}, {(2, 1): 1.0, (1, 2): -1.0})
        assert 0 not in q.linear
        assert q.quadratic == {}  # the two coupler entries cancelled

    def test_negative_size_rejected(self):
        for model in (Qubo, IsingModel):
            with pytest.raises(ValueError, match="n=-1"):
                model(-1, {}, {})

    @pytest.mark.parametrize("linear, quadratic, offset", [
        ({0: float("nan")}, {}, 0.0),
        ({}, {(0, 1): float("inf")}, 0.0),
        ({}, {}, float("-inf")),
        ({}, {(0, 1): 1e308, (1, 0): 1e308}, 0.0),  # finite entries, merged to inf
    ])
    def test_non_finite_terms_rejected(self, linear, quadratic, offset):
        for model in (Qubo, IsingModel):
            with pytest.raises(ValueError, match="must be finite"):
                model(2, linear, quadratic, offset)

    @pytest.mark.parametrize("linear, quadratic, index", [
        ({0.9: 1.0}, {}, 0.9),
        ({True: 2.0}, {}, True),
        ({np.float64(1.0): 1.0}, {}, np.float64(1.0)),
        ({}, {(1.7, 0): 3.0}, 1.7),
        ({}, {(0, False): 3.0}, False),
    ], ids=["float", "bool", "numpy-float", "float-in-pair", "bool-in-pair"])
    def test_non_integer_index_is_refused(self, linear, quadratic, index):
        # int() would truncate these to another variable without a word.
        for model in (Qubo, IsingModel):
            with pytest.raises(ValueError) as info:
                model(2, linear, quadratic)
            assert str(info.value) == f"variable index {index!r} is not an integer"

    def test_numpy_integer_indices_are_accepted(self):
        linear, quadratic = {np.int64(1): 1.0}, {(np.int32(2), np.uint8(0)): 2.0}
        q = Qubo(3, linear, quadratic)
        m = IsingModel(3, linear, quadratic)
        assert (q.linear, q.quadratic) == (m.h, m.J) == ({1: 1.0}, {(0, 2): 2.0})
        assert {type(i) for i in [*q.linear, *m.h]} == {int}
        assert {type(i) for key in [*q.quadratic, *m.J] for i in key} == {int}


class TestConversions:
    def test_hand_case(self):
        m = qubo_to_ising(Qubo(1, {0: 1.0}, {}))
        assert m.h == {0: 0.5}
        assert m.offset == 0.5

    def test_zero_round_trip(self):
        assert ising_to_qubo(qubo_to_ising(Qubo(2, {}, {}))).linear == {}

    def test_pointwise_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            q = random_qubo(rng, n)
            m = qubo_to_ising(q)
            for bits in all_assignments(n):
                spins = 2 * bits - 1
                npt.assert_allclose(
                    qubo_energy(q, bits), ising_energy(m, spins), atol=1e-9
                )

    def test_round_trip_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            q = random_qubo(rng, n)
            q2 = ising_to_qubo(qubo_to_ising(q))
            for bits in all_assignments(min(n, 10)):
                bits = np.pad(bits, (0, n - len(bits))) if len(bits) < n else bits
                npt.assert_allclose(
                    qubo_energy(q, bits), qubo_energy(q2, bits), atol=1e-9
                )

    def test_pointwise_equality_large_models_randomised(self):
        # Beyond exhaustive reach, spot-check random assignments.
        rng = np.random.default_rng(15)
        for _ in range(5):
            n = int(rng.integers(16, 25))
            q = random_qubo(rng, n)
            m = qubo_to_ising(q)
            for _ in range(200):
                bits = rng.integers(0, 2, size=n)
                npt.assert_allclose(
                    qubo_energy(q, bits), ising_energy(m, 2 * bits - 1), atol=1e-9
                )


class TestCoverQubo:
    @pytest.fixture()
    def instance(self, cover5_instance_dict):
        return cover_instance_from_dict(cover5_instance_dict)

    def test_known_cover_energy(self, instance):
        q, names = build_cover_qubo(instance, A=6.0, B=1.0)
        x = ["0"] * 7
        for name in ("V1", "V5", "V7"):
            x[names.index(name)] = "1"
        assert qubo_energy(q, "".join(x)) == 3.0

    def test_all_zero_energy_is_An(self, instance):
        q, _ = build_cover_qubo(instance, A=6.0, B=1.0)
        assert qubo_energy(q, "0" * 7) == 30.0

    def test_global_minimum_is_the_cover(self, instance):
        q, names = build_cover_qubo(instance, A=6.0, B=1.0)
        energy, bits = brute_force_min(q)
        assert energy == 3.0
        assert {names[i] for i, b in enumerate(bits) if b} == {"V1", "V5", "V7"}

    def test_penalty_ratio_enforced(self, instance):
        with pytest.raises(ParameterError):
            build_cover_qubo(instance, A=5.0, B=1.0)

    @pytest.mark.parametrize("B", [0.0, -1.0])
    def test_subset_cost_must_be_positive(self, instance, B):
        # B <= 0 makes extra subsets free or rewarded, so the ground state
        # is no longer a smallest cover.
        with pytest.raises(ParameterError, match="B > 0"):
            cover_penalties(instance, B=B)
        with pytest.raises(ParameterError, match="B > 0"):
            build_cover_qubo(instance, A=100.0, B=B)

    @pytest.mark.parametrize("A, B", [
        (float("nan"), None), (float("inf"), None), (None, float("inf")),
        (100.0, float("nan")),
    ])
    def test_penalties_must_be_finite(self, instance, A, B):
        name = "A" if B is None else "B"
        with pytest.raises(ParameterError, match=f"penalty {name} must be finite"):
            cover_penalties(instance, A, B)
        with pytest.raises(ParameterError, match=f"penalty {name} must be finite"):
            build_cover_qubo(instance, A, B)

    def test_overflowing_penalties_are_a_parameter_error(self, instance):
        # A finite A whose coefficients overflow: 2 * A * overlap is inf.
        with pytest.raises(ParameterError, match="A=1e\\+308.*must be finite"):
            build_cover_qubo(instance, A=1e308)

    def test_default_penalties(self, instance):
        q, _ = build_cover_qubo(instance)
        # A = n*B + 1 = 6 with B = 1; offset = A*n = 30.
        assert q.offset == 30.0
        assert build_cover_qubo(instance, A=None, B=None)[0].offset == 30.0
        assert cover_penalties(instance) == (6.0, 1.0)
        assert cover_penalties(instance, B=2.0) == (11.0, 2.0)
        assert cover_penalties(instance, A=9.0) == (9.0, 1.0)

    @given(cover_instances(), st.sampled_from([1.0, 2.0, 0.3, 0.7, 1, 2]),
           st.sampled_from([1.0, 3.0, 0.1, 2.5, 1, 3]))
    def test_equals_the_all_pairs_construction(self, inst, B, margin):
        # Integral, fractional and int penalties; A = n*B + margin.  Terms,
        # their order and their float type all match Qubo(...)'s.
        A = len(inst.universe) * B + margin
        q, names = build_cover_qubo(inst, A=A, B=B)
        ref = all_pairs_cover_qubo(inst, A, B)
        assert names == tuple(c.name for c in inst.candidates)
        assert model_record(q) == model_record(ref)

    @given(data=st.data(), n=st.integers(0, 6))
    def test_ordered_terms_equal_the_checked_constructor(self, data, n):
        # build_cover_qubo's terms come merged, in index order and with
        # i < j; handing them over unchecked must give what Qubo(...) gives,
        # zero terms dropped and every value a float.
        value = st.one_of(st.integers(-3, 3), st.floats(-1e308, 1e308),
                          st.sampled_from([0.0, -0.0]))
        linear = {i: data.draw(value) for i in range(n) if data.draw(st.booleans())}
        quadratic = {(i, j): data.draw(value) for i in range(n) for j in range(i + 1, n)
                     if data.draw(st.booleans())}
        offset = data.draw(value)
        assert model_record(Qubo._from_ordered_terms(n, linear, quadratic, offset)) == (
            model_record(Qubo(n, linear, quadratic, offset)))

    def test_encoding_matches_dlx_on_randoms(self):
        # The constraint term vanishes iff the selection is an exact cover;
        # with A > nB the minimum is a smallest cover whenever one exists.
        from tests.test_cover import random_cover_instance
        from csgcompress.errors import UnsatisfiableError

        rng = np.random.default_rng(11)
        for _ in range(40):
            inst = random_cover_instance(rng, max_subsets=8, max_elems=6)
            n = len(inst.universe)
            q, _ = build_cover_qubo(inst, A=n * 1.0 + 1, B=1.0)
            energy, bits = brute_force_min(q)
            sets = [inst.candidates[i].covered for i in range(len(bits)) if bits[i]]
            counts = {u: sum(u in s for s in sets) for u in inst.universe}
            is_cover = all(c == 1 for c in counts.values())
            try:
                sol = solve_cover_dlx(inst)
                assert is_cover
                assert sum(bits) == sol.subsets_used
                npt.assert_allclose(energy, sol.subsets_used * 1.0)
            except UnsatisfiableError:
                assert not is_cover
                assert energy >= n + 1  # >= A


class TestMaxCliqueQubo:
    def test_triangle(self):
        g = IntersectionGraph(("a", "b", "c"),
                              frozenset({("a", "b"), ("a", "c"), ("b", "c")}))
        q, _ = build_max_clique_qubo(g, A=1.0, B=2.0)
        energy, bits = brute_force_min(q)
        assert energy == -3.0
        assert bits == (1, 1, 1)

    def test_edgeless(self):
        g = IntersectionGraph(("a", "b", "c"), frozenset())
        q, _ = build_max_clique_qubo(g, A=1.0, B=2.0)
        X = all_assignments(3)
        E = np.array([qubo_energy(q, b) for b in X])
        grounds = {tuple(b) for b, e in zip(X, E) if e == E.min()}
        assert E.min() == -1.0
        assert grounds == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_reference_graph(self):
        g = IntersectionGraph(tuple("ABCDEF"), FIG_EDGES)
        q, names = build_max_clique_qubo(g, A=1.0, B=2.0)
        X = all_assignments(6)
        E = np.array([qubo_energy(q, b) for b in X])
        assert E.min() == -3.0
        grounds = {
            frozenset(names[i] for i, v in enumerate(b) if v)
            for b, e in zip(X, E)
            if e == E.min()
        }
        assert grounds == {frozenset("BCD"), frozenset("BDE")}

    def test_parameter_check(self):
        g = IntersectionGraph(("a",), frozenset())
        with pytest.raises(ParameterError):
            build_max_clique_qubo(g, A=2.0, B=2.0)

    @pytest.mark.parametrize("A, B", [(float("nan"), None), (None, float("inf"))])
    def test_penalties_must_be_finite(self, A, B):
        g = IntersectionGraph(("a", "b"), frozenset())
        name = "A" if B is None else "B"
        with pytest.raises(ParameterError, match=f"penalty {name} must be finite"):
            build_max_clique_qubo(g, A=A, B=B)

    def test_default_penalties(self):
        g = IntersectionGraph(tuple("ABCDEF"), FIG_EDGES)
        q, _ = build_max_clique_qubo(g, A=None, B=None)
        ref, _ = build_max_clique_qubo(g, A=1.0, B=2.0)
        assert (q.linear, q.quadratic) == (ref.linear, ref.quadratic)

    def test_ground_states_are_maximum_cliques(self):
        from tests.test_graph import random_graph

        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
            q, names = build_max_clique_qubo(g, A=1.0, B=2.0)
            X = all_assignments(n)
            E = np.array([qubo_energy(q, b) for b in X])
            grounds = {
                frozenset(names[i] for i, v in enumerate(b) if v)
                for b, e in zip(X, E)
                if e == E.min()
            }
            max_size = max(
                len(c)
                for r in range(1, n + 1)
                for c in itertools.combinations(g.vertices, r)
                if g.is_clique(c)
            )
            maximum_cliques = {
                frozenset(c)
                for c in itertools.combinations(g.vertices, max_size)
                if g.is_clique(c)
            }
            assert grounds == maximum_cliques


class TestSolveExact:
    def test_single_variable(self):
        res = solve_exact(Qubo(1, {0: -1.0}, {}))
        assert res.assignment == "1" and res.energy == -1.0

    def test_cover_instance(self, cover5_instance_dict):
        inst = cover_instance_from_dict(cover5_instance_dict)
        q, names = build_cover_qubo(inst, A=6.0, B=1.0)
        res = solve_exact(q)
        assert res.energy == 3.0
        assert {names[i] for i in selection_from_result(res)} == {"V1", "V5", "V7"}

    def test_zero_model_lex_tie_break(self):
        res = solve_exact(Qubo(4, {}, {}, offset=2.0))
        assert res.assignment == "1111" and res.energy == 2.0

    def test_size_limit(self):
        with pytest.raises(ParameterError):
            solve_exact(Qubo(31, {}, {}))

    def test_ties_break_to_the_lexicographically_largest_minimiser(self):
        # Integer models with free variables (no terms) and small shared
        # coefficients have many tied minima.  The table splits at
        # h = ceil(n/2); x_{h-1} and x_h are free so that tied minima sit on
        # both sides of the hi/lo split.  n = 19 and 20 stream 2 and 4 row
        # blocks of 2^18 cells, split by x_0 and x_0 x_1; x_1 is free so
        # that tied minima sit on both sides of every block boundary.  In
        # one model of each size x_0 is free too, in the other setting it
        # costs +100, so the minimum lies in the first block(s) only.
        rng = np.random.default_rng(13)
        sizes = [(int(n), False) for n in rng.integers(2, 13, size=40)]
        sizes += [(19, False), (19, True), (20, False), (20, True)]
        for n, x0_set in sizes:
            h = (n + 1) // 2
            free = {h - 1, h} | {int(i) for i in np.flatnonzero(rng.random(n) < 0.3)}
            if n > 12:
                free = (free | {0, 1}) - ({0} if x0_set else set())
            density = 0.3 if n <= 12 else 0.05
            terms = [i for i in range(n) if i not in free]
            linear = {i: int(rng.integers(-2, 3)) for i in terms
                      if rng.random() < 0.6}
            quadratic = {(i, j): int(rng.integers(-2, 3))
                         for i in terms for j in terms
                         if i < j and rng.random() < density}
            if x0_set:
                linear[0] = 100
            q = Qubo(n, linear, quadratic, offset=int(rng.integers(-3, 4)))
            energy, bits = lex_largest_minimiser(q)
            res = solve_exact(q)
            assert res.energy == energy
            assert res.assignment == "".join(map(str, bits)), n
            if n > 12:
                assert res.assignment[0] == ("0" if x0_set else "1")

    @given(integer_qubos())
    @example(Qubo(1, {}, {}, offset=2))
    @example(Qubo(1, {0: -1}, {}))
    @example(Qubo(3, {0: 1, 2: -1}, {(0, 1): -2, (1, 2): 1}))
    def test_lexicographically_largest_minimiser_on_integer_models(self, q):
        energy, bits = lex_largest_minimiser(q)
        res = solve_exact(q)
        assert res.energy == energy
        assert res.assignment == "".join(map(str, bits))

    def test_memory_stays_at_a_few_megabytes(self):
        # tracemalloc counts numpy's buffers; the row blocks are 2 MB.
        q = random_qubo(np.random.default_rng(16), 22)
        tracemalloc.start()
        try:
            solve_exact(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = random_qubo(rng, int(rng.integers(1, 11)))
            energy, _ = brute_force_min(q)
            npt.assert_allclose(solve_exact(q).energy, energy, atol=1e-9)


class TestSolveSa:
    def test_single_variable_any_schedule(self):
        q = Qubo(1, {0: -1.0}, {})
        res = solve_sa(q, AnnealSchedule(1.0, 0.01, 50, 4), seed=0)
        assert res.energy == -1.0

    def test_cover_instance_ten_seeds(self, cover5_instance_dict):
        inst = cover_instance_from_dict(cover5_instance_dict)
        q, names = build_cover_qubo(inst, A=6.0, B=1.0)
        for seed in range(10):
            res = solve_sa(q, seed=seed)
            assert res.energy == 3.0
            assert {names[i] for i in selection_from_result(res)} == {
                "V1", "V5", "V7",
            }

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        q = random_qubo(rng, 12)
        sched = AnnealSchedule(2.0, 0.01, 2000, 8)
        results = [solve_sa(q, sched, seed=77) for _ in range(3)]
        assert results[0] == results[1] == results[2]

    def test_never_below_exact_and_mostly_equal(self):
        rng = np.random.default_rng(12)
        hits = 0
        n_models = 20
        for _ in range(n_models):
            q = random_qubo(rng, int(rng.integers(2, 13)))
            exact = solve_exact(q)
            sa = solve_sa(q, seed=1)
            assert sa.energy >= exact.energy - 1e-9
            if abs(sa.energy - exact.energy) <= 1e-9:
                hits += 1
        assert hits >= 0.95 * n_models

    def test_every_restart_matches_sequential_reference(self):
        rng = np.random.default_rng(14)
        for k in range(40):
            q = random_qubo(rng, int(rng.integers(1, 30)), 4.0)
            sched = AnnealSchedule(
                float(rng.uniform(0.5, 4.0)), 0.01,
                int(rng.integers(1, 700)), int(rng.integers(1, 7)),
            )
            best_E, best_bits = qubo._anneal(q, sched, k)
            ref_E, ref_bits = sa_reference(q, sched, k)
            npt.assert_array_equal(best_E, ref_E)
            npt.assert_array_equal(best_bits, ref_bits)

    def test_long_cold_schedule_matches_sequential_reference(self):
        # Long runs without acceptances grow the blocks to their cap, which
        # must still read only the restart's own padded row.
        rng = np.random.default_rng(15)
        sched = AnnealSchedule(2.0, 0.001, 6000, 4)
        for k in range(8):
            q = random_qubo(rng, int(rng.integers(3, 12)), 4.0)
            best_E, best_bits = qubo._anneal(q, sched, k)
            ref_E, ref_bits = sa_reference(q, sched, k)
            npt.assert_array_equal(best_E, ref_E)
            npt.assert_array_equal(best_bits, ref_bits)

    @given(
        integer_qubos(),
        st.builds(AnnealSchedule, st.floats(0.5, 8.0), st.just(0.01),
                  st.integers(1, 300), st.integers(1, 4)),
        st.integers(0, 2**16),
    )
    @example(Qubo(1, {0: -1}, {}), AnnealSchedule(2.0, 0.01, 50, 3), 0)
    @example(Qubo(1, {}, {}, offset=1), AnnealSchedule(1.0, 0.01, 20, 1), 5)
    @example(Qubo(4, {0: 1, 3: -2}, {(0, 1): -2, (1, 2): 1, (2, 3): 2}),
             AnnealSchedule(3.0, 0.01, 300, 1), 2)
    def test_matches_sequential_reference_on_tied_integer_models(
        self, q, sched, seed
    ):
        # Many equal energies: only a strictly lower one replaces the best.
        best_E, best_bits = qubo._anneal(q, sched, seed)
        ref_E, ref_bits = sa_reference(q, sched, seed)
        npt.assert_array_equal(best_E, ref_E)
        npt.assert_array_equal(best_bits, ref_bits)

    def test_chunked_draws_equal_one_shot_draws(self, monkeypatch):
        rng = np.random.default_rng(16)
        for k in range(12):
            q = random_qubo(rng, int(rng.integers(1, 20)), 4.0)
            R = int(rng.integers(1, 12))
            sched = AnnealSchedule(2.0, 0.01, int(rng.integers(1, 400)), R)
            runs = []
            for rows in (1, 3, R, R + 5):
                monkeypatch.setattr(qubo, "_DRAW_ROWS", rows)
                runs.append(qubo._anneal(q, sched, k))
            for best_E, best_bits in runs[1:]:
                npt.assert_array_equal(best_E, runs[0][0])
                npt.assert_array_equal(best_bits, runs[0][1])

    @given(
        integer_qubos(),
        st.integers(1, 200),
        st.integers(1, 20).flatmap(
            lambda R: st.tuples(st.just(R), st.integers(1, R))),
        st.integers(0, 2**16),
    )
    def test_narrower_run_is_a_prefix_of_a_wider_one(self, q, sweeps, widths, seed):
        R, narrow = widths
        wide_E, wide_bits = qubo._anneal(q, AnnealSchedule(2.0, 0.01, sweeps, R), seed)
        best_E, best_bits = qubo._anneal(
            q, AnnealSchedule(2.0, 0.01, sweeps, narrow), seed)
        npt.assert_array_equal(best_E, wide_E[:narrow])
        npt.assert_array_equal(best_bits, wide_bits[:narrow])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1000, 4095, 65537,
                                   2**20 - 1, 2**20])
    def test_flip_indices_stay_below_n_at_the_largest_uniform(self, n):
        # floor(u n) for the largest double below 1 must not round up to n.
        S, rows = 3, 2
        u = np.full((rows, n + 2 * S), np.nextafter(1.0, 0.0))
        X = np.empty((rows, n))
        flat_flips = np.empty((rows, S + 1), dtype=np.int64)
        thresholds = np.empty((rows, S + 1))
        qubo._proposals(u, 5, -np.ones(S), X, flat_flips, thresholds)
        flips = flat_flips[:, :S] - (5 + np.arange(rows))[:, None] * n
        npt.assert_array_equal(flips, n - 1)
        assert not X.any()
        assert (thresholds[:, :S] > 0).all()

    def test_memory_is_about_two_proposal_tables(self):
        # Two 8-byte tables of 256 x (750 + 16) proposals are 3.0 MiB; the
        # uniforms, block gathers and state add under 1 MiB.
        q = random_qubo(np.random.default_rng(25), 25)
        tracemalloc.start()
        try:
            solve_sa(q, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_counted_bytes_bound_the_traced_peak(self):
        # The 12-sphere chain's cover QUBO (55 variables) under the default
        # schedule: every array the run holds is counted.
        q, _minimum = abstract_cover_qubo(sphere_chain_instance(12))
        sched = default_schedule(q)
        tracemalloc.start()
        try:
            solve_sa(q, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= qubo.sa_table_bytes(q.n, sched.sweeps, sched.restarts)

    def test_proposal_tables_above_the_limit_are_refused(self, monkeypatch):
        # 4 restarts x (31 744 + 16) proposals x 16 bytes are 1.9 MiB, their
        # 4 rows of 4 + 2 x 31 744 uniforms x 8 bytes another 1.9 MiB, the
        # temperature ladder 0.7 MiB and the fixed allowance 0.25 MiB.
        monkeypatch.setattr(qubo, "SA_TABLE_LIMIT", 1 << 20)
        q = Qubo(4, {0: -1.0, 1: 1.0, 2: 1.0, 3: 1.0}, {(0, 1): 1.0})
        with pytest.raises(ParameterError,
                           match=r"5091968 bytes .* SA_TABLE_LIMIT = 1048576"):
            solve_sa(q, AnnealSchedule(1.0, 0.01, 31744, 4))
        # No sweep count lands on 2^20 bytes (each adds 152), so the limit is
        # moved onto 5142 sweeps' count: a run of exactly the limit runs and
        # one sweep more is refused.
        assert qubo.sa_table_bytes(4, 5142, 4) == 1048464
        assert qubo.sa_table_bytes(4, 5143, 4) == 1048616
        monkeypatch.setattr(qubo, "SA_TABLE_LIMIT", 1048464)
        assert solve_sa(q, AnnealSchedule(1.0, 0.01, 5142, 4)).assignment == "1000"
        with pytest.raises(ParameterError, match="1048616 bytes"):
            solve_sa(q, AnnealSchedule(1.0, 0.01, 5143, 4))

    def test_table_bytes_count_one_chunk_of_uniforms(self):
        # Past _DRAW_ROWS restarts the uniform buffer stops growing: a
        # restart adds 16 x (10 + 16) table bytes, 32 x 16 gather bytes and
        # 8 x (7 x 3 + 16) state bytes, plus 8 x (3 + 20) uniform bytes
        # while its row still joins the chunk.
        rows = qubo._DRAW_ROWS
        assert qubo.sa_table_bytes(3, 10, rows + 1) - qubo.sa_table_bytes(
            3, 10, rows) == 1224
        assert qubo.sa_table_bytes(3, 10, rows) - qubo.sa_table_bytes(
            3, 10, rows - 1) == 1224 + 184
        assert qubo.sa_table_bytes(3, 10, 5 * rows) == 312888

    @settings(max_examples=40)
    @given(
        integer_qubos(),
        st.integers(1, 2100),
        st.integers(1, 4),
        st.integers(0, 2**16),
    )
    @example(Qubo(3, {0: 1, 2: -2}, {(0, 1): -2, (1, 2): 1}), 16, 1, 0)
    @example(Qubo(3, {0: 1, 2: -2}, {(0, 1): -2, (1, 2): 1}), 64, 1, 1)
    @example(Qubo(3, {0: 1, 2: -2}, {(0, 1): -2, (1, 2): 1}), 1024, 2, 2)
    @example(Qubo(2, {0: -1}, {(0, 1): 2}), 2100, 1, 3)
    def test_block_size_does_not_change_trajectories(self, q, sweeps, restarts, seed):
        # Sweeps below, at and above each block; a block of 1 is the
        # one-proposal-per-round walk, and a cold end gives rounds without
        # acceptances.
        sched = AnnealSchedule(4.0, 0.001, sweeps, restarts)
        runs = []
        for block in (1, 16, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qubo, "_BLOCK", block)
                runs.append(qubo._anneal(q, sched, seed))
        for best_E, best_bits in runs[1:]:
            npt.assert_array_equal(best_E, runs[0][0])
            npt.assert_array_equal(best_bits, runs[0][1])

    def test_energy_is_reevaluated(self):
        rng = np.random.default_rng(13)
        q = random_qubo(rng, 9)
        res = solve_sa(q, seed=3)
        npt.assert_allclose(res.energy, qubo_energy(q, res.assignment), atol=1e-9)

    def test_schedule_validation(self):
        with pytest.raises(ParameterError):
            AnnealSchedule(1.0, 2.0, 10, 1)
        with pytest.raises(ParameterError):
            AnnealSchedule(0.0, 0.0, 10, 1)
        for t_start, t_end in [(float("inf"), 0.01), (1.0, float("nan")),
                               (float("nan"), 0.01)]:
            with pytest.raises(ParameterError, match="t_start and t_end"):
                AnnealSchedule(t_start, t_end, 200, 4)
        sched = default_schedule(Qubo(3, {0: -4.0}, {}))
        assert (sched.t_start, sched.sweeps, sched.restarts) == (4.0, 90, 256)

    @pytest.mark.parametrize("sweeps, restarts, field", [
        (10.5, 4, "sweeps"), (True, 4, "sweeps"), (10.0, 4, "sweeps"),
        (10, 4.0, "restarts"), (10, False, "restarts"), (10, "4", "restarts"),
    ])
    def test_schedule_counts_must_be_integers(self, sweeps, restarts, field):
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            AnnealSchedule(1.0, 0.01, sweeps, restarts)

    def test_numpy_integer_counts_are_accepted(self):
        sched = AnnealSchedule(1.0, 0.01, np.int64(40), np.int32(4))
        assert solve_sa(Qubo(1, {0: -1.0}, {}), sched).energy == -1.0


class TestDefaultScheduleQuality:
    # Criterion 8 covers models of at most 15 variables; these cover QUBOs
    # are the ones the anneal benchmark anneals (19 and 25 variables) and
    # one twice their size.  Counts of seeds, not wall time.
    @pytest.mark.parametrize("k, n", [(None, 19), (6, 25), (12, 55)])
    def test_reaches_the_exact_minimum_on_seeds_0_to_7(
        self, k, n, fig_abstract_instance
    ):
        q, minimum = abstract_cover_qubo(
            fig_abstract_instance if k is None else sphere_chain_instance(k))
        assert q.n == n
        reached = sum(solve_sa(q, seed=s).energy == minimum for s in range(8))
        assert reached == 8


#: model files ``import_qubo`` refuses: (text, the message after the path)
MALFORMED_MODELS = [
    pytest.param("c offset x\np qubo 0 1 0 0\n", ":1: bad offset value",
                 id="offset-value"),
    pytest.param("c offset\np qubo 0 1 1 0\n0 0 1.0\n", ":1: bad offset line",
                 id="offset-missing"),
    pytest.param("p qubo 0 1 0\n", ":1: malformed program line", id="p-fields"),
    pytest.param("p qubit 0 1 0 0\n", ":1: malformed program line", id="p-kind"),
    pytest.param("p qubo 0 one 0 0\n",
                 ":1: program line field n must be an integer, got 'one'",
                 id="p-not-integer"),
    pytest.param("p qubo 0 1 1.0 0\n",
                 ":1: program line field nodes must be an integer, got '1.0'",
                 id="p-nodes-not-integer"),
    pytest.param("p qubo 0 1 0 x\n",
                 ":1: program line field couplers must be an integer, got 'x'",
                 id="p-couplers-not-integer"),
    # Python's int() and float() read "_" separators and non-ASCII digits;
    # qbsolv reads neither.
    pytest.param("p qubo 0 1 1 0\n0 0 -1_0\n", ":2: not a qbsolv numeral: '-1_0'",
                 id="value-underscore"),
    pytest.param("p qubo 0 12 0 1\n0 1_1 1.0\n", ":2: not a qbsolv numeral: '1_1'",
                 id="index-underscore"),
    pytest.param("p qubo 0 \u0661 1 0\n0 0 1.0\n",
                 ":1: program line field n must be an integer, got '\u0661'",
                 id="p-arabic-indic-digit"),
    pytest.param("c offset 1_0\np qubo 0 1 0 0\n", ":1: bad offset value",
                 id="offset-underscore"),
    pytest.param("0 0 1.0\np qubo 0 1 1 0\n",
                 ":1: data before the program line", id="data-first"),
    pytest.param("p qubo 0 2 1 0\n0 1.0\n", ":2: expected 'i j value'",
                 id="two-fields"),
    pytest.param("p qubo 0 2 1 0\n0 0 1.0\n0 0 2.0\n",
                 ":3: duplicate node line for 0", id="duplicate-node"),
    pytest.param("p qubo 0 2 0 1\n1 0 1.0\n", ":2: couplers need i < j",
                 id="coupler-order"),
    pytest.param("c offset 1.0\n", ": missing program line", id="no-p-line"),
]


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        for k in range(20):
            q = random_qubo(rng, int(rng.integers(1, 15)))
            path = tmp_path / f"m{k}.qubo"
            export_qubo(q, path)
            q2 = import_qubo(path)
            assert q2.n == q.n
            assert set(q2.linear) == set(q.linear)
            for i, v in q.linear.items():
                npt.assert_allclose(q2.linear[i], v, atol=1e-12)
            for key, v in q.quadratic.items():
                npt.assert_allclose(q2.quadratic[key], v, atol=1e-12)
            npt.assert_allclose(q2.offset, q.offset, atol=1e-12)

    def test_offset_preserved_energies_equal(self, tmp_path):
        q = Qubo(2, {0: 1.5}, {(0, 1): -2.25}, offset=3.75)
        path = tmp_path / "m.qubo"
        export_qubo(q, path)
        q2 = import_qubo(path)
        for bits in all_assignments(2):
            npt.assert_allclose(qubo_energy(q, bits), qubo_energy(q2, bits))

    def test_duplicate_coupler_rejected(self, tmp_path):
        path = tmp_path / "dup.qubo"
        path.write_text(
            "p qubo 0 2 0 2\n0 1 1.0\n0 1 2.0\n"
        )
        with pytest.raises(FileFormatError, match="dup.qubo:3"):
            import_qubo(path)

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "bad.qubo"
        path.write_text("p qubo 0 2 1 0\n0 zero 1.0\n")
        with pytest.raises(FileFormatError, match="bad.qubo:2"):
            import_qubo(path)

    @pytest.mark.parametrize("text, message", MALFORMED_MODELS)
    def test_malformed_model_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "m.qubo"
        path.write_text(text)
        with pytest.raises(FileFormatError) as info:
            import_qubo(path)
        assert str(info.value) == f"{path}{message}"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.qubo"
        path.write_text("\nc offset 0.5\n\np qubo 0 2 1 1\n  \n0 0 -1.0\n\n0 1 2.0\n")
        q = import_qubo(path)
        assert (q.n, q.linear, q.quadratic, q.offset) == (
            2, {0: -1.0}, {(0, 1): 2.0}, 0.5)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "count.qubo"
        path.write_text("p qubo 0 2 2 0\n0 0 1.0\n")
        with pytest.raises(FileFormatError):
            import_qubo(path)

    def test_var_name_comments_ignored(self, tmp_path):
        q = Qubo(2, {0: -1.0, 1: -2.0}, {(0, 1): 3.0})
        path = tmp_path / "named.qubo"
        export_qubo(q, path, names=("alpha", "beta"))
        q2 = import_qubo(path)
        assert q2.linear == q.linear
