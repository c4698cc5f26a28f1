"""Shared fixtures: the six-primitive reference scene and small cover instances.

The geometric scene was designed so that (a) its pairwise overlaps form
exactly the reference intersection graph, (b) every clique of that graph
carves out a non-empty region, and (c) the ground-truth solid classifies
those regions into the expected inside set.  All three facts were verified
by brute force (4M uniform samples grouped by sign vector) before the
expected values below were frozen.
"""

import numpy as np
import pytest
from hypothesis import settings

from csgcompress.cover import generate_candidates, solve_cover_dlx
from csgcompress.geometry import (
    Complement,
    Intersection,
    Leaf,
    TreeOracle,
    Union,
    box,
    cylinder,
    sphere,
)
from csgcompress.graph import maximal_cliques_bk
from csgcompress.products import abstract_instance_from_dict
from csgcompress.qubo import build_cover_qubo, qubo_energy

# Property tests run the same examples on every run and carry no per-example
# deadline, whose wall-clock gate would flake on a loaded two-CPU machine.
settings.register_profile(
    "csgcompress", derandomize=True, deadline=None, max_examples=150, database=None
)
settings.load_profile("csgcompress")

# --------------------------------------------------------------------------
# Reference scene: graph edges A-B, B-C, B-D, C-D, B-E, D-E, E-F
# --------------------------------------------------------------------------

FIG_EDGES = frozenset(
    {("A", "B"), ("B", "C"), ("B", "D"), ("C", "D"), ("B", "E"), ("D", "E"), ("E", "F")}
)

FIG_MAXIMAL_CLIQUES = [
    frozenset({"B", "C", "D"}),
    frozenset({"B", "D", "E"}),
    frozenset({"A", "B"}),
    frozenset({"E", "F"}),
]

# All 15 non-empty fundamental products, keyed by positive set (= the 15
# cliques of the graph: 6 singletons + 7 edges + 2 triangles).
FIG_ALL_POSITIVE_SETS = [
    frozenset(s)
    for s in (
        "A", "B", "C", "D", "E", "F",
        "AB", "BC", "BD", "BE", "CD", "DE", "EF",
        "BCD", "BDE",
    )
]

# The eight products inside the target solid.
FIG_INSIDE_POSITIVE_SETS = [
    frozenset(s) for s in ("A", "AB", "B", "BE", "BCD", "BC", "CD", "E")
]

FIG_OUTSIDE_POSITIVE_SETS = [
    frozenset(s) for s in ("C", "D", "F", "BD", "DE", "EF", "BDE")
]


@pytest.fixture(scope="session")
def fig_primitives():
    return (
        cylinder("A", (-2.6, 0.0, 0.0), 1.0, 1.0),
        sphere("B", (0.0, 0.0, 0.0), 2.0),
        sphere("C", (1.6, 1.4, 0.0), 1.2),
        sphere("D", (1.6, -0.4, 0.0), 1.2),
        sphere("E", (2.0, -2.0, 0.0), 1.4),
        box("F", (4.0, -2.4, 0.0), (1.0, 1.0, 1.0)),
    )


@pytest.fixture(scope="session")
def fig_minimal_tree():
    """Hand-minimal 8-leaf tree; also the ground truth for the scene."""
    return Union((
        Leaf("A"),
        Intersection((Leaf("B"), Complement(Leaf("D")))),
        Intersection((Leaf("C"), Leaf("D"))),
        Intersection((Complement(Leaf("D")), Leaf("E"), Complement(Leaf("F")))),
    ))


@pytest.fixture(scope="session")
def fig_oracle(fig_primitives, fig_minimal_tree):
    return TreeOracle(fig_minimal_tree, fig_primitives)


@pytest.fixture(scope="session")
def fig_abstract_instance():
    """Combinatorial twin of the scene: graph + labelled product table."""
    return {
        "primitives": ["A", "B", "C", "D", "E", "F"],
        "edges": [sorted(e) for e in sorted(FIG_EDGES)],
        "products": [
            {"positives": sorted(s), "inside": s in set(FIG_INSIDE_POSITIVE_SETS)}
            for s in FIG_ALL_POSITIVE_SETS
        ],
    }


# --------------------------------------------------------------------------
# Five-element exact cover instance (unique cover {V1, V5, V7})
# --------------------------------------------------------------------------

COVER5_UNIVERSE = [1, 2, 3, 4, 5]
COVER5_SUBSETS = {
    "V1": [1, 2, 4],
    "V2": [1, 2, 5],
    "V3": [1, 3, 4],
    "V4": [2, 3],
    "V5": [3],
    "V6": [4, 5],
    "V7": [5],
}


@pytest.fixture(scope="session")
def cover5_instance_dict():
    return {
        "universe": COVER5_UNIVERSE,
        "subsets": [{"name": k, "covers": v} for k, v in COVER5_SUBSETS.items()],
    }


# --------------------------------------------------------------------------
# 12-primitive chain (path intersection graph)
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def chain_primitives():
    return tuple(
        sphere(f"P{i:02d}", (2.0 * i, 0.0, 0.0), 1.2) for i in range(12)
    )


@pytest.fixture(scope="session")
def chain_tree(chain_primitives):
    return Union(tuple(Leaf(p.pid) for p in chain_primitives))


# --------------------------------------------------------------------------
# Cover QUBOs of abstract instances, with their exact minima
# --------------------------------------------------------------------------

def sphere_chain_instance(k):
    """k primitives in a row, each overlapping its neighbours; target = union."""
    ids = [f"P{i:02d}" for i in range(k)]
    pairs = [[a, b] for a, b in zip(ids, ids[1:])]
    return {
        "primitives": ids,
        "edges": pairs,
        "products": [{"positives": c, "inside": True}
                     for c in [[p] for p in ids] + pairs],
    }


def abstract_cover_qubo(instance_dict):
    """The cover QUBO ``compress --abstract`` builds, and the energy of
    ``solve_cover_dlx``'s selection: its exact minimum."""
    graph, table = abstract_instance_from_dict(instance_dict)
    instance = generate_candidates(table, maximal_cliques_bk(graph), graph)
    q, _names = build_cover_qubo(instance)
    selected = set(solve_cover_dlx(instance).selected)
    return q, qubo_energy(q, [int(i in selected) for i in range(q.n)])
