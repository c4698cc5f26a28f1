"""Primitive intersection graph and maximal clique enumeration.

Vertices are primitive ids; an edge means the two solids' volumes overlap.
Overlap is detected by sampling: each primitive gets a deterministic draw
of interior points (its own seed derived from the master seed), and a pair
is connected when either draw hits the other solid.  Only the pairs
``near_pairs`` keeps (bounding boxes and bounding balls meet) are tested,
and a pair is decided by its first hit: each primitive's draw is walked
one ``region_batches`` batch at a time (64 attempts first, doubling up to
4096) against the near pairs not yet joined, and stops once none is left
open.  The edges are those of testing every kept point against every
primitive.  Maximal cliques come from Bron-Kerbosch with pivoting; all
outputs are canonically ordered so downstream candidate generation is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, json_array, json_id, read_json
from .geometry import check_primitive_set, signed_distance
from .geometry.sampling import check_sample_count, derive_seed, near_pairs, region_batches

DEFAULT_GRAPH_SAMPLES = 4096

_SEED_NAMESPACE = 0x47  # keeps graph sub-streams apart from other modules'


@dataclass(frozen=True, eq=False)
class IntersectionGraph:
    """Undirected graph over primitive ids; edges stored as sorted pairs."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        verts = tuple(self.vertices)
        seen = set()
        for v in verts:
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        edges = set()
        for e in self.edges:
            a, b = e
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if a not in seen or b not in seen:
                raise ValueError(f"edge {e!r} references unknown vertex")
            edges.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(edges))
        nbrs = {v: set() for v in verts}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        object.__setattr__(
            self, "_neighbors", {v: frozenset(s) for v, s in nbrs.items()}
        )

    def neighbors(self, v: str) -> frozenset[str]:
        return self._neighbors[v]

    def has_edge(self, a: str, b: str) -> bool:
        return ((a, b) if a < b else (b, a)) in self.edges

    def is_clique(self, members) -> bool:
        ms = sorted(members)
        if not ms:
            return False
        return all(
            self.has_edge(ms[i], ms[j])
            for i in range(len(ms))
            for j in range(i + 1, len(ms))
        )


def clique_sort_key(members) -> tuple:
    """Canonical clique order: size descending, then lexicographic ids."""
    return (-len(members), tuple(sorted(members)))


def build_intersection_graph(primitives, count: int = DEFAULT_GRAPH_SAMPLES,
                             seed: int = 0) -> IntersectionGraph:
    """Detect pairwise volume overlaps by point sampling.

    Primitives i and j are joined when one of the first ``count`` interior
    points drawn for i (``sample_region`` with i's sub-seed) lies inside j,
    or one of j's lies inside i.  Misses are possible for sliver overlaps
    thinner than the sampling resolution; raise ``count`` to tighten.
    Result depends only on (primitives, count, seed), not on evaluation
    order.  Raises ParameterError when ``count`` is below 1.
    """
    prims = check_primitive_set(primitives)
    check_sample_count(count)
    # One sub-stream per primitive so pairwise tests are order independent
    # and edge detection is monotone in the sample count.
    seeds = [derive_seed(seed, _SEED_NAMESPACE, i) for i in range(len(prims))]
    open_pairs = near_pairs(prims)  # row i: the pairs i's draw still tests
    np.fill_diagonal(open_pairs, False)
    edges = set()
    for i, prim in enumerate(prims):
        targets = np.flatnonzero(open_pairs[i]).tolist()
        if not targets:
            continue
        for pts in region_batches(prim, count, seeds[i]):
            hits = [j for j in targets if np.any(signed_distance(prims[j], pts) < 0)]
            for j in hits:
                open_pairs[j, i] = False  # j's own draw need not test i
                edges.add((prim.pid, prims[j].pid))
            targets = [j for j in targets if j not in hits]
            if not targets:
                break
    return IntersectionGraph(tuple(p.pid for p in prims), frozenset(edges))


def maximal_cliques_bk(graph: IntersectionGraph) -> list[frozenset[str]]:
    """All maximal cliques via Bron-Kerbosch with pivoting.

    Output is sorted canonically (size descending, then lexicographic
    member ids); isolated vertices come back as singleton cliques.
    """
    cliques: list[frozenset[str]] = []

    def expand(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        # Pivot with the most candidate neighbours; ties to the smallest id
        # keep the recursion deterministic.
        pivot = max(sorted(p | x), key=lambda u: len(p & graph.neighbors(u)))
        for v in sorted(p - graph.neighbors(pivot)):
            nv = graph.neighbors(v)
            expand(r | {v}, p & nv, x & nv)
            p.remove(v)
            x.add(v)

    expand(set(), set(graph.vertices), set())
    return sorted(cliques, key=clique_sort_key)


# ---------------------------------------------------------------------------
# Graph JSON: {"vertices": [...], "edges": [["A", "B"], ...]}
# ---------------------------------------------------------------------------

def graph_to_dict(graph: IntersectionGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in sorted(graph.edges)],
    }


def edges_from_list(edges) -> frozenset:
    """Id pairs from a JSON array of two-element arrays."""
    pairs = []
    for k, edge in enumerate(json_array(edges, "edges")):
        a, b = json_array(edge, f"edge {k}")
        pairs.append((json_id(a, f"edge {k} end 0"), json_id(b, f"edge {k} end 1")))
    return frozenset(pairs)


def graph_from_dict(obj: dict) -> IntersectionGraph:
    """A graph record as an IntersectionGraph; a record without vertices
    is refused, as ``check_primitive_set`` refuses an empty primitive set."""
    try:
        vertices = tuple(json_id(v, f"vertex {k}")
                         for k, v in enumerate(json_array(obj["vertices"], "vertices")))
        if not vertices:
            raise ValueError("a graph needs at least one vertex")
        return IntersectionGraph(vertices, edges_from_list(obj.get("edges", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad graph record: {exc}") from exc


def load_graph(path) -> IntersectionGraph:
    return graph_from_dict(read_json(path))
