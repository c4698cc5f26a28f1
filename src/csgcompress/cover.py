"""Cover candidates, the smallest-exact-cover solver, and tree assembly.

A candidate is a conjunction of primitive literals (some positive, some
negated).  It covers exactly the fundamental products whose sign vectors
are consistent with its literals, and it is admissible only when every
covered product lies inside the target -- a candidate leaking outside
would add foreign volume to the output solid.  Admissible candidates are
pooled across cliques and deduplicated by covered set (two expressions
covering the same products are the same subset of the universe; we keep
the cheapest expression).  The smallest exact cover of the inside products
then yields the output tree: a union of candidate conjunctions.

Per-clique generation enumerates literal patterns over the clique's own
primitives and, for each pattern, extension variants that negate subsets
of the out-of-clique neighbours of its positive literals.  The extensions
are what lets a shared primitive be cut down to the fundamental products
its clique actually owns, so per-clique results merge without covering
foreign cells.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import (
    FileFormatError,
    InfeasibleInstanceError,
    StructuralError,
    UnsatisfiableError,
)
from .geometry import Complement, CsgNode, Intersection, Leaf, Union
from .graph import IntersectionGraph, clique_sort_key
from .products import ProductTable, enumerate_cliques

MODE_PARTITIONED = "partitioned"
MODE_GLOBAL = "global"

Literals = tuple[tuple[str, bool], ...]  # ((id, is_positive), ...) sorted by id


def literal_sort_key(literals: Literals) -> tuple:
    return tuple((pid, 0 if pos else 1) for pid, pos in literals)


def literal_name(literals: Literals) -> str:
    return "&".join(pid if pos else f"!{pid}" for pid, pos in literals)


def element_name(element) -> str:
    """Readable name for a universe element (product key or plain id)."""
    if isinstance(element, frozenset):
        return "&".join(sorted(element))
    return str(element)


def covered_products(table: ProductTable, literals: Literals) -> frozenset:
    """All table products whose sign vector is consistent with the literals."""
    pos = {pid for pid, s in literals if s}
    neg = {pid for pid, s in literals if not s}
    return frozenset(
        p.positive_set
        for p in table.products
        if pos <= p.positive_set and not (neg & p.positive_set)
    )


@dataclass(frozen=True, eq=False)
class Candidate:
    """One admissible conjunction and the exact product subset it covers.

    ``literals`` is None for candidates loaded from an abstract cover
    instance file, where only the covered subset is known.
    """

    name: str
    covered: frozenset
    literals: Literals | None = None
    literal_count: int = 0
    source_clique: int | None = None


@dataclass(frozen=True, eq=False)
class CoverInstance:
    """Universe plus an ordered candidate list.

    ``uncoverable`` lists universe elements no candidate covers; a
    non-empty value marks the instance infeasible.
    """

    universe: tuple
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("universe elements must be unique")
        universe = set(self.universe)
        for c in self.candidates:
            if not c.covered <= universe:
                raise ValueError(
                    f"candidate {c.name!r} covers elements outside the universe"
                )
        coverable = set().union(*(c.covered for c in self.candidates)) \
            if self.candidates else set()
        object.__setattr__(
            self,
            "uncoverable",
            tuple(u for u in self.universe if u not in coverable),
        )

    @property
    def feasible(self) -> bool:
        return not self.uncoverable


@dataclass(frozen=True)
class CoverSolution:
    selected: tuple[int, ...]
    subsets_used: int
    total_literals: int

    def key(self) -> tuple:
        return (self.subsets_used, self.total_literals, self.selected)


@dataclass(frozen=True)
class CoverCheck:
    valid: bool
    uncovered: tuple
    double_covered: tuple


def generate_candidates(
    table: ProductTable,
    cliques,
    graph: IntersectionGraph,
    mode: str = MODE_PARTITIONED,
) -> CoverInstance:
    """Build the cover instance over the inside products of ``table``.

    Raises InfeasibleInstanceError when some inside product cannot be
    covered by any admissible candidate (only possible when the supplied
    cliques do not reflect the graph, e.g. experimental partitions).
    """
    if mode not in (MODE_PARTITIONED, MODE_GLOBAL):
        raise ValueError(f"unknown candidate generation mode {mode!r}")
    universe = table.universe
    universe_set = set(universe)

    # covered set -> (literal_count, literal_key, clique_lex_key, literals, clique_idx)
    best: dict[frozenset, tuple] = {}

    def offer(literals: Literals, clique_idx: int | None, clique_key: tuple) -> None:
        covered = covered_products(table, literals)
        if not covered or not covered <= universe_set:
            return
        entry = (len(literals), literal_sort_key(literals), clique_key,
                 literals, clique_idx)
        cur = best.get(covered)
        if cur is None or entry[:3] < cur[:3]:
            best[covered] = entry

    if mode == MODE_GLOBAL:
        ids = sorted(table.primitive_ids)
        for pos_set in enumerate_cliques(graph):
            rest = [i for i in ids if i not in pos_set]
            for k in range(len(rest) + 1):
                for neg in itertools.combinations(rest, k):
                    literals = tuple(
                        sorted(
                            [(p, True) for p in pos_set] + [(p, False) for p in neg]
                        )
                    )
                    offer(literals, None, ())
    else:
        ordered = sorted((frozenset(c) for c in cliques), key=clique_sort_key)
        if not ordered or set().union(*ordered) != set(table.primitive_ids):
            raise ValueError("cliques must cover all primitives")
        for j, clique in enumerate(ordered):
            members = sorted(clique)
            clique_key = tuple(members)
            for signs in itertools.product((0, 1, 2), repeat=len(members)):
                pos = [m for m, s in zip(members, signs) if s == 1]
                if not pos:
                    continue
                base = [(m, True) for m in pos] + [
                    (m, False) for m, s in zip(members, signs) if s == 2
                ]
                ext = sorted(
                    set().union(*(graph.neighbors(p) for p in pos)) - clique
                )
                for k in range(len(ext) + 1):
                    for neg in itertools.combinations(ext, k):
                        literals = tuple(
                            sorted(base + [(e, False) for e in neg])
                        )
                        offer(literals, j, clique_key)

    ordered_candidates = sorted(
        (
            Candidate(
                name=literal_name(lits),
                covered=covered,
                literals=lits,
                literal_count=count,
                source_clique=clique_idx,
            )
            for covered, (count, _, _, lits, clique_idx) in best.items()
        ),
        key=lambda c: (c.literal_count, literal_sort_key(c.literals)),
    )
    instance = CoverInstance(universe, tuple(ordered_candidates))
    if not instance.feasible:
        missing = ", ".join(element_name(u) for u in instance.uncoverable)
        raise InfeasibleInstanceError(
            f"no admissible candidate covers product(s): {missing}"
        )
    return instance


# ---------------------------------------------------------------------------
# Exact cover via dancing links (Knuth's Algorithm X)
# ---------------------------------------------------------------------------

class _Dlx:
    """Array-backed dancing links over a 0/1 membership structure."""

    def __init__(self, n_cols: int, rows):
        size = 1 + n_cols + sum(len(r) for r in rows)
        self.L = list(range(size))
        self.R = list(range(size))
        self.U = list(range(size))
        self.D = list(range(size))
        self.C = [0] * size
        self.ROW = [-1] * size
        self.S = [0] * (n_cols + 1)
        root = 0
        for c in range(1, n_cols + 1):
            self.L[c] = c - 1
            self.R[c - 1] = c
            self.C[c] = c
        self.L[root] = n_cols
        self.R[n_cols] = root
        nxt = n_cols + 1
        for row_id, cols in enumerate(rows):
            first = None
            for col in sorted(cols):
                node = nxt
                nxt += 1
                c = col + 1
                self.C[node] = c
                self.ROW[node] = row_id
                self.S[c] += 1
                self.U[node] = self.U[c]
                self.D[node] = c
                self.D[self.U[c]] = node
                self.U[c] = node
                if first is None:
                    first = node
                    self.L[node] = self.R[node] = node
                else:
                    self.L[node] = self.L[first]
                    self.R[node] = first
                    self.R[self.L[first]] = node
                    self.L[first] = node

    def cover(self, c: int) -> None:
        L, R, U, D, C, S = self.L, self.R, self.U, self.D, self.C, self.S
        R[L[c]] = R[c]
        L[R[c]] = L[c]
        i = D[c]
        while i != c:
            j = R[i]
            while j != i:
                D[U[j]] = D[j]
                U[D[j]] = U[j]
                S[C[j]] -= 1
                j = R[j]
            i = D[i]

    def uncover(self, c: int) -> None:
        L, R, U, D, C, S = self.L, self.R, self.U, self.D, self.C, self.S
        i = U[c]
        while i != c:
            j = L[i]
            while j != i:
                S[C[j]] += 1
                D[U[j]] = j
                U[D[j]] = j
                j = L[j]
            i = U[i]
        R[L[c]] = c
        L[R[c]] = c

    def solutions(self):
        """Yield every exact cover as a sorted tuple of row ids."""
        stack: list[int] = []

        def search():
            root = 0
            if self.R[root] == root:
                yield tuple(sorted(stack))
                return
            # column with the fewest remaining rows; first wins ties
            c = self.R[root]
            best, best_size = c, self.S[c]
            c = self.R[c]
            while c != root:
                if self.S[c] < best_size:
                    best, best_size = c, self.S[c]
                c = self.R[c]
            self.cover(best)
            r = self.D[best]
            while r != best:
                stack.append(self.ROW[r])
                j = self.R[r]
                while j != r:
                    self.cover(self.C[j])
                    j = self.R[j]
                yield from search()
                j = self.L[r]
                while j != r:
                    self.uncover(self.C[j])
                    j = self.L[j]
                stack.pop()
                r = self.D[r]
            self.uncover(best)

        yield from search()


def enumerate_exact_covers(instance: CoverInstance):
    """Yield every exact cover as a sorted tuple of candidate indices."""
    index = {u: i for i, u in enumerate(instance.universe)}
    rows = [
        [index[e] for e in c.covered]
        for c in instance.candidates
    ]
    yield from _Dlx(len(instance.universe), rows).solutions()


def solve_cover_dlx(instance: CoverInstance) -> CoverSolution:
    """Smallest exact cover: fewest subsets, then fewest literals, then
    lexicographically smallest candidate index tuple."""
    if not instance.feasible:
        missing = ", ".join(element_name(u) for u in instance.uncoverable)
        raise UnsatisfiableError(f"universe element(s) uncoverable: {missing}")
    best_key = None
    best: CoverSolution | None = None
    for selected in enumerate_exact_covers(instance):
        literals = sum(instance.candidates[i].literal_count for i in selected)
        key = (len(selected), literals, selected)
        if best_key is None or key < best_key:
            best_key = key
            best = CoverSolution(selected, len(selected), literals)
    if best is None:
        raise UnsatisfiableError("no exact cover exists for this instance")
    return best


def verify_cover(instance: CoverInstance, selected) -> CoverCheck:
    """Report uncovered and doubly covered universe elements."""
    counts = {u: 0 for u in instance.universe}
    for i in selected:
        for e in instance.candidates[i].covered:
            counts[e] += 1
    uncovered = tuple(u for u in instance.universe if counts[u] == 0)
    double = tuple(u for u in instance.universe if counts[u] > 1)
    return CoverCheck(not uncovered and not double, uncovered, double)


def union_of_conjunctions(literal_lists) -> CsgNode:
    """Union of literal conjunctions; a lone term or literal stands unwrapped.

    Each conjunction is a sequence of (primitive id, is_positive) pairs, so
    the leaf count of the result is the total number of literals.
    """
    terms = []
    for literals in literal_lists:
        parts = [Leaf(pid) if pos else Complement(Leaf(pid)) for pid, pos in literals]
        terms.append(parts[0] if len(parts) == 1 else Intersection(tuple(parts)))
    return terms[0] if len(terms) == 1 else Union(tuple(terms))


def assemble_tree(solution: CoverSolution, instance: CoverInstance) -> CsgNode:
    """Union of the selected conjunctions; leaf count equals total literals."""
    if not solution.selected:
        raise StructuralError("cannot assemble a tree from an empty selection")
    chosen = [instance.candidates[i] for i in solution.selected]
    for cand in chosen:
        if cand.literals is None:
            raise StructuralError(
                f"candidate {cand.name!r} carries no literals (abstract instance)"
            )
    return union_of_conjunctions(cand.literals for cand in chosen)


# ---------------------------------------------------------------------------
# Cover-instance JSON: {"universe": [...],
#   "subsets": [{"name": str, "covers": [...], "literals": optional int}]}
# ---------------------------------------------------------------------------

def cover_instance_from_dict(obj: dict) -> CoverInstance:
    try:
        universe = tuple(obj["universe"])
        candidates = []
        for k, rec in enumerate(obj["subsets"]):
            candidates.append(
                Candidate(
                    name=str(rec.get("name", f"S{k}")),
                    covered=frozenset(rec["covers"]),
                    literals=None,
                    literal_count=int(rec.get("literals", 0)),
                    source_clique=None,
                )
            )
        return CoverInstance(universe, tuple(candidates))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad cover instance: {exc}") from exc


def load_cover_instance(path) -> CoverInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return cover_instance_from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc


def cover_instance_to_dict(instance: CoverInstance) -> dict:
    return {
        "universe": [element_name(u) for u in instance.universe],
        "subsets": [
            {
                "name": c.name,
                "covers": sorted(element_name(e) for e in c.covered),
                "literals": c.literal_count,
            }
            for c in instance.candidates
        ],
    }


def solution_to_dict(solution: CoverSolution, instance: CoverInstance) -> dict:
    return {
        "selected": [instance.candidates[i].name for i in solution.selected],
        "subsets_used": solution.subsets_used,
        "total_literals": solution.total_literals,
    }
