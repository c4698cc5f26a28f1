"""Cover candidates, the smallest-exact-cover solver, and tree assembly.

A candidate is a conjunction of primitive literals (some positive, some
negated).  It covers exactly the fundamental products whose sign vectors
are consistent with its literals, and it is admissible only when every
covered product lies inside the target -- a candidate leaking outside
would add foreign volume to the output solid.  Admissible candidates are
pooled and deduplicated by covered set (two expressions covering the same
products are the same subset of the universe; we keep the cheapest
expression).  The smallest exact cover of the inside products then yields
the output tree: a union of candidate conjunctions.

Candidates come from one depth-first walk over the product table.  Its
positive sets P are the cliques of the intersection graph
(``enumerate_cliques``, bounded by ``REGION_LIMIT``): all of them in global
mode, those inside a given clique in partitioned mode.  From P the walk
negates further primitives in id order, only ones that still occur in a
covered product: any other negation leaves the covered set unchanged at the
price of a literal.  A branch ends when its covered set is empty.
Negations cut a shared primitive down to the products its clique owns, so
per-clique results merge without covering foreign cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FileFormatError,
    InfeasibleInstanceError,
    ParameterError,
    StructuralError,
    UnsatisfiableError,
    json_array,
    read_json,
)
from .geometry import Complement, CsgNode, Intersection, Leaf, Union
from .graph import IntersectionGraph
from .products import ProductTable, enumerate_cliques

MODE_PARTITIONED = "partitioned"
MODE_GLOBAL = "global"

#: covered-element masks ``solve_cover_dlx`` may solve before it refuses the
#: instance (about 150 MB of memo and a few seconds)
COVER_STATE_LIMIT = 2**19

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


@dataclass(frozen=True, eq=False)
class CoverInstance:
    """Universe plus an ordered candidate list.

    ``holders`` maps each universe element to the indices of the candidates
    covering it, in candidate order: the cover stage's one incidence table.
    ``uncoverable`` lists universe elements no candidate covers; a
    non-empty value marks the instance infeasible.
    """

    universe: tuple
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        holders: dict = {u: [] for u in self.universe}
        if len(holders) != len(self.universe):
            raise ValueError("universe elements must be unique")
        for i, c in enumerate(self.candidates):
            if not c.covered <= holders.keys():
                raise ValueError(
                    f"candidate {c.name!r} covers elements outside the universe"
                )
            for e in c.covered:
                holders[e].append(i)
        object.__setattr__(self, "holders", holders)
        object.__setattr__(
            self, "uncoverable", tuple(u for u, held in holders.items() if not held)
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

    Precondition: every product's positive set is a clique of ``graph``
    (``enumerate_products`` and ``abstract_instance_from_dict`` ensure it),
    so the graph's cliques hold every positive set a candidate can have.
    Raises ParameterError past ``REGION_LIMIT`` cliques, and
    InfeasibleInstanceError when some inside product cannot be covered by
    any admissible candidate (only possible when the supplied cliques do
    not reflect the graph, e.g. experimental partitions).
    """
    if mode not in (MODE_PARTITIONED, MODE_GLOBAL):
        raise ValueError(f"unknown candidate generation mode {mode!r}")
    universe = table.universe
    universe_set = set(universe)

    # covered set -> (literal_count, literal_sort_key, literals)
    best: dict[frozenset, tuple] = {}

    def walk(pos: frozenset, neg: tuple, covered: list) -> None:
        """Offer pos & !neg, then negate each later id still in a covered product."""
        literals = tuple(sorted([(p, True) for p in pos] + [(n, False) for n in neg]))
        covered_set = frozenset(covered)
        if covered_set <= universe_set:
            entry = (len(literals), literal_sort_key(literals), literals)
            if covered_set not in best or entry < best[covered_set]:
                best[covered_set] = entry
        for n in sorted(set().union(*covered) - pos):
            if neg and n <= neg[-1]:
                continue
            rest = [s for s in covered if n not in s]
            if rest:
                walk(pos, neg + (n,), rest)

    if mode == MODE_GLOBAL:
        roots = enumerate_cliques(graph)
    else:
        given = [frozenset(c) for c in cliques]
        if not given or set().union(*given) != set(table.primitive_ids):
            raise ValueError("cliques must cover all primitives")
        roots = [pos for pos in enumerate_cliques(graph)
                 if any(pos <= k for k in given)]
    for pos in roots:
        covered = [p.positive_set for p in table.products if pos <= p.positive_set]
        if covered:
            walk(pos, (), covered)

    candidates = tuple(
        Candidate(literal_name(lits), covered, lits, count)
        for covered, (count, _, lits) in sorted(best.items(), key=lambda kv: kv[1])
    )
    instance = CoverInstance(universe, candidates)
    require_coverable(instance)
    return instance


def _rows_by_lowest_bit(instance: CoverInstance, order) -> list[list[tuple]]:
    """Candidates as (index, mask, literal count), filed under their lowest bit.

    Bit i of a mask stands for ``order[i]``.  A search that branches on the
    lowest uncovered bit has every lower bit covered, so only the candidates
    filed under that bit can extend it.  Candidates covering nothing are
    left out.
    """
    bit = {u: i for i, u in enumerate(order)}
    rows: list[list[tuple]] = [[] for _ in order]
    for r, cand in enumerate(instance.candidates):
        mask = sum(1 << bit[e] for e in cand.covered)
        if mask:
            rows[(mask & -mask).bit_length() - 1].append((r, mask, cand.literal_count))
    return rows


def enumerate_exact_covers(instance: CoverInstance):
    """Yield every exact cover as a sorted tuple of candidate indices.

    Serves counting (the benchmark's exact-cover counter) and tests as the
    reference; ``solve_cover_dlx`` does not enumerate.  Knuth's Algorithm X
    over int bitmasks in universe order, branching on the lowest uncovered
    element.
    """
    full = (1 << len(instance.universe)) - 1
    rows = _rows_by_lowest_bit(instance, instance.universe)

    def search(used: int, chosen: tuple):
        if used == full:
            yield tuple(sorted(chosen))
            return
        for r, mask, _ in rows[(~used & (used + 1)).bit_length() - 1]:
            if not mask & used:
                yield from search(used | mask, chosen + (r,))

    yield from search(0, ())


def _element_order(instance: CoverInstance) -> list:
    """Universe elements breadth-first over "shares a candidate".

    A Cuthill-McKee-style order: each component starts from its element in
    the fewest candidates and visits neighbours by (candidate count,
    universe position).  Elements that share candidates get nearby bits,
    so few distinct covered masks arise between the lowest uncovered bit
    and the ones above it.
    """
    position = {u: i for i, u in enumerate(instance.universe)}
    holders = instance.holders

    def rank(u):
        return len(holders[u]), position[u]

    order: list = []
    seen: set = set()
    for root in sorted(instance.universe, key=rank):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for u in queue:
            near = set().union(*(instance.candidates[i].covered for i in holders[u]))
            fresh = sorted(near - seen, key=rank)
            seen.update(fresh)
            queue += fresh
        order += queue
    return order


def require_coverable(instance: CoverInstance) -> None:
    """Raise InfeasibleInstanceError naming the universe elements no candidate covers."""
    if not instance.feasible:
        missing = ", ".join(element_name(u) for u in instance.uncoverable)
        raise InfeasibleInstanceError(f"universe element(s) uncoverable: {missing}")


def solve_cover_dlx(instance: CoverInstance) -> CoverSolution:
    """Smallest exact cover: fewest subsets, then fewest literals, then
    lexicographically smallest candidate index tuple.

    Memoised Algorithm X over int bitmasks, with bits in ``_element_order``:
    ``best(used)`` is the minimum (subsets, literals, sorted indices) over
    the completions of the covered mask ``used``, or None if it has none,
    and each mask is solved once.  Branching is on the lowest uncovered
    bit, as in ``enumerate_exact_covers``.  Memoising keeps the tie-break
    exact: for chosen candidates F and equal-sized completions T, T' that
    are disjoint from F, sorted(F | T) < sorted(F | T') exactly when
    sorted(T) < sorted(T'), since the smallest index in the symmetric
    difference decides both.  Raises ParameterError once more than
    ``COVER_STATE_LIMIT`` masks are solved.  The solver keeps its
    historical name ``dlx`` after Knuth's dancing links.
    """
    require_coverable(instance)
    order = _element_order(instance)
    full = (1 << len(order)) - 1
    rows = _rows_by_lowest_bit(instance, order)

    # Depth-first with an explicit stack, so the depth is not bound by
    # Python's recursion limit.  A mask is pushed once bare and once with
    # its moves; the second copy is popped after every mask it moves to is
    # solved, since all of them were pushed above it.
    best: dict[int, tuple | None] = {full: (0, 0, ())}
    stack: list[tuple[int, list | None]] = [(0, None)]
    while stack:
        used, moves = stack.pop()
        if used in best:
            continue
        if moves is None:
            moves = [(r, lits, used | mask)
                     for r, mask, lits in rows[(~used & (used + 1)).bit_length() - 1]
                     if not mask & used]
            stack.append((used, moves))
            stack += [(nxt, None) for _, _, nxt in moves if nxt not in best]
            continue
        top = None
        for r, lits, nxt in moves:
            rest = best[nxt]
            if rest is not None:
                key = (rest[0] + 1, rest[1] + lits, tuple(sorted((r, *rest[2]))))
                if top is None or key < top:
                    top = key
        best[used] = top
        if len(best) > COVER_STATE_LIMIT:
            raise ParameterError(
                f"exact cover search exceeded COVER_STATE_LIMIT = "
                f"{COVER_STATE_LIMIT} covered-element states on "
                f"{len(order)} universe elements"
            )
    if best[0] is None:
        raise UnsatisfiableError("no exact cover exists for this instance")
    subsets, literals, selected = best[0]
    return CoverSolution(selected, subsets, literals)


def subset_lower_bound(instance: CoverInstance) -> int:
    """Fewest subsets any exact cover of ``instance`` can use.

    Universe elements are taken in order of fewest covering candidates,
    ties in universe order, and an element is kept when no candidate
    covering it covers an element already kept.  No candidate covers two
    kept elements, and every exact cover spends a subset on each, so the
    count of kept elements is a lower bound.  Integer-only, linear in the
    summed candidate sizes apart from one sort of the universe.
    """
    holders = instance.holders
    blocked: set[int] = set()
    kept = 0
    for u in sorted(instance.universe, key=lambda u: len(holders[u])):
        if blocked.isdisjoint(holders[u]):
            blocked.update(holders[u])
            kept += 1
    return kept


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
#   "subsets": [{"name": str, "covers": [...],
#                "literals": optional non-negative int}]}
# ---------------------------------------------------------------------------

def cover_instance_from_dict(obj: dict) -> CoverInstance:
    try:
        universe = tuple(json_array(obj["universe"], "universe"))
        candidates = []
        for k, rec in enumerate(json_array(obj["subsets"], "subsets")):
            if not isinstance(rec, dict):
                raise FileFormatError(
                    f"bad cover instance: subset {k} is not an object"
                )
            literals = rec.get("literals", 0)
            if type(literals) is not int or literals < 0:
                raise ValueError(
                    f"subset {k} literals must be a non-negative integer, "
                    f"got {literals!r}"
                )
            candidates.append(
                Candidate(
                    name=str(rec.get("name", f"S{k}")),
                    covered=frozenset(json_array(rec["covers"], f"subset {k} covers")),
                    literals=None,
                    literal_count=literals,
                )
            )
        return CoverInstance(universe, tuple(candidates))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad cover instance: {exc}") from exc


def load_cover_instance(path) -> CoverInstance:
    return cover_instance_from_dict(read_json(path))


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
