"""Non-empty fundamental products and the candidate-count bounds.

A fundamental product assigns every primitive either itself or its
complement; the non-empty ones are the atomic cells the primitive
arrangement carves out of space.  The cells are found by tabulation:
every primitive draws interior points, and each point is keyed by the
product it lies in (``sign_vector_samples``).  A cell's positive set must
be a clique of the intersection graph (two non-overlapping positives force
the cell empty), so sampled cells whose positive set is not one are
dropped.  The kept cells' points are their witnesses, classified against
the target oracle by the fraction inside: the first ``CLASSIFY_WITNESSES``
of each cell decide it when they agree, and the rest are asked only when
they do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, ParameterError, json_array, json_id, read_json
from .geometry import check_primitive_set, sign_vector_samples
from .graph import IntersectionGraph, clique_sort_key, edges_from_list

LABEL_INSIDE = "inside"
LABEL_OUTSIDE = "outside"
LABEL_MIXED = "mixed"

DEFAULT_PRODUCT_SAMPLES = 2048
# witnesses per cell in the first oracle query; a cell whose first answers
# all agree reads 1.0 or 0.0 without asking the rest
CLASSIFY_WITNESSES = 256
DEFAULT_TAU_IN = 0.95
DEFAULT_TAU_OUT = 0.05
# enumerate_cliques refuses graphs with more cliques than this; it bounds
# the roots of the cover-candidate walk
REGION_LIMIT = 2**12


def product_sort_key(positive_set) -> tuple:
    """Canonical product order: size ascending, then lexicographic ids."""
    return (len(positive_set), tuple(sorted(positive_set)))


@dataclass(frozen=True, eq=False)
class FundamentalProduct:
    """One non-empty cell, identified by its positive set.

    ``samples`` holds the witness points that proved non-emptiness (None
    for abstract instances, where non-emptiness is asserted by the input).
    """

    positive_set: frozenset[str]
    label: str
    inside_fraction: float
    samples: np.ndarray | None = None

    def __post_init__(self):
        if not self.positive_set:
            raise ValueError("a fundamental product needs a non-empty positive set")
        if self.label not in (LABEL_INSIDE, LABEL_OUTSIDE, LABEL_MIXED):
            raise ValueError(f"unknown product label {self.label!r}")
        if self.samples is not None:
            pts = np.asarray(self.samples, dtype=float).reshape(-1, 3)
            if pts.shape[0] == 0:
                raise ValueError("witness sample list must be non-empty")
            pts.setflags(write=False)
            object.__setattr__(self, "samples", pts)


@dataclass(frozen=True, eq=False)
class ProductTable:
    """All non-empty fundamental products plus the inside universe U."""

    primitive_ids: tuple[str, ...]
    products: tuple[FundamentalProduct, ...]

    def __post_init__(self):
        prods = tuple(
            sorted(self.products, key=lambda p: product_sort_key(p.positive_set))
        )
        seen = set()
        for p in prods:
            if p.positive_set in seen:
                raise ValueError(f"duplicate product {sorted(p.positive_set)}")
            if not p.positive_set <= set(self.primitive_ids):
                raise ValueError(
                    f"product {sorted(p.positive_set)} references unknown primitives"
                )
            seen.add(p.positive_set)
        object.__setattr__(self, "primitive_ids", tuple(self.primitive_ids))
        object.__setattr__(self, "products", prods)

    @property
    def n_f(self) -> int:
        return len(self.products)

    @property
    def universe(self) -> tuple[frozenset[str], ...]:
        return tuple(
            p.positive_set for p in self.products if p.label == LABEL_INSIDE
        )

    @property
    def mixed(self) -> tuple[FundamentalProduct, ...]:
        return tuple(p for p in self.products if p.label == LABEL_MIXED)


def enumerate_cliques(graph: IntersectionGraph):
    """All non-empty cliques (not only maximal ones), in canonical order.

    DFS over sorted vertex ids; supersets of non-cliques are never visited.
    Raises ParameterError as soon as the walk passes ``REGION_LIMIT``
    cliques, so k mutually overlapping primitives never build all 2^k - 1.
    """
    order = sorted(graph.vertices)
    out: list[frozenset[str]] = []

    def extend(members: tuple[str, ...], candidates: list[str]) -> None:
        for k, v in enumerate(candidates):
            new = members + (v,)
            out.append(frozenset(new))
            if len(out) > REGION_LIMIT:
                raise ParameterError(
                    f"clique walk exceeded REGION_LIMIT = {REGION_LIMIT} "
                    f"regions on {len(order)} primitives"
                )
            nv = graph.neighbors(v)
            extend(new, [u for u in candidates[k + 1:] if u in nv])

    extend((), order)
    return sorted(out, key=product_sort_key)


def _query(oracle, parts: list[np.ndarray]) -> list[np.ndarray]:
    """One ``oracle.inside`` call over all ``parts``, split back per part."""
    inside = oracle.inside(np.concatenate(parts))
    return np.split(inside, np.cumsum([len(p) for p in parts])[:-1])


def enumerate_products(
    primitives,
    graph: IntersectionGraph,
    oracle,
    samples_per_region: int = DEFAULT_PRODUCT_SAMPLES,
    seed: int = 0,
    tau_in: float = DEFAULT_TAU_IN,
    tau_out: float = DEFAULT_TAU_OUT,
) -> ProductTable:
    """Tabulate the cells that interior samples land in; classify each one.

    The cells are those of ``sign_vector_samples(primitives,
    samples_per_region, seed)`` whose positive set is a clique of
    ``graph``, and each cell's witnesses are its points there, in
    primitive order, then draw order.  They are uniform in the cell, which
    lies inside every positive that drew them.  The all-negative product
    is never sampled.  A cell is found only if a sample of one of its
    positives lands in it.  Mixed cells (inside fraction strictly between
    the thresholds) signal that the primitives do not cleanly describe the
    target; they are kept in the table with the ``mixed`` label and
    surfaced by the pipeline as warnings, not failures.

    Classification asks ``oracle.inside`` at most twice per table.  The
    first query takes the first ``CLASSIFY_WITNESSES`` witnesses of every
    kept cell.  A cell whose answers there all agree reads 1.0 or 0.0.
    Its label can differ from the all-witness one only if its true
    fraction lies across a threshold while the first witnesses, which are
    uniform in the cell, all fall one way; at the default thresholds that
    has probability below 0.95^256 ≈ 2e-6 per cell.  The second query
    takes the remaining witnesses of the cells whose first answers
    disagree, so their fraction is the mean over all their witnesses.
    Raises ParameterError when ``samples_per_region`` is below 1 or the
    thresholds break 0 <= ``tau_out`` < ``tau_in`` <= 1.
    """
    prims = check_primitive_set(primitives)
    ids = tuple(p.pid for p in prims)
    if set(graph.vertices) != set(ids):
        raise ValueError("graph and primitive set disagree")
    if not (0.0 <= tau_out < tau_in <= 1.0):
        raise ParameterError("need 0 <= tau_out < tau_in <= 1")

    cells = sign_vector_samples(prims, samples_per_region, seed)
    kept = [(key, pts) for key, pts in cells.items() if graph.is_clique(key)]
    if not kept:
        return ProductTable(ids, ())
    m = CLASSIFY_WITNESSES
    answers = _query(oracle, [s[:m] for _, s in kept])
    split = [
        k for k, (_, s) in enumerate(kept)
        if len(s) > m and answers[k].any() and not answers[k].all()
    ]
    if split:
        tails = _query(oracle, [kept[k][1][m:] for k in split])
        for k, tail in zip(split, tails):
            answers[k] = np.concatenate([answers[k], tail])
    products = []
    for (positive_set, samples), part in zip(kept, answers):
        frac = float(np.mean(part))
        if frac >= tau_in:
            label = LABEL_INSIDE
        elif frac <= tau_out:
            label = LABEL_OUTSIDE
        else:
            label = LABEL_MIXED
        products.append(
            FundamentalProduct(positive_set, label, frac, samples)
        )
    return ProductTable(ids, tuple(products))


@dataclass(frozen=True)
class CandidateBounds:
    """Upper bounds on the number of cover candidates."""

    global_bound: int                      # 2^n_f - 1
    partitioned_bound: int                 # sum_j (2^n_f^j - 1)
    per_clique_nf: tuple[int, ...]


def candidate_bounds(table: ProductTable, cliques) -> CandidateBounds:
    """Evaluate the global and partitioned candidate bounds.

    ``n_f^j`` counts the table products whose positive set lies inside
    clique j.  Python integers keep the 2^n_f term exact for any n_f.
    """
    global_bound = 2 ** table.n_f - 1
    cliques = sorted((frozenset(c) for c in cliques), key=clique_sort_key)
    if set().union(*cliques) != set(table.primitive_ids):
        raise ValueError("cliques must cover all primitives")
    per = tuple(
        sum(1 for p in table.products if p.positive_set <= c) for c in cliques
    )
    part = sum(2**n - 1 for n in per)
    return CandidateBounds(global_bound, part, per)


# ---------------------------------------------------------------------------
# Abstract-instance JSON: {"primitives": [...], "edges": [...],
#   "products": [{"positives": [...], "inside": bool}]}
# Bypasses geometry entirely for combinatorial tests.
# ---------------------------------------------------------------------------

def abstract_instance_from_dict(obj: dict) -> tuple[IntersectionGraph, ProductTable]:
    try:
        ids = tuple(json_id(v, f"primitive {k}")
                    for k, v in enumerate(json_array(obj["primitives"], "primitives")))
        graph = IntersectionGraph(ids, edges_from_list(obj.get("edges", [])))
        products = []
        for k, rec in enumerate(json_array(obj["products"], "products")):
            positives = frozenset(
                json_id(v, f"product {k} positive {j}")
                for j, v in enumerate(json_array(rec["positives"], f"product {k} positives"))
            )
            inside = rec["inside"]
            if not isinstance(inside, bool):
                raise TypeError(
                    f"product {k} inside must be true or false, got {inside!r}"
                )
            label = LABEL_INSIDE if inside else LABEL_OUTSIDE
            products.append(
                FundamentalProduct(positives, label, 1.0 if inside else 0.0, None)
            )
        table = ProductTable(ids, tuple(products))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad abstract instance: {exc}") from exc
    for p in table.products:
        if not graph.is_clique(p.positive_set):
            raise FileFormatError(
                f"abstract product {sorted(p.positive_set)} is not a clique of the graph"
            )
    return graph, table


def load_abstract_instance(path) -> tuple[IntersectionGraph, ProductTable]:
    return abstract_instance_from_dict(read_json(path))


def table_to_dict(table: ProductTable, graph: IntersectionGraph) -> dict:
    """Serialise a table (plus its graph) so it reloads as an abstract instance."""
    return {
        "primitives": list(table.primitive_ids),
        "edges": [list(e) for e in sorted(graph.edges)],
        "products": [
            {
                "positives": sorted(p.positive_set),
                "inside": p.label == LABEL_INSIDE,
                "label": p.label,
                "inside_fraction": p.inside_fraction,
                "witnesses": 0 if p.samples is None else int(p.samples.shape[0]),
            }
            for p in table.products
        ],
    }
