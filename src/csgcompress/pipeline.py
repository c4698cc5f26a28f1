"""End-to-end compression pipeline, statistics, and reporting.

Stage order: intersection graph -> maximal cliques -> fundamental products
-> cover candidates -> smallest exact cover -> output tree.  Every stage is
deterministic given the master seed (sub-stages derive their own streams),
so a report is reproducible byte for byte apart from its optional
timestamp.  Errors raised inside a stage are re-raised with the stage name
prefixed, which the CLI turns into exit codes.

``compress`` shares ``product_table`` with ``csgc products``, the dispatch
``solve_cover`` with ``csgc cover``, and its cliques, every maximal clique
(``graph.maximal_cliques_bk``), with ``csgc cliques``.  Sample-count and
threshold defaults live in the stage modules, penalty defaults in ``qubo``,
and the agreement point count here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .cover import (
    MODE_PARTITIONED,
    CoverInstance,
    CoverSolution,
    assemble_tree,
    generate_candidates,
    require_coverable,
    solve_cover_dlx,
    subset_lower_bound,
    union_of_conjunctions,
    verify_cover,
)
from .errors import (
    CsgcError, ParameterError, StructuralError, UnsatisfiableError, check_seed,
)
from .geometry import CsgNode, index_primitives, leaf_count, tree_to_dict, tree_value, union_box
from .geometry.sampling import box_points, derive_rng, derive_seed, rejection_sample, scene_diameter
from .graph import (
    DEFAULT_GRAPH_SAMPLES,
    IntersectionGraph,
    build_intersection_graph,
    graph_to_dict,
    maximal_cliques_bk,
)
from .products import (
    DEFAULT_PRODUCT_SAMPLES, DEFAULT_TAU_IN, DEFAULT_TAU_OUT,
    ProductTable, candidate_bounds, enumerate_products,
)
from .qubo import (
    AnnealSchedule,
    build_cover_qubo,
    check_exact_size,
    check_sa_memory,
    cover_penalties,
    selection_from_result,
    solve_exact,
    solve_sa,
)

CONFIG_VERSION = 1
REPORT_SCHEMA_VERSION = 2

COVER_SOLVERS = ("dlx", "qubo_exact", "qubo_sa")

#: off-surface points on which a tree is compared with the oracle
DEFAULT_AGREEMENT_POINTS = 10_000

#: agreement points closer than this fraction of the scene diameter to the
#: tree's surface are too close to call and are skipped
SURFACE_MARGIN_FRAC = 0.01


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of one compression run; defaults are versioned via CONFIG_VERSION.

    ``mode``, ``clique_method``, ``tau_in``, ``tau_out`` and
    ``agreement_points`` are fixed record fields, not knobs: the constructor
    does not take them, and ``compress`` runs their defaults.  They stay so
    that ``to_dict()``, and with it every report's config record, keeps its
    keys and order under CONFIG_VERSION 1.
    """

    mode: str = field(default=MODE_PARTITIONED, init=False)
    cover_solver: str = "dlx"
    clique_method: str = field(default="bk", init=False)
    graph_samples: int = DEFAULT_GRAPH_SAMPLES
    product_samples: int = DEFAULT_PRODUCT_SAMPLES
    seed: int = 0
    tau_in: float = field(default=DEFAULT_TAU_IN, init=False)
    tau_out: float = field(default=DEFAULT_TAU_OUT, init=False)
    penalty_a: float | None = None
    penalty_b: float | None = None
    schedule: AnnealSchedule | None = None
    agreement_points: int = field(default=DEFAULT_AGREEMENT_POINTS, init=False)

    def __post_init__(self):
        if self.cover_solver not in COVER_SOLVERS:
            raise ParameterError(f"unknown cover solver {self.cover_solver!r}")
        if self.graph_samples < 1 or self.product_samples < 1:
            raise ParameterError("sample counts must be >= 1")
        check_seed(self.seed)

    def to_dict(self) -> dict:
        return {"config_version": CONFIG_VERSION, **asdict(self)}


@dataclass(frozen=True)
class CompressionReport:
    """Everything one run produced, renderable as stable JSON or text."""

    config: dict
    graph: dict
    cliques: tuple
    n_f: int
    universe: tuple
    bounds: dict
    candidate_count: int
    solver: dict
    cover_selected: tuple
    subsets_used: int
    total_literals: int
    tree: CsgNode
    leaf_count: int
    two_level_leaf_count: int
    reduction: float
    oracle_agreement: float | None
    warnings: tuple

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config,
            "graph": self.graph,
            "cliques": [sorted(c) for c in self.cliques],
            "n_f": self.n_f,
            "universe": [sorted(u) for u in self.universe],
            "bounds": self.bounds,
            "candidate_count": self.candidate_count,
            "solver": self.solver,
            "cover": {
                "selected": list(self.cover_selected),
                "subsets_used": self.subsets_used,
                "total_literals": self.total_literals,
            },
            "tree": tree_to_dict(self.tree),
            "leaf_count": self.leaf_count,
            "two_level_leaf_count": self.two_level_leaf_count,
            "reduction": self.reduction,
            "oracle_agreement": self.oracle_agreement,
            "warnings": list(self.warnings),
        }


def _staged(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CsgcError as exc:
        exc.stage = name
        exc.args = (f"[{name}] {exc.args[0] if exc.args else exc}",)
        raise


def two_level_baseline(table: ProductTable, graph: IntersectionGraph) -> CsgNode:
    """Union of the inside products, one conjunction per product.

    Each product keeps its positive literals plus a negative literal for
    every primitive adjacent to all positives (dropping any would merge the
    cell with a neighbouring one); always-negative primitives that are
    non-adjacent are elided since they cannot intersect the cell anyway.
    """
    _require_inside_products(table)
    literal_lists = []
    for positive_set in table.universe:
        shared = set.intersection(
            *(set(graph.neighbors(p)) for p in sorted(positive_set))
        ) - positive_set
        literal_lists.append(sorted(
            [(p, True) for p in positive_set] + [(v, False) for v in shared]
        ))
    return union_of_conjunctions(literal_lists)


def oracle_agreement(
    tree: CsgNode,
    primitives,
    oracle,
    n_points: int = DEFAULT_AGREEMENT_POINTS,
    seed: int = 0,
) -> tuple[float, int]:
    """Membership agreement between ``tree`` and ``oracle`` on random points.

    Points are drawn uniformly in the union box padded by 10% per side
    (``box_points``, which keeps each batch (N, 3) and never broadcasts the
    (3,) bounds over it).  Points within ``SURFACE_MARGIN_FRAC`` of the
    scene diameter of the tree's surface are skipped and the oracle is
    asked ``inside`` about the rest; returns (agreement fraction, points
    used).  Over 13% of the padded box lies that far outside every
    primitive, so the cap of 50 * ``n_points`` draws is not reached in
    practice.  Raises ParameterError when ``n_points`` is below 1.
    """
    if n_points < 1:
        raise ParameterError(f"oracle agreement needs n_points >= 1, got {n_points}")
    prims = tuple(primitives)
    by_id = index_primitives(prims)
    lo, hi = union_box(prims)
    pad = 0.1 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    eps = SURFACE_MARGIN_FRAC * scene_diameter(prims)
    rng = derive_rng(seed, 0xE7A1)

    def accept(batch):
        v = tree_value(tree, by_id, batch)
        clear = np.abs(v) > eps
        return batch[clear], v[clear]

    pts, v = rejection_sample(
        lambda n: box_points(rng, lo, hi, n), accept,
        n_points, 50 * n_points,
    )
    truth = oracle.inside(pts)
    return int(np.sum((v < 0) == truth)) / len(pts), len(pts)


def solve_cover(
    instance: CoverInstance,
    solver: str = PipelineConfig.cover_solver,
    *,
    penalty_a: float | None = None,
    penalty_b: float | None = None,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
) -> tuple[CoverSolution, dict]:
    """Smallest exact cover by the named solver; returns (solution, metadata).

    ``dlx`` searches exact covers directly; ``qubo_exact`` and ``qubo_sa``
    minimise the cover QUBO (penalties left as None take ``cover_penalties``'
    defaults).  ``qubo_sa`` runs ``schedule`` (None picks the default);
    nothing re-solves its model, and ``cover_warnings`` checks its cover
    against ``subset_lower_bound`` instead.  An instance with an element no
    candidate covers is refused before any solver runs, and one with more
    candidates than the QUBO solver takes is refused before its model is
    built.  Every selection is verified to be an exact cover.
    """
    if solver not in COVER_SOLVERS:
        raise ParameterError(f"unknown cover solver {solver!r}")
    require_coverable(instance)
    if solver == "dlx":
        solution, meta = solve_cover_dlx(instance), {"name": "dlx"}
    else:
        a, b = cover_penalties(instance, penalty_a, penalty_b)
        if solver == "qubo_exact":
            check_exact_size(len(instance.candidates))
        else:
            check_sa_memory(len(instance.candidates), schedule)
        q, _names = build_cover_qubo(instance, A=a, B=b)
        meta: dict = {"name": solver, "variables": len(instance.candidates),
                      "penalty_a": a, "penalty_b": b}
        if solver == "qubo_exact":
            result = solve_exact(q)
        else:
            result = solve_sa(q, schedule, seed=seed)
            meta.update(
                {"seed": result.seed, "sweeps": result.sweeps,
                 "restarts": result.restarts}
            )
        meta["energy"] = result.energy
        selected = selection_from_result(result)
        literals = sum(instance.candidates[i].literal_count for i in selected)
        solution = CoverSolution(selected, len(selected), literals)

    check = verify_cover(instance, solution.selected)
    if not check.valid:
        short = ", or the schedule is too short" if solver == "qubo_sa" else ""
        raise UnsatisfiableError(
            f"{solver} did not reach an exact cover "
            f"({len(check.uncovered)} uncovered, {len(check.double_covered)} doubly "
            f"covered); no cover may exist{short}"
        )
    return solution, meta


def cover_warnings(instance: CoverInstance, solution: CoverSolution,
                   solver: str) -> list[str]:
    """Why a ``solver`` cover of ``instance`` may not be the smallest.

    Only ``qubo_sa`` can return a larger exact cover than the minimum.  It
    is flagged when it uses more subsets than ``subset_lower_bound`` proves
    necessary; where that bound is below the minimum, a smallest cover is
    flagged too.
    """
    if solver != "qubo_sa":
        return []
    bound = subset_lower_bound(instance)
    if solution.subsets_used <= bound:
        return []
    return [
        f"qubo_sa cover uses {solution.subsets_used} subsets, above the lower "
        f"bound of {bound}; it may not be the smallest"
    ]


def _require_inside_products(table: ProductTable) -> None:
    if not table.universe:
        raise UnsatisfiableError(
            "no fundamental product lies inside the target solid; "
            "the primitives do not describe it"
        )


def _compress_from_table(
    cfg: PipelineConfig,
    graph: IntersectionGraph,
    table: ProductTable,
    prims=None,
    oracle=None,
) -> CompressionReport:
    """Every stage after the product table, from the cliques to the report.

    With an ``oracle`` the tree is also evaluated against it over ``prims``.
    """
    cliques = _staged("cliques", maximal_cliques_bk, graph)
    warnings = [
        f"product {'&'.join(sorted(p.positive_set))} is mixed "
        f"(inside fraction {p.inside_fraction:.3f}); treated as outside"
        for p in table.mixed
    ]
    _staged("products", _require_inside_products, table)
    instance = _staged("candidates", generate_candidates, table, cliques, graph)
    solution, solver_meta = _staged(
        "cover",
        solve_cover,
        instance,
        cfg.cover_solver,
        penalty_a=cfg.penalty_a,
        penalty_b=cfg.penalty_b,
        schedule=cfg.schedule,
        seed=derive_seed(cfg.seed, 4),
    )
    warnings.extend(cover_warnings(instance, solution, cfg.cover_solver))
    tree = _staged("assemble", assemble_tree, solution, instance)
    agreement = None
    if oracle is not None:
        agreement, _used = _staged(
            "evaluate",
            oracle_agreement,
            tree,
            prims,
            oracle,
            n_points=cfg.agreement_points,
            seed=derive_seed(cfg.seed, 5),
        )
        if agreement < 0.999:
            warnings.append(
                f"assembled tree agrees with the oracle on only {agreement:.2%} "
                "of off-surface points"
            )
    leaves = leaf_count(tree)
    if leaves != solution.total_literals:
        raise StructuralError(
            f"internal error: the tree has {leaves} leaves but the cover "
            f"counts {solution.total_literals} literals"
        )
    two_level = leaf_count(two_level_baseline(table, graph))
    bounds = candidate_bounds(table, cliques)
    return CompressionReport(
        config=cfg.to_dict(),
        graph=graph_to_dict(graph),
        cliques=tuple(cliques),
        n_f=table.n_f,
        universe=table.universe,
        bounds={
            "global": bounds.global_bound,
            "partitioned": bounds.partitioned_bound,
            "per_clique_nf": list(bounds.per_clique_nf),
        },
        candidate_count=len(instance.candidates),
        solver=solver_meta,
        cover_selected=tuple(
            instance.candidates[i].name for i in solution.selected
        ),
        subsets_used=solution.subsets_used,
        total_literals=solution.total_literals,
        tree=tree,
        leaf_count=leaves,
        two_level_leaf_count=two_level,
        reduction=1.0 - leaves / two_level,
        oracle_agreement=agreement,
        warnings=tuple(warnings),
    )


def product_table(
    primitives, oracle, cfg: PipelineConfig = PipelineConfig()
) -> tuple[IntersectionGraph, ProductTable]:
    """The sampling stages: the intersection graph and the classified products."""
    prims = tuple(primitives)
    graph = _staged("graph", build_intersection_graph, prims,
                    count=cfg.graph_samples, seed=derive_seed(cfg.seed, 1))
    table = _staged("products", enumerate_products, prims, graph, oracle,
                    samples_per_region=cfg.product_samples,
                    seed=derive_seed(cfg.seed, 2),
                    tau_in=cfg.tau_in, tau_out=cfg.tau_out)
    return graph, table


def compress(primitives, oracle, cfg: PipelineConfig = PipelineConfig()) -> CompressionReport:
    """Full geometric pipeline: primitives + oracle -> compressed CSG tree."""
    prims = tuple(primitives)
    graph, table = product_table(prims, oracle, cfg)
    return _compress_from_table(cfg, graph, table, prims, oracle)


def compress_abstract(
    graph: IntersectionGraph,
    table: ProductTable,
    cfg: PipelineConfig = PipelineConfig(),
) -> CompressionReport:
    """Combinatorial pipeline over an abstract instance (no geometry).

    The exactness of the output is checked structurally: the selected
    candidates must partition the universe, which in abstract mode *is*
    the semantics of the tree.
    """
    return _compress_from_table(cfg, graph, table)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def report_stats(
    report: CompressionReport, fmt: str = "json", timestamp: str | None = None
) -> str:
    """Render a report as versioned JSON (stable field order) or as text."""
    data = report.to_dict()
    if timestamp is not None:
        data = {"schema_version": data["schema_version"], "timestamp": timestamp,
                **{k: v for k, v in data.items() if k != "schema_version"}}
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    if fmt != "text":
        raise ParameterError(f"unknown report format {fmt!r}")
    lines = [
        f"primitives        : {len(report.graph['vertices'])}",
        f"graph edges       : {len(report.graph['edges'])}",
        f"maximal cliques   : {len(report.cliques)}"
        f" {[''.join(sorted(c)) for c in report.cliques]}",
        f"products (n_f)    : {report.n_f}",
        f"inside products   : {len(report.universe)}",
        f"bound global      : {report.bounds['global']}",
        f"bound partitioned : {report.bounds['partitioned']}",
        f"candidates |V|    : {report.candidate_count}",
        f"cover solver      : {report.solver['name']}",
        f"cover             : {report.subsets_used} subsets, "
        f"{report.total_literals} literals -> {list(report.cover_selected)}",
        f"leaf count        : {report.leaf_count}",
        f"two-level leaves  : {report.two_level_leaf_count}",
        f"reduction         : {report.reduction:.1%}",
        f"oracle agreement  : "
        + ("n/a" if report.oracle_agreement is None else f"{report.oracle_agreement:.4f}"),
        f"warnings          : {list(report.warnings)}",
    ]
    return "\n".join(lines) + "\n"
