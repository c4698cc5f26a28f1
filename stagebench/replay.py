"""Stage-by-stage replay of ``pipeline.compress`` with a span around each stage.

The replay calls the same public functions as ``compress``, in its order
and with its seed derivation, and records a span (name, start, end,
parent) around each call.  ``compare`` then checks that the replay reached
the report's graph, cells, candidates, selection, tree, solver metadata and
agreement, so the spans describe the computation ``compress`` made.  A
counting proxy around the oracle attributes oracle time and points.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from csgcompress.cover import (
    CoverSolution,
    assemble_tree,
    enumerate_exact_covers,
    generate_candidates,
    solve_cover_dlx,
    verify_cover,
)
from csgcompress.geometry import leaf_count, tree_to_dict
from csgcompress.geometry.sampling import derive_seed
from csgcompress.graph import build_intersection_graph, graph_to_dict, maximal_cliques_bk
from csgcompress.pipeline import PipelineConfig, oracle_agreement, two_level_baseline
from csgcompress.products import candidate_bounds, enumerate_cliques, enumerate_products
from csgcompress.qubo import (
    build_cover_qubo,
    default_schedule,
    selection_from_result,
    solve_exact,
    solve_sa,
)

# Spans directly under the root span "pipeline.compress"; the rest of the
# root span (the report's bookkeeping) is pipeline self time.
STAGE_SPANS = (
    "graph.build", "graph.cliques", "products.enumerate", "cover.candidates",
    "cover.solve", "cover.assemble", "pipeline.evaluate",
)

# Exact covers are counted apart from the timed replay, up to this many.
EXACT_COVER_COUNT_CAP = 10_000_000


@dataclass
class Tracer:
    """In-memory spans: (name, start, end, parent index or -1)."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


class CountingOracle:
    """Oracle proxy recording a ``geometry.oracle`` span and the points of each query."""

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer
        self.points = 0

    def _query(self, method: str, points):
        self.points += len(np.atleast_2d(points))
        with self._tracer.span("geometry.oracle"):
            return getattr(self._oracle, method)(points)

    def inside(self, points):
        return self._query("inside", points)

    def surface_distance(self, points):
        return self._query("surface_distance", points)


@dataclass
class Replay:
    """What one replay computed, plus its spans and work counts."""

    tracer: Tracer
    fields: dict
    counts: dict
    cells: tuple
    instance: object


def replay(prims, oracle, cfg: PipelineConfig, report) -> Replay:
    """Re-run ``compress(prims, oracle, cfg)`` stage by stage.

    ``report`` is that call's report; it decides only whether the exact
    energy-gap check runs, as ``compress`` decides by model size.
    """
    if cfg.clique_method != "bk" or cfg.cover_solver not in ("dlx", "qubo_sa"):
        raise ValueError("replay covers the bk clique method with dlx or qubo_sa")
    tracer = Tracer()
    proxy = CountingOracle(oracle, tracer)
    span = tracer.span
    prims = tuple(prims)
    with span("pipeline.compress"):
        with span("graph.build"):
            graph = build_intersection_graph(
                prims, count=cfg.graph_samples, seed=derive_seed(cfg.seed, 1))
        with span("graph.cliques"):
            cliques = maximal_cliques_bk(graph)
        with span("products.enumerate"):
            table = enumerate_products(
                prims, graph, proxy, samples_per_region=cfg.product_samples,
                seed=derive_seed(cfg.seed, 2), tau_in=cfg.tau_in, tau_out=cfg.tau_out)
        with span("cover.candidates"):
            instance = generate_candidates(table, cliques, graph, cfg.mode)
        with span("cover.solve"):
            solution, meta, proposals = _solve(instance, cfg, report, span)
        with span("cover.assemble"):
            tree = assemble_tree(solution, instance)
        with span("pipeline.evaluate"):
            agreement, used = oracle_agreement(
                tree, prims, proxy, n_points=cfg.agreement_points,
                seed=derive_seed(cfg.seed, 5))
        # compress's report bookkeeping, in its order
        final_tree = assemble_tree(solution, instance)
        if not verify_cover(instance, solution.selected).valid:
            raise ValueError("replayed solver returned a non-cover")
        two_level = leaf_count(two_level_baseline(table, graph))
        bounds = candidate_bounds(table, cliques)

    fields = {
        "graph": graph_to_dict(graph),
        "cliques": tuple(cliques),
        "n_f": table.n_f,
        "universe": table.universe,
        "candidate_count": len(instance.candidates),
        "solver": meta,
        "cover_selected": tuple(instance.candidates[i].name for i in solution.selected),
        "subsets_used": solution.subsets_used,
        "total_literals": solution.total_literals,
        "tree": tree_to_dict(final_tree),
        "leaf_count": leaf_count(final_tree),
        "two_level_leaf_count": two_level,
        "bounds": (bounds.global_bound, bounds.partitioned_bound, bounds.per_clique_nf),
        "oracle_agreement": agreement,
    }
    counts = {
        "geometry.oracle_points": proxy.points,
        "graph.edges": len(graph.edges),
        "graph.maximal_cliques": len(cliques),
        "products.regions": len(enumerate_cliques(graph)),
        "products.cells": table.n_f,
        "products.inside_cells": len(table.universe),
        "cover.candidates": len(instance.candidates),
        "qubo.variables": meta.get("variables", 0),
        "qubo.sa_proposals": proposals,
        "pipeline.evaluate_points": used,
    }
    return Replay(tracer, fields, counts,
                  tuple(p.positive_set for p in table.products), instance)


def _solve(instance, cfg: PipelineConfig, report, span):
    """The cover stage of ``compress``; returns (solution, metadata, SA proposals)."""
    if cfg.cover_solver == "dlx":
        return solve_cover_dlx(instance), {"name": "dlx"}, 0
    b = 1.0 if cfg.penalty_b is None else cfg.penalty_b
    a = cfg.penalty_a
    with span("qubo.build"):
        q, _names = build_cover_qubo(instance, A=a, B=b)
    meta = {
        "name": cfg.cover_solver,
        "variables": len(instance.candidates),
        "penalty_a": a if a is not None else len(instance.universe) * b + 1.0,
        "penalty_b": b,
    }
    sched = cfg.schedule if cfg.schedule is not None else default_schedule(q)
    with span("qubo.sa"):
        result = solve_sa(q, sched, seed=derive_seed(cfg.seed, 4))
    meta.update({"seed": result.seed, "sweeps": result.sweeps, "restarts": result.restarts})
    if "sa_exact_gap" in report.solver:
        with span("qubo.exact_gap"):
            meta["sa_exact_gap"] = result.energy - solve_exact(q).energy
    meta["energy"] = result.energy
    selected = selection_from_result(result)
    if not verify_cover(instance, selected).valid:
        raise ValueError("replayed annealer did not reach an exact cover")
    literals = sum(instance.candidates[i].literal_count for i in selected)
    return (CoverSolution(selected, len(selected), literals), meta,
            result.sweeps * result.restarts)


def count_exact_covers(instance) -> int:
    """Exact covers of the instance (the ones ``solve_cover_dlx`` enumerates)."""
    return sum(1 for _ in itertools.islice(
        enumerate_exact_covers(instance), EXACT_COVER_COUNT_CAP))


def compare(fields: dict, report) -> list[str]:
    """Fields where the replay differs from the ``compress`` report."""
    expected = {
        "graph": report.graph,
        "cliques": tuple(report.cliques),
        "n_f": report.n_f,
        "universe": tuple(report.universe),
        "candidate_count": report.candidate_count,
        "solver": report.solver,
        "cover_selected": tuple(report.cover_selected),
        "subsets_used": report.subsets_used,
        "total_literals": report.total_literals,
        "tree": tree_to_dict(report.tree),
        "leaf_count": report.leaf_count,
        "two_level_leaf_count": report.two_level_leaf_count,
        "bounds": (report.bounds["global"], report.bounds["partitioned"],
                   tuple(report.bounds["per_clique_nf"])),
        "oracle_agreement": report.oracle_agreement,
    }
    return [f"replayed {k} differs from compress()" for k in expected
            if fields[k] != expected[k]]
