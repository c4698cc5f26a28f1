"""Timed rounds of ``compress`` over a workload's scenes.

A run writes the scenes' input files, loads them several times (set-up),
then repeats rounds -- one ``compress`` call per scene -- until the
measuring time is spent.  Round 0 warms caches and is checked but not
timed.  Every report of every round is checked by ``check``.  An untraced
run reports end-to-end metrics; a traced run replays each ``compress`` call
stage by stage right after it and reports per-layer medians.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csgcompress.geometry import (
    CloudOracle,
    TreeOracle,
    load_cloud,
    load_primitives,
    tree_from_dict,
)
from csgcompress.pipeline import PipelineConfig, compress

from . import check, replay
from .scenes import Scene

# --seed varies the inputs only.  A fixed pipeline seed keeps the
# annealer's trajectory, and so its work, the same in every run.
PIPELINE_SEED = 0

# Set-up repeats at least this often and until this much time is spent,
# so the median is steady for sub-millisecond loads as well.
SETUP_REPEATS = 7
SETUP_MIN_S = 0.5
MIN_TIMED_ROUNDS = 3  # untraced runs; traced runs need one

PER_LAYER = {
    "geometry.load_s": "s",
    "geometry.oracle_build_s": "s",
    "geometry.oracle_points": "count",
    "geometry.oracle_s": "s",
    "graph.build_s": "s",
    "graph.edges": "count",
    "graph.cliques_s": "s",
    "graph.maximal_cliques": "count",
    "products.enumerate_s": "s",
    "products.regions": "count",
    "products.cells": "count",
    "products.inside_cells": "count",
    "products.cell_yield": "ratio",
    "cover.candidates_s": "s",
    "cover.candidates": "count",
    "cover.solve_s": "s",
    "cover.exact_covers": "count",
    "cover.assemble_s": "s",
    "qubo.build_s": "s",
    "qubo.variables": "count",
    "qubo.sa_s": "s",
    "qubo.sa_proposals": "count",
    "qubo.sa_ns_per_proposal": "ns",
    "qubo.exact_gap_s": "s",
    "pipeline.evaluate_s": "s",
    "pipeline.evaluate_points": "count",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}

_SPAN_METRICS = {
    "geometry.oracle_s": "geometry.oracle",
    "graph.build_s": "graph.build",
    "graph.cliques_s": "graph.cliques",
    "products.enumerate_s": "products.enumerate",
    "cover.candidates_s": "cover.candidates",
    "cover.solve_s": "cover.solve",
    "cover.assemble_s": "cover.assemble",
    "qubo.build_s": "qubo.build",
    "qubo.sa_s": "qubo.sa",
    "qubo.exact_gap_s": "qubo.exact_gap",
    "pipeline.evaluate_s": "pipeline.evaluate",
}


@dataclass
class Loaded:
    scene: Scene
    prims: tuple
    oracle: object
    cfg: PipelineConfig


def load(paths: dict) -> tuple[tuple, object, float, float]:
    """Load one scene as ``csgc compress`` does: (prims, oracle, load s, build s)."""
    t0 = time.perf_counter()
    prims = load_primitives(paths["primitives"])
    if "cloud" in paths:
        source = load_cloud(paths["cloud"])
    else:
        with open(paths["tree"], "r", encoding="utf-8") as fh:
            source = tree_from_dict(json.load(fh))
    t1 = time.perf_counter()
    oracle = CloudOracle(source) if "cloud" in paths else TreeOracle(source, prims)
    return prims, oracle, t1 - t0, time.perf_counter() - t1


def set_up(scenes, seed: int, workdir: Path):
    """Write the inputs and load them repeatedly; returns (loaded scenes,
    median total s, median load s, median oracle-build s)."""
    rng = np.random.default_rng([seed, 0xC10D])
    paths = [s.write(workdir, rng) for s in scenes]
    totals, loads, builds = [], [], []
    while len(totals) < SETUP_REPEATS or sum(totals) < SETUP_MIN_S:
        loaded, load_s, build_s = [], 0.0, 0.0
        for scene, p in zip(scenes, paths):
            prims, oracle, dl, db = load(p)
            loaded.append(Loaded(scene, prims, oracle,
                                 PipelineConfig(cover_solver=scene.solver, seed=PIPELINE_SEED)))
            load_s += dl
            build_s += db
        totals.append(load_s + build_s)
        loads.append(load_s)
        builds.append(build_s)
    return (loaded, statistics.median(totals), statistics.median(loads),
            statistics.median(builds))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(scenes, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the result object printed as its last line."""
    loaded, setup_s, load_s, build_s = set_up(scenes, seed, workdir)
    problems: list[str] = []
    attempted = failed = 0
    compress_rounds: list[float] = []
    leaves_seen: set[int] = set()
    layer_rounds: list[dict] = []
    exact_covers: dict[int, int] = {}

    start = None
    round_no = 0
    min_rounds = 1 if trace else MIN_TIMED_ROUNDS
    while round_no <= min_rounds or time.perf_counter() - start < seconds:
        total, leaves, layers, complete = 0.0, 0, {}, True
        for k, item in enumerate(loaded):
            attempted += 1
            t0 = time.perf_counter()
            try:
                report = compress(item.prims, item.oracle, item.cfg)
            except Exception:  # a failed operation is counted, the run goes on
                failed += 1
                complete = False
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            total += elapsed
            leaves += report.leaf_count
            rng = np.random.default_rng([seed, round_no, k])
            problems += check.check_report(item.scene, report.to_dict(), rng)
            if trace:
                rep = replay.replay(item.prims, item.oracle, item.cfg, report)
                problems += replay.compare(rep.fields, report)
                problems += check.check_cells(item.scene, rep.cells)
                if k not in exact_covers:
                    exact_covers[k] = replay.count_exact_covers(rep.instance)
                _add_layers(layers, rep, elapsed, exact_covers[k])
        if round_no == 0:
            start = time.perf_counter()
        elif complete:
            compress_rounds.append(total)
            leaves_seen.add(leaves)
            layer_rounds.append(layers)
        round_no += 1

    if compress_rounds:
        print(f"{len(compress_rounds)} timed rounds, compress s per round: "
              + " ".join(f"{t:.4f}" for t in compress_rounds), file=sys.stderr)
    if len(leaves_seen) > 1:
        problems.append(f"tree leaves changed between rounds: {sorted(leaves_seen)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not compress_rounds:
        metrics = {}  # every round had a failed operation
    elif trace:
        metrics = _layer_metrics(layer_rounds, load_s, build_s)
    else:
        metrics = {
            "compress_s": _metric(statistics.median(compress_rounds), "s"),
            "setup_s": _metric(setup_s, "s"),
            "tree_leaves": _metric(min(leaves_seen), "count"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": not problems and bool(compress_rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _add_layers(layers: dict, rep: replay.Replay, compress_s: float, exact_covers: int):
    """Add one replay's layer figures to the round's sums."""
    tracer = rep.tracer
    for metric, span in _SPAN_METRICS.items():
        layers[metric] = layers.get(metric, 0.0) + tracer.seconds(span)
    for metric, count in rep.counts.items():
        layers[metric] = layers.get(metric, 0) + count
    traced = tracer.seconds("pipeline.compress")
    stages = sum(tracer.seconds(s) for s in replay.STAGE_SPANS)
    layers["cover.exact_covers"] = layers.get("cover.exact_covers", 0) + exact_covers
    layers["pipeline.self_s"] = layers.get("pipeline.self_s", 0.0) + traced - stages
    layers["trace.overhead_s"] = (layers.get("trace.overhead_s", 0.0)
                                  + traced - compress_s)


def _layer_metrics(rounds: list[dict], load_s: float, build_s: float) -> dict:
    def median(name):
        return statistics.median(r[name] for r in rounds)

    out = {}
    for name, unit in PER_LAYER.items():
        if name == "geometry.load_s":
            value = load_s
        elif name == "geometry.oracle_build_s":
            value = build_s
        elif name == "products.cell_yield":
            value = median("products.cells") / median("products.regions")
        elif name == "qubo.sa_ns_per_proposal":
            proposals = median("qubo.sa_proposals")
            value = 1e9 * median("qubo.sa_s") / proposals if proposals else 0.0
        else:
            value = median(name)
        out[name] = _metric(value, unit)
    return out
