#!/usr/bin/env python3
"""Time-to-solution of the annealer's schedules on the cover QUBOs.

Run from the root of a source checkout:

    python3 tools/sa_tts.py --out BENCH_sa_schedule.json

The instances are the cover QUBOs of the ``stagebench`` scenes: the
reference scene and the 6-sphere chain of the ``anneal`` workload, plus
chains of 12 to 24 spheres.  Each is built from the scene's known cells,
overlaps and inside cells, as ``csgc compress --abstract`` reads them, so
it is the QUBO ``compress`` builds whenever its sampling finds the cells.
The optimum is the energy of ``solve_cover_dlx``'s selection.

For every point of the grid (sweeps = f * n for f in ``SWEEPS_PER_VARIABLE``,
restarts in ``RESTARTS``), and for the current ``default_schedule``, the
tool reports

* per-restart success p: the share of restarts, over ``SEEDS`` seeds,
  whose best energy is the optimum;
* how many seeds' runs reach the optimum;
* t_run, the median wall time of ``REPEATS`` ``solve_sa`` calls, and
  t_run_rel, its ratio to the default point's t_run.  Each of the
  ``REPEATS`` rounds times every point of the instance once, so machine
  drift between rounds moves every point alike and the ratios compare
  points under the same conditions;
* p_run = 1 - (1 - p)^R and TTS99, the expected time to reach the optimum
  with 99% probability by repeating the run (``tts99``).

``choose`` picks a point only where a one-sided 95% lower bound on p_run
clears ``TARGET`` (``p_run_lower``), so that sampling noise in p does not
decide the pick.

A run draws its restarts' proposals as consecutive rows of one random
stream, so a run of R restarts is the first R restarts of a wider run
with the same seed.  The tool therefore anneals each (instance, sweeps,
seed) once, at the widest grid restarts whose proposals fit in
``TABLE_BUDGET``, and reads narrower runs off its prefix; wider points are
reported as over the budget.  Keys of an
existing output file that the tool does not write are kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from csgcompress import qubo  # noqa: E402
from csgcompress.cover import generate_candidates, solve_cover_dlx  # noqa: E402
from csgcompress.pipeline import PipelineConfig, find_cliques  # noqa: E402
from csgcompress.products import abstract_instance_from_dict  # noqa: E402
from stagebench import scenes  # noqa: E402

SWEEPS_PER_VARIABLE = (10, 20, 30, 50, 100, 300, 1000)
RESTARTS = (32, 64, 128, 256, 512)
CHAINS = (12, 16, 20, 24)
# The instances the default must solve on every seed (tests/test_qubo.py
# checks the same three); the larger chains are recorded, not required.
GUARDED = ("reference", "chain6", "chain12")
TARGET = 0.99  # the success probability TTS is quoted for
Z_95 = 1.6448536269514722  # one-sided 95% quantile of the standard normal
SEEDS = 8
REPEATS = 3  # timed solve_sa calls per point
# Largest working set (``qubo.sa_table_bytes``) one measuring run may
# hold: 1000 n x 512 restarts would take 0.9 GiB on chain24.
TABLE_BUDGET = 256 * 2**20
MEMORY_CHAIN = 40  # chain whose default run's memory is recorded (195 variables)


def tts99(t_run: float, p_run: float) -> float:
    """Expected time to reach the optimum with probability 0.99.

    A run of ``t_run`` seconds reaches it with probability ``p_run``, so
    ln(0.01) / ln(1 - p_run) independent runs, and never fewer than one,
    reach it with probability 0.99.  A run that never succeeds gives inf.
    """
    if p_run >= 1.0:
        return t_run
    if p_run <= 0.0:
        return math.inf
    return t_run * max(1.0, math.log(1.0 - TARGET) / math.log1p(-p_run))


def run_success(p: float, restarts: int) -> float:
    """Probability that at least one of ``restarts`` independent restarts succeeds."""
    return 1.0 - (1.0 - p) ** restarts


def wilson_lower(p: float, trials: int) -> float:
    """One-sided 95% Wilson score lower bound on a success rate p observed
    over ``trials``; 0 when nothing was tried."""
    if trials <= 0:
        return 0.0
    z2 = Z_95 * Z_95 / trials
    centre = p + z2 / 2.0
    margin = Z_95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials))
    return max(0.0, (centre - margin) / (1.0 + z2))


def p_run_lower(record: dict) -> float:
    """One-sided 95% lower bound on a curve record's p_run.

    The Wilson bound on ``p_restart`` over ``restarts_sampled`` restarts,
    carried through ``run_success`` at the record's restarts.
    """
    p_low = wilson_lower(record["p_restart"], record["restarts_sampled"])
    return run_success(p_low, record["restarts"])


def cover_qubo(scene: scenes.Scene):
    """The scene's cover QUBO and the energy of the smallest exact cover."""
    inside = scene.inside_cells()
    graph, table = abstract_instance_from_dict({
        "primitives": list(scene.ids),
        "edges": [list(e) for e in sorted(scene.edges())],
        "products": [{"positives": sorted(c), "inside": c in inside}
                     for c in scene.cells],
    })
    instance = generate_candidates(table, find_cliques(graph), graph,
                                   PipelineConfig.mode)
    q, _names = qubo.build_cover_qubo(instance)
    selected = set(solve_cover_dlx(instance).selected)
    return q, qubo.qubo_energy(q, [int(i in selected) for i in range(q.n)])


def instances() -> dict:
    """Name -> scene of every measured instance; scene geometry is seed-free."""
    rng = np.random.default_rng([0, 0x5CE7E])
    found = {s.name: s for s in scenes.workload_scenes("anneal", 0)}
    for n in CHAINS:
        s = scenes.chain_scene(rng, n, "tree", "qubo_sa")
        found[s.name] = s
    return found


def reached(q, schedule, seed: int, optimum: float) -> np.ndarray:
    """Whether each restart of ``solve_sa(q, schedule, seed)`` reaches ``optimum``."""
    best_E, _bits = qubo._anneal(q, schedule, seed)
    return best_E <= optimum + 1e-9 * max(1.0, abs(optimum))


def seeds_reached(hits: np.ndarray, restarts: int) -> int:
    """Seeds whose first ``restarts`` restarts include a success (rows are seeds)."""
    return int(np.count_nonzero(hits[:, :restarts].any(axis=1)))


def median_times(q, schedules: dict) -> dict:
    """Median wall time of one ``solve_sa`` call per schedule, over
    ``REPEATS`` rounds that each time every schedule once."""
    times = {key: [] for key in schedules}
    for _ in range(REPEATS):
        for key, schedule in schedules.items():
            t0 = time.perf_counter()
            qubo.solve_sa(q, schedule, seed=0)
            times[key].append(time.perf_counter() - t0)
    return {key: statistics.median(t) for key, t in times.items()}


def curve(q, optimum: float, points, default) -> list:
    """One record per (sweeps per variable, restarts) point; ``default``
    is the point every t_run_rel is relative to."""
    t_start = qubo.default_schedule(q).t_start
    fit = {(f, r): qubo.AnnealSchedule(t_start, 0.01, f * q.n, r)
           for f, r in sorted(points)
           if qubo.sa_table_bytes(q.n, f * q.n, r) <= TABLE_BUDGET}
    hits = {}
    for f in sorted({f for f, _ in fit}):
        wide = fit[f, max(r for g, r in fit if g == f)]
        hits[f] = np.array([reached(q, wide, s, optimum) for s in range(SEEDS)])
    t_run = median_times(q, fit)
    records = []
    for f, r in sorted(points):
        rec = {"sweeps_per_variable": f, "restarts": r,
               "table_mib": round(qubo.sa_table_bytes(q.n, f * q.n, r) / 2**20, 2)}
        if (f, r) not in fit:
            rec["skipped"] = "working set above TABLE_BUDGET"
            records.append(rec)
            continue
        p = float(hits[f].mean())
        p_run = run_success(p, r)
        tts = tts99(t_run[f, r], p_run)
        rec.update({
            "p_restart": round(p, 5),
            "restarts_sampled": int(hits[f].size),
            "seeds_reached": seeds_reached(hits[f], r),
            "seeds": SEEDS,
            "t_run_s": round(t_run[f, r], 5),
            "t_run_rel": round(t_run[f, r] / t_run[default], 4),
            "p_run": round(p_run, 6),
            "tts99_s": round(tts, 5) if math.isfinite(tts) else "not reached",
        })
        records.append(rec)
    return records


def choose(curves: dict) -> dict | None:
    """The grid point of least summed t_run over the ``GUARDED`` instances,
    among those where each guarded instance reached the optimum on every
    seed and a one-sided 95% lower bound on the probability that one run
    reaches it (``p_run_lower``) is at least ``TARGET``, so that a single
    run is its own TTS99.  None if no point qualifies."""
    best = None
    for f in SWEEPS_PER_VARIABLE:
        for r in RESTARTS:
            recs = [next(x for x in curves[name]
                         if (x["sweeps_per_variable"], x["restarts"]) == (f, r))
                    for name in GUARDED]
            if any("skipped" in x or x["seeds_reached"] < x["seeds"]
                   or p_run_lower(x) < TARGET for x in recs):
                continue
            cost = sum(x["t_run_s"] for x in recs)
            if best is None or cost < best[0]:
                best = (cost, f, r)
    if best is None:
        return None
    return {"sweeps_per_variable": best[1], "restarts": best[2],
            "guarded_t_run_s": round(best[0], 5)}


def default_memory(q) -> dict:
    """Table bytes and ``tracemalloc`` peak of one default ``solve_sa`` run."""
    sched = qubo.default_schedule(q)
    tracemalloc.start()
    try:
        qubo.solve_sa(q, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"variables": q.n,
            "table_mib": round(
                qubo.sa_table_bytes(q.n, sched.sweeps, sched.restarts) / 2**20, 2),
            "tracemalloc_peak_mib": round(peak / 2**20, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_sa_schedule.json")
    args = ap.parse_args(argv)

    result = {}
    curves = {}
    for name, scene in instances().items():
        q, optimum = cover_qubo(scene)
        d = qubo.default_schedule(q)
        default = (d.sweeps // q.n, d.restarts)
        points = {(f, r) for f in SWEEPS_PER_VARIABLE for r in RESTARTS} | {default}
        t0 = time.perf_counter()
        curves[name] = curve(q, optimum, points, default)
        print(f"{name}: {q.n} variables, {time.perf_counter() - t0:.1f} s",
              file=sys.stderr, flush=True)
        result[name] = {
            "variables": q.n,
            "optimum_energy": optimum,
            "default": next(x for x in curves[name]
                            if (x["sweeps_per_variable"], x["restarts"]) == default),
            "curve": curves[name],
        }
    q40, _ = cover_qubo(scenes.chain_scene(np.random.default_rng(0), MEMORY_CHAIN,
                                           "tree", "qubo_sa"))
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.update({
        "tool": "python3 tools/sa_tts.py " + " ".join(argv or sys.argv[1:]),
        "hardware": f"{len(os.sched_getaffinity(0))} CPUs, "
                    f"{platform.system()}, Python {platform.python_version()}, "
                    f"numpy {np.__version__}",
        "seeds": SEEDS,
        "target": TARGET,
        "guarded": list(GUARDED),
        "default_schedule": {
            "sweeps_per_variable": default[0], "restarts": default[1]},
        "chosen": choose(curves),
        "instances": result,
        f"chain{MEMORY_CHAIN}_default_memory": default_memory(q40),
    })
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out["chosen"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
