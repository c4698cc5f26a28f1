#!/usr/bin/env python3
"""Alternating parent/change pairs of ``stagebench`` runs, summarised.

Run from anywhere, with two source checkouts (each with its ``src/`` and
``stagebench/``), for instance the parent commit unpacked by
``git archive`` and the working tree:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload anneal --seed 23 --seconds 8 --pairs 10 --traced-pairs 3 \\
        --claimed "compress_s on anneal" --out BENCH_geometry_kernels.json

Pair i (from 1) runs ``stagebench/run.py --trace 0`` in the parent
checkout first when i is odd and in the change first when i is even, so
slow drift of the machine falls on both sides alike.  Every workload x
end-to-end metric entry of the output holds, per side, the median, the
quartiles q1 and q3 (inclusive method) and the runs in pair order, and
then ``change_vs_parent`` (change median / parent median - 1),
``pairs_change_lower`` (pairs whose change run reads lower) and
``parent_iqr`` (q3 - q1 of the parent's runs).  ``every_run_correct``
is true when every run reads ``correct`` with 0 failed operations.
``--traced-pairs`` adds that many ``--trace 1`` pairs, in the same
alternating order, whose per-layer metrics are listed per side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUNNER = Path("stagebench") / "run.py"
WORKLOADS = ("chain", "grid", "anneal")


def run_order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` (from 1) in the order they run."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def parse_results(stdout: str, workload: str) -> dict[str, dict]:
    """The result object of each workload in one run's standard output.

    A single workload prints its result as the last line; ``all`` prints
    one ``<workload> {...}`` line per workload.
    """
    lines = stdout.strip().splitlines()
    if workload != "all":
        return {workload: json.loads(lines[-1])} if lines else {}
    results = {}
    for line in lines:
        name, _, rest = line.partition(" ")
        if name in WORKLOADS and rest.startswith("{"):
            results[name] = json.loads(rest)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _side(runs: list[float]) -> dict:
    q1, median, q3 = quartiles(runs)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float]) -> dict:
    """One metric's entry from the runs of each side, in pair order."""
    p, c = _side(parent), _side(change)
    ratio = c["median"] / p["median"] - 1.0 if p["median"] else 0.0
    return {
        "parent": p,
        "change": c,
        "change_vs_parent": round(ratio, 4),
        "pairs_change_lower": sum(b < a for a, b in zip(parent, change)),
        "parent_iqr": p["q3"] - p["q1"],
    }


def all_correct(pairs: list[dict[str, dict[str, dict]]]) -> bool:
    """Whether every run of every pair read ``correct`` with 0 failed."""
    return all(
        r["correct"] and r["failed"] == 0
        for pair in pairs for side in pair.values() for r in side.values()
    )


def runs_by_metric(pairs: list[dict[str, dict[str, dict]]]) -> dict:
    """Per workload and metric, each side's values in pair order.

    Each pair maps a side (``parent``, ``change``) to its results by
    workload, as ``parse_results`` returns them.
    """
    return {
        workload: {
            name: {side: [pair[side][workload]["metrics"][name]["value"]
                          for pair in pairs]
                   for side in ("parent", "change")}
            for name in pairs[0]["parent"][workload]["metrics"]
        }
        for workload in pairs[0]["parent"]
    }


def summarise(pairs: list[dict[str, dict[str, dict]]]) -> dict:
    """Per workload and metric, ``compare`` over the pairs."""
    return {
        workload: {name: compare(runs["parent"], runs["change"])
                   for name, runs in metrics.items()}
        for workload, metrics in runs_by_metric(pairs).items()
    }


def _runner_args(args, trace: int) -> list[str]:
    return [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]


def _run(checkout: Path, args, trace: int) -> dict[str, dict]:
    proc = subprocess.run([sys.executable, *_runner_args(args, trace)], cwd=checkout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    results = parse_results(proc.stdout, args.workload)
    if proc.returncode or not results:
        raise SystemExit(f"bench_pairs: {checkout}: exit status {proc.returncode}")
    return results


def _pairs(args, count: int, trace: int) -> list[dict[str, dict[str, dict]]]:
    checkouts = {"parent": args.parent, "change": args.change}
    done = []
    for i in range(1, count + 1):
        done.append({side: _run(checkouts[side], args, trace) for side in run_order(i)})
        print(f"bench_pairs: {'traced ' if trace else ''}pair {i}/{count} done",
              file=sys.stderr)
    return done


def _hardware() -> str:
    import numpy

    return (f"{len(os.sched_getaffinity(0))} CPUs, {platform.system()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed checkout")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced-pairs", type=int, default=0)
    ap.add_argument("--description", default="")
    ap.add_argument("--claimed", default="")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.traced_pairs < 0:
        ap.error("--pairs must be at least 1 and --traced-pairs at least 0")

    untraced = _pairs(args, args.pairs, 0)
    traced = _pairs(args, args.traced_pairs, 1)
    out = {
        "description": args.description,
        "command": "python3 " + " ".join(_runner_args(args, 0)),
        "hardware": _hardware(),
        "pairs": args.pairs,
        "order": "pair i (from 1) runs the parent first when i is odd, "
                 "the change first when i is even",
        "every_run_correct": all_correct(untraced + traced),
        "claimed": args.claimed,
        "end_to_end": summarise(untraced),
    }
    if traced:
        out["traced_command"] = "python3 " + " ".join(_runner_args(args, 1))
        out["traced"] = {"pairs": args.traced_pairs,
                         "note": "per-layer medians over the timed rounds of one "
                                 "traced run per side and pair, in pair order",
                         "layers": runs_by_metric(traced)}
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
