#!/usr/bin/env python3
"""Stage-level benchmark of csgcompress's ``compress`` pipeline.

Run from the root of a source checkout:

    python3 stagebench/run.py --workload chain --seed 1 --seconds 20 --trace 0

``--workload`` is ``chain``, ``grid``, ``anneal`` or ``all`` (each named
workload in its own process, one after the other).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a replayed run with ``--trace 1``.  The program is
imported from ``src/`` of the checkout; the run exits with status 2 and
prints no result when that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chain", "grid", "anneal")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Run every workload in its own process and print each result line."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit status {proc.returncode}")
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} " + json.dumps(result))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "csgcompress" / "__init__.py").is_file():
        print(f"stagebench: no program source under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    # numpy reads these when it is first imported, below.
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    sys.path[:0] = [str(src), str(ROOT)]
    import csgcompress

    if Path(csgcompress.__file__).resolve().parent != (src / "csgcompress").resolve():
        print(f"stagebench: imported {csgcompress.__file__}, not {src}", file=sys.stderr)
        return 2
    from stagebench import measure, scenes

    workdir = ROOT / "stagebench" / "out"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        result = measure.run(scenes.workload_scenes(args.workload, args.seed),
                             args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
