"""Independent correctness checks of a compression report.

The checks read only the report's plain-data form (``report.to_dict()``)
and compare it with facts the scene generator knows from its own geometry:

- membership: the output tree and the generating solid, both evaluated with
  ``scenes``' own signed distances, agree on random points away from every
  primitive surface;
- cells: the overlap graph, the number of non-empty cells and the inside
  cells equal the scene's (``check_cells`` compares the full cell set when
  the product table is at hand);
- partition: the selected conjunctions cover every inside cell exactly once
  and no outside cell;
- optimum: with an exact cover solver, (subsets, literals) equals the
  scene's known optimum.

The report's own ``oracle_agreement`` is not used: it compares the tree
with the approximate cloud oracle, not with the solid.
"""

from __future__ import annotations

import numpy as np

from .scenes import Scene, cell_inside, evaluate

EXACT_SOLVERS = ("dlx",)

_POINTS_PER_PRIM = 2000
_POINTS_IN_BOX = 4000
_SURFACE_MARGIN = 1e-3  # share of the scene diagonal kept clear of every surface


def parse_conjunction(name: str) -> list[tuple[str, bool]]:
    """Literals of a candidate name such as ``"P01&!P00"``."""
    return [(lit[1:], False) if lit.startswith("!") else (lit, True)
            for lit in name.split("&")]


def covers(literals, cell: frozenset) -> bool:
    return all((pid in cell) == positive for pid, positive in literals)


def leaf_total(tree: dict) -> int:
    if tree["op"] == "prim":
        return 1
    return sum(leaf_total(c) for c in tree["children"])


def membership_points(scene: Scene, rng: np.random.Generator) -> np.ndarray:
    """Random points in every primitive's box and in the padded scene box,
    minus those within the margin of any primitive surface."""
    boxes = [p.bounds() for p in scene.prims]
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    pad = 0.1 * (hi - lo)
    pts = np.vstack(
        [rng.uniform(lo - pad, hi + pad, size=(_POINTS_IN_BOX, 3))]
        + [rng.uniform(b_lo, b_hi, size=(_POINTS_PER_PRIM, 3)) for b_lo, b_hi in boxes]
    )
    margin = _SURFACE_MARGIN * float(np.linalg.norm(hi - lo))
    clear = np.all([np.abs(p.sdf(pts)) > margin for p in scene.prims], axis=0)
    return pts[clear]


def check_membership(scene: Scene, tree: dict, rng: np.random.Generator) -> list[str]:
    pts = membership_points(scene, rng)
    inside = {p.pid: p.sdf(pts) < 0 for p in scene.prims}
    try:
        got = evaluate(tree, inside)
    except KeyError as exc:
        return [f"output tree names unknown primitive {exc}"]
    wrong = int(np.count_nonzero(got != evaluate(scene.target, inside)))
    if wrong:
        return [f"output tree differs from the solid on {wrong} of {len(pts)} points"]
    return []


def check_cells(scene: Scene, cells) -> list[str]:
    """Compare a full set of non-empty cells with the scene's."""
    cells = {frozenset(c) for c in cells}
    problems = []
    if cells - scene.cells:
        problems.append(f"spurious cells {sorted(map(sorted, cells - scene.cells))}")
    if scene.cells - cells:
        problems.append(f"missing cells {sorted(map(sorted, scene.cells - cells))}")
    return problems


def check_report(scene: Scene, report: dict, rng: np.random.Generator) -> list[str]:
    """All problems found in one report; an empty list means it passed."""
    problems = []
    edges = {tuple(e) for e in report["graph"]["edges"]}
    if edges != set(scene.edges()):
        problems.append(f"overlap graph {sorted(edges)} != {sorted(scene.edges())}")
    # Every cell the program keeps is a clique of its graph, and every
    # clique of the scene's graph is a cell, so with equal graphs equal
    # counts mean equal cell sets.
    if report["n_f"] != len(scene.cells):
        problems.append(f"{report['n_f']} non-empty cells, expected {len(scene.cells)}")
    universe = {frozenset(u) for u in report["universe"]}
    if universe != scene.inside_cells():
        problems.append(
            f"inside cells {sorted(map(sorted, universe))} != "
            f"{sorted(map(sorted, scene.inside_cells()))}"
        )

    selected = [parse_conjunction(name) for name in report["cover"]["selected"]]
    for cell in sorted(scene.cells, key=sorted):
        hits = sum(covers(lits, cell) for lits in selected)
        want = 1 if cell_inside(scene.target, cell, scene.ids) else 0
        if hits != want:
            problems.append(f"cell {'&'.join(sorted(cell))} covered {hits} times, want {want}")
    literals = sum(len(lits) for lits in selected)
    leaves = leaf_total(report["tree"])
    counted = (report["cover"]["subsets_used"], report["cover"]["total_literals"],
               report["leaf_count"])
    if counted != (len(selected), literals, leaves):
        problems.append(f"report counts {counted} != recount {(len(selected), literals, leaves)}")
    if scene.solver in EXACT_SOLVERS and scene.optimum is not None \
            and (len(selected), literals) != scene.optimum:
        problems.append(f"cover {(len(selected), literals)} is not the optimum {scene.optimum}")

    problems += check_membership(scene, report["tree"], rng)
    return [f"{scene.name}: {p}" for p in problems]
